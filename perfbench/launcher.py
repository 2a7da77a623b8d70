"""Run ``python -m repro.server`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/launcher.py SPANS_PATH [server arguments...]``
with ``src`` on ``PYTHONPATH``.  The server runs exactly as the plain
``repro.server`` command line would; when it stops (SIGTERM), the spans
recorded in this process are written to ``SPANS_PATH`` as JSON.
"""

from __future__ import annotations

import sys

import tracing


def main(argv: list[str]) -> int:
    spans_path, server_args = argv[0], argv[1:]
    import repro.incremental.answers  # noqa: F401 — bind targets before wrapping
    import repro.locality.neighborhoods  # noqa: F401
    import repro.server.cli
    from repro.server.http import _Handler

    tracing.install()
    traced_post = _Handler.do_POST

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        tracing.set_op(self.headers.get("X-Bench-Op"))
        try:
            traced_post(self)
        finally:
            tracing.set_op(None)

    _Handler.do_POST = do_POST
    try:
        return repro.server.cli.main(server_args)
    finally:
        tracing.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
