"""The repository benchmark: one command, four seeded workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload prepared-read --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the traced run: it measures an untraced window and a
traced window of ``--seconds / 2`` each, in two fresh system processes,
and reports the per-layer metrics (see ``perfbench/README.md``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run also
appends a record to ``.perfbench/trajectory.jsonl``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import http_workloads
from layers import LAYER_METRICS, layer_metrics
from measure import mix_median, percentile

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent

WORKLOADS = ("prepared-read", "adhoc-read", "update-mix", "bounded-degree")

#: System processes per untraced run.  Session k serves the inputs of
#: seed ``SESSIONS * seed + k`` for ``--seconds / SESSIONS``; ``setup_s``
#: is the median set-up and the other metrics pool the sessions, which
#: averages out variation between processes.
SESSIONS = 3
#: Rounds at the start of each window over which exact counters are taken.
COUNT_ROUNDS = {"prepared-read": 3, "adhoc-read": 3, "update-mix": 3, "bounded-degree": 1}
#: Seconds one round takes at the seed commit on a 2-core machine.  A
#: window of s seconds runs s / ROUND_SECONDS rounds (at least the
#: counted ones) and stops early after 2·s.
ROUND_SECONDS = {"prepared-read": 0.55, "adhoc-read": 1.4, "update-mix": 0.9, "bounded-degree": 3.0}
#: Graph size of the bounded-degree workload.
BOUNDED_DEGREE_N = 250

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Tail and op-type latencies, reported per layer from the untraced window
#: of the traced run (each is 0 on workloads without that op type).  They
#: carry no bound: their spread between runs tracks the host's speed, which
#: moved the ten-run spread of op_p95_ms on update-mix to 0.25.
OP_LATENCIES = {
    "op_p95_ms": ("op", 0.95),
    "read_p50_ms": ("read", 0.5),
    "read_p95_ms": ("read", 0.95),
    "batch_p50_ms": ("batch", 0.5),
    "update_p50_ms": ("update", 0.5),
    "update_p95_ms": ("update", 0.95),
    "ttfa_p50_ms": ("ttfa", 0.5),
    "delay_p95_us": ("delay", 0.95),
}

PER_LAYER = list(OP_LATENCIES) + list(LAYER_METRICS)

UNITS = {
    **END_TO_END,
    **{name: name.rpartition("_")[2] for name in OP_LATENCIES},
    **{name: spec[0] for name, spec in LAYER_METRICS.items()},
}


# -- sessions ----------------------------------------------------------------


def limits(name: str, seconds: float) -> dict:
    """The rounds, time cap and counted rounds of a ``seconds`` window."""
    return {
        "rounds": max(COUNT_ROUNDS[name], round(seconds / ROUND_SECONDS[name])),
        "cap_seconds": 2 * seconds,
        "count_rounds": COUNT_ROUNDS[name],
    }


def http_session(name: str, seed: int, seconds: float, spans_path: Path | None = None) -> dict:
    workload = http_workloads.WORKLOADS[name](seed)
    result = http_workloads.session(workload, ROOT, limits(name, seconds), spans_path)
    workload.check(result["records"])
    records = []
    for record in result["records"]:
        returned, sorted_rows = http_workloads.rows_returned(record)
        records.append({
            "op": record["op"],
            "kind": record["spec"]["kind"],
            "name": op_name(record["spec"]),
            "latency_ms": record["latency_ms"],
            "bytes": record["bytes"],
            "rows_returned": returned,
            "rows_sorted": sorted_rows,
            "ok": record["ok"],
        })
    result["records"] = records
    return result


def op_name(spec: dict) -> str:
    """The op type of an HTTP request: its query, or its kind."""
    check = spec["check"]
    return check.get("query", spec["kind"]) if isinstance(check, dict) else spec["kind"]


def bd_session(seed: int, seconds: float, spans_path: Path | None = None) -> dict:
    """Start the bounded-degree child, time its set-up, run its window."""
    config = {
        "seed": seed,
        "n": BOUNDED_DEGREE_N,
        "spans": str(spans_path) if spans_path else None,
        **limits("bounded-degree", seconds),
    }
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "bd_child.py"), json.dumps(config)],
        cwd=ROOT,
        env=http_workloads.server_env(ROOT),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = process.stdout.readline()
        setup_s = time.perf_counter() - started
        if line.strip() != "ready":
            raise RuntimeError(f"bounded-degree process did not start: {line!r}")
        output, _ = process.communicate("go\n", timeout=170)
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"bounded-degree process exited with {process.returncode}")
    result = json.loads(output.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def session(name: str, seed: int, seconds: float, spans_path: Path | None = None) -> dict:
    if name == "bounded-degree":
        return bd_session(seed, seconds, spans_path)
    return http_session(name, seed, seconds, spans_path)


# -- metrics -----------------------------------------------------------------


def samples(result: dict) -> dict[str, list[float]]:
    """Latency samples by op type; failed ops count as ``inf``."""
    inf = float("inf")
    out: dict[str, list[float]] = {"op": [], "ttfa": [], "delay": []}
    for record in result["records"]:
        latency = record["latency_ms"] if record["ok"] else inf
        out["op"].append(latency)
        out.setdefault(record["kind"], []).append(latency)
        if record["kind"] == "enumerate":
            out["ttfa"].append(record["ttfa_ms"] if record["ok"] else inf)
            out["delay"].extend(record["delays_us"])
    return out


def op_types(result: dict) -> list[list[float]]:
    """Latency samples per op type (kind and query); failed ops are ``inf``."""
    groups: dict[tuple[str, str], list[float]] = {}
    for record in result["records"]:
        latency = record["latency_ms"] if record["ok"] else float("inf")
        groups.setdefault((record["kind"], record["name"]), []).append(latency)
    return list(groups.values())


def ops_per_s(result: dict) -> float:
    return sum(r["ok"] for r in result["records"]) / result["elapsed"]


def pooled(results: list[dict]) -> dict:
    """One result from several sessions of the same inputs."""
    return {
        "records": [record for result in results for record in result["records"]],
        "elapsed": sum(result["elapsed"] for result in results),
        "setup_s": statistics.median(result["setup_s"] for result in results),
        "peak_rss_mb": statistics.fmean(result["peak_rss_mb"] for result in results),
    }


def end_to_end(result: dict) -> dict[str, float]:
    return {
        "setup_s": result["setup_s"],
        "ops_per_s": ops_per_s(result),
        "op_p50_ms": mix_median(op_types(result)),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def op_latencies(result: dict) -> dict[str, float]:
    by_kind = samples(result)
    return {
        name: percentile(by_kind.get(kind, []), q) for name, (kind, q) in OP_LATENCIES.items()
    }


def sample_counts(result: dict) -> dict[str, int]:
    return {kind: len(values) for kind, values in samples(result).items()}


# -- the run -----------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result line, trajectory extras) for one benchmark run."""
    OUT.mkdir(exist_ok=True)
    if not trace:
        sessions = [
            session(name, seed * SESSIONS + part, seconds / SESSIONS) for part in range(SESSIONS)
        ]
        result = pooled(sessions)
        metrics = end_to_end(result)
        extras = {
            "setup_samples_s": [s["setup_s"] for s in sessions],
            "op_latencies": op_latencies(result),
            "counts": [s["counts"] for s in sessions],
        }
    else:
        plain = session(name, seed * SESSIONS, seconds / 2)
        spans_path = OUT / f"spans-{name}-{seed}.json"
        traced = session(name, seed * SESSIONS, seconds / 2, spans_path)
        spans = json.loads(spans_path.read_text())
        spans_path.unlink()
        sessions = [plain, traced]
        layer, report = layer_metrics(
            traced["records"], spans, traced["counts"], ops_per_s(plain), ops_per_s(traced)
        )
        layer["failed_ratio"] = failed_ops(sessions) / sum(len(s["records"]) for s in sessions)
        metrics = {**op_latencies(plain), **layer}
        metrics = {name: metrics[name] for name in PER_LAYER}
        (OUT / f"layers-{name}-seed{seed}.json").write_text(json.dumps(report, indent=2))
        print(format_report(name, report), file=sys.stderr)
        extras = {"layer_report": report, "counts": traced["counts"]}
    failed = failed_ops(sessions)
    extras["samples"] = [sample_counts(s) for s in sessions]
    extras["rounds"] = [s["rounds"] for s in sessions]
    line = {
        "correct": failed == 0,
        "attempted": sum(len(s["records"]) for s in sessions),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": UNITS[key]} for key, value in metrics.items()},
    }
    return line, extras


def failed_ops(sessions: list[dict]) -> int:
    return sum(not r["ok"] for s in sessions for r in s["records"])


def format_report(name: str, report: dict) -> str:
    lines = [f"layer report for {name} (self ms per op; rows add up to wall ms per op)"]
    for kind, entry in report.items():
        lines.append(f"  {kind}: {entry['ops']} ops, wall {entry['wall_ms_per_op']:.3f} ms/op")
        for layer, ms in entry["self_ms_per_op"].items():
            lines.append(f"    {layer:28s} {ms:10.3f}")
    return "\n".join(lines)


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for entry in packed.read_text().splitlines():
            if entry.endswith(" " + ref[5:]):
                return entry.split()[0]
    return "unknown"


def append_trajectory(args, line: dict, extras: dict) -> None:
    record = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **line,
        **extras,
    }
    with open(OUT / "trajectory.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    line, extras = run(args.workload, args.seed, args.seconds, bool(args.trace))
    append_trajectory(args, line, extras)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
