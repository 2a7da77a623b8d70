"""The three HTTP workloads: one keep-alive client against ``repro.server``.

Each workload is a generator of request specs (setup requests, then
rounds) plus a checker.  Specs depend only on the seed, never on the
server's replies: the one reply-derived value, the current structure
id, is filled into the ``"$sid"`` placeholder when a request is sent.
Every reply is kept and checked against :mod:`oracle` after the timed
window.
"""

from __future__ import annotations

import heapq
import http.client
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracle
from measure import Window, peak_rss_mb

TENANT = "bench"
PAGE_SIZE = 512  # the server's default page size
SID = "$sid"

HERE = Path(__file__).resolve().parent


# -- workloads ---------------------------------------------------------------


class PreparedRead:
    """``random_graph(1000, 3/n)``; 9 prepared queries; rounds of 9 single
    seeded-page reads plus one batch of all 9."""

    name = "prepared-read"
    n = 1000

    def __init__(self, seed: int) -> None:
        self.edges = _graph(self.n)
        graph = oracle.Graph(self.n, self.edges)
        self.reference = {
            name: oracle.canonical(oracle.graph_query(name, graph))
            for name, _, _ in inputs.GRAPH_QUERIES
        }
        self.rng = random.Random(seed * 7919 + 1)

    def setup_specs(self) -> list[dict]:
        specs = [_upload(self.n, self.edges)]
        specs += [_prepare(name, text) for name, text, _ in inputs.GRAPH_QUERIES]
        specs += [_read(name, 0) for name, _, _ in inputs.GRAPH_QUERIES]
        specs.append(_batch([(name, 0) for name, _, _ in inputs.GRAPH_QUERIES]))
        return specs

    def _page(self, name: str) -> int:
        total = len(self.reference[name])
        return self.rng.randrange(inputs.page_count(total, PAGE_SIZE))

    def round_specs(self, index: int) -> list[dict]:
        names = [name for name, _, _ in inputs.GRAPH_QUERIES]
        specs = [_read(name, self._page(name)) for name in inputs.shuffled(names, self.rng)]
        specs.append(_batch([(name, self._page(name)) for name in names]))
        return specs

    def check(self, records: list[dict]) -> None:
        for record in records:
            if record["spec"]["kind"] == "read":
                _check_pages(record, [self._expected(record["spec"]["check"])])
            elif record["spec"]["kind"] == "batch":
                expected = [self._expected(part) for part in record["spec"]["check"]]
                _check_pages(record, expected)

    def _expected(self, check: dict) -> dict:
        name, page = check["query"], check["page"]
        free = next(free for q, _, free in inputs.GRAPH_QUERIES if q == name)
        rows = self.reference[name]
        return {
            "rows": rows[page * PAGE_SIZE : (page + 1) * PAGE_SIZE],
            "total_rows": len(rows),
            "free_variables": list(free),
        }


class AdhocRead:
    """``random_graph(64, 3/n)``; the 9 corpus formulas as ad-hoc text with
    fresh variable names on every request."""

    name = "adhoc-read"
    n = 64

    def __init__(self, seed: int) -> None:
        self.edges = _graph(self.n)
        graph = oracle.Graph(self.n, self.edges)
        self.reference = {
            name: oracle.graph_query(name, graph) for name, _, _ in inputs.GRAPH_QUERIES
        }
        self.seed = seed
        self.rng = random.Random(seed * 7919 + 2)

    def _round(self, rng: random.Random) -> list[dict]:
        specs = []
        for name, text, free in inputs.shuffled(inputs.GRAPH_QUERIES, rng):
            mapping = dict(zip("xyz", inputs.fresh_names(rng, 3)))
            spec = _adhoc(inputs.rename(text, mapping))
            spec["check"] = {"query": name, "free": [mapping[v] for v in free]}
            specs.append(spec)
        return specs

    def setup_specs(self) -> list[dict]:
        warm = random.Random(self.seed * 7919 + 4)
        return [_upload(self.n, self.edges)] + self._round(warm)

    def round_specs(self, index: int) -> list[dict]:
        return self._round(self.rng)

    def check(self, records: list[dict]) -> None:
        for record in records:
            check = record["spec"]["check"]
            names = check["free"]
            columns = tuple(sorted(range(len(names)), key=names.__getitem__))
            rows = oracle.canonical(oracle.reorder(self.reference[check["query"]], columns))
            expected = {
                "rows": rows[:PAGE_SIZE],
                "total_rows": len(rows),
                "free_variables": sorted(names),
            }
            _check_pages(record, [expected])


class UpdateMix:
    """``random_graph(2000, 3/n)``; 8 prepared queries (all but
    ``out-dominated``); rounds of one 4-delta update followed by a page-0
    read of each query under the returned structure id."""

    name = "update-mix"
    n = 2000

    def __init__(self, seed: int) -> None:
        self.edges = _graph(self.n)
        self.queries = [q for q in inputs.GRAPH_QUERIES if q[0] != "out-dominated"]
        self.mirror = set(self.edges)
        self.deltas_rng = random.Random(inputs.BASE_SEED + 1)
        self.rng = random.Random(seed * 7919 + 3)

    def setup_specs(self) -> list[dict]:
        specs = [_upload(self.n, self.edges)]
        specs += [_prepare(name, text) for name, text, _ in self.queries]
        specs += [_read(name, 0) for name, _, _ in self.queries]
        return specs

    def round_specs(self, index: int) -> list[dict]:
        deltas = inputs.balanced_deltas(self.mirror, self.n, self.deltas_rng)
        inputs.apply_deltas(self.mirror, deltas)
        update = {
            "kind": "update",
            "path": f"/v1/structures/{SID}/updates",
            "body": {
                "tenant": TENANT,
                "updates": [
                    {"op": op, "relation": "E", "row": list(pair)} for op, pair in deltas
                ],
            },
            "check": {"round": index},
        }
        reads = [_read(name, 0) for name, _, _ in inputs.shuffled(self.queries, self.rng)]
        for read in reads:
            read["check"]["round"] = index
        return [update] + reads

    def check(self, records: list[dict]) -> None:
        mirror = set(self.edges)
        current_round, expected = None, {}
        for record in records:
            spec = record["spec"]
            if spec["kind"] == "update":
                inputs.apply_deltas(
                    mirror,
                    [(d["op"], tuple(d["row"])) for d in spec["body"]["updates"]],
                )
                reply = record.get("reply") or {}
                record["ok"] = (
                    record["status"] == 200
                    and reply.get("applied") == len(spec["body"]["updates"])
                    and reply.get("noops") == 0
                    and reply.get("structure_id") != reply.get("previous_id")
                )
                continue
            if spec["check"].get("round") != current_round:
                current_round = spec["check"].get("round")
                graph = oracle.Graph(self.n, mirror)
                expected = {}
            name = spec["check"]["query"]
            if name not in expected:
                rows = oracle.graph_query(name, graph)
                free = next(free for q, _, free in self.queries if q == name)
                expected[name] = {
                    "rows": heapq.nsmallest(PAGE_SIZE, rows, key=repr),
                    "total_rows": len(rows),
                    "free_variables": list(free),
                }
            _check_pages(record, [expected[name]])


WORKLOADS = {cls.name: cls for cls in (PreparedRead, AdhocRead, UpdateMix)}


def _graph(n: int) -> list[tuple[int, int]]:
    """The fixed graph of an HTTP workload."""
    return inputs.sparse_graph(n, random.Random(inputs.BASE_SEED))


def _upload(n: int, edges) -> dict:
    return {
        "kind": "upload",
        "path": "/v1/structures",
        "body": {"tenant": TENANT, "structure": inputs.structure_wire(n, edges)},
        "check": {},
    }


def _prepare(name: str, text: str) -> dict:
    return {
        "kind": "prepare",
        "path": "/v1/queries",
        "body": {"tenant": TENANT, "name": name, "formula": text, "structure_id": SID},
        "check": {},
    }


def _read(name: str, page: int) -> dict:
    return {
        "kind": "read",
        "path": "/v1/answers",
        "body": {"tenant": TENANT, "structure_id": SID, "query": name, "page": page},
        "check": {"query": name, "page": page},
    }


def _adhoc(text: str) -> dict:
    return {
        "kind": "read",
        "path": "/v1/answers",
        "body": {"tenant": TENANT, "structure_id": SID, "formula": text},
        "check": {},
    }


def _batch(pairs: list[tuple[str, int]]) -> dict:
    return {
        "kind": "batch",
        "path": "/v1/answers",
        "body": {
            "tenant": TENANT,
            "requests": [
                {"structure_id": SID, "query": name, "page": page} for name, page in pairs
            ],
        },
        "check": [{"query": name, "page": page} for name, page in pairs],
    }


def _check_pages(record: dict, expected: list[dict]) -> None:
    """Mark ``record`` ok iff every answer page matches its reference."""
    reply = record.get("reply")
    if record["status"] != 200 or reply is None:
        record["ok"] = False
        return
    pages = reply["results"] if "results" in reply else [reply]
    ok = len(pages) == len(expected)
    for page, want in zip(pages, expected):
        rows = [tuple(row) for row in page.get("rows", ())]
        ok = ok and (
            rows == list(want["rows"])
            and page.get("total_rows") == want["total_rows"]
            and page.get("free_variables") == want["free_variables"]
        )
    record["ok"] = ok


# -- the server process and the client ---------------------------------------


def server_env(root: Path) -> dict:
    env = dict(os.environ)
    for name in ("REPRO_EXECUTOR", "REPRO_PARALLEL", "REPRO_TELEMETRY"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    return env


class Server:
    """``python -m repro.server --port 0`` (or the traced launcher)."""

    def __init__(self, root: Path, spans_path: Path | None = None) -> None:
        if spans_path is None:
            command = [sys.executable, "-m", "repro.server", "--port", "0"]
        else:
            command = [sys.executable, str(HERE / "launcher.py"), str(spans_path), "--port", "0"]
        self.process = subprocess.Popen(
            command, cwd=root, env=server_env(root), stdout=subprocess.PIPE, text=True
        )
        line = self.process.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Client:
    """One persistent HTTP/1.1 keep-alive connection."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=170)
        self.structure_id = ""

    def close(self) -> None:
        self.connection.close()

    def send(self, spec: dict, op_id: str) -> dict:
        """Send one spec; return its record (latency, status, reply)."""
        path = spec["path"].replace(SID, self.structure_id)
        body = json.dumps(_fill(spec["body"], self.structure_id)).encode()
        headers = {"Content-Type": "application/json", "X-Bench-Op": op_id}
        started = time.perf_counter()
        self.connection.request("POST", path, body=body, headers=headers)
        response = self.connection.getresponse()
        raw = response.read()
        latency_ms = (time.perf_counter() - started) * 1000.0
        reply = json.loads(raw) if raw else None
        if spec["kind"] in ("upload", "update") and response.status == 200:
            self.structure_id = reply["structure_id"]
        return {
            "op": op_id,
            "spec": spec,
            "status": response.status,
            "reply": reply,
            "latency_ms": latency_ms,
            "bytes": len(raw),
        }

    def metrics(self) -> dict:
        self.connection.request("GET", "/metrics")
        response = self.connection.getresponse()
        return json.loads(response.read())


def _fill(body, structure_id: str):
    if isinstance(body, dict):
        return {key: _fill(value, structure_id) for key, value in body.items()}
    if isinstance(body, list):
        return [_fill(value, structure_id) for value in body]
    return structure_id if body == SID else body


def counters(snapshot: dict) -> dict:
    """The exact counters of one ``GET /metrics`` snapshot."""
    engine = snapshot["engine"]
    caches = snapshot["caches"]
    return {
        "plan_hits": caches["plan"]["hits"],
        "plan_misses": caches["plan"]["misses"],
        "answer_hits": caches["answer"]["hits"],
        "answer_misses": caches["answer"]["misses"],
        "plans_built": engine["plans_built"],
        "executions": engine["executions"],
        "answers_patched": engine["answers_patched"],
        "fast_path_dispatches": engine["fast_path_dispatches"],
        "rows_materialized": engine["execution"]["rows_materialized"],
        "degradations": sum(t["degradations"] for t in snapshot["tenants"].values()),
    }


def rows_returned(record: dict) -> tuple[int, int]:
    """(rows returned, total rows the server sorted) of one answer reply."""
    reply = record.get("reply") or {}
    if record["spec"]["kind"] not in ("read", "batch") or record["status"] != 200:
        return 0, 0
    pages = reply["results"] if "results" in reply else [reply]
    return (
        sum(len(page["rows"]) for page in pages),
        sum(page["total_rows"] for page in pages),
    )


def session(workload, root: Path, limits: dict, spans_path: Path | None = None) -> dict:
    """Start a server, run setup and one timed window, stop the server.

    ``limits`` holds ``rounds``, ``cap_seconds`` and ``count_rounds``.
    Returns setup seconds, the timed op records, the window's elapsed
    seconds, the counter deltas over the first ``count_rounds`` rounds
    (with the client-side op and row counts of those rounds) and the
    server's peak RSS.
    """
    started = time.perf_counter()
    server = Server(root, spans_path)
    client = None
    try:
        client = Client(server.port)
        for i, spec in enumerate(workload.setup_specs()):
            record = client.send(spec, f"setup-{i}")
            if record["status"] != 200:
                raise RuntimeError(f"setup request failed: {record['reply']}")
        setup_s = time.perf_counter() - started
        before = counters(client.metrics())
        records: list[dict] = []
        counted: dict = {}
        count_rounds = limits["count_rounds"]
        window = Window(limits["rounds"], limits["cap_seconds"])
        while True:
            for spec in workload.round_specs(window.rounds):
                records.append(client.send(spec, f"op-{len(records)}"))
            more = window.next_round()
            if window.rounds == count_rounds:
                after = window.paused(lambda: counters(client.metrics()))
                counted = {key: after[key] - before[key] for key in after}
                counted["ops"] = len(records)
                counted["updates"] = sum(r["spec"]["kind"] == "update" for r in records)
                counted["rows_returned"] = sum(rows_returned(r)[0] for r in records)
            if not more:
                break
        elapsed = window.elapsed()
        rss = server.peak_rss_mb()
    finally:
        if client is not None:
            client.close()
        server.stop()
    return {
        "setup_s": setup_s,
        "records": records,
        "elapsed": elapsed,
        "rounds": window.rounds,
        "counts": counted,
        "peak_rss_mb": rss,
    }

