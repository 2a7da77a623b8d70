"""Per-layer metrics from a traced session's spans and exact counters.

A span's self time is its duration minus the durations of its direct
child spans (children nest inside their parent on one thread).  Time of
a layer is the inclusive time of its outermost spans, so a function
that re-enters itself is not counted twice.  For every op type the
report adds an ``unattributed`` row: the op's client-measured wall time
minus the self time of every span of that op, so the rows of one op
type add up to its wall time.
"""

from __future__ import annotations

from collections import defaultdict

from measure import percentile
from tracing import LAYER_OF

#: Per-layer metrics: name → (unit, better, module, end-to-end metric it
#: should move, workload where the layer does most of the work).  On the
#: other workloads the prediction is no change.
LAYER_METRICS: dict[str, tuple[str, str, str, str, str]] = {
    "http.overhead_ms_p50": ("ms", "lower", "server.http", "read_p50_ms, batch_p50_ms, update_p50_ms", "all HTTP workloads"),
    "http.response_bytes_per_op": ("B/op", "lower", "server.http", "read_p50_ms", "prepared-read"),
    "service.self_ms_per_op": ("ms/op", "lower", "server.service", "read_p95_ms", "prepared-read"),
    "service.rows_sorted_per_row_returned": ("rows/row", "lower", "server.service", "read_p95_ms", "prepared-read"),
    "wire.parse_ms_per_op": ("ms/op", "lower", "server.wire", "read_p50_ms", "adhoc-read"),
    "wire.encode_ms_per_op": ("ms/op", "lower", "server.wire", "read_p50_ms", "prepared-read"),
    "wire.digest_ms_per_update": ("ms/update", "lower", "server.wire", "update_p50_ms", "update-mix"),
    "fallback.self_ms_per_op": ("ms/op", "lower", "resilience.fallback", "read_p50_ms", "update-mix"),
    "fallback.degradations": ("count", "lower", "resilience.fallback", "failed (result line)", "prepared-read, update-mix"),
    "engine.plan_cache.hit_ratio": ("ratio", "higher", "engine.cache", "read_p50_ms", "adhoc-read, update-mix"),
    "engine.answer_cache.hit_ratio": ("ratio", "higher", "engine.cache", "read_p50_ms", "prepared-read"),
    "engine.plans_built_per_op": ("plans/op", "lower", "engine.engine", "read_p95_ms", "update-mix"),
    "engine.executions_per_op": ("runs/op", "lower", "engine.engine", "read_p95_ms", "update-mix"),
    "engine.rows_materialized_per_row_returned": ("rows/row", "lower", "engine.engine", "read_p95_ms", "adhoc-read"),
    "planner.ms_per_op": ("ms/op", "lower", "engine.planner", "read_p50_ms", "adhoc-read"),
    "executor.tuple_ms_per_op": ("ms/op", "lower", "engine.executor", "read_p95_ms", "adhoc-read"),
    "executor.tuple_share": ("ratio", "lower", "engine.executor", "read_p95_ms", "adhoc-read"),
    "executor.columnar_ms_per_op": ("ms/op", "lower", "engine.columnar", "read_p95_ms; setup_s", "update-mix; prepared-read"),
    "columnar.codec_ms_per_update": ("ms/update", "lower", "engine.columnar", "read_p95_ms", "update-mix"),
    "incremental.patch_ms_per_op": ("ms/op", "lower", "incremental.answers", "read_p95_ms", "update-mix"),
    "incremental.changed_ms_per_update": ("ms/update", "lower", "incremental.answers", "update_p50_ms", "update-mix"),
    "incremental.patched_ratio": ("ratio", "higher", "incremental.answers", "read_p95_ms", "update-mix"),
    "incremental.undecided_ratio": ("ratio", "lower", "incremental.answers", "update_p50_ms", "update-mix"),
    "eval.naive_calls_per_op": ("calls/op", "lower", "eval.evaluator", "update_p50_ms", "update-mix"),
    "enumeration.preprocess_ms": ("ms/call", "lower", "incremental.enumeration", "ttfa_p50_ms", "bounded-degree"),
    "structures.mutate_ms_per_update": ("ms/update", "lower", "structures.structure", "update_p50_ms", "update-mix"),
    "gaifman.ball_calls_per_op": ("calls/op", "lower", "structures.gaifman", "ttfa_p50_ms, ops_per_s", "bounded-degree"),
    "gaifman.ball_us_per_call": ("us/call", "lower", "structures.gaifman", "ttfa_p50_ms, ops_per_s", "bounded-degree"),
    "locality.census_ms_per_eval": ("ms/eval", "lower", "locality.neighborhoods", "ops_per_s", "bounded-degree"),
    "trace.overhead_ratio": ("ratio", "lower", "benchmark", "none (a guard)", "all"),
    "failed_ratio": ("ratio", "lower", "benchmark", "none (correctness)", "all"),
    "unattributed.read_ms_per_op": ("ms/op", "lower", "none", "read_p50_ms", "prepared-read, adhoc-read, update-mix"),
    "unattributed.batch_ms_per_op": ("ms/op", "lower", "none", "batch_p50_ms", "prepared-read"),
    "unattributed.update_ms_per_op": ("ms/op", "lower", "none", "update_p50_ms", "update-mix"),
    "unattributed.eval_ms_per_op": ("ms/op", "lower", "none", "ops_per_s", "bounded-degree"),
    "unattributed.enumerate_ms_per_op": ("ms/op", "lower", "none", "ttfa_p50_ms", "bounded-degree"),
}

OP_KINDS = ("read", "batch", "update", "eval", "enumerate")
SERVICE = ("service.answers", "service.answers_batch", "service.apply_updates")


class SpanIndex:
    """The spans of the timed ops, with self times and outermost flags."""

    def __init__(self, spans: list[dict], op_ids: set[str]) -> None:
        children_ns: dict[int, int] = defaultdict(int)
        for span in spans:
            if span["parent"] is not None:
                children_ns[span["parent"]] += span["end"] - span["start"]
        self.spans = []
        for i, span in enumerate(spans):
            if span["op"] not in op_ids:
                continue
            duration = span["end"] - span["start"]
            ancestors = set()
            parent = span["parent"]
            while parent is not None:
                ancestors.add(spans[parent]["name"])
                parent = spans[parent]["parent"]
            self.spans.append({
                **span,
                "ms": duration / 1e6,
                "self_ms": (duration - children_ns[i]) / 1e6,
                "ancestors": ancestors,
            })

    def outermost(self, names) -> list[dict]:
        names = set(names)
        return [s for s in self.spans if s["name"] in names and not (s["ancestors"] & names)]

    def total_ms(self, *names: str) -> float:
        return sum(s["ms"] for s in self.outermost(names))

    def calls(self, *names: str) -> int:
        return len(self.outermost(names))

    def self_ms(self, *names: str) -> float:
        return sum(s["self_ms"] for s in self.spans if s["name"] in names)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    records: list[dict],
    spans: list[dict],
    counts: dict,
    ops_per_s_untraced: float,
    ops_per_s_traced: float,
) -> tuple[dict[str, float], dict]:
    """(per-layer metrics, layer report by op type) of one traced session."""
    index = SpanIndex(spans, {r["op"] for r in records})
    ops = len(records)
    updates = sum(r["kind"] == "update" for r in records)
    evals = sum(r["kind"] == "eval" for r in records)
    by_op = defaultdict(list)
    for span in index.spans:
        by_op[span["op"]].append(span)

    overheads = []
    for record in records:
        service = [s for s in by_op[record["op"]] if s["name"] in SERVICE]
        if service:
            overheads.append(record["latency_ms"] - max(s["ms"] for s in service))
    returned = sum(r.get("rows_returned", 0) for r in records)
    sorted_rows = sum(r.get("rows_sorted", 0) for r in records)
    changed = index.outermost(["engine.maintained_changed"])
    ball_calls = index.calls("gaifman.ball", "gaifman.neighborhood")
    tuple_runs = index.calls("executor.tuple")
    columnar_runs = index.calls("executor.columnar")

    metrics = {
        "http.overhead_ms_p50": percentile(overheads, 0.5),
        "http.response_bytes_per_op": _ratio(sum(r.get("bytes", 0) for r in records), ops),
        "service.self_ms_per_op": _ratio(index.self_ms(*SERVICE), ops),
        "service.rows_sorted_per_row_returned": _ratio(sorted_rows, returned),
        "wire.parse_ms_per_op": _ratio(index.total_ms("wire.parse_formula"), ops),
        "wire.encode_ms_per_op": _ratio(index.total_ms("wire.to_wire"), ops),
        "wire.digest_ms_per_update": _ratio(index.total_ms("wire.structure_digest"), updates),
        "fallback.self_ms_per_op": _ratio(index.self_ms("fallback.answers"), ops),
        "fallback.degradations": counts["degradations"],
        "engine.plan_cache.hit_ratio": _ratio(counts["plan_hits"], counts["plan_hits"] + counts["plan_misses"]),
        "engine.answer_cache.hit_ratio": _ratio(counts["answer_hits"], counts["answer_hits"] + counts["answer_misses"]),
        "engine.plans_built_per_op": _ratio(counts["plans_built"], counts["ops"]),
        "engine.executions_per_op": _ratio(counts["executions"], counts["ops"]),
        "engine.rows_materialized_per_row_returned": _ratio(counts["rows_materialized"], counts["rows_returned"]),
        "planner.ms_per_op": _ratio(index.total_ms("planner.plan", "planner.normalize"), ops),
        "executor.tuple_ms_per_op": _ratio(index.total_ms("executor.tuple"), ops),
        "executor.tuple_share": _ratio(tuple_runs, tuple_runs + columnar_runs),
        "executor.columnar_ms_per_op": _ratio(index.total_ms("executor.columnar"), ops),
        "columnar.codec_ms_per_update": _ratio(index.total_ms("columnar.codec_for", "columnar.apply_deltas"), updates),
        "incremental.patch_ms_per_op": _ratio(index.total_ms("incremental.patch"), ops),
        "incremental.changed_ms_per_update": _ratio(index.total_ms("engine.maintained_changed"), updates),
        "incremental.patched_ratio": _ratio(counts["answers_patched"], counts["answers_patched"] + counts["executions"]),
        "incremental.undecided_ratio": _ratio(sum(s["result"] == "none" for s in changed), len(changed)),
        "eval.naive_calls_per_op": _ratio(index.calls("eval.evaluate"), ops),
        "enumeration.preprocess_ms": _ratio(index.total_ms("engine.enumerate"), index.calls("engine.enumerate")),
        "structures.mutate_ms_per_update": _ratio(
            index.total_ms("structure.check_update", "structure.insert", "structure.delete"), updates
        ),
        "gaifman.ball_calls_per_op": _ratio(ball_calls, ops),
        "gaifman.ball_us_per_call": _ratio(index.total_ms("gaifman.ball", "gaifman.neighborhood") * 1e3, ball_calls),
        "locality.census_ms_per_eval": _ratio(index.total_ms("locality.census"), evals),
        "trace.overhead_ratio": _ratio(ops_per_s_untraced, ops_per_s_traced),
    }

    report = {}
    for kind in OP_KINDS:
        chosen = [r for r in records if r["kind"] == kind]
        if not chosen:
            metrics[f"unattributed.{kind}_ms_per_op"] = 0.0
            continue
        layers: dict[str, float] = defaultdict(float)
        for record in chosen:
            for span in by_op[record["op"]]:
                layers[LAYER_OF[span["name"]]] += span["self_ms"]
        wall = sum(r["latency_ms"] for r in chosen)
        unattributed = wall - sum(layers.values())
        rows = {layer: ms / len(chosen) for layer, ms in sorted(layers.items())}
        rows["unattributed"] = unattributed / len(chosen)
        report[kind] = {"ops": len(chosen), "wall_ms_per_op": wall / len(chosen), "self_ms_per_op": rows}
        metrics[f"unattributed.{kind}_ms_per_op"] = unattributed / len(chosen)
    return metrics, report
