"""The bounded-degree workload's system process (library use, no HTTP).

Usage: ``python3 perfbench/bd_child.py CONFIG_JSON`` with ``src`` on
``PYTHONPATH``.  The process imports the library, creates one
``Engine`` and warms it on a small graph, then prints ``ready`` and
waits for ``go`` on stdin; it then runs the timed window and prints one
JSON result line.

Round i takes the fixed graphs 4i … 4i+3, connected graphs of Gaifman
degree ≤ 3.  It calls ``Engine.evaluate`` on every sentence of the
Boolean corpus on the first of them, then, in a seeded order,
``Engine.enumerate`` on the four enumeration queries on each of them,
consuming every answer.  The two slowest sentences take most of a
round, so enumerating on several graphs gives the middle of the latency
distribution several samples per round.  All answers are checked
against :mod:`oracle` after the window.
"""

from __future__ import annotations

import json
import random
import sys
import time

import inputs
import oracle
from measure import Window, peak_rss_mb

from repro.engine.engine import Engine
from repro.logic.parser import parse
from repro.structures.builders import GRAPH
from repro.structures.structure import Structure

FORMULAS = {name: parse(text) for name, text in inputs.BOOLEAN_QUERIES}
FORMULAS.update({name: parse(text) for name, text, _ in inputs.ENUMERATIONS})

#: Graphs per round: the Boolean corpus runs on the first, the
#: enumerations on all of them.
GRAPHS_PER_ROUND = 4


def graph(n: int, index: int) -> tuple[Structure, list]:
    """The ``index``-th fixed graph of size ``n``."""
    edges = inputs.bounded_degree_edges(n, random.Random(inputs.BASE_SEED + index))
    return Structure(GRAPH, range(n), {"E": edges}), edges


def round_graphs(n: int, index: int) -> list[tuple[Structure, list]]:
    """The graphs of round ``index``."""
    first = index * GRAPHS_PER_ROUND
    return [graph(n, first + j) for j in range(GRAPHS_PER_ROUND)]


def op_order(rng: random.Random) -> list[tuple[str, str, int]]:
    """The 21 ops of one round, (kind, name, graph): the evaluations in
    corpus order, then the enumerations in a seeded order.

    Which peak memory a process reaches depends on the order of the
    evaluations (by 10% at n=250), so that order is fixed.
    """
    evals = [("eval", name, 0) for name, _ in inputs.BOOLEAN_QUERIES]
    enumerations = [
        ("enumerate", name, j)
        for j in range(GRAPHS_PER_ROUND)
        for name, _, _ in inputs.ENUMERATIONS
    ]
    return evals + inputs.shuffled(enumerations, rng)


def run_round(engine: Engine, structures: list[Structure], ops, op_base: int, set_op) -> list[dict]:
    clock = time.perf_counter
    records = []
    for kind, name, j in ops:
        op = f"op-{op_base + len(records)}"
        set_op(op)
        structure = structures[j]
        if kind == "eval":
            started = clock()
            value = engine.evaluate(structure, FORMULAS[name])
            latency_ms = (clock() - started) * 1e3
            records.append({
                "op": op,
                "kind": kind,
                "name": name,
                "graph": j,
                "latency_ms": latency_ms,
                "value": value,
            })
            continue
        rows, delays = [], []
        started = clock()
        stream = iter(engine.enumerate(structure, FORMULAS[name]))
        first_ms = None
        while True:
            before = clock()
            try:
                row = next(stream)
            except StopIteration:
                break
            after = clock()
            if first_ms is None:
                first_ms = (after - started) * 1e3
            else:
                delays.append((after - before) * 1e6)
            rows.append(row)
        latency_ms = (clock() - started) * 1e3
        records.append({
            "op": op,
            "kind": kind,
            "name": name,
            "graph": j,
            "latency_ms": latency_ms,
            "ttfa_ms": latency_ms if first_ms is None else first_ms,
            "delays_us": delays,
            "rows": rows,
        })
    set_op(None)
    return records


def counters(engine: Engine) -> dict:
    stats = engine.stats
    plan, answer = engine.plan_cache.snapshot(), engine.answer_cache.snapshot()
    return {
        "plan_hits": plan["hits"],
        "plan_misses": plan["misses"],
        "answer_hits": answer["hits"],
        "answer_misses": answer["misses"],
        "plans_built": stats.plans_built,
        "executions": stats.executions,
        "answers_patched": stats.answers_patched,
        "fast_path_dispatches": stats.fast_path_dispatches,
        "rows_materialized": stats.execution.rows_materialized,
        "degradations": 0,
    }


def check(records: list[dict], n: int, edge_lists) -> None:
    graphs = [oracle.Graph(n, edges) for edges in edge_lists]
    for record in records:
        g = graphs[record["graph"]]
        if record["kind"] == "eval":
            record["ok"] = record.pop("value") == oracle.boolean_query(record["name"], g)
        else:
            rows = record.pop("rows")
            expected = oracle.enumeration(record["name"], g)
            record["ok"] = len(rows) == len(expected) and set(rows) == expected
            record["rows_returned"] = len(rows)


def _untraced(op_id: str | None) -> None:
    pass


def main(config: dict) -> int:
    set_op = _untraced
    if config.get("spans"):
        import tracing

        tracing.install()
        set_op = tracing.set_op
    engine = Engine()
    rng = random.Random(config["seed"])
    warm = [graph(60, -1 - j)[0] for j in range(GRAPHS_PER_ROUND)]
    run_round(engine, warm, op_order(rng), 0, _untraced)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    n, count_rounds = config["n"], config["count_rounds"]
    before = counters(engine)
    records: list[dict] = []
    counted: dict = {}
    window = Window(config["rounds"], config["cap_seconds"])
    while True:
        graphs = window.paused(lambda: round_graphs(n, window.rounds))
        structures = [structure for structure, _ in graphs]
        batch = run_round(engine, structures, op_order(rng), len(records), set_op)
        window.paused(lambda: check(batch, n, [edges for _, edges in graphs]))
        records += batch
        more = window.next_round()
        if window.rounds == count_rounds:
            after = counters(engine)
            counted = {key: after[key] - before[key] for key in after}
            counted["ops"] = len(records)
            counted["updates"] = 0
            counted["rows_returned"] = sum(r.get("rows_returned", 0) for r in records)
        if not more:
            break
    result = {
        "records": records,
        "elapsed": window.elapsed(),
        "rounds": window.rounds,
        "counts": counted,
        "peak_rss_mb": peak_rss_mb(),
    }
    if config.get("spans"):
        tracing.dump(config["spans"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
