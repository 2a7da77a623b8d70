"""Exact counts repeat: two sessions with the same seed give the same
``/metrics`` and ``EngineStats`` deltas, and every answer checks out.

These start real system processes on small inputs, so they take a few
seconds each.
"""

import http_workloads
import pytest
import run
from layers import SpanIndex


@pytest.mark.parametrize(
    "cls, n", [(http_workloads.PreparedRead, 120), (http_workloads.AdhocRead, 16), (http_workloads.UpdateMix, 150)]
)
def test_http_counts_repeat(cls, n):
    small = type("Small", (cls,), {"n": n})
    counts = []
    for _ in range(2):
        workload = small(7)
        limits = {"rounds": 2, "cap_seconds": 60.0, "count_rounds": 2}
        result = http_workloads.session(workload, run.ROOT, limits)
        workload.check(result["records"])
        assert all(record["ok"] for record in result["records"])
        counts.append(result["counts"])
    assert counts[0] == counts[1]
    assert counts[0]["ops"] > 0


def test_bounded_degree_counts_repeat(monkeypatch):
    monkeypatch.setattr(run, "BOUNDED_DEGREE_N", 40)
    results = [run.bd_session(7, 0.0) for _ in range(2)]
    assert all(record["ok"] for result in results for record in result["records"])
    assert results[0]["counts"] == results[1]["counts"]
    assert results[0]["counts"]["ops"] == 21


def test_self_time_and_outermost_spans():
    spans = [
        {"name": "service.answers", "start": 0, "end": 10_000_000, "parent": None, "op": "a", "result": None},
        {"name": "gaifman.neighborhood", "start": 1_000_000, "end": 5_000_000, "parent": 0, "op": "a", "result": None},
        {"name": "gaifman.ball", "start": 2_000_000, "end": 4_000_000, "parent": 1, "op": "a", "result": None},
        {"name": "gaifman.ball", "start": 6_000_000, "end": 7_000_000, "parent": 0, "op": "a", "result": None},
        {"name": "gaifman.ball", "start": 0, "end": 1_000_000, "parent": None, "op": "other", "result": None},
    ]
    index = SpanIndex(spans, {"a"})
    assert index.self_ms("service.answers") == pytest.approx(5.0)
    assert index.calls("gaifman.ball", "gaifman.neighborhood") == 2
    assert index.total_ms("gaifman.ball", "gaifman.neighborhood") == pytest.approx(5.0)
    assert index.total_ms("gaifman.ball") == pytest.approx(3.0)
