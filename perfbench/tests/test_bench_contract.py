"""BENCHMARK.json matches what the runner prints, and the runner refuses
to run where the program is missing."""

import json
import shutil
import subprocess
import sys

import pytest
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == run.PER_LAYER
    for metric in SPEC["per_layer"]:
        assert metric["unit"] == run.UNITS[metric["name"]]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_metrics_of_a_result():
    records = [
        {"kind": "read", "name": "a", "latency_ms": 10.0, "ok": True},
        {"kind": "read", "name": "b", "latency_ms": 30.0, "ok": True},
    ]
    result = {"records": records, "elapsed": 2.0, "setup_s": 1.5, "peak_rss_mb": 40.0}
    metrics = run.end_to_end(result)
    assert set(metrics) == set(run.END_TO_END)
    assert metrics["ops_per_s"] == 1.0
    assert metrics["op_p50_ms"] == pytest.approx(20.0)


def test_mix_median_follows_the_middle_op_type():
    # 3 of 7 ops are cheaper, 1 is dearer: the middle type decides alone.
    assert run.mix_median([[1.0, 2.0, 1.5], [10.0, 10.0, 10.0], [500.0]]) == pytest.approx(10.0)
    # The halves split exactly between two types: the mean of their medians.
    assert run.mix_median([[2.0, 2.0], [4.0, 4.0]]) == pytest.approx(3.0)
    assert run.mix_median([]) == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adhoc-read", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
