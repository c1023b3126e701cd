"""Smoke tests of the benchmark: every workload once at a tiny size."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads
from sfttrace import rep, sft


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_reports_every_metric_with_its_unit(name, trace, tmp_path):
    original = sft.count_paths
    result = run.run_workload(name, seed=0, seconds=1, trace=trace, smoke=True,
                              workdir=tmp_path)
    assert sft.count_paths is original, "tracing must restore the wrapped functions"
    assert result["correct"] and result["failed"] == 0 and result["failed_frac"] == 0
    assert result["checks"]["pinned_sha256"] is not None, "smoke seed 0 must be pinned"
    expected = tracer.LAYER_METRICS if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for key, m in result["metrics"].items():
        assert m["unit"] == expected[key][0]
        assert isinstance(m["value"], (int, float))
    if trace:
        assert (tmp_path / f"spans-{name}-seed0.npz").is_file()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert result["unscaled"]["kernel_s"] > 0 and result["unscaled"]["setup_s"] > 0


@pytest.mark.parametrize("name", ["wide-sweep", "oracle-check"])
def test_corrupted_trace_counts_as_failed(name, tmp_path, monkeypatch):
    exact = rep.trace_product

    def off_by_one(a, b, k, p):
        tr = exact(a, b, k, p)
        return rep.ExactTrace.from_pairs(tr.pairs + ((1 + 0j, 1),)) if k == 1 else tr

    monkeypatch.setattr(rep, "trace_product", off_by_one)
    result = run.run_workload(name, seed=0, seconds=1, trace=False, smoke=True,
                              workdir=tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["failed_frac"] > 0


def test_references_match_known_values():
    # golden mean: paths of 2k + 1 steps from 0 to 0 are the Fibonacci numbers F(2k + 2)
    counts = workloads.path_counts(((1, 1), (1, 0)), 0, 9)
    assert [counts[2 * k + 1][0] for k in range(5)] == [1, 3, 8, 21, 55]
    assert workloads.render_pairs([(0.5 + 0.25j, 4), (0.5 - 0.25j, 4)]) == "4"
    assert workloads.render_pairs([(0.5 + 0.25j, 2)]) == "1.0+0.5j"


def test_benchmark_json_matches_the_harness():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == workloads.WHY
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} \
        == tracer.LAYER_METRICS


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "golden-long", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
