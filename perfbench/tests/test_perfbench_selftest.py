"""Self-test of the benchmark at tiny sizes.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from corrgroup import evaluation  # noqa: E402
from corrgroup.grouping import AlgorithmParams, GroupingResult  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

# Tiny sets and a short RANSAC loop; the floors were fixed for the full
# sizes, so they are off here.
TINY_PARAMS = AlgorithmParams(n_ransac=50)
TINY = {
    "sweep-inlier": replace(workloads.WORKLOADS["sweep-inlier"], n=60, model_points=600, n_inputs=2,
                            levels=(0.3, 0.5), params=TINY_PARAMS, floors={}),
    "file-roundtrip": replace(workloads.WORKLOADS["file-roundtrip"], n=60, model_points=600, n_inputs=2,
                              params=TINY_PARAMS, floors={}),
}


def bench(capsys, workload: str, trace: int, seed: int = 3):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                     "--trace", str(trace)], registry=TINY) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


def test_registry_matches_benchmark_json():
    assert sorted(TINY) == sorted(workloads.WORKLOADS) == sorted(WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(capsys, workload, trace, kind):
    lines, result = bench(capsys, workload, trace)
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = {line.split()[0]: line.split()[2] for line in lines[:-1] if not line.startswith("#")}
    assert table == expected
    if kind == "end_to_end":
        assert all(result["metrics"][name]["value"] > 0 for name in expected)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_deterministic_values_repeat(capsys, workload):
    traced = [bench(capsys, workload, 1)[1] for _ in range(2)]
    counts = [{name: m["value"] for name, m in r["metrics"].items() if m["unit"] == "count"} for r in traced]
    assert counts[0] == counts[1]
    assert any(name.endswith(".n_grouped") and value > 0 for name, value in counts[0].items())
    plain = [bench(capsys, workload, 0)[1]["metrics"] for _ in range(2)]
    for name in ("precision_mean", "recall_mean"):
        assert plain[0][name]["value"] == plain[1][name]["value"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_out_of_range_index_counts_as_failed(capsys, monkeypatch, workload):
    def broken_gc(cset, params):
        return GroupingResult((len(cset),))

    monkeypatch.setattr(evaluation, "group_gc", broken_gc)
    lines, result = bench(capsys, workload, 0)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    failed_share = result["failed"] / result["attempted"]
    assert result["metrics"]["pass_share"]["value"] == pytest.approx(1 - failed_share)
    assert f"failed_share={failed_share:.6g}" in " ".join(lines)


def test_cells_leave_out_and_are_scaled_by_the_reference_kernel(monkeypatch, tmp_path):
    kernel_times = iter([0.030, 0.050])
    monkeypatch.setattr(workloads, "reference_seconds", lambda: next(kernel_times))
    clock = iter([10.0, 12.0])
    monkeypatch.setattr(workloads.time, "perf_counter", lambda: next(clock))
    bench_run = workloads.Run(TINY["file-roundtrip"], tmp_path)
    with bench_run.timed_cell():
        bench_run.reference()  # as before a grouping call inside the cell
    assert bench_run.raw["cell_s"] == [pytest.approx(2.0 - 0.050)]
    assert bench_run.samples["cell_s"] == [pytest.approx((2.0 - 0.050) * workloads.REFERENCE_S / 0.040)]
    assert bench_run.reference_s == [0.030, 0.050]
