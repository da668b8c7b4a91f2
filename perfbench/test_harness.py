"""Self-test of the benchmark harness at tiny sizes (m <= 8, dims 8..16).

    python3 -m pytest perfbench/test_harness.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the exact counts repeat between two traced runs, that a perturbed reference
value fails the output check and names its worst case, and that the harness
refuses to run without the source tree.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import reference
import run

run.bootstrap()

import workloads  # noqa: E402  (imports swapcool from the source tree)

SELFTEST_OUT = os.path.join(run.OUT_DIR, "selftest")
NAMES = tuple(workloads.WORKLOADS)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def tiny(name: str, trace: bool, seed: int = 0) -> dict:
    return run.benchmark(name, seed, 0.01, trace, profile_name="tiny", out_dir=SELFTEST_OUT)


def test_spec_names_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in run.END_TO_END]


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_emitted(name):
    result = tiny(name, trace=False)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_layer_metrics_emitted_and_counts_repeat(name):
    first, second = tiny(name, trace=True), tiny(name, trace=True)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for record in (first, second):
        assert record["result"]["correct"]
        assert {k: v["unit"] for k, v in record["result"]["metrics"].items()} == expected
        assert record["missing_trace_targets"] == []
        assert record["count_mismatch"] == []
    for count in run.COUNTS:
        assert (first["result"]["metrics"][count]["value"]
                == second["result"]["metrics"][count]["value"]), count
    with open(os.path.join(run.ROOT, first["spans_file"])) as fh:
        spans = json.load(fh)
    for traced in spans:
        assert traced["spans"][0]["name"] == "bench.iteration"
        assert all(s["end"] >= s["start"] for s in traced["spans"])


def test_counts_match_the_tiny_schedule():
    layers = tiny("schedule", trace=True)["layers"]
    entry = reference.load_reference("tiny", "schedule")["outputs"]["schedule_m8.json"]
    sweep = reference.load_reference("tiny", "schedule")["outputs"]["stats_sweep"]
    assert layers["network.pair_events"] == entry["n_pairs"]
    assert layers["network.step_star_sum"] == entry["step_star"] + sum(sweep["step_star"])


def test_full_reference_holds_the_m128_counts():
    entry = reference.load_reference("full", "schedule")["outputs"]["schedule_m128.json"]
    assert (entry["n_pairs"], entry["step_star"]) == (707264, 9857)


def test_perturbed_reference_fails_and_names_worst_case():
    workload = workloads.CoeffsXiFlow(workloads.TINY, 0)
    out_dir = os.path.join(SELFTEST_OUT, "perturbed")
    shutil.rmtree(out_dir, ignore_errors=True)
    workload.run(None, out_dir, None)
    ref = reference.load_reference("tiny", "coeffs_xi_flow")
    report, identity = workload.check(None, out_dir, None, ref)
    assert report.ok and identity["byte_identical"]

    bad = copy.deepcopy(ref)
    row = bad["outputs"]["coeffs/K_m8.json"]["k"][3]
    col = next(i for i, v in enumerate(row) if v != 0.0)
    row[col] *= 1 + 1e-10
    report, _ = workload.check(None, out_dir, None, bad)
    assert not report.ok
    assert f"/coeffs/K_m8.json/k[3][{col}]" in report.summary()
    shutil.rmtree(out_dir)


def test_refuses_to_run_without_source_tree():
    bare = os.path.join(SELFTEST_OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "schedule",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
