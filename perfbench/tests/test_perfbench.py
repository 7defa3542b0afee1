"""Tests of the benchmark itself: each check accepts the program's real
output and rejects a deliberately wrong one, and each workload survives a
short run through the benchmark command.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import reference as ref
import workloads
from marc_cap import cli, region, sumcap

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EX1 = workloads.EXAMPLES[1]
EX2 = workloads.EXAMPLES[2]
# Every round of scan_kmany holds the fixed configs of the sampled-scan fault.
FAILED_SHARE = {
    "scan_kmany": len(workloads.SCAN_FAULT_CONFIGS)
    / (len(workloads.ScanKmany.KS) * (1 + workloads.ScanKmany.ASYMMETRIC_PER_K) + len(workloads.SCAN_FAULT_CONFIGS))
}


def _config(spec):
    return workloads.Item(spec, "test").config


def _with_runs(result, alpha1_runs, alpha2_runs):
    scan = dataclasses.replace(
        result["evidence"], active_intervals={"alpha1": alpha1_runs, "alpha2": alpha2_runs}
    )
    return dict(result, evidence=scan)


def test_maxmin_bisection_matches_closed_form():
    # Example 1: root 1/sqrt(6), value C(10 - 6 x^2) = C(9) = log2(10) / 2.
    regime, x, value = ref.maxmin(**EX1)
    assert regime == "Equalized"
    assert abs(x - 1.0 / math.sqrt(6.0)) < 1e-14
    assert abs(value - 0.5 * math.log2(10.0)) < 1e-14
    regime, x, value = ref.maxmin([1.0, 1.0], 100.0, 1.0, 1.0)
    assert (regime, x) == ("Bottleneck", 0.0) and value == ref.capacity(2.0)


def test_slice_sampler_stays_on_the_equalizer_slice():
    lam = np.array([1.0, 0.2872592983381694, 0.0003656027433394883, 0.007225006594566078])
    alphas = ref.equalizing_alphas(lam, 0.5, 1000, np.random.default_rng(0))
    assert alphas.min() >= 0.0 and alphas.max() <= 1.0
    assert np.abs((lam * (1.0 - alphas)).sum(axis=1) - 0.5).max() < 1e-12


def test_value_check_rejects_a_value_off_by_1e6():
    result = sumcap.sum_capacity(_config(EX1), resolution=1e-3)
    checks.check_value(EX1, result)
    with pytest.raises(checks.CheckFailed, match="differs from max-min"):
        checks.check_value(EX1, dict(result, value=result["value"] + 1e-6))


def test_run_check_rejects_a_run_shifted_by_two_grid_steps():
    resolution = 1e-3
    result = sumcap.sum_capacity(_config(EX2), resolution=resolution)
    checks.check_two_user_scan(EX2, result, resolution)
    checks.check_example(2, EX2, result)
    (a, b), = result["evidence"].active_intervals["alpha1"]
    shifted = (a + 2 * resolution, b + 2 * resolution)
    _, _, c = checks.feasible_alpha1(EX2)
    partner = [tuple(sorted(checks.alpha2_of_alpha1(EX2, c, p) for p in shifted))]
    with pytest.raises(checks.CheckFailed, match="classifies Active"):
        checks.check_two_user_scan(EX2, _with_runs(result, [shifted], partner), resolution)
    with pytest.raises(checks.CheckFailed, match="status Exact with 0 active runs"):
        checks.check_two_user_scan(EX2, _with_runs(result, [], []), resolution)


def test_example_check_rejects_a_missing_whole_rule_set():
    result = sumcap.sum_capacity(_config(EX1), resolution=1e-3)
    checks.check_example(1, EX1, result)
    (a, b), = result["evidence"].active_intervals["alpha1"]
    with pytest.raises(checks.CheckFailed, match="whole rule set"):
        checks.check_example(1, EX1, _with_runs(result, [(a + 0.01, b)], []))


def test_sampled_check_rejects_wrong_verdicts():
    spec = {"P": [5.0] * 4, "P_r": 3.0, "N_r": 1.0, "N_delta": 2.0}
    config = _config(spec)
    result = sumcap.sum_capacity(config)
    outer = sumcap.scan_active_rules(config, result["solution"], family="outer")
    checks.check_sampled(spec, result, outer, symmetric=True)
    relabelled = dataclasses.replace(
        result["evidence"], samples=tuple((split, "Inactive") for split, _ in result["evidence"].samples)
    )
    with pytest.raises(checks.CheckFailed, match="labelled Inactive"):
        checks.check_sampled(spec, dict(result, evidence=relabelled), outer, symmetric=True)


def test_sampled_check_catches_the_scan_fault():
    spec = workloads.SCAN_FAULT_CONFIGS[0]
    config = _config(spec)
    result = sumcap.sum_capacity(config)
    outer = sumcap.scan_active_rules(config, result["solution"], family="outer")
    with pytest.raises(checks.CheckFailed, match="equalizing power splits are Active"):
        checks.check_sampled(spec, result, outer, symmetric=False)


def _regions(spec, step):
    config = _config(spec)
    return {
        "inner": region.build_df_region(config, step).vertices,
        "outer": region.build_outer_region(config, step).vertices,
    }


def test_region_check_rejects_a_non_convex_polygon():
    fine, coarse = _regions(EX1, 0.01), _regions(EX1, 0.05)
    checks.check_region(EX1, fine, coarse)
    v = np.array(fine["outer"])
    i = int(np.argmax(v.sum(axis=1)))
    neighbour = v[(i + 1) % len(v)]
    dent = 0.5 * (v[i] + neighbour) - 0.05 * (v[i] + neighbour) / np.linalg.norm(v[i] + neighbour)
    dented = dict(fine, outer=np.insert(v, i + 1, dent, axis=0))
    with pytest.raises(checks.CheckFailed, match="not strictly convex"):
        checks.check_region(EX1, dented, coarse)
    with pytest.raises(checks.CheckFailed, match="counterclockwise|signed area"):
        checks.check_region(EX1, dict(fine, inner=fine["inner"][::-1]), coarse)


def test_region_check_rejects_a_polygon_that_misses_the_coarse_one():
    fine, coarse = _regions(EX1, 0.01), _regions(EX1, 0.05)
    shrunk = dict(fine, inner=fine["inner"] * 0.99)
    with pytest.raises(checks.CheckFailed, match="vertices of the coarser polygon"):
        checks.check_region(EX1, shrunk, coarse)


def test_verify_check_rejects_a_fail_line(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(json.dumps(EX1))
    code, stdout = workloads.VerifySuite._cli(["verify", str(path), "--suite", "all", "--n", "100000"])
    checks.check_verify(EX1, code, stdout, stdout)
    failing = stdout.replace("PASS chords dest-cut-full", "FAIL chords dest-cut-full")
    with pytest.raises(checks.CheckFailed, match="failing line"):
        checks.check_verify(EX1, code, failing)
    with pytest.raises(checks.CheckFailed, match="differs from the first run"):
        checks.check_verify(EX1, code, stdout, stdout.replace("trials=1000", "trials=1001", 1))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"], proc.stderr
    assert report["failed"] / report["attempted"] == FAILED_SHARE.get(workload, 0.0)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: metric["unit"] for name, metric in report["metrics"].items()
    }
    assert all(metric["value"] > 0 for metric in report["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = _bench("--workload", "scan_kmany", "--seed", "7", "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: metric["unit"] for name, metric in report["metrics"].items()
    }
    assert report["metrics"]["polymatroid.intersections"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "sumcap_k2", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
