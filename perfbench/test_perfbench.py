"""Self-tests of the benchmark harness, in smoke mode (tiny inputs).

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402
import exact  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import metric_names, summary_names  # noqa: E402
from symmlu import majorana, states  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, seconds=1):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "3", "--seconds", str(seconds), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("n", [3, 12, 48])
def test_rotation_matches_library(n):
    rng = np.random.default_rng(n)
    psi = states.random_symmetric(n, rng)
    g = exact.random_su2(rng)
    ours = exact.rotate_coeffs(g, psi.coeffs)
    theirs = states.apply_diag_symmetric(g, psi).coeffs
    assert exact.phase_distance(ours, theirs) < 1e-9


def test_points_match_library():
    rng = np.random.default_rng(5)
    pts = exact.random_points(4, rng)
    mults = [3, 1, 2, 1]
    ours = exact.coeffs_from_points(pts, mults)
    theirs = majorana.points_to_state(pts, mults).coeffs
    assert exact.phase_distance(ours, theirs) < 1e-12


def test_calibration_factors_are_one_at_reference_speed_and_half_at_half_speed():
    cal = calibrate.Calibration()
    cal.times = {k: [v, 2 * v, 2 * v] for k, v in calibrate.REFERENCE_S.items()}
    assert cal.run_factor() == pytest.approx(0.5)
    cal.mids, cal.factors = [0.0, 1.0, 2.0, 3.0, 9.0, 10.0, 11.0, 12.0], [1.0] * 4 + [0.5] * 4
    assert cal.local(0.5, 1.0) == pytest.approx(1.0)
    assert cal.local(10.0, 1.0) == pytest.approx(0.5)


def test_short_calls_are_scaled_locally_and_long_ones_by_the_run():
    cal = calibrate.Calibration()
    cal.times = {k: [2 * v] for k, v in calibrate.REFERENCE_S.items()}
    cal.mids, cal.factors = [0.0, 1.0, 2.0, 3.0], [0.25] * 4
    ops = [
        workloads.Op("k", "short", 1, lambda: None, lambda r: None),
        workloads.Op("k", "long", 1, lambda: None, lambda r: None, long=True),
    ]
    records = [(0, 1.0, 0.2, None, None), (0, 2.0, 0.4, None, None), (0, 2.5, 0.3, None, None), (1, 1.0, 4.0, None, None)]
    assert run.op_latencies(ops, records, cal) == pytest.approx([0.075, 2.0])
    assert run.op_latencies(ops, records) == pytest.approx([0.3, 4.0])


def test_benchmark_json_lists_the_summary_layer_metrics():
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == summary_names()


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_unit(workload, trace):
    lines, report, result = _result(_run("--workload", workload, "--trace", str(trace), "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    printed = metric_names() if trace else list(got.items())
    for name, unit in printed:
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("fail_frac ") for line in lines)
    assert report["blas_threads"] == 1 and "using_numba" in report


def test_wrong_expected_answer_counts_as_failure():
    _, report, result = _result(_run("--workload", "pure", "--trace", "0", "--smoke", "--inject-wrong"))
    assert report["fail_by_family"].get("classify/injected", 0) >= 1
    assert report["fail_frac"] > 0
    assert result["failed"] >= report["fail_by_family"]["classify/injected"]
    assert result["correct"] is False


def test_attempted_and_failed_do_not_depend_on_run_length():
    args = ("--workload", "pure", "--trace", "0", "--smoke", "--inject-wrong")
    short = _result(_run(*args, seconds=0))[2]
    longer = _result(_run(*args, seconds=4))[2]
    assert (short["attempted"], short["failed"]) == (longer["attempted"], longer["failed"])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "pure", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
