"""One pass/fail gate per check of the verification battery.

Each test asserts the battery's own verdict *and* re-states the headline
quantity with its pinned tolerance, so a regression shows up as a named
red line here even if the in-battery guard drifts.
"""

import contextlib
import hashlib
import io
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fracvar import asymptotics, verifysuite
from fracvar.cli import main
from fracvar.problem import load_config
from fracvar.verifysuite import run_all

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CFG = str(ROOT / "default.cfg")
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# float.hex of battery values at default.cfg, recorded by the in-process
# battery with one BLAS thread.  The grid values (checks 7, 8, 10) moved with
# the BLAS thread count there; the workers always run with one thread, so
# they must hold whatever the thread setting of this test process.
PINNED_HEX = {
    (7, "constraint_residual"): "0x0.0p+0",
    (8, "residual"): "0x1.0601b5eef7eb6p-27",
    (10, "level"): "0x1.c47be5391fc78p+38",
    (10, "crest_grad_final"): "0x1.254a9eb3343e6p+7",
    (10, "grad_drop"): "0x1.f458b34261865p+13",
    (11, "mc_mean"): "0x1.faadc485be9e1p+5",
    (11, "mean_z_50_seeds"): "0x1.d0953fe67e89cp-3",
}

# sha256 of ``fracvar verify --config default.cfg`` artifacts (seed 1318)
VERIFY_SHA256 = {
    "manifest.json": "9baef520a52231261b8ab8438abd5da07cf333af48e45d8e9b679627cd50bcb0",
    "verify_results.json": "6ae32c5b731d94e7d31f08abcdff7574c157ebb68383b5b78b967cd879e75a54",
}


@pytest.fixture(scope="module")
def battery_run(tmp_path_factory):
    """The first ``fracvar verify --config default.cfg`` run: the report that
    ``run_all`` returned to the CLI, the indices ``_finish`` saw in this
    process, the BLAS thread variables before and after, the exit code and
    the artifact directory."""
    finish, run = verifysuite._finish, verifysuite.run_all
    indices, reports = [], []

    def recording_finish(index, *args):
        indices.append(index)
        return finish(index, *args)

    def capturing_run_all(*args, **kwargs):
        reports.append(run(*args, **kwargs))
        return reports[-1]

    out = tmp_path_factory.mktemp("verify")
    env_before = {k: os.environ.get(k) for k in BLAS_THREADS}
    verifysuite._finish, verifysuite.run_all = recording_finish, capturing_run_all
    try:
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
            mp.delenv("FRACVAR_OUT", raising=False)
            code = main(["verify", "--config", DEFAULT_CFG, "--out", str(out)])
    finally:
        verifysuite._finish, verifysuite.run_all = finish, run
    env_after = {k: os.environ.get(k) for k in BLAS_THREADS}
    [report] = reports
    return report, indices, (env_before, env_after), code, out


@pytest.fixture(scope="module")
def battery(battery_run):
    return {r.index: r for r in battery_run[0].results}


def _get(battery, idx):
    r = battery[idx]
    return r, dict(r.details)


def test_01_closed_form_integrals_match_quadrature(battery):
    r, d = _get(battery, 1)
    assert r.passed
    assert d["draws"] == 20
    assert d["max_rel_error"] <= 1e-10
    assert r.seconds < 5.0


def test_02_critical_norm_scale_invariance(battery):
    r, d = _get(battery, 2)
    assert r.passed
    assert d["relative_spread"] < 1e-6
    assert r.seconds < 10.0


def test_03_bubble_norm_rates(battery):
    r, d = _get(battery, 3)
    assert r.passed
    assert abs(d["l2_slope"] - 1.0) <= 0.3 and d["l2_r2"] >= 0.98
    assert abs(d["deficit_slope"] - 6.0) <= 0.3 and d["deficit_r2"] >= 0.98
    assert abs(d["lq_slope"] - 0.5) <= 0.3 and d["lq_r2"] >= 0.98
    assert r.seconds < 120.0


def test_04_weight_bump_scaling(battery):
    r, d = _get(battery, 4)
    assert r.passed
    assert d["slope"] >= 1.0 - 0.3
    assert d["scaled_ratio"] <= 10.0
    assert r.seconds < 120.0


def test_05_seminorm_residual_rates(battery):
    r, d = _get(battery, 5)
    assert r.passed
    assert abs(d["bump_slope"] - 1.0) <= 0.3 and d["bump_r2"] >= 0.98
    assert abs(d["flat_slope"] - 5.0) <= 0.3 and d["flat_r2"] >= 0.98
    assert r.seconds < 300.0


def test_06_pointwise_power_gap_bound(battery):
    r, d = _get(battery, 6)
    assert r.passed
    assert d["worst_ratio"] <= 1.0
    assert d["cells"] == 6 and d["trials_per_cell"] == 100_000
    assert r.seconds < 10.0


def test_07_energy_dip_signature(battery):
    r, d = _get(battery, 7)
    assert r.passed
    assert d["grid_min_energy"] < d["level"]
    assert d["minimized_energy"] < d["level"]
    assert d["constraint_residual"] <= 1e-8
    assert d["lam0_min_energy"] >= d["level"] - 1e-3
    assert r.seconds < 600.0


def test_07_does_not_sweep_the_ball_form(monkeypatch):
    # the kappa-threshold comes from the weight's closed-form bump moment,
    # not from a fit of the ball-restricted |x|^k form
    calls = []
    real = asymptotics.sweep_A

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(asymptotics, "sweep_A", counting)
    ok, _ = verifysuite.check_energy_dip(load_config(DEFAULT_CFG).params)
    assert ok
    assert calls == []


def test_08_first_eigenvalue(battery):
    r, d = _get(battery, 8)
    assert r.passed
    assert d["residual"] <= 1e-8
    assert d["doubling_error"] <= 1e-8
    assert d["lambda1"] >= d["lambda1_unit_weight"] * (1.0 - 1e-12)
    assert r.seconds < 60.0


def test_09_fiber_limits(battery):
    r, d = _get(battery, 9)
    assert r.passed
    assert d["regimes"] == 4
    assert d["final_gap_rel"] < 0.02
    assert d["closed_vs_bisect"] <= 1e-10
    assert r.seconds < 300.0


def test_10_mountain_pass_level(battery):
    r, d = _get(battery, 10)
    assert r.passed
    assert d["beta"] - 1e-6 <= d["level"] < d["bound"]
    assert d["monotone"] is True
    assert d["grad_drop"] >= 10.0
    assert r.seconds < 900.0


def test_11_cross_method_seminorm(battery):
    r, d = _get(battery, 11)
    assert r.passed
    assert d["worst_config_z"] <= 3.0
    assert abs(d["mean_z_50_seeds"]) <= 3.0
    assert r.seconds < 600.0


def test_12_repeated_verify_runs_are_byte_identical(battery, battery_run, tmp_path,
                                                    monkeypatch, capsys):
    r, d = _get(battery, 12)
    assert r.passed and d["identical"] is True
    # end to end: two full CLI runs, the fixture's and one more, must leave
    # byte-identical artifacts
    monkeypatch.delenv("FRACVAR_OUT", raising=False)
    first_code, first_out = battery_run[3:]
    assert first_code == 0
    assert main(["verify", "--config", DEFAULT_CFG, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    dirs = [first_out, tmp_path]
    for fname in ("manifest.json", "verify_results.json"):
        assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()
        assert hashlib.sha256((dirs[0] / fname).read_bytes()).hexdigest() == VERIFY_SHA256[fname]
    timings = json.loads((dirs[0] / "timings.json").read_text())
    assert set(timings["seconds"]) == set(timings["budgets"]) == {str(i) for i in range(1, 13)}
    assert timings["workers"] == min(2, len(os.sched_getaffinity(0)))
    assert timings["wall_s"] > 0.0


def test_values_do_not_depend_on_the_callers_blas_threads(battery):
    got = {(i, key): float(dict(battery[i].details)[key]).hex() for i, key in PINNED_HEX}
    assert got == PINNED_HEX


def test_results_are_built_in_the_calling_process(battery_run):
    report, indices, (env_before, env_after) = battery_run[:3]
    assert sorted(indices) == list(range(1, 13))
    assert [r.index for r in report.results] == list(range(1, 13))
    assert report.workers == min(2, len(os.sched_getaffinity(0)))
    assert env_after == env_before


def test_worker_exception_reaches_the_caller():
    # seed + 1000 + j is -1 in the first unbiasedness chunk, an early work item
    cfg = replace(load_config(DEFAULT_CFG), seed=-1001)
    with pytest.raises(ValueError) as local:
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError) as remote:
        run_all(cfg)
    assert type(remote.value) is type(local.value)
    assert str(remote.value) == str(local.value)
    assert type(remote.value.__cause__).__name__ == "_RemoteTraceback"
