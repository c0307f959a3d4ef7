import math

import numpy as np
import pytest

from fracvar import asymptotics
from fracvar.asymptotics import (
    DEFAULT_EPS_GRID,
    SLOPE_TOL,
    SweepReport,
    ball_weighted_form,
    check_delta_lemma,
    fit_rate,
    sweep_A,
    sweep_bubble_norms,
    sweep_energy,
    sweep_weighted_seminorm,
)
from fracvar.constants import sphere_surface
from fracvar.problem import ProblemParams

P = ProblemParams(n=6, s=0.5, k=2, kappa=1.0, lam=0.0, q=2.0, p0=1.0, eta=1.0, R=5.0)


def test_fit_rate_exact_power_law():
    grid = [0.4, 0.2, 0.1, 0.05]
    vals = [3.0 * e**1.0 for e in grid]
    slope, intercept, r2 = fit_rate(grid, vals)
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    # 3*eps^{2s} with s = 0.5
    slope, _, _ = fit_rate(grid, [3.0 * e for e in grid])
    assert slope == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_noisy_recovery():
    rng = np.random.default_rng(3)
    grid = np.geomspace(0.5, 0.05, 8)
    vals = 2.0 * grid**1.7 * np.exp(rng.normal(0.0, 0.05, size=8))
    slope, _, _ = fit_rate(grid, vals)
    assert abs(slope - 1.7) < 0.1


def test_fit_rate_degenerate_inputs():
    with pytest.raises(ValueError):
        fit_rate([0.4, 0.2], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_rate([0.4, 0.2, 0.1], [1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        fit_rate([0.4, 0.2, 0.1], [1.0, 0.0, 3.0])


@pytest.mark.parametrize("eps, values", [
    ([0.4, math.nan, 0.1], [1.0, 2.0, 3.0]),
    ([0.4, 0.2, 0.1], [1.0, math.nan, 3.0]),
    ([0.4, 0.2, 0.1], [1.0, math.inf, 3.0]),
    ([math.inf, 0.2, 0.1], [1.0, 2.0, 3.0]),
    ([0.4, 0.2, 0.1], [1.0, 2.0, -math.inf]),
], ids=["nan-eps", "nan-value", "inf-value", "inf-eps", "minus-inf-value"])
def test_fit_rate_rejects_non_finite_inputs(capfd, eps, values):
    # NaN passed a bare `<= 0` guard into the least squares, which printed
    # LAPACK errors and raised LinAlgError
    with pytest.raises(ValueError, match="finite"):
        fit_rate(eps, values)
    assert capfd.readouterr().err == ""


def test_sweep_report_invariants():
    with pytest.raises(ValueError):
        SweepReport("x", (0.4, 0.2, 0.1), (1.0, 2.0, 3.0), 1, 0, 1, 1, True)
    with pytest.raises(ValueError):
        SweepReport("x", (0.1, 0.2, 0.3, 0.4), (1.0, 2.0, 3.0, 4.0), 1, 0, 1, 1, True)


def test_ball_form_bounded_multiple_of_rate():
    rep = sweep_A(P)
    assert rep.passed
    assert rep.extras["scaled_ratio"] <= 10.0
    assert rep.fit_slope >= 2.0 * P.s - SLOPE_TOL
    assert rep.fit_r2 >= 0.98


def test_ball_form_exact_value():
    # one sweep_A point on the pair form's default panels, recorded with
    # numpy 2.4.6: any change to the order of the float operations moves the last bits
    assert ball_weighted_form(P, 0.05).hex() == "0x1.24003a873a0dcp+1"


def test_ball_form_ignores_kappa():
    a = sweep_A(P, eps_grid=(0.4, 0.2, 0.1, 0.05))
    b = sweep_A(
        ProblemParams(n=6, s=0.5, k=2, kappa=7.7, lam=0.0, q=2.0, p0=1.0, eta=1.0, R=5.0),
        eps_grid=(0.4, 0.2, 0.1, 0.05),
    )
    assert a.values == b.values


def test_ball_form_monotone_in_domain():
    small = ball_weighted_form(P, 0.2)
    big = ball_weighted_form(
        ProblemParams(n=6, s=0.5, k=2, kappa=1.0, lam=0.0, q=2.0, p0=1.0, eta=1.3, R=6.5), 0.2
    )
    assert big > small


def test_weighted_seminorm_residual_rate_kappa_positive():
    rep = sweep_weighted_seminorm(P)
    assert rep.passed
    assert rep.claimed_rate == pytest.approx(1.0)
    assert rep.extras["min_residual"] > 0.0
    assert rep.extras["C_fit"] > 0.0


def test_weighted_seminorm_residual_rate_constant_weight():
    p0w = ProblemParams(n=6, s=0.5, k=2, kappa=0.0, lam=0.0, q=2.0, p0=1.0, eta=1.0, R=5.0)
    rep = sweep_weighted_seminorm(p0w, eps_grid=(0.1, 0.07, 0.05, 0.035, 0.025))
    assert rep.claimed_rate == pytest.approx(5.0)
    assert rep.passed
    assert rep.extras["min_residual"] > 0.0


# float.hex of the single-pass seminorm sweeps behind checks 5 and 7, recorded
# before those passes moved from seminorm_radial to bilinear_radial(u, u, ...)
BUMP_VALUES = (
    "0x1.598e26abf367ep+7", "0x1.2126e76b7f83dp+7", "0x1.f8c806fc4a96bp+6", "0x1.c443e7ae539dcp+6",
    "0x1.a2dcedd0703a6p+6", "0x1.8abf25b3d969ep+6", "0x1.7b232ab420faep+6",
)
FLAT_VALUES = (
    "0x1.55d4551419ec2p+6", "0x1.55d3e2545f35bp+6", "0x1.55d3cd23edebcp+6", "0x1.55d3c8d06ded3p+6",
    "0x1.55d3c81122b9dp+6",
)
DIP_VALUES = (
    "0x1.143f0815dfcb5p+7", "0x1.18bbe82439baep+7", "0x1.1ca9981955723p+7", "0x1.1fef1e7d877e4p+7",
    "0x1.223a2035e3d43p+7", "0x1.23feef861642cp+7", "0x1.25326531b92ddp+7",
)


def test_weighted_seminorm_sweeps_exact_values():
    p0w = ProblemParams(n=6, s=0.5, k=2, kappa=0.0, lam=0.0, q=2.0, p0=1.0, eta=1.0, R=5.0)
    flat = sweep_weighted_seminorm(p0w, eps_grid=(0.1, 0.07, 0.05, 0.035, 0.025))
    assert tuple(v.hex() for v in sweep_weighted_seminorm(P).values) == BUMP_VALUES
    assert tuple(v.hex() for v in flat.values) == FLAT_VALUES


def test_energy_sweep_exact_values():
    # check 7's dip parameters at default.cfg (lam = lambda1 / 2, to 12 digits)
    p = ProblemParams(n=6, s=0.5, k=2, kappa=0.05, lam=20.9641768993, q=2.0, p0=1.0, eta=1.0, R=5.0)
    rep = sweep_energy(p)
    assert tuple(v.hex() for v in rep.values) == DIP_VALUES


def test_energy_requires_q2():
    bad = ProblemParams(n=6, s=0.5, k=2, kappa=0.1, lam=1.0, q=2.2, p0=1.0, eta=1.0, R=5.0)
    with pytest.raises(ValueError):
        sweep_energy(bad)


def test_energy_dip_below_threshold():
    p = ProblemParams(n=6, s=0.5, k=2, kappa=0.05, lam=21.0, q=2.0, p0=1.0, eta=1.0, R=5.0)
    rep = sweep_energy(p)
    assert rep.passed
    assert p.kappa < rep.extras["kappa_threshold"]
    assert rep.extras["min_energy"] < rep.extras["level"]
    assert rep.extras["all_below_level"] == 1.0


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_energy_dips_exactly_below_the_closed_form_threshold(factor):
    # kappa* = lam / (sigma_n int phi r^(-1-2s) dr), the TruncatedPower bump's
    # integral being (4 eta)^(k-2s) (1/(k-2s) + 1/(n+1+2s)); the energy of the
    # small bubbles dips under p0 Ss below kappa* and stays above it beyond
    lam = 20.9641768993
    kstar = lam / (sphere_surface(6) * 4.0 * (1.0 + 1.0 / 8.0))
    p = ProblemParams(n=6, s=0.5, k=2, kappa=factor * kstar, lam=lam, q=2.0, p0=1.0, eta=1.0, R=5.0)
    rep = sweep_energy(p, eps_grid=(0.04, 0.03, 0.02, 0.01))
    assert rep.extras["kappa_threshold"] == pytest.approx(kstar, rel=1e-12)
    assert rep.extras["dip_expected"] == float(factor < 1.0)
    assert all((v < rep.extras["level"]) == (factor < 1.0) for v in rep.values)
    assert rep.passed


def test_energy_no_dip_at_lambda_zero():
    p = ProblemParams(n=6, s=0.5, k=2, kappa=0.05, lam=0.0, q=2.0, p0=1.0, eta=1.0, R=5.0)
    rep = sweep_energy(p)
    assert rep.extras["min_energy"] >= rep.extras["level"] - 1e-3


def test_bubble_norm_rates():
    rep2, repd, repq = sweep_bubble_norms(ProblemParams(n=6, s=0.5, q=2.2))
    assert rep2.passed and rep2.claimed_rate == pytest.approx(1.0)
    assert repd.passed and repd.claimed_rate == pytest.approx(6.0)
    assert repq.passed and repq.claimed_rate == pytest.approx(0.5)
    for rep in (rep2, repd, repq):
        assert all(v > 0.0 and math.isfinite(v) for v in rep.values)


def test_sweeps_are_deterministic():
    a = sweep_A(P, eps_grid=(0.4, 0.2, 0.1, 0.05))
    b = sweep_A(P, eps_grid=(0.4, 0.2, 0.1, 0.05))
    assert a == b


def test_small_eps_needs_budget():
    with pytest.raises(ValueError):
        sweep_A(P, eps_grid=(0.4, 0.2, 0.1, 0.005))


@pytest.fixture
def few_trials(monkeypatch):
    monkeypatch.setattr(asymptotics, "DELTA_TRIALS", 20_000)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("R", [1.0, 2.0])
def test_delta_lemma_grid(k, R, few_trials):
    res = check_delta_lemma(k, R, seed=5)
    assert res.passed
    assert res.delta == pytest.approx(2.0 ** (k - 4.0) * k**2 * R ** (k - 2.0))


def test_delta_lemma_k2_is_triangle_inequality(few_trials):
    res = check_delta_lemma(2, 1.0, seed=1)
    assert res.delta == pytest.approx(1.0)
    # the bound is attained (colinear pairs) but never strictly violated
    assert res.worst_ratio <= 1.0 + 1e-12
    # and the sampler reaches nearly colinear pairs
    assert res.worst_ratio >= 1.0 - 1e-3


def test_delta_lemma_exact_bits(few_trials):
    # pairs sampled in R^3 as radii, bit for bit
    assert check_delta_lemma(3, 2.0, seed=5).worst_ratio.hex() == "0x1.cdf2e61454fffp-2"


def test_delta_lemma_input_validation():
    with pytest.raises(ValueError):
        check_delta_lemma(1.5, 1.0)


@pytest.mark.parametrize("k, R", [(math.nan, 1.0), (math.inf, 1.0), (2.0, math.inf), (2.0, math.nan)],
                         ids=["k-nan", "k-inf", "R-inf", "R-nan"])
def test_delta_lemma_rejects_non_finite_inputs(k, R):
    # NaN compares false, so "k < 2 or R <= 0" let these through: a NaN R
    # rejected every draw and never returned, the others reported passed=True
    # from a NaN ratio that max(0.0, nan) drops
    with pytest.raises(ValueError):
        check_delta_lemma(k, R)
