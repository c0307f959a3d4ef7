import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from fracvar.bubble import Bubble, TruncatedBubble, truncated_bubble
from fracvar.constants import bubble_constants, sphere_surface
from fracvar import quad
from fracvar.problem import ProblemParams, WeightModel, weight_from_params
from fracvar.quad import (
    bilinear_radial,
    default_r_breaks,
    mc_reference_ks,
    radial_power_integral,
    seminorm_mc,
    seminorm_radial,
)
from fracvar.solver import make_grid, stiffness_rule

N6, S6 = 6, 0.5


def test_zero_profile_is_zero():
    est = seminorm_radial(lambda r: np.zeros_like(r), None, N6, S6, 2.0)
    assert est.value == 0.0
    assert est.method == "RadialDeterministic"


def test_weight_linearity():
    tb = truncated_bubble(0.5, S6, N6, 1.0)
    w1 = WeightModel(n=N6, p0=1.0, kappa=0.3, k=2, eta=1.0)
    w2 = WeightModel(n=N6, p0=2.0, kappa=0.6, k=2, eta=1.0)
    a = seminorm_radial(tb, w1, N6, S6, tb.support).value
    b = seminorm_radial(tb, w2, N6, S6, tb.support).value
    assert b == pytest.approx(2.0 * a, rel=1e-10)


def test_refinement_error_estimate_is_small():
    tb = truncated_bubble(0.4, S6, N6, 1.0)
    est = seminorm_radial(tb, None, N6, S6, tb.support)
    assert est.abs_error < 1e-6 * est.value


def test_bubble_seminorm_vs_mc_oracle():
    # untruncated unit bubble, w = 1: deterministic vs independent MC
    det = bubble_constants(N6, S6).Ks
    mc = mc_reference_ks(N6, S6, N=2_000_000, seed=12)
    assert abs(mc.value - det) <= 3.0 * mc.abs_error
    assert abs(mc.value - det) / det < 5e-3


def test_cross_method_truncated_weighted():
    # (n=6, s=0.5, eps=0.5, TruncatedPower weight): radial vs box sampler
    tb = truncated_bubble(0.5, S6, N6, 1.0)
    w = WeightModel(n=N6, p0=1.0, kappa=1.0, k=2, eta=1.0)
    det = seminorm_radial(tb, w, N6, S6, tb.support)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mc = seminorm_mc(tb, w, N6, S6, N=600_000, seed=4)
    sigma = math.hypot(det.abs_error, mc.abs_error)
    assert abs(mc.value - det.value) <= 3.0 * sigma


def test_mc_zero_profile():
    est = seminorm_mc(quad.as_profile(lambda r: np.zeros_like(r), 2.0), None, N6, S6, N=10_000, seed=1)
    assert est.value == 0.0 and est.abs_error == 0.0
    assert est.method == "MonteCarlo"


def test_mc_evaluates_the_profile_inside_its_support_only():
    # u is 0 from the support on, so a pair with both radii there is +0.0
    # and is skipped, and u is read only below the support; bit for bit
    tb = truncated_bubble(0.8, S6, N6, 1.0)
    top = []

    def u(r):
        top.append(np.max(r, initial=0.0))
        return tb.radial_value(r)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = seminorm_mc(quad.as_profile(u, tb.support), None, N6, S6, N=4096, seed=5)
        want = seminorm_mc(tb, None, N6, S6, N=4096, seed=5)
    assert max(top) < tb.support
    assert (got.value.hex(), got.abs_error.hex()) == (want.value.hex(), want.abs_error.hex())


def test_mc_needs_a_finite_support():
    with pytest.raises(ValueError):
        seminorm_mc(quad.as_profile(lambda r: np.zeros_like(r), math.inf), None, N6, S6, N=1024)


@pytest.mark.parametrize("n", [3, 6, 10])
def test_partner_radius_has_the_law_of_the_point_construction(n):
    # independent route: x uniform in the ball, y = x + rho d with d a
    # normalized Gaussian n-vector, reduced to |y| at the end.  rho is of the
    # order of |x|, where |y| depends most on the angle; a Beta parameter off
    # by 1/2 fails at n = 3 and 6
    m, R = 40_000, 1.5
    rng = np.random.default_rng(100 + n)
    x = rng.standard_normal((m, n))
    x *= (R * rng.random(m) ** (1.0 / n) / np.linalg.norm(x, axis=1))[:, None]
    rho = R * rng.random(m)
    d = rng.standard_normal((m, n))
    d /= np.linalg.norm(d, axis=1)[:, None]
    by_points = np.linalg.norm(x + rho[:, None] * d, axis=1)
    rng = np.random.default_rng(200 + n)
    rx = R * rng.random(m) ** (1.0 / n)
    by_radii = quad._partner_radius(rng, rx, R * rng.random(m), n)
    assert stats.ks_2samp(by_points, by_radii).pvalue > 1e-3


def test_mc_reproducible_per_seed():
    tb = truncated_bubble(0.8, S6, N6, 1.0)
    a = seminorm_mc(tb, None, N6, S6, N=50_000, seed=21)
    b = seminorm_mc(tb, None, N6, S6, N=50_000, seed=21)
    assert a.value == b.value and a.abs_error == b.abs_error


def test_mc_variance_warning():
    # sharply concentrated profile inside a large box: uniform sampling
    # cannot resolve the peak, so the SE must announce itself
    tb = truncated_bubble(0.2, S6, N6, 1.0)
    with pytest.warns(RuntimeWarning):
        seminorm_mc(tb, None, N6, S6, N=30_000, seed=2)


_MC_TB = truncated_bubble(0.8, S6, N6, 1.0)
_MC_CASES = {
    # kappa = 1 weight: the sampled y points cross the 4*eta junction
    "weighted": (_MC_TB, WeightModel(n=N6, p0=1.0, kappa=1.0, k=2, eta=1.0)),
    "unweighted": (_MC_TB, None),
}


# (value, abs_error) hex by (case, N); the test ids leave them out, so a
# re-pin keeps the names
_MC_EXACT = {
    ("weighted", 100_000): ("0x1.c205d904a104dp+7", "0x1.f93a205e99ef7p+3"),
    ("unweighted", 100_000): ("0x1.22e1eda21427dp+6", "0x1.915869813387fp+2"),
    ("weighted", 1024): ("0x1.4b11eb7ce22f0p+7", "0x1.03e5b208687c7p+6"),
    ("unweighted", 1024): ("0x1.729d67907d22fp+5", "0x1.24fd64359fb3cp+4"),
}


@pytest.mark.parametrize("case, N", list(_MC_EXACT))
def test_mc_exact_values(case, N):
    # Recorded with numpy 2.4.6.  Any change to the sampling stream moves the
    # last bits.  So does most any change to the order of the float
    # operations, though a batch mean can absorb a one-ulp change of a few
    # pairs; at N = 1024 (16 pairs per batch) far fewer are absorbed.
    u, w = _MC_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        est = seminorm_mc(u, w, N6, S6, N=N, seed=5)
    assert (est.value.hex(), est.abs_error.hex()) == _MC_EXACT[case, N]


# the ids keep the names of the first recording, so a re-pin moves only the values
@pytest.mark.parametrize("eps, radial, bilinear, mc", [
    pytest.param(0.05, ("0x1.55d3cd23edeafp+7", "0x1.a000000000000p-42"), "0x1.55d3cd23edebcp+7",
                 ("0x1.8269c3976aecbp-11", "0x1.1b290e44a9d2ep-11"), id="0.05-radial0-0x1.55d3cd23e8a64p+7-mc0"),
    pytest.param(0.4, ("0x1.55f664e298721p+7", "0x1.3c88000000000p-32"), "0x1.55f664e29aeb2p+7",
                 ("0x1.6e633022ae58ep+3", "0x1.02fd2aaf4d8b1p+3"), id="0.4-radial1-0x1.55f664e2959cdp+7-mc1"),
    pytest.param(1.2, ("0x1.fb17c8043cdb7p+6", "0x1.06a8000000000p-32"), "0x1.fb17c80438c0dp+6",
                 ("0x1.191d10bbf518ap+6", "0x1.37cd87cd62609p+5"), id="1.2-radial2-0x1.fb17c8042f503p+6-mc2"),
])
def test_kappa_zero_weight_matches_constant_weight(eps, radial, bilinear, mc):
    # recorded with numpy 2.4.6 under the constant weight p = 2 (a weight
    # variant of its own until it was found equal to kappa = 0, bit for bit)
    tb = truncated_bubble(eps, S6, N6, 1.0)
    w = WeightModel(n=N6, p0=2.0, kappa=0.0, k=2.0, eta=1.0)
    est = seminorm_radial(tb, w, N6, S6, tb.support)
    assert (est.value.hex(), est.abs_error.hex()) == radial
    assert bilinear_radial(tb, tb, w, N6, S6, tb.support).hex() == bilinear
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        est = seminorm_mc(tb, w, N6, S6, N=1024, seed=3)
    assert (est.value.hex(), est.abs_error.hex()) == mc


def test_bilinear_symmetry_and_cauchy_schwarz():
    u = truncated_bubble(0.5, S6, N6, 1.0)
    v = truncated_bubble(0.9, S6, N6, 1.0)
    w = WeightModel(n=N6, p0=1.0, kappa=0.2, k=2, eta=1.0)
    uv = bilinear_radial(u, v, w, N6, S6, 2.0)
    vu = bilinear_radial(v, u, w, N6, S6, 2.0)
    assert uv == pytest.approx(vu, rel=1e-12)
    nu = seminorm_radial(u, w, N6, S6, 2.0).value
    nv = seminorm_radial(v, w, N6, S6, 2.0).value
    assert uv**2 <= nu * nv * (1.0 + 1e-10)
    uu = bilinear_radial(u, u, w, N6, S6, 2.0)
    assert uu == pytest.approx(nu, rel=1e-9)


def test_norm_equivalence_bounds():
    tb = truncated_bubble(0.6, S6, N6, 1.0)
    w = WeightModel(n=N6, p0=1.3, kappa=0.8, k=2, eta=1.0)
    plain = seminorm_radial(tb, None, N6, S6, tb.support).value
    weighted = seminorm_radial(tb, w, N6, S6, tb.support).value
    assert 1.3 * plain <= weighted * (1.0 + 1e-12)
    assert weighted <= w.sup() * plain * (1.0 + 1e-12)


def test_quadratic_homogeneity():
    tb = truncated_bubble(0.5, S6, N6, 1.0)
    c = 1.73205

    def scaled(r):
        return c * tb.radial_value(r)

    base = seminorm_radial(tb, None, N6, S6, tb.support).value
    scl = seminorm_radial(scaled, None, N6, S6, tb.support).value
    assert scl == pytest.approx(c**2 * base, rel=1e-10)


def test_radial_power_integral_matches_closed_form():
    b = Bubble(eps=1.0, s=S6, n=N6)
    from fracvar.constants import lebesgue_power_integral

    got = radial_power_integral(b, 2.4, N6, r_max=1e4)
    assert got == pytest.approx(lebesgue_power_integral(6, 6.0), rel=1e-7)


def test_deterministic_estimate_reports_panels():
    tb = truncated_bubble(0.5, S6, N6, 1.0)
    est = seminorm_radial(tb, None, N6, S6, tb.support)
    assert est.samples_or_panels > 10


# ---------------------------------------------------------------------------
# Pair-form kernel tables: exact values and table lifetime
# ---------------------------------------------------------------------------

_P = ProblemParams(n=6, s=0.5, k=2, kappa=0.05, lam=21.0, q=2.0, p0=1.0, eta=1.0, R=5.0)
_CONTINUUM_WEIGHTS = [weight_from_params(replace(_P, kappa=k)) for k in (0.0, 0.05, 1.0)]


def _bubble_pass(ub):
    ests = [seminorm_radial(ub, w, N6, S6, ub.support) for w in _CONTINUUM_WEIGHTS]
    return ests, bilinear_radial(ub, ub, _CONTINUUM_WEIGHTS[-1], N6, S6, ub.support)


def test_truncated_bubble_exact_values():
    # Recorded with numpy 2.4.6 before the kernel tables were cached: any
    # change to the order of the float operations moves the last bits.
    ests, bil = _bubble_pass(truncated_bubble(0.05, S6, N6, 1.0))
    assert [(e.value.hex(), e.abs_error.hex()) for e in ests] == [
        ("0x1.55d3cd23edeafp+6", "0x1.a000000000000p-43"),
        ("0x1.57b15e9e56deap+6", "0x1.8000000000000p-43"),
        ("0x1.7b232ab420f9ap+6", "0x1.4000000000000p-42"),
    ]
    assert bil.hex() == "0x1.7b232ab420faep+6"


def test_getoor_profile_exact_value():
    # s = 0.25: the outer fold's t^(2s-1) is a true power, not a constant
    est = seminorm_radial(lambda r: np.maximum(1.0 - r * r, 0.0) ** 0.25, None, 6, 0.25, 1.0)
    assert (est.value.hex(), est.abs_error.hex()) == ("0x1.d3438f82959d2p+8", "0x1.a09cc30530000p-6")


def test_callable_power_integral_exact_value():
    # a plain callable takes the generic panels of default_r_breaks
    getoor = lambda r: np.maximum(1.0 - r * r, 0.0) ** 0.25  # noqa: E731
    got = [radial_power_integral(getoor, expo, 6, r_max=1.0).hex() for expo in (12.0 / 5.5, 2.0)]
    assert got == ["0x1.1c8e2cfdb522dp+1", "0x1.2e62bf7f08ad7p+1"]


def _pass_radii(rule):
    """The pair form's radii of a seminorm on ``rule``: its coarse and its fine pass."""
    return np.concatenate([r.radial_nodes()[0] for r in (rule, rule.refined())])


def test_second_bubble_folds_only_its_new_radii(monkeypatch):
    # truncated bubbles share every radial panel but the few deepest, and
    # the fold rows are shared across profiles by radius
    quad._fold_memo.clear()
    ub1, ub2, ub3 = (truncated_bubble(e, S6, N6, 1.0) for e in (0.3, 0.05, 0.2))
    b1, b2, b3 = (quad._breaks_to(None, u.support, u) for u in (ub1, ub2, ub3))
    w = _CONTINUUM_WEIGHTS[1]
    seminorm_radial(ub1, w, N6, S6, ub1.support)
    rows = []  # radii per spline query: the kernel table has one row per radius
    real = quad._kernel_interp

    def counting(n, s):
        ev = real(n, s)
        return lambda t: rows.append(len(t)) or ev(t)

    monkeypatch.setattr(quad, "_kernel_interp", counting)
    seminorm_radial(ub2, w, N6, S6, ub2.support)
    new = np.setdiff1d(_pass_radii(b2), _pass_radii(b1))
    assert 0 < len(new) < len(np.unique(_pass_radii(b2))) // 2
    assert sum(rows) == len(new)
    assert max(rows) <= quad.ROW_BLOCK
    rows.clear()
    # a bubble with an equal rule takes every row from the memo
    assert b3 == b1
    seminorm_radial(ub3, w, N6, S6, ub3.support)
    assert rows == []


def test_fold_memo_stays_bounded(monkeypatch):
    rn = np.linspace(0.1, 0.9, 7)
    for i in range(quad._FOLD_KEYS + 5):
        quad._fold_rows(None, N6, S6, rn, r_hi=1.0 + i / 64, n_t=12)
        assert len(quad._fold_memo) <= quad._FOLD_KEYS
    assert len(quad._fold_memo) == quad._FOLD_KEYS
    # a key holds at most _FOLD_ROWS radii before the radii of one call
    monkeypatch.setattr(quad, "_FOLD_ROWS", 20)
    for i in range(6):
        quad._fold_rows(None, N6, S6, rn + i / 8, r_hi=2.0, n_t=12)
        radii, vals = quad._fold_memo[(None, N6, S6, 2.0, 12)]
        assert len(radii) == len(vals) <= 20 + len(rn)
    assert len(radii) < 6 * len(rn)


def _hex(a):
    return [float(x).hex() for x in a]


def test_fold_memo_under_threads():
    # more threads than cores share the memo while its keys are evicted and
    # refilled; a torn update would raise or return another key's rows
    rn = np.linspace(0.05, 0.95, 9)
    wfun, wfar = quad._weight_fns(None)
    r_his = [1.0 + i / 64 for i in range(quad._FOLD_KEYS + 4)]
    ref = {r: _hex(quad._outer_fold(rn, wfun, wfar, N6, S6, r_hi=r, n_t=12)) for r in r_his}
    errors = []

    def work(j):
        try:
            for i in range(400):
                r_hi, lo = r_his[(i + 5 * j) % len(r_his)], i % 3
                got = quad._fold_rows(None, N6, S6, rn[lo:], r_hi=r_hi, n_t=12)
                assert _hex(got) == ref[r_hi][lo:]
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(quad._fold_memo) <= quad._FOLD_KEYS


@pytest.mark.parametrize("w", [None, _CONTINUUM_WEIGHTS[2]], ids=["unit", "kappa1"])
def test_fold_memo_rows_equal_one_fold_of_all_radii(w):
    # rows are computed in blocks and taken from the memo; each must equal
    # the row of one _outer_fold call on the whole radius array, bit for bit
    wfun, wfar = quad._weight_fns(w)
    ub = truncated_bubble(0.05, S6, N6, 1.0)
    rule = quad._breaks_to(None, ub.support, ub)
    grid_rules = [stiffness_rule(make_grid(5.0, m)) for m in (128, 256)]
    cases = [(r.radial_nodes()[0], ub.support, r.n_t) for r in (rule, rule.refined())]
    cases += [(r.radial_nodes()[0], 5.0, r.n_t) for r in grid_rules]
    grids = [rn for rn, _, _ in cases[2:]]
    quad._fold_memo.clear()
    for rn, r_hi, n_t in cases + cases:  # a cold memo, then a warm one
        got = quad._fold_rows(w, N6, S6, rn, r_hi=r_hi, n_t=n_t)
        assert _hex(got) == _hex(quad._outer_fold(rn, wfun, wfar, N6, S6, r_hi=r_hi, n_t=n_t))
    # the M = 256 grid refines only the first interval of the M = 128 grid
    assert len(grids[0]) > quad.ROW_BLOCK and np.isin(grids[0][grid_rules[0].n_r:], grids[1]).all()


def _pass_hex(calls):
    """``float.hex`` of each seminorm (value, error) or bilinear value, as one flat list."""
    out = []
    for got in calls:
        out += [got.value.hex(), got.abs_error.hex()] if hasattr(got, "value") else [got.hex()]
    return out


def _bubble_calls(ub, r_max):
    """The continuum body's pair forms on one profile: three weighted seminorms, then bilinear."""
    return [lambda w=w: seminorm_radial(ub, w, N6, S6, r_max) for w in _CONTINUUM_WEIGHTS] + [
        lambda: bilinear_radial(ub, ub, _CONTINUUM_WEIGHTS[-1], N6, S6, r_max)]


def test_core_memo_is_bit_for_bit():
    # the weights share the profile's core tables; each value equals the one
    # computed with the memo cleared before it
    ub = truncated_bubble(0.05, S6, N6, 1.0)
    quad._core_memo.clear()
    warm = _pass_hex(call() for call in _bubble_calls(ub, ub.support))
    cold = []
    for call in _bubble_calls(ub, ub.support):
        quad._core_memo.clear()
        cold += _pass_hex([call()])
    assert warm == cold
    assert all(not a.flags.writeable for table in quad._core_memo.values() for a in table)


def test_core_memo_key_covers_the_rules():
    # a table is keyed by its rule, so a change of the tau or the radial
    # points between two calls on one profile never reads a stale table
    ub = truncated_bubble(0.1, S6, N6, 1.0)
    w = _CONTINUUM_WEIGHTS[1]
    rule = quad._breaks_to(None, ub.support, ub)

    def est(r):
        # the seminorm's two passes: its coarse and its refined rule
        return [quad._pair_form(ub, ub, w, N6, S6, q, r_hi=ub.support, include_outer=True).hex()
                for q in (r, r.refined())]

    quad._core_memo.clear()
    first = est(rule)
    for other in (rule._replace(n_t=10), rule._replace(n_r=11)):
        warm = est(other)
        quad._core_memo.clear()
        assert warm == est(other) != first


def test_core_memo_holds_one_profile():
    ub1, ub2 = truncated_bubble(0.3, S6, N6, 1.0), truncated_bubble(0.05, S6, N6, 1.0)
    w = _CONTINUUM_WEIGHTS[-1]
    quad._core_memo.clear()
    for ub in (ub1, ub2):
        # one rule of a new profile: the last profile's tables are gone
        bilinear_radial(ub, ub, w, N6, S6, ub.support, r_breaks=np.linspace(0.0, 2.0, 5))
        assert [k[0] for k in quad._core_memo] == [ub]
        # three rules: the oldest is dropped
        seminorm_radial(ub, w, N6, S6, ub.support)
        assert [k[0] for k in quad._core_memo] == [ub] * quad._CORE_RULES
    # a profile that is never memoized empties the memo before it is read
    seen = []

    def getoor(r):
        seen.append(len(quad._core_memo))
        return np.maximum(1.0 - r * r, 0.0) ** S6

    seminorm_radial(getoor, w, N6, S6, 1.0)
    assert seen and set(seen) == {0} and quad._core_memo == {}
    # so is a free bubble, whose tables no caller repeats
    seminorm_radial(ub2, w, N6, S6, ub2.support)
    free = Bubble(eps=0.2, s=S6, n=N6)
    bilinear_radial(free, free, None, N6, S6, 3.0)
    assert quad._core_memo == {}


def test_core_memo_under_threads():
    # more threads than cores share the memo while three profiles on two
    # rules keep evicting each other; a torn update would raise or return
    # another key's table
    rules = [quad.PairRule((0.05, 1.0, 1.95), 4, 12), quad.PairRule((0.1, 0.7, 1.3, 1.9), 2, 10)]
    tables = [(r, r.radial_nodes()[0], quad._kernel_row(N6, S6, r.n_t)[0]) for r in rules]
    profiles = [truncated_bubble(e, S6, N6, 1.0) for e in (0.3, 0.1, 0.02)]
    cases = [(p, r, rn, tn) for p in profiles for r, rn, tn in tables]
    ref = [(p.radial_value(rn).tobytes(), (p.radial_value(rn)[:, None] - p.radial_value(rn[:, None] * tn)).tobytes())
           for p, _, rn, tn in cases]
    errors = []

    def work(j):
        try:
            for i in range(400):
                c = (i // 3 + j) % len(cases)  # a few calls per case, then the next
                p, rule, rn, tn = cases[c]
                u, rows = quad._core_diffs(p, rule, rn, tn)
                assert (u.tobytes(), rows(slice(None)).tobytes()) == ref[c]
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(quad._core_memo) <= quad._CORE_RULES
    assert len({k[0] for k in quad._core_memo}) <= 1


def test_one_profile_table_per_rule(monkeypatch):
    # three weighted seminorms and a bilinear pass evaluate the profile on
    # the r x tau table of the coarse and of the halved rule once each (they
    # evaluated it 7 times without the core memo); the tables are built a
    # block of rows at a time, so the evaluated cells are counted
    ub = truncated_bubble(0.05, S6, N6, 1.0)
    cells = []
    real = TruncatedBubble.radial_value

    def counting(self, r):
        if np.ndim(r) == 2:
            cells.append(np.size(r))
        return real(self, r)

    monkeypatch.setattr(TruncatedBubble, "radial_value", counting)
    quad._core_memo.clear()
    for call in _bubble_calls(ub, ub.support):
        call()
    rule = quad._breaks_to(None, ub.support, ub)
    n_tau = len(quad._kernel_row(N6, S6, rule.n_t)[0])
    assert sum(cells) == sum(len(q.radial_nodes()[0]) * n_tau for q in (rule, rule.refined()))
    assert max(cells) <= quad.ROW_BLOCK * n_tau


@pytest.mark.parametrize("rows, cols", [(1680, 577), (1064, 481), (200, 577), (64, 3), (1, 481)])
def test_blocked_reduction_is_the_einsum(rows, cols):
    # the core's sum in blocks of rows against one einsum of the whole table,
    # whose order it reproduces; a numpy change to that order fails here
    rng = np.random.default_rng(rows + cols)
    table = rng.standard_normal((rows, cols)) * np.exp(4.0 * rng.standard_normal((rows, cols)))
    r_fac = rng.random(rows) * np.exp(3.0 * rng.standard_normal(rows))
    got = quad._einsum_by_rows(r_fac, (table[blk] for blk in quad._row_blocks(rows)))
    assert got.hex() == float(np.einsum("i,ij->", r_fac, table)).hex()


def test_callable_seminorm_traced_peak_memory():
    # one seminorm of the Getoor profile, a plain callable, on its rule (a
    # fine pass of 1680 x 577 cells): 29.7 MiB with whole r x tau tables,
    # about 2.1 MiB with ROW_BLOCK rows at a time
    def getoor(r):
        return np.maximum(1.0 - r * r, 0.0) ** S6

    seminorm_radial(getoor, None, N6, S6, 1.0)
    quad._fold_memo.clear()
    tracemalloc.start()
    try:
        seminorm_radial(getoor, None, N6, S6, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


def test_bubble_pass_traced_peak_memory():
    # two bubbles' passes (three weighted seminorms and a bilinear each) with
    # cold memos: about 34.8 MiB with each table evaluated afresh, 33.0 MiB
    # with a memo that keeps every profile's tables, 26.6 MiB with one
    # profile's at a time, and 9.8 MiB with the tables built and the pair
    # forms run ROW_BLOCK rows at a time
    for call in _bubble_calls(truncated_bubble(0.3, S6, N6, 1.0), 2.0):
        call()
    quad._fold_memo.clear()
    quad._core_memo.clear()
    tracemalloc.start()
    try:
        for eps in (0.02, 0.05):
            for call in _bubble_calls(truncated_bubble(eps, S6, N6, 1.0), 2.0):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 * 2**20


class _DuckWeight:
    def __init__(self, p0):
        self.p0 = p0

    @property
    def far(self):
        return self.p0

    def radial(self, r):
        return self.p0 + 0.5 * np.exp(-np.asarray(r, dtype=float))


def test_mutable_duck_weight_is_never_memoized():
    ub = truncated_bubble(0.3, S6, N6, 1.0)
    w = _DuckWeight(1.0)
    first = seminorm_radial(ub, w, N6, S6, ub.support).value
    w.p0 = 2.0
    second = seminorm_radial(ub, w, N6, S6, ub.support).value
    assert second.hex() == seminorm_radial(ub, _DuckWeight(2.0), N6, S6, ub.support).value.hex()
    assert second != first


def test_profile_switch_matches_fresh_calls():
    # equal breaks, so both profiles map to the same fold geometry
    breaks = default_r_breaks(truncated_bubble(0.2, S6, N6, 1.0), 2.0)
    w = _CONTINUUM_WEIGHTS[-1]
    ub1, ub2 = truncated_bubble(0.3, S6, N6, 1.0), truncated_bubble(0.2, S6, N6, 1.0)
    seq = [seminorm_radial(u, w, N6, S6, 2.0, r_breaks=breaks) for u in (ub1, ub2, ub1)]
    fresh = [seminorm_radial(truncated_bubble(e, S6, N6, 1.0), w, N6, S6, 2.0, r_breaks=breaks)
             for e in (0.3, 0.2, 0.3)]
    assert [(e.value.hex(), e.abs_error.hex()) for e in seq] == [
        (e.value.hex(), e.abs_error.hex()) for e in fresh
    ]
    assert seq[0].value != seq[1].value


class _SlottedProfile:
    __slots__ = ("inner", "support")

    def __init__(self, inner):
        self.inner, self.support = inner, inner.support

    def radial_value(self, r):
        return self.inner.radial_value(r)


def test_value_only_profile_is_accepted():
    # the profile protocol is radial_value and support: nothing else is read
    tb = truncated_bubble(0.3, S6, N6, 1.0)
    plain = SimpleNamespace(radial_value=tb.radial_value, support=tb.support)
    breaks = default_r_breaks(tb, tb.support)
    w = _CONTINUUM_WEIGHTS[-1]
    got = seminorm_radial(plain, w, N6, S6, tb.support, r_breaks=breaks)
    want = seminorm_radial(tb, w, N6, S6, tb.support, r_breaks=breaks)
    assert (got.value.hex(), got.abs_error.hex()) == (want.value.hex(), want.abs_error.hex())
    assert bilinear_radial(plain, plain, w, N6, S6, tb.support, r_breaks=breaks).hex() == \
        bilinear_radial(tb, tb, w, N6, S6, tb.support, r_breaks=breaks).hex()


def _bubble_slope(b, r):
    m = b.exponent
    return -2.0 * m * r * b.eps**m * (b.eps**2 + r**2) ** (-(m + 1.0))


def _truncated_slope(tb, r):
    # product rule, with the derivative of the cutoff's smooth step psi(t) = a / (a + b)
    eta = tb.cutoff.eta
    t = (r - eta) / eta
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    a, b = np.exp(-1.0 / (1.0 - tm)), np.exp(-1.0 / tm)
    dpsi = np.zeros_like(r)
    dpsi[mid] = -a * b * (1.0 / (1.0 - tm) ** 2 + 1.0 / tm**2) / (a + b) ** 2
    return _bubble_slope(tb.bubble, r) * tb.cutoff.radial_value(r) + tb.bubble.radial_value(r) * dpsi / eta


@pytest.mark.parametrize("profile, slope", [
    (Bubble(eps=0.2, s=S6, n=N6), _bubble_slope),
    (Bubble(eps=1.0, s=S6, n=N6), _bubble_slope),
    (truncated_bubble(0.3, S6, N6, 1.0), _truncated_slope),
], ids=["bubble-0.2", "bubble-1", "truncated-0.3"])
@pytest.mark.parametrize("w", [None, _CONTINUUM_WEIGHTS[-1]], ids=["unit", "kappa1"])
def test_band_node_is_the_lipschitz_model(monkeypatch, profile, slope, w):
    # with every tau weight but the last zeroed, only the band's node at
    # 1 - DELTA is left: band * sum rw w u'^2 r^(n+1-2s), u' in closed form,
    # where the node's weight is band / DELTA^2
    r_hi = 2.0
    rule = quad._breaks_to(None, r_hi, profile)
    tn, tau_fac = quad._kernel_row(N6, S6, rule.n_t)
    band = tau_fac[-1] * quad.DELTA**2
    only_band = np.zeros_like(tau_fac)
    only_band[-1] = tau_fac[-1]
    monkeypatch.setattr(quad, "_kernel_row", lambda n, s, n_t: (tn, only_band))
    got = quad._pair_form(profile, profile, w, N6, S6, rule, r_hi=r_hi, include_outer=False)
    rn, rw = rule.radial_nodes()
    wr = np.ones_like(rn) if w is None else w.radial(rn)
    want = 2.0 * sphere_surface(N6) * band * np.sum(rw * wr * slope(profile, rn) ** 2 * rn ** (N6 + 1.0 - 2.0 * S6))
    assert got == pytest.approx(want, rel=1e-5)


def test_profile_without_weak_reference_is_accepted():
    ub = truncated_bubble(0.3, S6, N6, 1.0)
    breaks = default_r_breaks(ub, ub.support)
    plain = seminorm_radial(ub, None, N6, S6, ub.support, r_breaks=breaks)
    slotted = seminorm_radial(_SlottedProfile(ub), None, N6, S6, ub.support, r_breaks=breaks)
    assert (slotted.value.hex(), slotted.abs_error.hex()) == (plain.value.hex(), plain.abs_error.hex())
