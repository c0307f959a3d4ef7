import math
import warnings

import numpy as np
import pytest

from fracvar.bubble import Bubble, Cutoff, TruncatedBubble, lq_norm, truncated_bubble
from fracvar.constants import lebesgue_power_integral


def test_bubble_pointwise_values():
    b = Bubble(eps=1.0, s=0.5, n=6)
    assert b.radial_value(0.0) == pytest.approx(1.0, abs=0.0)
    # (eps/(eps^2+r^2))^((n-2s)/2) at r=1, eps=1 -> 2^(-2.5)
    assert b.radial_value(1.0) == pytest.approx(2.0**-2.5, rel=1e-15)
    assert b.radial_value(np.linalg.norm(np.zeros(6))) == pytest.approx(1.0)


def test_bubble_rescaling_identity():
    # U_eps(x) = eps^{-(n-2s)/2} U_1(x/eps)
    n, s, eps = 6, 0.5, 0.3
    b_eps = Bubble(eps=eps, s=s, n=n)
    b_one = Bubble(eps=1.0, s=s, n=n)
    alpha = (n - 2 * s) / 2.0
    rr = np.linspace(0.0, 4.0, 57)
    got = b_eps.radial_value(rr)
    want = eps**-alpha * b_one.radial_value(rr / eps)
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_bubble_requires_positive_width():
    with pytest.raises(ValueError):
        Bubble(eps=0.0, s=0.5, n=6)


@pytest.mark.parametrize("n, s", [(6, 5.0), (6, 1.0), (6, 0.0), (6, -0.5), (6, math.nan), (2, 0.5), (5.5, 0.5)])
def test_bubble_requires_critical_exponent_shape(n, s):
    # the rule of critical_exponent: an integer n >= 3 and s in (0, 1)
    with pytest.raises(ValueError):
        Bubble(eps=0.2, s=s, n=n)
    with pytest.raises(ValueError):
        truncated_bubble(0.2, s, n, 1.0)


def test_cutoff_plateau_support_and_smoothness():
    c = Cutoff(eta=1.0)
    rr_in = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(c.radial_value(rr_in), 1.0, atol=0.0)
    rr_out = np.linspace(2.0, 5.0, 7)
    np.testing.assert_allclose(c.radial_value(rr_out), 0.0, atol=0.0)
    mid = c.radial_value(np.linspace(1.0, 2.0, 101))
    assert np.all(np.diff(mid) <= 1e-15)  # monotone down
    # the blend satisfies psi(t) + psi(1-t) = 1 (smooth partition)
    t = np.linspace(0.05, 0.95, 19)
    vals = c.radial_value(1.0 + t) + c.radial_value(2.0 - t)
    np.testing.assert_allclose(vals, 1.0, atol=1e-14)


def test_truncated_bubble_support_and_product_rule():
    tb = truncated_bubble(0.2, 0.5, 6, 1.0)
    assert tb.support == 2.0
    assert tb.radial_value(2.0) == 0.0 and tb.radial_value(2.5) == 0.0
    assert tb.radial_value(0.5) == pytest.approx(tb.bubble.radial_value(0.5), rel=1e-15)
    x = np.zeros(6)
    x[0] = 0.8
    assert tb.radial_value(np.linalg.norm(x)) == pytest.approx(tb.radial_value(0.8))


def test_truncated_bubble_evaluated_only_inside_support():
    tb = truncated_bubble(0.3, 0.5, 6, 0.7)
    r = np.concatenate([np.linspace(0.0, 3.0, 301),
                        [np.nextafter(0.7, 0.0), 0.7, np.nextafter(1.4, 0.0), 1.4, np.nextafter(1.4, 2.0), np.inf]])
    # reference: the product of bubble and cutoff at every radius
    want = tb.bubble.radial_value(r) * tb.cutoff.radial_value(r)
    assert np.array_equal(tb.radial_value(r), want)
    for x in (0.0, 0.7, 1.0, 1.4, 2.0):
        assert np.ndim(tb.radial_value(x)) == 0
        assert tb.radial_value(x) == tb.bubble.radial_value(x) * tb.cutoff.radial_value(x)
    # NaN in, NaN out; from 2 eta on, +0.0 and never -0.0
    assert np.isnan(tb.radial_value(np.nan)) and np.isnan(tb.bubble.radial_value(np.nan))
    got = tb.radial_value(np.array([0.5, np.nan, 1.0]))
    assert np.isnan(got[1]) and not np.isnan(got[[0, 2]]).any()
    beyond = np.concatenate([[1.4, np.nextafter(1.4, 2.0)], np.geomspace(1.5, 1e300, 40), [np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # r**2 overflows far out; U is 0 there, without a warning
        out = tb.radial_value(beyond)
    assert np.all(out == 0.0) and not np.signbit(out).any()
    # a 2-D table keeps its shape and equals the product entry by entry
    table = np.linspace(0.0, 3.0, 301)[:, None] * np.array([1e-9, 0.5, 1.0 - 1e-6, 1.0])[None, :]
    got = tb.radial_value(table)
    assert got.shape == table.shape
    assert np.array_equal(got, tb.bubble.radial_value(table) * tb.cutoff.radial_value(table))
    assert np.array_equal(got[:, 2], tb.radial_value(table[:, 2]))


NORM_CASES = [(6, 0.5), (4, 0.3), (3, 0.2), (10, 0.7)]
NORM_EPS = (1.0, 0.35, 0.12, 0.05, 0.01)


def test_critical_norm_is_scale_invariant():
    # int U_eps^{q_s} = Kqs independent of eps; the cut at 1e4 eps drops
    # a fraction of order (1e4)^-n of the mass
    for n, s in NORM_CASES:
        qs = 2.0 * n / (n - 2 * s)
        kqs = lebesgue_power_integral(n, n)
        for eps in NORM_EPS:
            b = Bubble(eps=eps, s=s, n=n)
            assert lq_norm(b, qs, r_max=1e4 * eps) == pytest.approx(kqs, rel=1e-11)


def test_l2_norm_of_unit_bubble_closed_form():
    # int U_eps^2 = eps^{2s} lebesgue_power_integral(n, n-2s)
    for n, s in NORM_CASES:
        want = lebesgue_power_integral(n, n - 2 * s)
        for eps in NORM_EPS:
            b = Bubble(eps=eps, s=s, n=n)
            assert lq_norm(b, 2.0, r_max=1e6 * eps) == pytest.approx(eps ** (2 * s) * want, rel=1e-11)


def test_truncation_error_small_at_small_eps():
    # the cutoff removes only O(eps^n) of the critical mass
    n, s = 6, 0.5
    qs = 2.4
    kqs = lebesgue_power_integral(n, n)
    tb = truncated_bubble(0.05, s, n, 1.0)
    assert abs(lq_norm(tb, qs) - kqs) < 5.0 * 0.05**n * kqs


def test_lq_norm_input_validation():
    b = Bubble(eps=1.0, s=0.5, n=6)
    with pytest.raises(ValueError):
        lq_norm(b, 0.5)
    with pytest.raises(TypeError):
        lq_norm(lambda r: r, 2.0)


@pytest.mark.parametrize("profile", [Bubble(eps=1.0, s=0.5, n=6), truncated_bubble(0.2, 0.5, 6, 1.0)],
                         ids=["bubble", "truncated"])
@pytest.mark.parametrize("q", [math.nan, math.inf], ids=["nan", "inf"])
def test_lq_norm_needs_a_finite_q(profile, q):
    with pytest.raises(ValueError, match="finite q"):
        lq_norm(profile, q)


def test_subcritical_norm_scaling_exponent():
    # int u_eps^q ~ eps^{n - q(n-2s)/2} for q in (q* window): check the
    # measured slope on a crude two-point ratio
    n, s, q = 6, 0.5, 2.2
    e1, e2 = 0.1, 0.05
    v1 = lq_norm(truncated_bubble(e1, s, n, 1.0), q)
    v2 = lq_norm(truncated_bubble(e2, s, n, 1.0), q)
    slope = math.log(v1 / v2) / math.log(e1 / e2)
    assert slope == pytest.approx(n - q * (n - 2 * s) / 2.0, abs=0.05)
