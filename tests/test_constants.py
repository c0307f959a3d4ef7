import math

import numpy as np
import pytest

from fracvar.constants import (
    bubble_constants,
    kernel_batch,
    lebesgue_power_integral,
    lebesgue_power_quadrature,
    sharp_constant_reference,
    sphere_surface,
)

PI3 = math.pi**3


def test_lebesgue_closed_form_values():
    # (n=6, alpha=6) -> pi^3 Gamma(3)/Gamma(6) = pi^3/60
    assert lebesgue_power_integral(6, 6.0) == pytest.approx(PI3 / 60.0, rel=1e-14)
    # (n=1, alpha=1) -> pi
    assert lebesgue_power_integral(1, 1.0) == pytest.approx(math.pi, rel=1e-14)


def test_lebesgue_divergence():
    with pytest.raises(ValueError):
        lebesgue_power_integral(4, 2.0)
    with pytest.raises(ValueError):
        lebesgue_power_integral(6, 2.9)


def test_lebesgue_matches_radial_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        alpha = n / 2.0 + 0.1 + rng.uniform(0.0, 6.0)
        a = lebesgue_power_integral(n, alpha)
        b = lebesgue_power_quadrature(n, alpha)
        assert b == pytest.approx(a, rel=1e-10)


def test_kernel_at_zero_is_sphere_measure():
    for n, s in [(6, 0.5), (5, 0.3), (3, 0.2)]:
        assert kernel_batch(n, s, np.array([0.0]))[0] == pytest.approx(sphere_surface(n), rel=1e-11)


def test_kernel_inversion_identity():
    # K(1/xi) = xi^(n+2s) K(xi) at xi=2, n=6, s=0.5, and at a second point with different (n, s)
    for n, s, xi in [(6, 0.5, 2.0), (5, 0.3, 3.5)]:
        lhs, rhs = kernel_batch(n, s, np.array([1.0 / xi, xi]))
        assert lhs == pytest.approx(xi ** (n + 2 * s) * rhs, rel=1e-8)


def test_kernel_far_field_scaling():
    # K(tau) * tau^(n+2s) -> sigma(S^{n-1}) as tau -> infinity
    n, s = 6, 0.5
    taus = np.array([1e3, 1e4])
    for scaled in kernel_batch(n, s, taus) * taus ** (n + 2 * s):
        assert scaled == pytest.approx(sphere_surface(n), rel=1e-5)


def test_bubble_constants_6_05():
    cs = bubble_constants(6, 0.5)
    assert cs.Kqs == pytest.approx(PI3 / 60.0, rel=1e-12)
    assert cs.K2s == pytest.approx(PI3 / 24.0, rel=1e-12)
    # seminorm constant of the unit bubble against the spectral closed form
    assert cs.Ks == pytest.approx(85.4568172067, rel=1e-7)
    assert cs.Ss == pytest.approx(148.137407734, rel=1e-7)
    # defining relation Ss * Kqs^(2/q_s) = Ks
    assert cs.Ss * cs.Kqs ** (2.0 / cs.q_s) == pytest.approx(cs.Ks, rel=1e-12)


def test_bubble_constants_drop_in_q():
    cs = bubble_constants(6, 0.5, q=2.2)
    # alpha = q(n-2s)/2 = 2.2 * 5 / 2
    assert cs.Kq_s == pytest.approx(lebesgue_power_integral(6, 5.5), rel=1e-13)


@pytest.mark.parametrize(
    "n,s,ks",
    [
        (5, 0.5, 120.173649197),
        (7, 0.3, 49.7700797652),
        (6, 0.3, 89.7655642927),
        (4, 0.4, 135.290404214),
        (3, 0.2, 178.230885666),
    ],
)
def test_seminorm_constant_across_regimes(n, s, ks):
    assert bubble_constants(n, s).Ks == pytest.approx(ks, rel=2e-7)


# the ids keep the names of the first recording, so a re-pin moves only the values
@pytest.mark.parametrize("n,s,ks_hex", [
    pytest.param(6, 0.5, "0x1.55d3c7e9def2dp+6", id="6-0.5-0x1.55d3c7e9d9ad7p+6"),
    pytest.param(4, 0.3, "0x1.353c378c89875p+7", id="4-0.3-0x1.353c378c89854p+7"),
    pytest.param(3, 0.2, "0x1.647637193ba0cp+7", id="3-0.2-0x1.647637193ba09p+7"),
])
def test_seminorm_constant_exact_bits(n, s, ks_hex):
    # the unit bubble on its default panels, bit for bit
    assert bubble_constants(n, s).Ks.hex() == ks_hex


def test_sharp_constant_closed_form_agrees():
    for n, s in [(6, 0.5), (5, 0.5), (3, 0.2)]:
        assert bubble_constants(n, s).Ss == pytest.approx(sharp_constant_reference(n, s), rel=2e-7)


def test_constant_set_respects_admissibility():
    with pytest.raises(ValueError):
        bubble_constants(3, 0.9)  # K2s diverges: n - 2s <= n/2


@pytest.mark.parametrize("n, s, match", [
    (6, 1.2, "order s"), (6, math.nan, "order s"), (6.5, 0.5, "dimension"), (2, 0.5, "dimension"),
], ids=["s-1.2", "s-nan", "n-6.5", "n-2"])
def test_constant_set_follows_the_critical_exponent_rule(n, s, match):
    # (n, s) are checked by critical_exponent itself: an integer n >= 3 and s in (0, 1)
    with pytest.raises(ValueError, match=match):
        bubble_constants(n, s)


@pytest.mark.parametrize("q", [math.nan, math.inf], ids=["nan", "inf"])
def test_constant_set_rejects_a_non_finite_q(q):
    with pytest.raises(ValueError, match="finite alpha"):
        bubble_constants(6, 0.5, q)


@pytest.mark.parametrize("alpha", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("integral", [lebesgue_power_integral, lebesgue_power_quadrature],
                         ids=["closed-form", "quadrature"])
def test_lebesgue_integrals_need_a_finite_alpha(integral, alpha):
    with pytest.raises(ValueError, match="finite alpha"):
        integral(6, alpha)
