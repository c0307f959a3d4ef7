"""Epsilon-sweep harness: measured rates for the concentration asymptotics.

Each sweep evaluates a quantity on a decreasing grid of bubble widths and
fits a power law in log-log coordinates.  Rates are contaminated by
higher-order terms at desk-scale epsilon, hence the generous slope
tolerance ``SLOPE_TOL``, shared by every sweep.  Grids stop at
``EPS_FLOOR``: the default panels are not tuned below it.

Residual sweeps subtract the same-resolution quadrature of the untruncated
bubble rather than an externally supplied constant: the unweighted seminorm
of U_eps is scale-invariant, so evaluating it on the same panel layout as
the truncated profile cancels the shared discretization bias and leaves the
genuine truncation/weight effect, which is orders of magnitude smaller than
the values themselves at the small end of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ._panels import geometric_refine, panel_nodes
from .bubble import Bubble, Cutoff, lq_norm, truncated_bubble
from .constants import _ks_radius, bubble_constants, sphere_surface
from .problem import ProblemParams, critical_exponent, weight_from_params
from .quad import _partner_radius, ball_restricted_form, bilinear_radial, default_r_breaks

DEFAULT_EPS_GRID = (0.4, 0.28, 0.2, 0.14, 0.1, 0.07, 0.05)
SLOPE_TOL = 0.3
R2_FLOOR = 0.98
EPS_FLOOR = 0.01


@dataclass(frozen=True)
class SweepReport:
    """Fitted power law for one swept quantity.

    ``passed`` realizes the pass flag: |fit_slope - claimed_rate| <=
    ``SLOPE_TOL`` and fit_r2 >= ``R2_FLOOR``, conjoined with any
    sweep-specific side conditions (recorded in ``extras``).
    """

    quantity: str
    eps_grid: tuple[float, ...]
    values: tuple[float, ...]
    fit_slope: float
    fit_intercept: float
    fit_r2: float
    claimed_rate: float
    passed: bool
    extras: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.eps_grid) != len(self.values) or len(self.eps_grid) < 4:
            raise ValueError("need matching grids with at least 4 points")
        if any(b >= a for a, b in zip(self.eps_grid, self.eps_grid[1:])):
            raise ValueError("eps grid must be strictly decreasing")
        object.__setattr__(self, "extras", MappingProxyType(dict(self.extras)))


def fit_rate(eps, values):
    """Least squares of log(values) on log(eps): returns (slope, intercept, r2)."""
    eps = np.asarray(eps, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(eps) < 3:
        raise ValueError("need at least 3 points to fit a rate")
    if not all(np.all(np.isfinite(x) & (x > 0.0)) for x in (eps, values)):
        raise ValueError("rate fit needs finite, strictly positive values")
    x = np.log(eps)
    y = np.log(values)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sstot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if sstot == 0.0 else 1.0 - float(np.sum(resid**2)) / sstot
    return float(slope), float(intercept), float(r2)


def _check_grid(eps_grid) -> tuple[float, ...]:
    grid = tuple(float(e) for e in eps_grid)
    if len(grid) < 4:
        raise ValueError("sweep grids need at least 4 points")
    if min(grid) < EPS_FLOOR:
        raise ValueError(f"eps below {EPS_FLOOR} needs hand-tuned panels; refusing")
    return grid


def _fit_report(quantity, grid, values, fit_values, claimed, extras=None, side_ok=True):
    slope, intercept, r2 = fit_rate(grid, fit_values)
    passed = bool(abs(slope - claimed) <= SLOPE_TOL and r2 >= R2_FLOOR and side_ok)
    return SweepReport(
        quantity=quantity,
        eps_grid=grid,
        values=tuple(float(v) for v in values),
        fit_slope=slope,
        fit_intercept=intercept,
        fit_r2=r2,
        claimed_rate=claimed,
        passed=passed,
        extras=extras or {},
    )


# ---------------------------------------------------------------------------
# A_{s,k,eps}: the ball-restricted |x|^k pair form of the free bubble
# ---------------------------------------------------------------------------

def ball_weighted_form(params: ProblemParams, eps: float) -> float:
    """A_{s,k,eps}: both radii restricted to the cutoff core ball of radius eta."""
    k = float(params.k)
    bub = Bubble(eps=eps, s=params.s, n=params.n)

    def wk(r):
        return np.asarray(r, dtype=float) ** k

    return ball_restricted_form(bub, wk, params.n, params.s, params.eta)


def sweep_A(params: ProblemParams, eps_grid=DEFAULT_EPS_GRID) -> SweepReport:
    """Growth of the |x|^k pair form: bounded multiple of eps^{2s}."""
    grid = _check_grid(eps_grid)
    values = [ball_weighted_form(params, e) for e in grid]
    two_s = 2.0 * params.s
    scaled = np.asarray(values) / np.asarray(grid) ** two_s
    ratio = float(scaled.max() / scaled.min())
    rep = _fit_report("ball_weighted_form", grid, values, values, two_s)
    side_ok = ratio <= 10.0 and rep.fit_slope >= two_s - SLOPE_TOL
    return replace(rep, passed=rep.passed and side_ok,
                   extras={"scaled_ratio": ratio, "C_fit": math.exp(rep.fit_intercept)})


# ---------------------------------------------------------------------------
# Weighted seminorm of the truncated bubble: W(eps) - p0*Ks residual
# ---------------------------------------------------------------------------

def _matched_seminorms(params: ProblemParams, eps: float):
    """(W(eps), same-panel unweighted seminorm of the free bubble), single passes.

    W takes the truncated bubble's own panels, and the free bubble the same
    panels continued past 2 eta toward r_big.
    """
    n, s, eta = params.n, params.s, params.eta
    r_big = _ks_radius(n, s)
    w = weight_from_params(params)
    ub = truncated_bubble(eps, s, n, eta)
    bub = Bubble(eps=eps, s=s, n=n)
    tail = geometric_refine(2.0 * eta, r_big, toward=2.0 * eta, floor=0.25)
    full = np.union1d(default_r_breaks(ub, 2.0 * eta), tail)
    wval = bilinear_radial(ub, ub, w, n, s, 2.0 * eta)
    ks_matched = bilinear_radial(bub, bub, None, n, s, r_big, r_breaks=full)
    return wval, ks_matched


def sweep_weighted_seminorm(params: ProblemParams, eps_grid=DEFAULT_EPS_GRID) -> SweepReport:
    """Residual of the weighted truncated-bubble seminorm above p0*Ks.

    For kappa > 0 the weight bump contributes at rate 2s; with a constant
    weight (kappa = 0) only the truncation remains, at rate n - 2s.
    """
    grid = _check_grid(eps_grid)
    values, residuals = [], []
    for e in grid:
        wval, ks_m = _matched_seminorms(params, e)
        values.append(wval)
        residuals.append(wval - params.p0 * ks_m)
    claimed = 2.0 * params.s if params.kappa > 0.0 else params.n - 2.0 * params.s
    positive = all(r > 0.0 for r in residuals)
    rep = _fit_report("weighted_seminorm_residual", grid, values, [abs(r) for r in residuals], claimed,
                      extras={"min_residual": float(min(residuals))}, side_ok=positive)
    if params.kappa > 0.0:
        rep = replace(rep, extras={**rep.extras, "C_fit": math.exp(rep.fit_intercept) / params.kappa})
    return rep


# ---------------------------------------------------------------------------
# Energy dip sweep
# ---------------------------------------------------------------------------

def sweep_energy(params: ProblemParams, eps_grid=DEFAULT_EPS_GRID) -> SweepReport:
    """E_lambda of the critically normalized truncated bubble across the grid.

    The leading deviation from p0*Ss is (kappa C_W - lambda K2s) eps^{2s} /
    Kqs^{2/q_s}, with C_W = K2s * bump_moment(-1-2s) the far-field energy of
    the weight's bump (Brezis & Nirenberg, CPAM 36, 1983; Servadei &
    Valdinoci, Trans. AMS 367, 2015).  So the energy dips under p0*Ss for
    small eps exactly when kappa is below the threshold
    lambda / bump_moment(-1-2s).  q = 2 only.
    """
    if params.q != 2.0:
        raise ValueError("energy sweep is defined for the q = 2 form")
    grid = _check_grid(eps_grid)
    n, s, lam = params.n, params.s, params.lam
    cs = bubble_constants(n, s)
    w = weight_from_params(params)
    level = params.level
    values, residuals = [], []
    for e in grid:
        ub = truncated_bubble(e, s, n, params.eta)
        tnorm = lq_norm(ub, cs.q_s) ** (1.0 / cs.q_s)
        semi = bilinear_radial(ub, ub, w, n, s, ub.support)
        l2 = lq_norm(ub, 2.0)
        energy = (semi - lam * l2) / tnorm**2
        values.append(energy)
        residuals.append(energy - level)
    threshold = lam / w.bump_moment(-1.0 - 2.0 * s)
    dip_expected = params.kappa < threshold and lam > 0.0
    sign_ok = all(r < 0.0 for r in residuals) if dip_expected else True
    return _fit_report(
        "energy_deviation",
        grid,
        values,
        [abs(r) for r in residuals],
        2.0 * s,
        extras={
            "kappa_threshold": threshold,
            "level": level,
            "min_energy": float(min(values)),
            "dip_expected": float(dip_expected),
            "all_below_level": float(all(r < 0.0 for r in residuals)),
        },
        side_ok=sign_ok,
    )


# ---------------------------------------------------------------------------
# Bubble norm rates (L2, critical deficit, subcritical q)
# ---------------------------------------------------------------------------

def _critical_mass_deficit(eps: float, s: float, n: int, eta: float) -> float:
    """Kqs - int |u_eps|^{q_s}, integrated directly as a difference.

    The free and truncated profiles coincide inside the cutoff plateau, so
    the deficit is the integral of U^{q_s} - (U*Psi)^{q_s} over r > eta plus
    the free tail; integrating the difference directly keeps relative
    accuracy on a quantity of order eps^n.
    """
    bub = Bubble(eps=eps, s=s, n=n)
    cut = Cutoff(eta=eta)
    qs = critical_exponent(n, s)
    r_tail = 200.0 * eta
    breaks = np.unique(
        np.concatenate(
            [
                np.linspace(eta, 2.0 * eta, 17),
                geometric_refine(2.0 * eta, r_tail, toward=2.0 * eta, floor=0.5),
            ]
        )
    )
    r, wq = panel_nodes(breaks, 16)
    uu = bub.radial_value(r) ** qs
    tt = (bub.radial_value(r) * cut.radial_value(r)) ** qs
    body = float(np.sum(wq * (uu - tt) * r ** (n - 1)))
    # analytic remainder of U^{q_s} r^{n-1} ~ eps^n r^{-n-1} beyond r_tail
    tail = eps**n * r_tail ** (-n) / n
    return sphere_surface(n) * (body + tail)


def sweep_bubble_norms(params: ProblemParams, eps_grid=DEFAULT_EPS_GRID) -> tuple[SweepReport, SweepReport, SweepReport]:
    """Measured rates for the truncated-bubble L^q masses.

    Returns three reports: L2 mass (rate 2s), critical-mass deficit
    (rate n), and the subcritical q-mass (rate n - q(n-2s)/2).
    """
    grid = _check_grid(eps_grid)
    n, s, eta, q = params.n, params.s, params.eta, params.q
    l2, deficit, subq = [], [], []
    for e in grid:
        ub = truncated_bubble(e, s, n, eta)
        l2.append(lq_norm(ub, 2.0))
        deficit.append(_critical_mass_deficit(e, s, n, eta))
        subq.append(lq_norm(ub, q))
    rep2 = _fit_report("l2_mass", grid, l2, l2, 2.0 * s)
    repd = _fit_report("critical_mass_deficit", grid, deficit, deficit, float(n))
    rate_q = n - q * (n - 2.0 * s) / 2.0
    repq = _fit_report("subcritical_mass", grid, subq, subq, rate_q)
    return rep2, repd, repq


# ---------------------------------------------------------------------------
# delta-lemma sampling check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaLemmaResult:
    passed: bool
    worst_ratio: float
    delta: float


DELTA_TRIALS = 100_000
# the (k, R) cells of the sampled delta-lemma check, in seed order
DELTA_CELLS = tuple((k, R) for k in (2, 3, 4) for R in (1.0, 2.0))


def check_delta_lemma(k: float, R: float, seed: int = 0) -> DeltaLemmaResult:
    """Sampled check of ||x|^{k/2} - |y|^{k/2}|^2 <= delta |x-y|^2.

    Pairs in R^3 are drawn as radii: |x| uniform in the ball of radius R,
    |x - y| uniform in the ball of radius R/2 and |y| from
    :func:`fracvar.quad._partner_radius`, keeping ``DELTA_TRIALS`` pairs
    with |y| <= R (a module constant read at call time);
    delta = 2^{k-4} k^2 R^{k-2}.  Returns the worst observed ratio against
    the bound (1.0 means the bound is attained).
    """
    if not (2.0 <= k < math.inf and 0.0 < R < math.inf):
        raise ValueError("need 2 <= k < inf and 0 < R < inf")
    delta = 2.0 ** (k - 4.0) * k**2 * R ** (k - 2.0)
    rng = np.random.default_rng(seed)
    worst = 0.0
    remaining = DELTA_TRIALS
    while remaining > 0:
        m = min(remaining * 2, 200_000)
        rx = R * rng.random(m) ** (1.0 / 3)
        rho = 0.5 * R * rng.random(m) ** (1.0 / 3)
        ry = _partner_radius(rng, rx, rho, 3)
        keep = (ry <= R) & (rho > 0.0)
        rx, rho, ry = rx[keep][:remaining], rho[keep][:remaining], ry[keep][:remaining]
        remaining -= len(rx)
        if len(rx):
            worst = max(worst, float(np.max((rx ** (k / 2.0) - ry ** (k / 2.0)) ** 2 / (delta * rho**2))))
    return DeltaLemmaResult(worst <= 1.0 + 1e-12, worst, delta)
