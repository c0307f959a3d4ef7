"""Fiber maps, mountain-pass geometry, and the Nehari level of the discrete energy.

The full (unconstrained) functional on the hat-function space is

    Phi(u) = 1/2 u^T A u - (lam/q) int |u|^q - (1/q_s) int |u|^{q_s},

with A the assembled weighted stiffness matrix and the integrals the
Gauss-Legendre power integrals of the interpolant.  The module provides:

- ``fiber_sweep``: the scalar problem on a ray {t v : t > 0} through a
  critical-norm-normalized profile v.  Phi(t v) is an explicit polynomial
  in t of three scalars, so the ray maximum is the positive root of
  t X - t^{q_s - 1} - lam t^{q - 1} int |v|^q = 0.
- ``mp_geometry``: the radius/level pair (rho, beta) from the explicit
  embedding lower bound, plus a far endpoint e with Phi(e) < 0.
- ``mp_level``: the mountain-pass level as the minimum of Phi on the Nehari
  set {<grad Phi(u), u> = 0}.  Every fiber t -> Phi(t u) has exactly one
  interior maximum, which lies on that set, so every path from 0 to the
  negative region crosses it and the min-max level equals the Nehari
  minimum; the ray through the minimizer attains it (Nehari, Trans. AMS
  95, 1960; Szulkin & Weth, "The method of Nehari manifold", 2010).  The
  minimum is computed from several starts by
  :func:`fracvar.solver._projected_descent`, the same constrained loop as
  the ground-state solver, with the ray rescale onto the Nehari set (the
  same fiber root) as its retraction.
- ``ps_diagnostics``: gradient norm and the critical-level identity split
  at a candidate field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.optimize as sopt

from .asymptotics import EPS_FLOOR
from .bubble import truncated_bubble
from .problem import ProblemParams, WeightModel, critical_exponent, weight_from_params
from .quad import radial_power_integral, seminorm_radial
from .solver import (
    START_WIDTH,
    RadialField,
    StiffnessOperator,
    _bubble_start,
    _min_form_on_sphere,
    _projected_descent,
    _with_dofs,
    first_eigenvalue,
    power_integral,
)

__all__ = [
    "FiberResult",
    "MountainPassError",
    "PathState",
    "PSReport",
    "fiber_limit",
    "fiber_sweep",
    "level_bound",
    "mp_geometry",
    "mp_level",
    "phi_gradient",
    "phi_value",
    "ps_diagnostics",
]


class MountainPassError(RuntimeError):
    """Geometry or path construction failed (no far endpoint, bad bracket)."""


@dataclass(frozen=True)
class FiberResult:
    """Ray maximum through a normalized profile v (||v||_{q_s} = 1).

    ``eps`` is the width of the truncated bubble that v normalizes.
    ``X_tilde`` is the weighted form of v,
    ``t_eps`` the positive root of the fiber derivative, ``Y_eps`` the
    functional value at t_eps v, and ``limit_gap`` the absolute distance
    |t_eps - (p0 Ss)^{1/(q_s-2)}| to the concentration limit of the root.
    """

    eps: float
    X_tilde: float
    t_eps: float
    Y_eps: float
    limit_gap: float


@dataclass(frozen=True)
class PathState:
    """The Nehari level and the ray path through its minimizer.

    ``max_point`` is the Nehari minimizer w_N of the best start, and
    ``level`` = Phi(w_N) the minimum over the starts, whose own minima are
    ``start_levels``.  ``points`` are m equally spaced samples t w_N of the
    ray from t = 0 to the first doubling of t with Phi(t w_N) < 0; Phi on
    that path peaks at t = 1, at the level.  ``iterations`` is the total over
    the starts, ``converged`` is true when every start met the gradient
    stop, and ``trace`` holds the accepted energies of the best start.
    """

    points: tuple[RadialField, ...]
    level: float
    iterations: int
    converged: bool
    trace: tuple[float, ...]
    max_point: RadialField
    start_levels: tuple[float, ...]


@dataclass(frozen=True)
class PSReport:
    """Diagnostics of Phi at a candidate field.

    ``identity_residual`` is the relative gap between the level and the
    value every critical point must have,
    lam (q-2)/(2q) int |u|^q + (s/n) int |u|^{q_s}, which collapses to
    (s/n) int |u|^{q_s} when q = 2.
    """

    grad_norm: float
    seminorm_part: float
    subcritical_mass: float
    critical_mass: float
    level: float
    identity_residual: float


# Nehari descent: starts are truncated bubbles of these widths (the first is
# also the profile of mp_geometry's endpoint); a start stops once
# ||grad Phi|| is at most NEHARI_TOL ||A u|| or after NEHARI_MAX_ITER steps.
START_EPS = (START_WIDTH, 0.4, 1.6)
NEHARI_TOL = 1e-6
NEHARI_MAX_ITER = 300


def level_bound(params: ProblemParams) -> float:
    """The strict upper bound (s/n) (p0 Ss)^{n/(2s)} for compactness of PS sequences."""
    return (params.s / params.n) * params.level ** (params.n / (2.0 * params.s))


def fiber_limit(params: ProblemParams) -> float:
    """(p0 Ss)^{1/(q_s-2)}, the limit of the fiber root t_eps as eps -> 0."""
    return params.level ** (1.0 / (critical_exponent(params.n, params.s) - 2.0))


def _phi_scalars(params: ProblemParams, op: StiffnessOperator, dofs: np.ndarray):
    """(u^T A u, int |u|^q, int |u|^{q_s}) for the interpolant with these dofs."""
    qs = critical_exponent(params.n, params.s)
    u = op.rule.interpolate(dofs)
    quad_form = float(dofs @ op.A @ dofs)
    return quad_form, op.rule.integral(u, params.q), op.rule.integral(u, qs)


def _phi_grad(params: ProblemParams, op: StiffnessOperator, dofs: np.ndarray):
    """Gradients of Phi and of the Nehari functional <grad Phi(u), u> at these dofs."""
    qs = critical_exponent(params.n, params.s)
    u = op.rule.interpolate(dofs)
    Au = op.A @ dofs
    gq = op.rule.gradient(u, params.q)
    gqs = op.rule.gradient(u, qs)
    return Au - (params.lam / params.q) * gq - gqs / qs, 2.0 * Au - params.lam * gq - gqs


def _phi_ray(params: ProblemParams, P: float, Q: float, T: float, t: float = 1.0) -> float:
    """Phi(t u) = t^2 P/2 - (lam/q) t^q Q - t^{q_s} T/q_s from the scalars
    (P, Q, T) = (u^T A u, int |u|^q, int |u|^{q_s}) of u."""
    qs = critical_exponent(params.n, params.s)
    return 0.5 * t * t * P - (params.lam / params.q) * t ** params.q * Q - t ** qs * T / qs


def phi_value(params: ProblemParams, op: StiffnessOperator, field: RadialField) -> float:
    """Phi(u) = 1/2 u^T A u - (lam/q) int |u|^q - (1/q_s) int |u|^{q_s}."""
    return _phi_ray(params, *_phi_scalars(params, op, field.dofs))


def phi_gradient(params: ProblemParams, op: StiffnessOperator, field: RadialField) -> np.ndarray:
    """Gradient of Phi with respect to the interior dof vector."""
    return _phi_grad(params, op, field.dofs)[0]


def _fiber_root(X: float, sub_mass: float, lam: float, q: float, qs: float,
                *, bisect: bool = False) -> float | None:
    """Positive root of t X - t^{qs-1} - lam t^{q-1} sub_mass = 0, or None.

    Dividing by t, the root of h(t) = X - t^{qs-2} - lam t^{q-2} sub_mass
    is unique because both power terms increase.  For q = 2 the closed form
    t = (X - lam sub_mass)^{1/(qs-2)} exists iff X > lam sub_mass; ``bisect``
    forces the bracketing route (used to cross-check the closed form).
    """
    if lam < 0.0:
        raise ValueError("fiber roots are defined for lam >= 0")
    if X <= 0.0:
        raise ValueError("the weighted form of the profile must be positive")
    if lam == 0.0 or sub_mass == 0.0:
        return X ** (1.0 / (qs - 2.0))
    if q == 2.0:
        base = X - lam * sub_mass
        if base <= 0.0:
            return None
        if not bisect:
            return base ** (1.0 / (qs - 2.0))
    t_hi = X ** (1.0 / (qs - 2.0))

    def h(t: float) -> float:
        return X - t ** (qs - 2.0) - lam * t ** (q - 2.0) * sub_mass

    lo = 1e-12 * t_hi
    if h(lo) <= 0.0 or h(t_hi) >= 0.0:  # pragma: no cover - guarded by q=2 base check
        return None
    return float(sopt.brentq(h, lo, t_hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps))


@lru_cache(maxsize=32)
def _bubble_form_and_mass(w: WeightModel, s: float, eps: float) -> tuple[float, float]:
    """Weighted form under ``w`` and critical mass of the truncated bubble of width eps.

    Neither depends on the lam-term, so regimes that share a weight share
    the quadrature.
    """
    ub = truncated_bubble(eps, s, w.n, w.eta)
    form = seminorm_radial(ub, w, w.n, s, ub.support).value
    return form, radial_power_integral(ub, critical_exponent(w.n, s), w.n)


def fiber_sweep(params: ProblemParams, eps_grid) -> tuple[FiberResult, ...]:
    """Fiber results along the normalized truncated-bubble family.

    Continuum route: for each eps the weighted form and the power masses are
    computed by the radial quadrature of the truncated bubble itself, then
    scaled to the critical-norm-normalized profile (so crit_mass is exactly
    one by construction).  As eps -> 0, t_eps tends to
    :func:`fiber_limit` and limit_gap shrinks.  The weighted form and the
    critical mass do not depend on lam or q, so they are computed once per
    weight and eps (``_bubble_form_and_mass``).
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.ndim != 1 or eps_grid.size == 0:
        raise ValueError("eps_grid must be a nonempty 1-d sequence")
    if np.any(eps_grid < EPS_FLOOR):
        raise ValueError(f"eps below {EPS_FLOOR} needs hand-tuned panels; refusing")
    n, s, eta = params.n, params.s, params.eta
    qs = critical_exponent(n, s)
    limit = fiber_limit(params)
    w = weight_from_params(params)
    out = []
    for eps in eps_grid:
        form, crit_raw = _bubble_form_and_mass(w, s, float(eps))
        ub = truncated_bubble(float(eps), s, n, eta)
        sub_raw = radial_power_integral(ub, params.q, n)
        nrm = crit_raw ** (1.0 / qs)
        X = form / (nrm * nrm)
        sub_mass = sub_raw / nrm ** params.q
        t = _fiber_root(X, sub_mass, params.lam, params.q, qs)
        if t is None:
            raise ValueError(
                "no positive fiber root: the weighted form does not dominate the "
                "lam-term (X_tilde <= lam * int v^2)"
            )
        Y = _phi_ray(params, X, sub_mass, 1.0, t)
        out.append(FiberResult(eps=float(eps), X_tilde=X, t_eps=t, Y_eps=Y, limit_gap=abs(t - limit)))
    return tuple(out)


def _alpha_q(params: ProblemParams, op: StiffnessOperator) -> float:
    """Discrete embedding constant: min of u^T A u over int |u|^q = 1.

    For q = 2 this is the first eigenvalue; for q > 2 it is computed by the
    same sphere-constrained descent as the ground-state problem, started
    from a moderate bubble, with a tighter stop (1e-8) and a longer budget
    (4000 steps) than :func:`fracvar.solver.minimize_S`.
    """
    if params.q == 2.0:
        lam1, _ = first_eigenvalue(op)
        return lam1
    init = _bubble_start(params, op.nodes, START_WIDTH)
    _, E, _, status = _min_form_on_sphere(op.A, op, params.q, init.dofs, 1e-8, 4000)
    if status not in ("converged", "max_iter"):  # pragma: no cover - defensive
        raise MountainPassError(f"embedding-constant descent ended with status {status!r}")
    return E


def mp_geometry(params: ProblemParams, op: StiffnessOperator) -> tuple[float, float, RadialField]:
    """Radius/level pair (rho, beta) and a far endpoint e with Phi(e) < 0.

    The lower bound in the N_p norm t = (u^T A u)^{1/2} is

        g(t) = t^2/2 - (lam/q) alpha_q^{-q/2} t^q - (1/q_s) S_p^{-q_s/2} t^{q_s},

    with S_p = p0 Ss and alpha_q the discrete minimum of the weighted form
    over the unit q-sphere.  rho is the root of g'(t)/t (the maximizer of
    g), beta = g(rho) > 0.  The endpoint is zeta u0 for the normalized
    truncated bubble u0 of width ``START_EPS[0]``, doubling zeta until the
    functional is negative and the norm passes rho.

    Requires lam < lambda_1 (discrete) when q = 2, and lam >= 0 when q > 2.
    """
    n, s, lam, q = params.n, params.s, params.lam, params.q
    qs = critical_exponent(n, s)
    alpha = _alpha_q(params, op)
    if q == 2.0:
        if lam >= alpha:
            raise ValueError(
                f"q = 2 geometry needs lam below the first eigenvalue ({alpha:.6g})"
            )
    elif lam < 0.0:
        raise ValueError("q > 2 geometry needs lam >= 0")

    c_sub = lam * alpha ** (-q / 2.0)
    c_crit = params.level ** (-qs / 2.0)

    def g(t: float) -> float:
        return 0.5 * t * t - (c_sub / q) * t ** q - (c_crit / qs) * t ** qs

    # g'(t)/t = 1 - c_sub t^{q-2} - c_crit t^{qs-2}: decreasing from 1, so the
    # unique root is the maximizer of g.
    t_hi = c_crit ** (-1.0 / (qs - 2.0))
    if q == 2.0:
        rho = ((1.0 - c_sub) / c_crit) ** (1.0 / (qs - 2.0))
    elif lam == 0.0:
        rho = t_hi
    else:
        def dg(t: float) -> float:
            return 1.0 - c_sub * t ** (q - 2.0) - c_crit * t ** (qs - 2.0)

        rho = float(sopt.brentq(dg, 1e-12 * t_hi, t_hi, rtol=4.0 * np.finfo(float).eps))
    beta = g(rho)
    if not beta > 0.0:  # pragma: no cover - excluded by the pre-checks above
        raise MountainPassError(f"lower-bound level is not positive (beta = {beta:.6g})")

    u0 = _bubble_start(params, op.nodes, START_EPS[0])
    nrm = power_integral(u0, qs, n) ** (1.0 / qs)
    base = u0.values / nrm
    X0, sub0, crit0 = _phi_scalars(params, op, base[:-1])
    zeta = 1.0
    for _ in range(60):
        if _phi_ray(params, X0, sub0, crit0, zeta) < 0.0 and zeta * math.sqrt(X0) > rho:
            break
        zeta *= 2.0
    else:
        raise MountainPassError("no negative-energy endpoint within 60 doublings")
    e = RadialField(op.nodes, zeta * base)
    return rho, beta, e


def mp_level(params: ProblemParams, op: StiffnessOperator, m: int = 21) -> PathState:
    """Mountain-pass level: the minimum of Phi on the Nehari set, from several starts.

    Each start (a truncated bubble of width in ``START_EPS``) is rescaled
    onto the Nehari set along its ray and descended by
    :func:`fracvar.solver._projected_descent` in the A-metric, with the
    Nehari constraint gradient in place of the norm constraint and the ray
    rescale as the retraction.  A start converges once the full gradient
    drops below ``NEHARI_TOL`` relative to ||A u||, the near-critical
    certificate; where no critical point exists (the level reaches the
    compactness bound and minimizing sequences concentrate) it runs out of
    its ``NEHARI_MAX_ITER`` steps instead.  The level is the lowest start;
    ``points`` samples the ray through its minimizer with m points.
    """
    if m < 3:
        raise ValueError("a path needs at least three points")
    qs = critical_exponent(params.n, params.s)
    lam, q = params.lam, params.q

    def ray_to_nehari(dofs: np.ndarray) -> tuple[np.ndarray, float] | None:
        # on the ray t u, <grad Phi(t u), t u> = 0 reads t^2 P = lam t^q Q + t^qs T;
        # divided by t^2 T it is the fiber equation with X = P/T, sub_mass = Q/T
        P, Q, T = _phi_scalars(params, op, dofs)
        if P <= 0.0 or T <= 0.0:  # pragma: no cover - zero field
            return None
        t = _fiber_root(P / T, Q / T, lam, q, qs)
        return None if t is None else (t * dofs, _phi_ray(params, P, Q, T, t))

    def stop(w: np.ndarray, g: np.ndarray, g_tan: np.ndarray) -> bool:
        return float(np.linalg.norm(g)) <= NEHARI_TOL * float(np.linalg.norm(op.A @ w))

    runs = []
    for eps in START_EPS:
        on_set = ray_to_nehari(_bubble_start(params, op.nodes, eps).dofs)
        if on_set is None:
            raise MountainPassError(f"the ray through the eps = {eps} start has no interior maximum")
        runs.append(_projected_descent(op.solve, on_set, lambda v: _phi_grad(params, op, v), stop,
                                       ray_to_nehari, NEHARI_MAX_ITER))
    w, level, _, _, history = min(runs, key=lambda run: run[1])

    scalars = _phi_scalars(params, op, w)
    t_end = 2.0
    for _ in range(60):
        if _phi_ray(params, *scalars, t_end) < 0.0:
            break
        t_end *= 2.0
    else:  # pragma: no cover - Phi(t w) -> -inf as t grows
        raise MountainPassError("no negative-energy point on the ray within 60 doublings")
    return PathState(
        points=tuple(_with_dofs(op.nodes, t * w) for t in np.linspace(0.0, t_end, m)),
        level=level,
        iterations=sum(run[2] for run in runs),
        converged=all(run[3] == "converged" for run in runs),
        trace=tuple(history),
        max_point=_with_dofs(op.nodes, w),
        start_levels=tuple(run[1] for run in runs),
    )


def ps_diagnostics(
    params: ProblemParams, op: StiffnessOperator, field: RadialField
) -> PSReport:
    """Gradient norm and critical-level identity at a candidate field.

    Contracting the Euler equation with u shows that every critical point
    satisfies  u^T A u = lam int |u|^q + int |u|^{q_s}, hence

        Phi(u) = lam (q-2)/(2q) int |u|^q + (s/n) int |u|^{q_s}.

    The relative residual of that identity is near zero exactly when the
    gradient is, which is the signature of a genuine Palais-Smale limit.
    """
    quad_form, sub, crit = _phi_scalars(params, op, field.dofs)
    level = _phi_ray(params, quad_form, sub, crit)
    grad = phi_gradient(params, op, field)
    predicted = params.lam * (params.q - 2.0) / (2.0 * params.q) * sub \
        + (params.s / params.n) * crit
    resid = abs(level - predicted) / max(abs(level), np.finfo(float).tiny)
    return PSReport(
        grad_norm=float(np.linalg.norm(grad)),
        seminorm_part=quad_form,
        subcritical_mass=sub,
        critical_mass=crit,
        level=level,
        identity_residual=resid,
    )
