"""Twelve-point verification battery exercising every module at desk scale.

Each ``check_*`` function realizes one numbered acceptance check and returns a
:class:`CheckResult` whose ``passed`` flag conjoins the mathematical assertion
with the check's wall-clock budget.  ``run_all`` executes the battery in
order, sharing assembled operators between checks, and is the engine behind
the ``verify`` command.

The battery is pinned at the regime n = 6, s = 0.5, k = 2 where all oracle
values were established; the remaining knobs (p0, eta, R, kappa, seed) come
from the supplied configuration.  Every threshold below is a formula in the
computed constants, never a frozen number, so honoring p0/eta/R is safe.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from .asymptotics import (
    DEFAULT_EPS_GRID,
    check_delta_lemma,
    sweep_A,
    sweep_bubble_norms,
    sweep_energy,
    sweep_weighted_seminorm,
)
from .bubble import Bubble, lq_norm, truncated_bubble
from .constants import (
    bubble_constants,
    lebesgue_power_integral,
    lebesgue_power_quadrature,
)
from .mountainpass import (
    _fiber_root,
    fiber_sweep,
    level_bound,
    mp_geometry,
    mp_level,
    phi_gradient,
    phi_value,
)
from .problem import ProblemParams, RunConfig, critical_exponent, weight_from_params
from .quad import seminorm_mc, seminorm_radial
from .solver import _with_dofs, assemble, first_eigenvalue, minimize_S

VERSION = "0.1.0"
GRID_M = 128

__all__ = [
    "VERSION",
    "CheckResult",
    "VerifyReport",
    "run_all",
]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one numbered check: verdict, timing, and headline scalars."""

    index: int
    name: str
    passed: bool
    seconds: float
    budget: float
    details: tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class VerifyReport:
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _finish(index: int, name: str, t0: float, budget: float, ok: bool,
            details: dict) -> CheckResult:
    sec = time.perf_counter() - t0
    return CheckResult(
        index=index,
        name=name,
        passed=bool(ok) and sec < budget,
        seconds=sec,
        budget=budget,
        details=tuple(details.items()),
    )


def _require_pinned_regime(params: ProblemParams) -> None:
    if (params.n, params.s, params.k) != (6, 0.5, 2.0):
        raise ValueError(
            "the verification battery is pinned at n = 6, s = 0.5, k = 2; "
            f"got n = {params.n}, s = {params.s}, k = {params.k}"
        )


# ---------------------------------------------------------------------------
# Checks 1-6: constants, bubble family, sampled pointwise bound
# ---------------------------------------------------------------------------

def check_closed_form_integrals(base: ProblemParams, seed: int) -> CheckResult:
    """1: closed-form power integrals against radial quadrature, 20 draws."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 11))
        alpha = float(rng.uniform(n / 2.0 + 0.2, n / 2.0 + 4.0))
        exact = lebesgue_power_integral(n, alpha)
        quad = lebesgue_power_quadrature(n, alpha)
        worst = max(worst, abs(quad - exact) / exact)
    return _finish(1, "closed-form integrals vs quadrature", t0, 5.0,
                   worst <= 1e-10, {"max_rel_error": worst, "draws": 20})


def check_scale_invariance(base: ProblemParams) -> CheckResult:
    """2: the critical mass of the full bubble is independent of eps."""
    t0 = time.perf_counter()
    n, s = base.n, base.s
    qs = critical_exponent(n, s)
    eps_set = (0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0)
    vals = [lq_norm(Bubble(eps=e, s=s, n=n), qs, r_max=1e4 * e) for e in eps_set]
    spread = (max(vals) - min(vals)) / np.median(vals)
    return _finish(2, "critical-norm scale invariance", t0, 10.0,
                   spread < 1e-6, {"relative_spread": float(spread),
                                   "mass": float(np.median(vals))})


def check_norm_rates(base: ProblemParams) -> CheckResult:
    """3: truncated-bubble norm rates (L2, critical deficit, L^q at q=2.2)."""
    t0 = time.perf_counter()
    p = ProblemParams(n=base.n, s=base.s, k=base.k, q=2.2, p0=base.p0,
                      eta=base.eta, R=base.R)
    rep2, repd, repq = sweep_bubble_norms(p)
    ok = rep2.passed and repd.passed and repq.passed
    return _finish(3, "bubble norm rates", t0, 120.0, ok, {
        "l2_slope": rep2.fit_slope, "l2_r2": rep2.fit_r2,
        "deficit_slope": repd.fit_slope, "deficit_r2": repd.fit_r2,
        "lq_slope": repq.fit_slope, "lq_r2": repq.fit_r2,
    })


def check_weight_bump(base: ProblemParams) -> CheckResult:
    """4: the ball-restricted weighted form scales like eps^{2s}."""
    t0 = time.perf_counter()
    rep = sweep_A(base)
    return _finish(4, "weight bump scaling", t0, 120.0, rep.passed, {
        "slope": rep.fit_slope, "r2": rep.fit_r2,
        **{k: float(v) for k, v in rep.extras.items()},
    })


def check_residual_rates(base: ProblemParams) -> CheckResult:
    """5: weighted seminorm residual rates for bump and constant weight."""
    t0 = time.perf_counter()
    p_bump = replace(base, kappa=1.0, lam=0.0, q=2.0)
    rep_bump = sweep_weighted_seminorm(p_bump)
    p_flat = replace(base, kappa=0.0, lam=0.0, q=2.0)
    rep_flat = sweep_weighted_seminorm(p_flat, eps_grid=(0.1, 0.07, 0.05, 0.035, 0.025))
    ok = rep_bump.passed and rep_flat.passed
    return _finish(5, "seminorm residual rates", t0, 300.0, ok, {
        "bump_slope": rep_bump.fit_slope, "bump_r2": rep_bump.fit_r2,
        "bump_min_residual": float(rep_bump.extras["min_residual"]),
        "flat_slope": rep_flat.fit_slope, "flat_r2": rep_flat.fit_r2,
        "flat_min_residual": float(rep_flat.extras["min_residual"]),
    })


def check_power_gap(base: ProblemParams, seed: int) -> CheckResult:
    """6: sampled |x|^{k/2} Lipschitz-type bound over six (k, R) cells."""
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for i, (k, R) in enumerate((k, R) for k in (2, 3, 4) for R in (1.0, 2.0)):
        res = check_delta_lemma(k, R, trials=100_000, seed=seed + 17 * (i + 1))
        ok = ok and res.passed
        worst = max(worst, res.worst_ratio)
    return _finish(6, "pointwise power gap bound", t0, 10.0, ok,
                   {"worst_ratio": worst, "cells": 6, "trials_per_cell": 100_000})


# ---------------------------------------------------------------------------
# Checks 7-10: discrete solver, eigenvalue, fiber, pass level
# ---------------------------------------------------------------------------

def check_energy_dip(base: ProblemParams, op) -> CheckResult:
    """7: energy dips under p0*Ss below the kappa-threshold, not at lam=0."""
    t0 = time.perf_counter()
    level = base.p0 * bubble_constants(base.n, base.s).Ss
    lam1, _ = first_eigenvalue(op)
    p_dip = replace(base, lam=0.5 * lam1, q=2.0)
    rep = sweep_energy(p_dip)
    dip_ok = (rep.extras["min_energy"] < level
              and p_dip.kappa < rep.extras["kappa_threshold"])
    res = minimize_S(p_dip, op)
    min_ok = (res.converged and res.energy < level
              and res.constraint_residual <= 1e-8)
    p_flat = replace(base, lam=0.0, q=2.0)
    rep0 = sweep_energy(p_flat)
    nodip_ok = rep0.extras["min_energy"] >= level - 1e-3
    return _finish(7, "energy dip signature", t0, 600.0,
                   dip_ok and min_ok and nodip_ok and base.kappa > 0.0, {
                       "lam": p_dip.lam,
                       "grid_min_energy": float(rep.extras["min_energy"]),
                       "level": level,
                       "kappa_threshold": float(rep.extras["kappa_threshold"]),
                       "minimized_energy": res.energy,
                       "constraint_residual": res.constraint_residual,
                       "lam0_min_energy": float(rep0.extras["min_energy"]),
                   })


def check_eigenvalue(base: ProblemParams, op, ops: dict) -> CheckResult:
    """8: eigenpair residual, linear scaling in the weight, weighted >= p0*flat."""
    t0 = time.perf_counter()
    lam1, v = first_eigenvalue(op)
    resid = float(np.linalg.norm(op.A @ v.dofs - lam1 * op.Mq @ v.dofs)
                  / np.linalg.norm(op.A @ v.dofs))
    p_double = replace(base, kappa=2.0 * base.kappa, p0=2.0 * base.p0)
    lam1_d, _ = first_eigenvalue(_get_op(ops, p_double))
    doubling_err = abs(lam1_d / lam1 - 2.0)
    p_unit = ProblemParams(n=base.n, s=base.s, k=base.k, kappa=0.0, p0=1.0,
                           eta=base.eta, R=base.R)
    lam1_u, _ = first_eigenvalue(_get_op(ops, p_unit))
    dominates = lam1 >= base.p0 * lam1_u * (1.0 - 1e-12)
    ok = resid <= 1e-8 and doubling_err <= 1e-8 and dominates
    return _finish(8, "first eigenvalue", t0, 60.0, ok, {
        "lambda1": lam1, "residual": resid, "doubling_error": doubling_err,
        "lambda1_unit_weight": lam1_u,
    })


def check_fiber_limits(base: ProblemParams) -> CheckResult:
    """9: t_eps gap shrinks monotonically; Y_eps stays under the bound."""
    t0 = time.perf_counter()
    qs = critical_exponent(base.n, base.s)
    t_limit = (base.p0 * bubble_constants(base.n, base.s).Ss) ** (1.0 / (qs - 2.0))
    grid = np.array([0.2, 0.14, 0.1, 0.07, 0.05])
    regimes = [replace(base, kappa=0.002, lam=1.0, q=2.0)]
    regimes += [replace(base, kappa=0.004, lam=lam, q=2.2) for lam in (0.1, 1.0, 10.0)]
    ok = True
    root_err = 0.0
    final_gap = math.nan
    for p in regimes:
        sw = fiber_sweep(p, grid)
        gaps = [f.limit_gap for f in sw]
        ok = ok and all(a > b for a, b in zip(gaps, gaps[1:]))
        B = level_bound(p)
        ok = ok and all(f.Y_eps < B for f in sw)
        if p.q == 2.0:
            final_gap = gaps[-1] / t_limit
            ok = ok and final_gap < 0.02
            # same scalars through the bisection route
            for f in sw:
                sub = (f.X_tilde - f.t_eps ** (qs - 2.0)) / p.lam
                t_bis = _fiber_root(f.X_tilde, sub, p.lam, 2.0, qs, bisect=True)
                root_err = max(root_err, abs(t_bis - f.t_eps) / f.t_eps)
            ok = ok and root_err <= 1e-10
    return _finish(9, "fiber limits", t0, 300.0, ok, {
        "final_gap_rel": final_gap, "closed_vs_bisect": root_err,
        "regimes": len(regimes),
    })


def _initial_crest_gradient(params: ProblemParams, op, e, m: int = 21,
                            samples: int = 3) -> float:
    # the straight ray from 0 to e on the t-grid of a 21-point path with 3
    # checkpoints per segment; the gradient at its highest sample is the
    # reference that the Nehari minimizer's gradient must undercut
    ts = np.linspace(0.0, 1.0, (m - 1) * (samples + 1) + 1)
    vals = [phi_value(params, op, _with_dofs(op.nodes, t * e.dofs)) for t in ts]
    t_best = ts[int(np.argmax(vals))]
    g = phi_gradient(params, op, _with_dofs(op.nodes, t_best * e.dofs))
    return float(np.linalg.norm(g))


def _path_max(params: ProblemParams, op, points) -> float:
    """Maximum of Phi over the polyline through ``points``: the highest
    vertex, or a higher value found by bounded Brent on a segment."""
    def phi_at(a, b, theta):
        return phi_value(params, op, _with_dofs(op.nodes, (1.0 - theta) * a + theta * b))

    best = max(phi_value(params, op, pt) for pt in points)
    for a, b in zip(points, points[1:]):
        res = minimize_scalar(lambda th: -phi_at(a.dofs, b.dofs, th), bounds=(0.0, 1.0),
                              method="bounded")
        best = max(best, -float(res.fun))
    return best


def check_pass_level(base: ProblemParams, ops: dict, tol: float) -> CheckResult:
    """10: the Nehari level sits in [beta - tol, bound), every start reaches
    it (spread <= 1e-6), its ray path peaks at it (to 1e-9), and the crest
    gradient drops >= 10x from the straight path's highest sample."""
    t0 = time.perf_counter()
    p = replace(base, kappa=0.004, lam=1.0, q=2.2)
    op = _get_op(ops, p)
    _, beta, e = mp_geometry(p, op)
    st = mp_level(p, op)
    B = level_bound(p)
    monotone = bool(np.all(np.diff(st.trace) <= 1e-9))
    g0 = _initial_crest_gradient(p, op, e)
    g1 = float(np.linalg.norm(phi_gradient(p, op, st.max_point)))
    drop = g0 / g1 if g1 > 0.0 else math.inf
    spread = (max(st.start_levels) - st.level) / st.level
    path_max_rel = _path_max(p, op, st.points) / st.level - 1.0
    ok = (beta - tol <= st.level < B and st.converged and drop >= 10.0
          and spread <= 1e-6 and path_max_rel <= 1e-9)
    return _finish(10, "mountain pass level", t0, 900.0, ok, {
        "level": st.level, "beta": beta, "bound": B,
        "monotone": monotone, "iterations": st.iterations,
        "crest_grad_initial": g0, "crest_grad_final": g1, "grad_drop": drop,
        "start_spread": spread, "path_max_rel": path_max_rel,
    })


# ---------------------------------------------------------------------------
# Checks 11-12: Monte Carlo cross-check, determinism
# ---------------------------------------------------------------------------

_MC_CONFIGS = ((1.0, 0.0, 600_000), (0.8, 0.0, 500_000), (0.8, 1.0, 400_000),
               (0.6, 0.5, 400_000), (1.2, 0.0, 400_000))


def check_cross_method(base: ProblemParams, seed: int) -> CheckResult:
    """11: radial vs Monte Carlo seminorms within 3 sigma; MC unbiasedness."""
    t0 = time.perf_counter()
    n, s = base.n, base.s
    ok = True
    worst_z = 0.0
    for i, (eps, kappa, N) in enumerate(_MC_CONFIGS):
        p = replace(base, kappa=kappa, lam=0.0, q=2.0)
        w = weight_from_params(p)
        ub = truncated_bubble(eps, s, n, base.eta)
        ref = seminorm_radial(ub, w, n, s, ub.support).value
        est = seminorm_mc(ub, w, n, s, N=N, seed=seed + 31 * (i + 1))
        z = abs(est.value - ref) / est.abs_error
        worst_z = max(worst_z, z)
        ok = ok and z <= 3.0
    # unbiasedness: the mean over 50 seeds must match the radial value
    p = replace(base, kappa=0.0, lam=0.0, q=2.0)
    w = weight_from_params(p)
    ub = truncated_bubble(1.2, s, n, base.eta)
    ref = seminorm_radial(ub, w, n, s, ub.support).value
    vals = np.array([
        seminorm_mc(ub, w, n, s, N=400_000, seed=seed + 1000 + j).value
        for j in range(50)
    ])
    z_mean = abs(vals.mean() - ref) / (vals.std(ddof=1) / math.sqrt(len(vals)))
    ok = ok and z_mean <= 3.0
    return _finish(11, "cross-method seminorm", t0, 600.0, ok, {
        "worst_config_z": worst_z, "mean_z_50_seeds": float(z_mean),
        "mc_mean": float(vals.mean()), "radial_value": ref,
    })


def _determinism_probe(base: ProblemParams, seed: int) -> bytes:
    """Rerunnable snapshot of every seeded computation in the battery."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(5):
        n = int(rng.integers(3, 11))
        alpha = float(rng.uniform(n / 2.0 + 0.2, n / 2.0 + 4.0))
        draws.append(lebesgue_power_quadrature(n, alpha))
    cell = check_delta_lemma(2, 1.0, trials=100_000, seed=seed + 17)
    w = weight_from_params(replace(base, kappa=0.0, lam=0.0, q=2.0))
    ub = truncated_bubble(1.0, base.s, base.n, base.eta)
    mc = seminorm_mc(ub, w, base.n, base.s, N=100_000, seed=seed + 911)
    payload = {"draws": draws, "worst_ratio": cell.worst_ratio,
               "mc_value": mc.value, "mc_error": mc.abs_error}
    return json.dumps(payload, sort_keys=True).encode()


def check_determinism(base: ProblemParams, seed: int) -> CheckResult:
    """12: the seeded computations reproduce byte-identical serializations.

    The battery-level probe; the end-to-end statement (two ``verify`` runs
    write byte-identical manifests) rides on it because everything else in
    the manifest is seed-free arithmetic.
    """
    t0 = time.perf_counter()
    first = _determinism_probe(base, seed)
    second = _determinism_probe(base, seed)
    return _finish(12, "determinism", t0, 60.0, first == second,
                   {"probe_bytes": len(first), "identical": first == second})


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

def _get_op(ops: dict, params: ProblemParams):
    # the operator depends on every parameter except the lam-term
    key = replace(params, lam=0.0, q=2.0)
    if key not in ops:
        ops[key] = assemble(key, GRID_M)
    return ops[key]


def run_all(cfg: RunConfig, *, tol: float = 1e-6) -> VerifyReport:
    """Run the full battery, sharing assembled operators where regimes agree."""
    base = cfg.params
    _require_pinned_regime(base)
    ops: dict = {}
    op = _get_op(ops, base)
    results = (
        check_closed_form_integrals(base, cfg.seed),
        check_scale_invariance(base),
        check_norm_rates(base),
        check_weight_bump(base),
        check_residual_rates(base),
        check_power_gap(base, cfg.seed),
        check_energy_dip(base, op),
        check_eigenvalue(base, op, ops),
        check_fiber_limits(base),
        check_pass_level(base, ops, tol),
        check_cross_method(base, cfg.seed),
        check_determinism(base, cfg.seed),
    )
    return VerifyReport(results=results)
