"""Twelve-point verification battery exercising every module at desk scale.

Each ``check_*`` function realizes one numbered acceptance check and returns
its mathematical verdict with its headline scalars, ``(ok, details)``.
``run_all`` is the engine behind the ``verify`` command.  It hands checks
1-10 and 12, and check 11's Monte Carlo pieces, to a pool of at most two
``spawn`` worker processes that start with one BLAS thread, so every number
is independent of the caller's BLAS thread count.  It gathers the results in
a fixed order and builds each :class:`CheckResult` in the calling process;
``passed`` conjoins the verdict with the check's wall-clock budget, charged
with the check's compute seconds in the workers (queue wait excluded).

The battery is pinned at the regime n = 6, s = 0.5, k = 2 where all oracle
values were established; the remaining knobs (p0, eta, R, kappa, seed) come
from the supplied configuration.  Every threshold below is a formula in the
computed constants, never a frozen number, so honoring p0/eta/R is safe.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import as_completed
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar

from . import asymptotics
from .asymptotics import (
    check_delta_lemma,
    sweep_A,
    sweep_bubble_norms,
    sweep_energy,
    sweep_weighted_seminorm,
)
from .bubble import Bubble, lq_norm, truncated_bubble
from .constants import lebesgue_power_integral, lebesgue_power_quadrature
from .mountainpass import (
    _fiber_root,
    fiber_limit,
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
    """The twelve results in index order, the battery's wall seconds and the
    number of worker processes that ran it."""

    results: tuple[CheckResult, ...]
    wall_s: float
    workers: int

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

def _power_draw(rng) -> tuple[int, float]:
    """One (n, alpha) of checks 1 and 12: n in [3, 10], alpha in (n/2 + 0.2, n/2 + 4)."""
    n = int(rng.integers(3, 11))
    return n, float(rng.uniform(n / 2.0 + 0.2, n / 2.0 + 4.0))


def check_closed_form_integrals(base: ProblemParams, seed: int) -> tuple[bool, dict]:
    """1: closed-form power integrals against radial quadrature, 20 draws."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        n, alpha = _power_draw(rng)
        exact = lebesgue_power_integral(n, alpha)
        quad = lebesgue_power_quadrature(n, alpha)
        worst = max(worst, abs(quad - exact) / exact)
    return worst <= 1e-10, {"max_rel_error": worst, "draws": 20}


def check_scale_invariance(base: ProblemParams) -> tuple[bool, dict]:
    """2: the critical mass of the full bubble is independent of eps."""
    n, s = base.n, base.s
    qs = critical_exponent(n, s)
    eps_set = (0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0)
    vals = [lq_norm(Bubble(eps=e, s=s, n=n), qs, r_max=1e4 * e) for e in eps_set]
    spread = (max(vals) - min(vals)) / np.median(vals)
    return spread < 1e-6, {"relative_spread": float(spread), "mass": float(np.median(vals))}


def check_norm_rates(base: ProblemParams) -> tuple[bool, dict]:
    """3: truncated-bubble norm rates (L2, critical deficit, L^q at q=2.2)."""
    p = ProblemParams(n=base.n, s=base.s, k=base.k, q=2.2, p0=base.p0,
                      eta=base.eta, R=base.R)
    rep2, repd, repq = sweep_bubble_norms(p)
    ok = rep2.passed and repd.passed and repq.passed
    return ok, {
        "l2_slope": rep2.fit_slope, "l2_r2": rep2.fit_r2,
        "deficit_slope": repd.fit_slope, "deficit_r2": repd.fit_r2,
        "lq_slope": repq.fit_slope, "lq_r2": repq.fit_r2,
    }


def check_weight_bump(base: ProblemParams) -> tuple[bool, dict]:
    """4: the ball-restricted weighted form scales like eps^{2s}."""
    rep = sweep_A(base)
    return rep.passed, {
        "slope": rep.fit_slope, "r2": rep.fit_r2,
        **{k: float(v) for k, v in rep.extras.items()},
    }


def check_residual_rates(base: ProblemParams) -> tuple[bool, dict]:
    """5: weighted seminorm residual rates for bump and constant weight."""
    rep_bump = sweep_weighted_seminorm(replace(base, kappa=1.0))
    rep_flat = sweep_weighted_seminorm(replace(base, kappa=0.0), eps_grid=(0.1, 0.07, 0.05, 0.035, 0.025))
    ok = rep_bump.passed and rep_flat.passed
    return ok, {
        "bump_slope": rep_bump.fit_slope, "bump_r2": rep_bump.fit_r2,
        "bump_min_residual": float(rep_bump.extras["min_residual"]),
        "flat_slope": rep_flat.fit_slope, "flat_r2": rep_flat.fit_r2,
        "flat_min_residual": float(rep_flat.extras["min_residual"]),
    }


def check_power_gap(base: ProblemParams, seed: int) -> tuple[bool, dict]:
    """6: sampled |x|^{k/2} Lipschitz-type bound over six (k, R) cells."""
    worst = 0.0
    ok = True
    for i, (k, R) in enumerate(asymptotics.DELTA_CELLS):
        res = check_delta_lemma(k, R, seed=seed + 17 * (i + 1))
        ok = ok and res.passed
        worst = max(worst, res.worst_ratio)
    return ok, {"worst_ratio": worst, "cells": len(asymptotics.DELTA_CELLS), "trials_per_cell": asymptotics.DELTA_TRIALS}


# ---------------------------------------------------------------------------
# Checks 7-10: discrete solver, eigenvalue, fiber, pass level
# ---------------------------------------------------------------------------

def check_energy_dip(base: ProblemParams) -> tuple[bool, dict]:
    """7: energy dips under p0*Ss below the kappa-threshold, not at lam=0."""
    op = _get_op(base)
    level = base.level
    lam1, _ = first_eigenvalue(op)
    p_dip = replace(base, lam=0.5 * lam1, q=2.0)
    rep = sweep_energy(p_dip)
    dip_ok = (rep.extras["min_energy"] < level
              and p_dip.kappa < rep.extras["kappa_threshold"])
    res = minimize_S(p_dip, op)
    min_ok = (res.converged and res.energy < level
              and res.constraint_residual <= 1e-8)
    rep0 = sweep_energy(replace(base, lam=0.0, q=2.0))
    nodip_ok = rep0.extras["min_energy"] >= level - 1e-3
    return dip_ok and min_ok and nodip_ok and base.kappa > 0.0, {
        "lam": p_dip.lam,
        "grid_min_energy": float(rep.extras["min_energy"]),
        "level": level,
        "kappa_threshold": float(rep.extras["kappa_threshold"]),
        "minimized_energy": res.energy,
        "constraint_residual": res.constraint_residual,
        "lam0_min_energy": float(rep0.extras["min_energy"]),
    }


def check_eigenvalue(base: ProblemParams) -> tuple[bool, dict]:
    """8: eigenpair residual, linear scaling in the weight, weighted >= p0*flat."""
    op = _get_op(base)
    lam1, v = first_eigenvalue(op)
    resid = float(np.linalg.norm(op.A @ v.dofs - lam1 * op.Mq @ v.dofs)
                  / np.linalg.norm(op.A @ v.dofs))
    p_double = replace(base, kappa=2.0 * base.kappa, p0=2.0 * base.p0)
    lam1_d, _ = first_eigenvalue(_get_op(p_double))
    doubling_err = abs(lam1_d / lam1 - 2.0)
    p_unit = ProblemParams(n=base.n, s=base.s, k=base.k, kappa=0.0, p0=1.0,
                           eta=base.eta, R=base.R)
    lam1_u, _ = first_eigenvalue(_get_op(p_unit))
    dominates = lam1 >= base.p0 * lam1_u * (1.0 - 1e-12)
    ok = resid <= 1e-8 and doubling_err <= 1e-8 and dominates
    return ok, {
        "lambda1": lam1, "residual": resid, "doubling_error": doubling_err,
        "lambda1_unit_weight": lam1_u,
    }


def check_fiber_limits(base: ProblemParams) -> tuple[bool, dict]:
    """9: t_eps gap shrinks monotonically; Y_eps stays under the bound."""
    qs = critical_exponent(base.n, base.s)
    t_limit = fiber_limit(base)
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
    return ok, {
        "final_gap_rel": final_gap, "closed_vs_bisect": root_err,
        "regimes": len(regimes),
    }


def _initial_crest_gradient(params: ProblemParams, op, e) -> float:
    # the straight ray from 0 to e on the t-grid of a 21-point path with 3
    # checkpoints per segment; the gradient at its highest sample is the
    # reference that the Nehari minimizer's gradient must undercut
    ts = np.linspace(0.0, 1.0, 20 * 4 + 1)
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


def check_pass_level(base: ProblemParams, tol: float) -> tuple[bool, dict]:
    """10: the Nehari level sits in [beta - tol, bound), every start reaches
    it (spread <= 1e-6), its ray path peaks at it (to 1e-9), and the crest
    gradient drops >= 10x from the straight path's highest sample."""
    p = replace(base, kappa=0.004, lam=1.0, q=2.2)
    op = _get_op(p)
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
    return ok, {
        "level": st.level, "beta": beta, "bound": B,
        "monotone": monotone, "iterations": st.iterations,
        "crest_grad_initial": g0, "crest_grad_final": g1, "grad_drop": drop,
        "start_spread": spread, "path_max_rel": path_max_rel,
    }


# ---------------------------------------------------------------------------
# Checks 11-12: Monte Carlo cross-check, determinism
# ---------------------------------------------------------------------------

_MC_CONFIGS = ((1.0, 0.0, 600_000), (0.8, 0.0, 500_000), (0.8, 1.0, 400_000),
               (0.6, 0.5, 400_000), (1.2, 0.0, 400_000))
# the unbiasedness test: the configuration whose bubble and radial value it
# reuses (eps 1.2, kappa 0), samples per seed, seeds
_UNBIASED_CONFIG, _UNBIASED_N, _UNBIASED_SEEDS = 4, 400_000, 50


def _mc_bubble(base: ProblemParams, eps: float, kappa: float):
    w = weight_from_params(replace(base, kappa=kappa))
    return truncated_bubble(eps, base.s, base.n, base.eta), w


def _mc_config_z(base: ProblemParams, seed: int, i: int) -> tuple[float, float]:
    """(|MC - radial| / MC error, radial value) for the i-th entry of ``_MC_CONFIGS``."""
    eps, kappa, N = _MC_CONFIGS[i]
    ub, w = _mc_bubble(base, eps, kappa)
    ref = seminorm_radial(ub, w, base.n, base.s, ub.support).value
    est = seminorm_mc(ub, w, base.n, base.s, N=N, seed=seed + 31 * (i + 1))
    return abs(est.value - ref) / est.abs_error, ref


def _unbiased_values(base: ProblemParams, seed: int, offsets: range) -> list[float]:
    """Monte Carlo seminorms of the unbiasedness bubble at seed + 1000 + j."""
    eps, kappa, _ = _MC_CONFIGS[_UNBIASED_CONFIG]
    ub, w = _mc_bubble(base, eps, kappa)
    return [seminorm_mc(ub, w, base.n, base.s, N=_UNBIASED_N, seed=seed + 1000 + j).value
            for j in offsets]


def check_cross_method(config_z: list[float], reference: float,
                       values: list[float]) -> tuple[bool, dict]:
    """11: radial vs Monte Carlo seminorms within 3 sigma; MC unbiasedness.

    Judges the pieces that ``run_all`` gathers from the workers: one z-score
    per entry of ``_MC_CONFIGS``, the radial value of the unbiasedness bubble
    (its configuration's) and its Monte Carlo values in seed order.
    """
    ok = True
    worst_z = 0.0
    for z in config_z:
        worst_z = max(worst_z, z)
        ok = ok and z <= 3.0
    # unbiasedness: the mean over the seeds must match the radial value
    vals = np.array(values)
    z_mean = abs(vals.mean() - reference) / (vals.std(ddof=1) / math.sqrt(len(vals)))
    ok = ok and z_mean <= 3.0
    return ok, {
        "worst_config_z": worst_z, "mean_z_50_seeds": float(z_mean),
        "mc_mean": float(vals.mean()), "radial_value": reference,
    }


def _determinism_probe(base: ProblemParams, seed: int) -> bytes:
    """Rerunnable snapshot of every seeded computation in the battery."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(5):
        draws.append(lebesgue_power_quadrature(*_power_draw(rng)))
    cell = check_delta_lemma(2, 1.0, seed=seed + 17)
    w = weight_from_params(replace(base, kappa=0.0))
    ub = truncated_bubble(1.0, base.s, base.n, base.eta)
    mc = seminorm_mc(ub, w, base.n, base.s, N=100_000, seed=seed + 911)
    payload = {"draws": draws, "worst_ratio": cell.worst_ratio,
               "mc_value": mc.value, "mc_error": mc.abs_error}
    return json.dumps(payload, sort_keys=True).encode()


def check_determinism(base: ProblemParams, seed: int) -> tuple[bool, dict]:
    """12: the seeded computations reproduce byte-identical serializations.

    The battery-level probe; the end-to-end statement (two ``verify`` runs
    write byte-identical manifests) rides on it because everything else in
    the manifest is seed-free arithmetic.
    """
    first = _determinism_probe(base, seed)
    second = _determinism_probe(base, seed)
    return first == second, {"probe_bytes": len(first), "identical": first == second}


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

# index -> (name, wall-clock budget in seconds)
_CHECKS = {
    1: ("closed-form integrals vs quadrature", 5.0),
    2: ("critical-norm scale invariance", 10.0),
    3: ("bubble norm rates", 120.0),
    4: ("weight bump scaling", 120.0),
    5: ("seminorm residual rates", 300.0),
    6: ("pointwise power gap bound", 10.0),
    7: ("energy dip signature", 600.0),
    8: ("first eigenvalue", 60.0),
    9: ("fiber limits", 300.0),
    10: ("mountain pass level", 900.0),
    11: ("cross-method seminorm", 600.0),
    12: ("determinism", 60.0),
}
_SEEDS_PER_TASK = 5
_BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@lru_cache(maxsize=4)
def _assembled(key: ProblemParams):
    return assemble(key, GRID_M)


def _get_op(params: ProblemParams):
    # the operator depends on every parameter except the lam-term; each
    # worker keeps what it assembles, so checks 7 and 8 share the base
    # operator when they run in the same worker
    return _assembled(replace(params, lam=0.0, q=2.0))


def _tasks(cfg: RunConfig, tol: float) -> dict:
    """The battery's independent work items, ``{key: [(fn, *args), ...]}``.

    Keys are check indices, and two labels for check 11's pieces.  The
    order is the submission order, longest first by one-thread compute
    seconds: checks 9 and 5 (over 1 s), the ten unbiasedness seed chunks
    and check 7 (0.6-0.9 s each), the five configurations (0.25-0.4 s),
    then the rest, so that the short items fill the tail.
    """
    base, seed = cfg.params, cfg.seed
    chunks = [range(j, j + _SEEDS_PER_TASK) for j in range(0, _UNBIASED_SEEDS, _SEEDS_PER_TASK)]
    return {
        9: [(check_fiber_limits, base)],
        5: [(check_residual_rates, base)],
        "mc_values": [(_unbiased_values, base, seed, c) for c in chunks],
        7: [(check_energy_dip, base)],
        "mc_configs": [(_mc_config_z, base, seed, i) for i in range(len(_MC_CONFIGS))],
        6: [(check_power_gap, base, seed)],
        10: [(check_pass_level, base, tol)],
        12: [(check_determinism, base, seed)],
        8: [(check_eigenvalue, base)],
        4: [(check_weight_bump, base)],
        3: [(check_norm_rates, base)],
        1: [(check_closed_form_integrals, base, seed)],
        2: [(check_scale_invariance, base)],
    }


def _timed(fn, *args):
    """Run one work item; return its compute seconds and its output."""
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


@contextmanager
def _one_blas_thread():
    """Set the BLAS thread variables to 1 in this process's environment and
    restore them on exit.  A spawned worker inherits the environment at its
    start, before it imports numpy."""
    saved = {k: os.environ.get(k) for k in _BLAS_THREADS}
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                del os.environ[k]
            else:
                os.environ[k] = v


def run_all(cfg: RunConfig, *, tol: float = 1e-6) -> VerifyReport:
    """Run the full battery on ``min(2, available CPUs)`` spawn workers.

    The work items of :func:`_tasks` are submitted longest first.  The
    workers start during submission, with one BLAS thread each, so the
    results do not depend on the caller's BLAS setting.  If an item raises,
    the pool cancels what has not started and the first failure is
    re-raised here with its own type and message.  Otherwise every
    :class:`CheckResult` is built here, in index order, by ``_finish``
    (looked up at call time) from the item's compute seconds; check 11 is
    judged by :func:`check_cross_method` on its pieces gathered in seed
    order, and is charged the sum of their seconds.  The pool is shut down
    before this returns.

    Spawned workers import the caller's main module, so a script that calls
    this must guard its entry point with ``if __name__ == "__main__":``.
    """
    # imported here so that importing the package loads no process machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _require_pinned_regime(cfg.params)
    t0 = time.perf_counter()
    workers = min(2, len(os.sched_getaffinity(0)))
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        with _one_blas_thread():  # workers are spawned inside submit
            futures = {key: [pool.submit(_timed, *item) for item in items]
                       for key, items in _tasks(cfg, tol).items()}
        for f in as_completed([f for fs in futures.values() for f in fs]):
            f.result()  # raises the first failure as soon as it happens
        done = {key: [f.result() for f in fs] for key, fs in futures.items()}
    finally:
        pool.shutdown(cancel_futures=True)

    results = []
    for index, (name, budget) in _CHECKS.items():
        if index == 11:
            parts = done["mc_configs"] + done["mc_values"]
            seconds = sum(sec for sec, _ in parts)
            configs = [z_and_radial for _, z_and_radial in done["mc_configs"]]
            ok, details = check_cross_method(
                [z for z, _ in configs], configs[_UNBIASED_CONFIG][1],
                [v for _, chunk in done["mc_values"] for v in chunk])
        else:
            [(seconds, (ok, details))] = done[index]
        results.append(_finish(index, name, time.perf_counter() - seconds, budget, ok, details))
    return VerifyReport(results=tuple(results), wall_s=time.perf_counter() - t0,
                        workers=workers)
