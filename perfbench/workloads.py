"""The three workload bodies and the certificate that judges each operation.

Each body takes a :class:`Context` and returns a list of operation records
``{"name", "seconds", "passed", "reason", "values", "stable"}``:

- ``passed`` is the operation's certificate, checked by an independent route
  where the package offers one;
- ``reason`` says why it failed: "math" (a certificate shows a wrong number),
  "statistical" (a Monte Carlo z-test beyond 3 sigma), "unconverged" (a solver
  stopped at its iteration cap), "budget" (a battery check ran over its
  wall-clock budget), or empty;
- ``values`` are the computed numbers, recorded next to the time;
- ``stable`` is the subset of ``values`` that does not depend on the seed,
  compared against ``reference_values.json`` to report drift.

Library calls go through module attributes at call time (``solver.assemble``),
so the traced run's wrappers see them.  Op names never contain the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from fracvar import (asymptotics, bubble, cli, constants, mountainpass, quad, solver,
                     verifysuite)
from fracvar.problem import ProblemParams, critical_exponent, weight_from_params

CONFIG = "default.cfg"

# solve: weights (kappa, p0) swept over grid sizes; (1, 0.5) is the stiff regime
SOLVE_WEIGHTS = ((0.0, 1.0), (0.05, 1.0), (0.2, 1.5), (1.0, 0.5))
SOLVE_GRIDS = (128, 256, 512)
LAM_FRACTION = (0.3, 0.7)
MP_REGIMES = ((0.004, 1.0), (0.004, 10.0))  # (kappa, lam) at q = 2.2, M = 128
MP_GRID = 128
RESIDUAL_TOL = 1e-8

# continuum: truncated bubbles at seeded eps, three weights each
BUBBLE_DRAWS = 10
EPS_RANGE = (0.02, 0.4)
BUBBLE_KAPPAS = (0.0, 0.05, 1.0)
GETOOR_CASES = ((6, 0.5), (6, 0.25), (6, 0.75), (4, 0.3), (3, 0.2))
FIBER_GRID = (0.2, 0.14, 0.1, 0.07, 0.05)
FIBER_REGIMES = ((0.002, 1.0, 2.0), (0.004, 0.1, 2.2), (0.004, 1.0, 2.2), (0.004, 10.0, 2.2))

# checks whose verdict is a z-test at 3 sigma, so that some seeds fail by chance
# (check 11 fails at seed 5 at the reference commit, worst z = 3.55)
STATISTICAL_CHECKS = (11,)

# battery detail keys that do not depend on the seed (checks 1, 6, 12 do)
BATTERY_STABLE = {
    2: ("mass",),
    3: ("l2_slope", "deficit_slope", "lq_slope"),
    4: ("slope",),
    5: ("bump_slope", "flat_slope"),
    7: ("grid_min_energy", "minimized_energy", "kappa_threshold"),
    8: ("lambda1", "lambda1_unit_weight"),
    9: ("final_gap_rel",),
    10: ("level", "beta", "bound"),
    11: ("radial_value",),
}


@dataclass(frozen=True)
class Context:
    params: ProblemParams
    seed: int
    scratch: str


def _op(name, seconds, passed, reason, values, stable=()):
    return {"name": name, "seconds": seconds, "passed": bool(passed),
            "reason": "" if passed else reason,
            "values": {k: float(v) for k, v in values.items()},
            "stable": {k: float(values[k]) for k in stable}}


# ---------------------------------------------------------------------------
# battery: the CLI verify command, one operation per check
# ---------------------------------------------------------------------------

def battery(ctx: Context) -> list[dict]:
    out = os.path.join(ctx.scratch, "verify")
    math_ok: dict[int, bool] = {}
    finish = verifysuite._finish

    def record_verdict(index, name, t0, budget, ok, details):
        math_ok[index] = bool(ok)
        return finish(index, name, t0, budget, ok, details)

    verifysuite._finish = record_verdict
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--config", CONFIG, "--seed", str(ctx.seed),
                             "--out", out])
    finally:
        verifysuite._finish = finish
    with open(os.path.join(out, "verify_results.json"), encoding="utf-8") as fh:
        results = json.load(fh)
    with open(os.path.join(out, "timings.json"), encoding="utf-8") as fh:
        timings = json.load(fh)
    if code != (0 if results["passed"] else 2):
        raise RuntimeError(f"verify exited {code} with passed={results['passed']}")

    ops = []
    for check in results["checks"]:
        i = check["index"]
        values = {k: v for k, v in check["details"].items()
                  if isinstance(v, (int, float)) and not isinstance(v, bool)}
        # a failed check with a sound verdict only ran over its budget
        if math_ok[i]:
            reason = "budget"
        else:
            reason = "statistical" if i in STATISTICAL_CHECKS else "math"
        ops.append(_op(f"battery.check.{i:02d}", timings["seconds"][str(i)],
                       check["passed"], reason, values, BATTERY_STABLE.get(i, ())))
    return ops


# ---------------------------------------------------------------------------
# solve: assemble -> first_eigenvalue -> minimize_S -> euler_residual, then
# the mountain-pass geometry and level
# ---------------------------------------------------------------------------

def rayleigh_residual(op, lam1: float, v) -> float:
    Av = op.A @ v.dofs
    return float(np.linalg.norm(Av - lam1 * (op.Mq @ v.dofs)) / np.linalg.norm(Av))


def minimize_certificate(res) -> tuple[bool, str]:
    if res.constraint_residual > RESIDUAL_TOL:
        return False, "math"
    return res.converged, "unconverged"


def level_certificate(level: float, beta: float, bound: float) -> bool:
    return beta <= level < bound


def lam_fractions(rng) -> list[float]:
    """One f per grid, one from each equal third of LAM_FRACTION.

    Stratified so that every run covers the whole range: iterations to
    convergence grow steeply as f falls, so independent draws would make
    the body's cost swing with the seed.
    """
    lo, hi = LAM_FRACTION
    u = rng.uniform()
    k = len(SOLVE_GRIDS)
    return [lo + (hi - lo) * (j + u) / k for j in range(k)]


def solve(ctx: Context) -> list[dict]:
    rng = np.random.default_rng(ctx.seed)
    ops = []
    for kappa, p0 in SOLVE_WEIGHTS:
        p = replace(ctx.params, kappa=kappa, p0=p0, lam=0.0, q=2.0)
        for M, f in zip(SOLVE_GRIDS, lam_fractions(rng)):
            case = f"kappa{kappa}-p0{p0}-M{M}"
            t0 = time.perf_counter()
            op = solver.assemble(p, M)
            lam1, v = solver.first_eigenvalue(op)
            seconds = time.perf_counter() - t0
            rayleigh = rayleigh_residual(op, lam1, v)
            ops.append(_op(f"solve.eigen-{case}", seconds, rayleigh <= RESIDUAL_TOL, "math",
                           {"lambda1": lam1, "rayleigh_residual": rayleigh,
                            "quadrature_rows": op.meta["quadrature_rows"]}, ("lambda1",)))

            p_lam = replace(p, lam=f * lam1)
            t0 = time.perf_counter()
            res = solver.minimize_S(p_lam, op)
            euler = solver.euler_residual(p_lam, op, res.field, res.energy)
            seconds = time.perf_counter() - t0
            ok, reason = minimize_certificate(res)
            ops.append(_op(f"solve.minimize-{case}", seconds, ok, reason, {
                "lam_fraction": f, "S": res.energy, "iterations": res.iterations,
                "constraint_residual": res.constraint_residual, "euler_residual": euler,
            }))
    for kappa, lam in MP_REGIMES:
        p = replace(ctx.params, kappa=kappa, lam=lam, q=2.2)
        t0 = time.perf_counter()
        op = solver.assemble(replace(p, lam=0.0, q=2.0), MP_GRID)
        rho, beta, _ = mountainpass.mp_geometry(p, op)
        st = mountainpass.mp_level(p, op)
        seconds = time.perf_counter() - t0
        bound = mountainpass.level_bound(p)
        ok = level_certificate(st.level, beta, bound)
        ops.append(_op(f"solve.mp-kappa{kappa}-lam{lam}", seconds, ok, "math", {
            "level": st.level, "beta": beta, "rho": rho, "bound": bound,
            "iterations": st.iterations, "converged": float(st.converged),
        }, ("level", "beta")))
    return ops


# ---------------------------------------------------------------------------
# continuum: deterministic radial quadrature, no grid solve, no Monte Carlo
# ---------------------------------------------------------------------------

def getoor_energy(n: int, s: float) -> float:
    """Gagliardo energy of (1 - |x|^2)_+^s in R^n, from Getoor's identity

    (-Delta)^s (1-|x|^2)_+^s = 2^{2s} Gamma(1+s) Gamma(n/2+s) / Gamma(n/2) on
    the unit ball, with the seminorm normalized without the C_{n,s} factor.
    """
    g = math.gamma
    return 2.0 * math.pi**n * g(1.0 - s) * g(1.0 + s) ** 2 / (s * g(n / 2.0) * g(n / 2.0 + s + 1.0))


def getoor_certificate(value: float, exact: float, estimate: float) -> bool:
    return abs(value - exact) <= 3.0 * estimate


def bubble_certificate(vals, errs, bilinear: float, crit: float, crit_alt: float,
                       kqs: float) -> bool:
    """Weight linearity in kappa, honest halving estimates, two power-integral
    routes and the truncation deficit, for one truncated bubble."""
    k0, k1, k2 = BUBBLE_KAPPAS
    mix = (k2 - k1) / (k2 - k0)
    linear = abs(vals[1] - (mix * vals[0] + (1.0 - mix) * vals[2])) <= 1e-10 * vals[1]
    settled = all(e <= 1e-8 * v for v, e in zip(vals, errs))
    polar = abs(bilinear - vals[-1]) <= 1.5 * errs[-1] + 1e-12 * vals[-1]
    masses = abs(crit - crit_alt) <= 1e-12 * crit and 0.0 < crit < kqs
    return linear and settled and polar and masses


def fiber_certificate(sweep, bound: float) -> bool:
    gaps = [f.limit_gap for f in sweep]
    return all(a > b for a, b in zip(gaps, gaps[1:])) and all(f.Y_eps < bound for f in sweep)


def continuum(ctx: Context) -> list[dict]:
    base = ctx.params
    n, s, eta = base.n, base.s, base.eta
    qs = critical_exponent(n, s)
    rng = np.random.default_rng(ctx.seed)
    lo, hi = (math.log(e) for e in EPS_RANGE)
    weights = [weight_from_params(replace(base, kappa=k)) for k in BUBBLE_KAPPAS]
    ops = []

    kqs = constants.bubble_constants(n, s).Kqs
    for i in range(BUBBLE_DRAWS):
        eps = math.exp(rng.uniform(lo, hi))
        t0 = time.perf_counter()
        ub = bubble.truncated_bubble(eps, s, n, eta)
        ests = [quad.seminorm_radial(ub, w, n, s, ub.support) for w in weights]
        bil = quad.bilinear_radial(ub, ub, weights[-1], n, s, ub.support)
        crit = bubble.lq_norm(ub, qs)
        crit_alt = quad.radial_power_integral(ub, qs, n)
        seconds = time.perf_counter() - t0
        vals = [e.value for e in ests]
        errs = [e.abs_error for e in ests]
        ok = bubble_certificate(vals, errs, bil, crit, crit_alt, kqs)
        values = {"eps": eps, "critical_mass": crit, "bilinear": bil}
        values.update({f"seminorm_kappa{k}": v for k, v in zip(BUBBLE_KAPPAS, vals)})
        values.update({f"halving_kappa{k}": e for k, e in zip(BUBBLE_KAPPAS, errs)})
        ops.append(_op(f"continuum.bubble-{i}", seconds, ok, "math", values))

    for gn, gs in GETOOR_CASES:
        t0 = time.perf_counter()
        est = quad.seminorm_radial(lambda r, gs=gs: np.maximum(1.0 - r * r, 0.0) ** gs,
                                   None, gn, gs, 1.0)
        seconds = time.perf_counter() - t0
        exact = getoor_energy(gn, gs)
        ok = getoor_certificate(est.value, exact, est.abs_error)
        ops.append(_op(f"continuum.getoor-n{gn}-s{gs}", seconds, ok, "math", {
            "seminorm": est.value, "exact": exact, "halving": est.abs_error,
            "rel_error": (est.value - exact) / exact,
        }, ("seminorm",)))

    sweeps = (
        ("sweep_A", lambda: asymptotics.sweep_A(base)),
        ("sweep_seminorm_bump", lambda: asymptotics.sweep_weighted_seminorm(
            replace(base, kappa=1.0, lam=0.0, q=2.0))),
        ("sweep_seminorm_flat", lambda: asymptotics.sweep_weighted_seminorm(
            replace(base, kappa=0.0, lam=0.0, q=2.0),
            eps_grid=(0.1, 0.07, 0.05, 0.035, 0.025))),
    )
    for name, run in sweeps:
        t0 = time.perf_counter()
        rep = run()
        seconds = time.perf_counter() - t0
        ops.append(_op(f"continuum.{name}", seconds, rep.passed, "math",
                       {"slope": rep.fit_slope, "r2": rep.fit_r2}, ("slope",)))

    for kappa, lam, q in FIBER_REGIMES:
        p = replace(base, kappa=kappa, lam=lam, q=q)
        t0 = time.perf_counter()
        sweep = mountainpass.fiber_sweep(p, FIBER_GRID)
        seconds = time.perf_counter() - t0
        ok = fiber_certificate(sweep, mountainpass.level_bound(p))
        values = {f"t_eps{f.eps}": f.t_eps for f in sweep}
        values.update({f"Y_eps{f.eps}": f.Y_eps for f in sweep})
        ops.append(_op(f"continuum.fiber-kappa{kappa}-lam{lam}-q{q}", seconds, ok, "math",
                       values, tuple(values)))
    return ops


WORKLOADS = {"battery": battery, "solve": solve, "continuum": continuum}
