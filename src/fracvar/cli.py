"""Command-line front end: one table of subcommands, each with only the flags it reads.

Every subcommand except ``verify`` prints a JSON object to stdout; ``verify``
prints one PASS/FAIL line per check and an overall line.  Artifacts (JSON,
and CSV in 12-significant-digit scientific) are written under
``$FRACVAR_OUT`` or ``--out`` (default ``.``) before anything is printed.
``verify`` runs the full check battery on at most two worker processes,
each started with one BLAS thread, so its results do not depend on the
caller's BLAS thread count.  It writes a byte-deterministic manifest: wall
times (per check, plus the battery's ``wall_s`` and ``workers``) live in a
separate ``timings.json`` sidecar, listed in the manifest by name but never
checksummed, so reruns with the same config and seed reproduce the manifest
exactly.

Exit codes: 0 on success; 2 when a check fails, when validation rejects the
input (a ``ValueError`` other than ``ConfigError``), or on a known numeric
failure (``SolverError``, ``MountainPassError``); 1 on usage, configuration
or I/O errors, including any flag the command does not read.  Every command
that loads ``--config`` runs :func:`fracvar.problem.validate` on it first,
and exits 2, before computing, with the error codes on stderr when it
reports any; regime admissibility is judged by ``validate`` alone.  The
shape flags exit 2 before computing when out of range: ``--n`` (an integer
>= 3) and ``--s`` (in (0, 1)) as for :func:`fracvar.problem.critical_exponent`,
and a ``--q`` that is not finite or where the command's integral diverges
(q < 1 for ``bubble-norms``, q (n - 2s)/2 <= n/2 for ``constants``).  So
does a ``verify --tol`` that is not finite and >= 0.  Any other exception
is a programming error and escapes with its traceback.
Importing this module already loads numpy (through the package
``__init__``), so to cap the BLAS threads of the process set
``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` in the
environment before launch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import replace

import numpy as np

from . import asymptotics, bubble, constants, mountainpass, problem, quad, solver, verifysuite
from .mountainpass import MountainPassError
from .problem import ConfigError
from .solver import SolverError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse takes "-1e-3" for an option name; a negative number in
        # exponent notation is a value (no flag of this parser looks like one)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def _round12(x):
    if isinstance(x, dict):
        return {k: _round12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round12(v) for v in x]
    if isinstance(x, bool) or not isinstance(x, float):
        return x
    if x != x or x in (float("inf"), float("-inf")):
        return repr(x)
    return float(f"{x:.11e}")


def _json_bytes(payload) -> bytes:
    return (json.dumps(_round12(payload), sort_keys=True, indent=1,
                       ensure_ascii=False) + "\n").encode("utf-8")


def _csv_bytes(header: list[str], rows) -> bytes:
    lines = [",".join(header)] + [
        ",".join(f"{v:.11e}" if isinstance(v, float) else str(v) for v in row)
        for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _load_config(path: str, seed: int | None, command: str):
    """The config at ``path``, with ``seed`` if given; only ``validate`` takes invalid parameters."""
    cfg = problem.load_config(path)
    errors = () if command == "validate" else problem.validate(cfg.params).errors
    if errors:
        raise ValueError("invalid config: " + "; ".join(f"{c}: {m}" for c, m in errors))
    return cfg if seed is None else replace(cfg, seed=seed)


def _u64(text: str) -> int:
    try:
        return problem.parse_seed(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _eps_grid(items: list[str]) -> list[float]:
    try:
        grid = [float(tok) for item in items for tok in item.split(",") if tok]
    except ValueError as exc:
        raise _UsageError(f"--eps-grid: {exc}") from exc
    if not grid:
        raise _UsageError("--eps-grid needs at least one value")
    return grid


def _check_shape(args) -> None:
    """``--n`` and ``--s`` by the rule of :func:`fracvar.problem.critical_exponent`."""
    if args.n < 3:
        raise ValueError(f"--n must be an integer >= 3, got {args.n}")
    if not 0.0 < args.s < 1.0:
        raise ValueError(f"--s must lie in (0, 1), got {args.s}")


# ---------------------------------------------------------------------------
# Command handlers: handler(args, cfg) -> (payload, {artifact: bytes}, exit code)
# ---------------------------------------------------------------------------

def _validate(args, cfg):
    report = problem.validate(cfg.params)
    ok = report.ok and not report.regime_errors
    if not ok:
        sys.stderr.write("\n".join([report.reasons(), *report.regime_errors]).strip() + "\n")
    return {
        "ok": ok,
        "errors": [{"code": c, "message": m} for c, m in report.errors],
        "warnings": list(report.warnings),
        "regime_errors": list(report.regime_errors),
        "ns_admissible": report.ns_admissible,
        "k_admissible": report.k_admissible,
        "theorem1_regime": report.theorem1_regime,
    }, {}, 0 if ok else 2


def _constants(args, cfg):
    _check_shape(args)
    # K_{q,s} is the power integral with exponent q (n - 2s)/2, finite above n/2
    if args.q is not None and not (math.isfinite(args.q) and args.q * (args.n - 2.0 * args.s) > args.n):
        raise ValueError(f"--q must be finite with q (n - 2s)/2 > n/2, got {args.q}")
    cs = constants.bubble_constants(args.n, args.s, args.q)
    payload = {"q_s": cs.q_s, "Kqs": cs.Kqs, "Kq_s": cs.Kq_s,
               "K2s": cs.K2s, "Ks": cs.Ks, "Ss": cs.Ss}
    return payload, {"constants.json": _json_bytes(payload)}, 0


def _bubble(args, cfg):
    if not (math.isfinite(args.x) and args.x >= 0.0):
        raise ValueError(f"--x must be a finite radius >= 0, got {args.x}")
    _check_shape(args)
    tb = bubble.truncated_bubble(args.eps, args.s, args.n, args.eta)
    return {"eps": args.eps, "x": args.x,
            "U": float(tb.bubble.radial_value(args.x)),
            "u": float(tb.radial_value(args.x))}, {}, 0


def _bubble_norms(args, cfg):
    _check_shape(args)
    if not 1.0 <= args.q < math.inf:  # lq_norm's rule, finite
        raise ValueError(f"--q must be finite and >= 1, got {args.q}")
    rows = []
    for eps in _eps_grid(args.eps_grid):
        tb = bubble.truncated_bubble(eps, args.s, args.n, args.eta)
        rows.append((eps, bubble.lq_norm(tb, args.q, r_max=tb.support)))
    return {"q": args.q, "rows": len(rows), "csv": "bubble_norms.csv"}, \
        {"bubble_norms.csv": _csv_bytes(["eps", "lq_norm"], rows)}, 0


def _seminorm(args, cfg):
    p = cfg.params
    w = problem.weight_from_params(p)
    ub = bubble.truncated_bubble(args.eps, p.s, p.n, p.eta)
    if args.method == "radial":
        est = quad.seminorm_radial(ub, w, p.n, p.s, ub.support)
    else:
        est = quad.seminorm_mc(ub, w, p.n, p.s, N=args.samples, seed=cfg.seed)
    payload = {"value": est.value, "abs_error": est.abs_error,
               "method": est.method, "samples_or_panels": est.samples_or_panels}
    return payload, {"seminorm.json": _json_bytes(payload)}, 0


def _fit_residual_rows(rep):
    rows = []
    for eps, val in zip(rep.eps_grid, rep.values):
        fit = math.exp(rep.fit_intercept + rep.fit_slope * math.log(eps))
        rows.append((eps, val, val / fit - 1.0))
    return rows


def _verify_estimates(args, cfg):
    p = cfg.params
    suites = ("A", "thm22", "norms", "energy", "delta") \
        if args.suite == "all" else (args.suite,)
    summary: dict = {}
    artifacts: dict[str, bytes] = {}
    for suite in suites:
        if suite == "A":
            reports = {"A": asymptotics.sweep_A(p)}
        elif suite == "thm22":
            reports = {"thm22": asymptotics.sweep_weighted_seminorm(p)}
        elif suite == "norms":
            r2, rd, rq = asymptotics.sweep_bubble_norms(p)
            reports = {"norms_l2": r2, "norms_deficit": rd, "norms_lq": rq}
        elif suite == "energy":
            reports = {"energy": asymptotics.sweep_energy(p)}
        else:  # delta
            cells = [(k, R, asymptotics.check_delta_lemma(k, R, seed=cfg.seed + i))
                     for i, (k, R) in enumerate(asymptotics.DELTA_CELLS)]
            artifacts["estimates_delta.csv"] = _csv_bytes(
                ["k", "R", "delta", "worst_ratio"],
                [(float(k), R, c.delta, c.worst_ratio) for k, R, c in cells])
            summary["delta"] = {
                "pass": all(c.passed for _, _, c in cells),
                "worst_ratio": max(c.worst_ratio for _, _, c in cells),
            }
            continue
        for name, rep in reports.items():
            artifacts[f"estimates_{name}.csv"] = _csv_bytes(
                ["eps", "value", "fit_residual"], _fit_residual_rows(rep))
            summary[name] = {"fit_slope": rep.fit_slope,
                             "claimed_rate": rep.claimed_rate,
                             "pass": rep.passed}
    artifacts["estimates_summary.json"] = _json_bytes(summary)
    return summary, artifacts, 0 if all(v["pass"] for v in summary.values()) else 2


def _minimize(args, cfg):
    op = solver.assemble(cfg.params, args.grid)
    res = solver.minimize_S(cfg.params, op)
    payload = {"energy": res.energy, "converged": res.converged,
               "iterations": res.iterations,
               "constraint_residual": res.constraint_residual,
               "below_threshold": res.below_threshold, "status": res.status}
    return payload, {
        "minimize.json": _json_bytes(payload),
        "minimize_field.csv": _csv_bytes(
            ["r", "u"], zip(res.field.nodes.tolist(), res.field.values.tolist())),
    }, 0 if res.converged else 2


def _eigen(args, cfg):
    lam1, _ = solver.first_eigenvalue(solver.assemble(cfg.params, args.grid))
    payload = {"lambda1": lam1}
    return payload, {"eigen.json": _json_bytes(payload)}, 0


def _fiber(args, cfg):
    sw = mountainpass.fiber_sweep(cfg.params, _eps_grid(args.eps_grid))
    rows = [(f.eps, f.X_tilde, f.t_eps, f.Y_eps, f.limit_gap) for f in sw]
    return {"rows": len(sw), "csv": "fiber.csv", "final_limit_gap": sw[-1].limit_gap}, \
        {"fiber.csv": _csv_bytes(["eps", "X_tilde", "t_eps", "Y_eps", "limit_gap"], rows)}, 0


def _mountain_pass(args, cfg):
    op = solver.assemble(cfg.params, args.grid)
    rho, beta, _ = mountainpass.mp_geometry(cfg.params, op)
    st = mountainpass.mp_level(cfg.params, op, m=args.path_points)
    payload = {"beta": beta, "rho": rho, "level": st.level,
               "bound": mountainpass.level_bound(cfg.params),
               "converged": st.converged, "iterations": st.iterations}
    # ray path profile: the points are equally spaced on a ray, so the
    # stiffness-metric arc fraction of point j is j / (m - 1)
    arc = np.linspace(0.0, 1.0, len(st.points)).tolist()
    rows = [(j, arc[j], mountainpass.phi_value(cfg.params, op, pt))
            for j, pt in enumerate(st.points)]
    return payload, {
        "mountain_pass.json": _json_bytes(payload),
        "mountain_pass_path.csv": _csv_bytes(["index", "arc_fraction", "phi"], rows),
    }, 0 if st.converged else 2


def _verify(args, cfg):
    if not 0.0 <= args.tol < math.inf:
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    report = verifysuite.run_all(cfg, tol=args.tol)
    results = _json_bytes({
        "checks": [
            {"index": r.index, "name": r.name, "passed": r.passed,
             "details": {k: v for k, v in r.details}}
            for r in report.results
        ],
        "passed": report.passed,
    })
    timings = _json_bytes({
        "seconds": {str(r.index): r.seconds for r in report.results},
        "budgets": {str(r.index): r.budget for r in report.results},
        "wall_s": report.wall_s,
        "workers": report.workers,
    })
    manifest = _json_bytes({
        "version": verifysuite.VERSION,
        "seed": cfg.seed,
        "config": cfg.raw_text(),
        # timing bytes differ between runs, so they carry no checksum
        "outputs": {"verify_results.json": hashlib.sha256(results).hexdigest(),
                    "timings.json": None},
        "checks": [{"index": r.index, "name": r.name, "passed": r.passed}
                   for r in report.results],
        "passed": report.passed,
    })
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.index:2d} {r.name} ({r.seconds:.1f}s)\n"
             for r in report.results]
    lines.append(("PASS" if report.passed else "FAIL") + " overall\n")
    return "".join(lines), {"verify_results.json": results, "timings.json": timings,
                            "manifest.json": manifest}, 0 if report.passed else 2


# ---------------------------------------------------------------------------
# The command table and the parser built from it
# ---------------------------------------------------------------------------

_CONFIG = ("--config", {"required": True})
_OUT = ("--out", {})
_SEED = ("--seed", {"type": _u64})
_GRID = ("--grid", {"type": int, "default": 128})
_EPS_GRID = ("--eps-grid", {"nargs": "+", "required": True})
_SHAPE = (("--n", {"type": int, "default": 6}), ("--s", {"type": float, "default": 0.5}),
          ("--eta", {"type": float, "default": 1.0}))

# name -> (handler, flags); a command with --config gets the loaded config
_COMMANDS = {
    "validate": (_validate, (_CONFIG,)),
    "constants": (_constants, (
        ("--n", {"type": int, "required": True}), ("--s", {"type": float, "required": True}),
        ("--q", {"type": float}), _OUT)),
    "bubble": (_bubble, (
        ("--eps", {"type": float, "required": True}),
        ("--x", {"type": float, "required": True,
                 "help": "the radius |x| at which U and u are evaluated"}),
        *_SHAPE)),
    "bubble-norms": (_bubble_norms, (
        ("--q", {"type": float, "required": True}), _EPS_GRID, *_SHAPE, _OUT)),
    "seminorm": (_seminorm, (
        _CONFIG, ("--method", {"choices": ("radial", "mc"), "default": "radial"}),
        ("--eps", {"type": float, "required": True}),
        ("--samples", {"type": int, "default": 200_000}), _SEED, _OUT)),
    "verify-estimates": (_verify_estimates, (
        _CONFIG,
        ("--suite", {"default": "all",
                     "choices": ("all", "A", "thm22", "delta", "energy", "norms")}),
        _SEED, _OUT)),
    "minimize": (_minimize, (_CONFIG, _GRID, _OUT)),
    "eigen": (_eigen, (_CONFIG, _GRID, _OUT)),
    "fiber": (_fiber, (_CONFIG, _EPS_GRID, _OUT)),
    "mountain-pass": (_mountain_pass, (
        _CONFIG, ("--path-points", {"type": int, "default": 21}), _GRID, _OUT)),
    "verify": (_verify, (_CONFIG, _SEED, ("--tol", {"type": float, "default": 1e-6}), _OUT)),
}


def _build_parser() -> _Parser:
    top = _Parser(prog="fracvar", description=__doc__.splitlines()[0],
                  usage="fracvar COMMAND [flags]  (fracvar COMMAND --help lists them)\n"
                        "commands: " + " ".join(_COMMANDS))
    sub = top.add_subparsers(dest="command", required=True, prog="fracvar")
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args.config, getattr(args, "seed", None), args.command) \
            if "config" in args else None
        payload, artifacts, code = _COMMANDS[args.command][0](args, cfg)
        if artifacts:
            out = os.environ.get("FRACVAR_OUT") or args.out or "."
            os.makedirs(out, exist_ok=True)
            for name, data in artifacts.items():
                with open(os.path.join(out, name), "wb") as fh:
                    fh.write(data)
        sys.stdout.write(payload if isinstance(payload, str)
                         else _json_bytes(payload).decode("utf-8"))
        return code
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n{parser.format_usage()}")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, SolverError, MountainPassError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1 if isinstance(exc, ConfigError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
