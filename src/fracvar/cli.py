"""Command-line front end: configuration loading, subcommands, persistence.

Every subcommand prints a JSON object to stdout and writes its tabular
artifacts (CSV, 12-significant-digit scientific) under the output directory.
``verify`` runs the full check battery on at most two worker processes,
each started with one BLAS thread, so its results do not depend on the
caller's BLAS thread count.  It writes a byte-deterministic manifest: wall
times (per check, plus the battery's ``wall_s`` and ``workers``) live in a
separate ``timings.json`` sidecar, listed in the manifest by name but never
checksummed, so reruns with the same config and seed reproduce the manifest
exactly.

Exit codes: 0 on success; 2 when a check fails, when validation rejects the
input (a ``ValueError`` other than ``ConfigError``), or on a known numeric
failure (``QuadratureError``, ``SolverError``, ``MountainPassError``); 1 on
usage, configuration or I/O errors.  Any other exception is a programming
error and escapes with its traceback.  ``--threads N`` only exports N as
``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS`` and
``NUMEXPR_NUM_THREADS``.  Importing this module already loads numpy
(through the package ``__init__``), so the flag cannot cap the BLAS
threads of the running process; set those variables in the environment
before launch for that.  ``verify``'s workers always run with one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass

from .mountainpass import MountainPassError
from .problem import ConfigError
from .quad import QuadratureError
from .solver import SolverError

_SYNOPSIS = (
    "usage: fracvar COMMAND [--config PATH] [--out DIR] [--seed U64] "
    "[--threads N] [--tol REAL] [command flags]\n"
    "commands: validate constants bubble bubble-norms seminorm "
    "verify-estimates minimize eigen fiber mountain-pass verify"
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        raise _UsageError(message)


@dataclass(frozen=True)
class RunManifest:
    """Deterministic record of one ``verify`` run.

    ``outputs`` maps every emitted file to its sha256, except timing
    sidecars, which are listed with a null checksum because their bytes
    legitimately differ between runs.
    """

    version: str
    seed: int
    config_text: str
    outputs: tuple[tuple[str, str | None], ...]
    checks: tuple[tuple[int, str, bool], ...]
    passed: bool

    def to_bytes(self) -> bytes:
        payload = {
            "version": self.version,
            "seed": self.seed,
            "config": self.config_text,
            "outputs": {path: sha for path, sha in self.outputs},
            "checks": [
                {"index": i, "name": n, "passed": p} for i, n, p in self.checks
            ],
            "passed": self.passed,
        }
        return _json_bytes(payload)


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


def _write_json(out_dir: str, name: str, payload) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "wb") as fh:
        fh.write(_json_bytes(payload))
    return path


def _write_csv(out_dir: str, name: str, header: list[str], rows) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                f"{v:.11e}" if isinstance(v, float) else str(v) for v in row
            ) + "\n")
    return path


def _emit(payload) -> None:
    sys.stdout.write(_json_bytes(payload).decode("utf-8"))


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_config(args):
    from .problem import load_config

    if not args.config:
        raise _UsageError("this command needs --config PATH")
    cfg = load_config(args.config)
    if cfg.weight.variant != "TruncatedPower":
        # every command rebuilds the weight from the parameters alone
        raise ConfigError(f"weight.variant {cfg.weight.variant!r} is not supported by the commands; "
                          "use TruncatedPower")
    if args.seed is not None:
        from dataclasses import replace

        cfg = replace(cfg, seed=args.seed)
    return cfg


def _out_dir(args) -> str:
    out = os.environ.get("FRACVAR_OUT") or args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _parse_grid(items: list[str]):
    vals = []
    for item in items:
        vals.extend(float(tok) for tok in item.split(",") if tok)
    return vals


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    from .problem import _ns_boundary, validate

    cfg = _load_config(args)
    p = cfg.params
    report = validate(p)
    regime: list[str] = []
    if report.ok and not report.ns_admissible:
        bound = _ns_boundary(p.n)
        regime.append(
            f"order s = {p.s} is outside the admissible range for n = {p.n}"
            + (f" (requires s < {bound})" if bound is not None else "")
        )
    if report.ok and not report.k_admissible:
        regime.append(
            f"weight growth k = {p.k} is out of range for (n, s) = ({p.n}, {p.s})"
        )
    _emit({
        "ok": report.ok and not regime,
        "errors": [{"code": c, "message": m} for c, m in report.errors],
        "warnings": list(report.warnings),
        "regime_errors": regime,
        "ns_admissible": report.ns_admissible,
        "k_admissible": report.k_admissible,
        "theorem1_regime": report.theorem1_regime,
    })
    if not report.ok or regime:
        sys.stderr.write("\n".join([report.reasons()] + regime).strip() + "\n")
        return 2
    return 0


def _cmd_constants(args) -> int:
    from .constants import bubble_constants

    cs = bubble_constants(args.n, args.s, args.q)
    payload = {"q_s": cs.q_s, "Kqs": cs.Kqs, "Kq_s": cs.Kq_s,
               "K2s": cs.K2s, "Ks": cs.Ks, "Ss": cs.Ss}
    _emit(payload)
    _write_json(_out_dir(args), "constants.json", payload)
    return 0


def _bubble_params(args):
    if args.config:
        cfg = _load_config(args)
        p = cfg.params
        return p.n, p.s, p.eta
    return args.n, args.s, args.eta


def _cmd_bubble(args) -> int:
    from .bubble import Bubble, eval_U, eval_u, truncated_bubble

    n, s, eta = _bubble_params(args)
    tb = truncated_bubble(args.eps, s, n, eta)
    payload = {"eps": args.eps, "x": args.x,
               "U": eval_U(Bubble(eps=args.eps, s=s, n=n), args.x),
               "u": eval_u(tb, args.x)}
    _emit(payload)
    return 0


def _cmd_bubble_norms(args) -> int:
    from .bubble import lq_norm, truncated_bubble

    n, s, eta = _bubble_params(args)
    grid = _parse_grid(args.eps_grid)
    if not grid:
        raise _UsageError("--eps-grid needs at least one value")
    rows = []
    for eps in grid:
        tb = truncated_bubble(eps, s, n, eta)
        rows.append((eps, lq_norm(tb, args.q, r_max=tb.support)))
    out = _out_dir(args)
    path = _write_csv(out, "bubble_norms.csv", ["eps", "lq_norm"], rows)
    _emit({"q": args.q, "rows": len(rows), "csv": os.path.basename(path)})
    return 0


def _cmd_seminorm(args) -> int:
    from .bubble import truncated_bubble
    from .problem import weight_from_params
    from .quad import seminorm_mc, seminorm_radial

    cfg = _load_config(args)
    p = cfg.params
    w = weight_from_params(p)
    ub = truncated_bubble(args.eps, p.s, p.n, p.eta)
    if args.method == "radial":
        est = seminorm_radial(ub, w, p.n, p.s, ub.support)
    else:
        est = seminorm_mc(ub, w, p.n, p.s, N=args.samples, seed=cfg.seed)
    payload = {"value": est.value, "abs_error": est.abs_error,
               "method": est.method, "samples_or_panels": est.samples_or_panels}
    _emit(payload)
    _write_json(_out_dir(args), "seminorm.json", payload)
    return 0


def _fit_residual_rows(rep):
    import math

    rows = []
    for eps, val in zip(rep.eps_grid, rep.values):
        fit = math.exp(rep.fit_intercept + rep.fit_slope * math.log(eps))
        rows.append((eps, val, val / fit - 1.0))
    return rows


def _cmd_verify_estimates(args) -> int:
    from .asymptotics import (check_delta_lemma, sweep_A, sweep_bubble_norms,
                              sweep_energy, sweep_weighted_seminorm)

    cfg = _load_config(args)
    p = cfg.params
    out = _out_dir(args)
    suites = ("A", "thm22", "norms", "energy", "delta") \
        if args.suite == "all" else (args.suite,)
    summary: dict = {}
    ok = True
    for suite in suites:
        if suite == "A":
            reports = {"A": sweep_A(p)}
        elif suite == "thm22":
            reports = {"thm22": sweep_weighted_seminorm(p)}
        elif suite == "norms":
            r2, rd, rq = sweep_bubble_norms(p)
            reports = {"norms_l2": r2, "norms_deficit": rd, "norms_lq": rq}
        elif suite == "energy":
            reports = {"energy": sweep_energy(p)}
        else:  # delta
            cells = [(k, R, check_delta_lemma(k, R, seed=cfg.seed + i))
                     for i, (k, R) in enumerate(
                         (k, R) for k in (2, 3, 4) for R in (1.0, 2.0))]
            _write_csv(out, "estimates_delta.csv",
                       ["k", "R", "delta", "worst_ratio"],
                       [(float(k), R, c.delta, c.worst_ratio)
                        for k, R, c in cells])
            passed = all(c.passed for _, _, c in cells)
            summary["delta"] = {
                "pass": passed,
                "worst_ratio": max(c.worst_ratio for _, _, c in cells),
            }
            ok = ok and passed
            continue
        for name, rep in reports.items():
            _write_csv(out, f"estimates_{name}.csv",
                       ["eps", "value", "fit_residual"],
                       _fit_residual_rows(rep))
            summary[name] = {"fit_slope": rep.fit_slope,
                             "claimed_rate": rep.claimed_rate,
                             "pass": rep.passed}
            ok = ok and rep.passed
    _emit(summary)
    _write_json(out, "estimates_summary.json", summary)
    return 0 if ok else 2


def _cmd_minimize(args) -> int:
    from .solver import assemble, minimize_S

    cfg = _load_config(args)
    op = assemble(cfg.params, args.grid)
    res = minimize_S(cfg.params, op)
    payload = {"energy": res.energy, "converged": res.converged,
               "iterations": res.iterations,
               "constraint_residual": res.constraint_residual,
               "below_threshold": res.below_threshold, "status": res.status}
    _emit(payload)
    out = _out_dir(args)
    _write_json(out, "minimize.json", payload)
    _write_csv(out, "minimize_field.csv", ["r", "u"],
               zip(res.field.nodes.tolist(), res.field.values.tolist()))
    return 0 if res.converged else 2


def _cmd_eigen(args) -> int:
    from .solver import assemble, first_eigenvalue

    cfg = _load_config(args)
    op = assemble(cfg.params, args.grid)
    lam1, _ = first_eigenvalue(op)
    payload = {"lambda1": lam1}
    _emit(payload)
    _write_json(_out_dir(args), "eigen.json", payload)
    return 0


def _cmd_fiber(args) -> int:
    from .mountainpass import fiber_sweep

    cfg = _load_config(args)
    grid = _parse_grid(args.eps_grid)
    if not grid:
        raise _UsageError("--eps-grid needs at least one value")
    sw = fiber_sweep(cfg.params, grid)
    path = _write_csv(_out_dir(args), "fiber.csv",
                      ["eps", "X_tilde", "t_eps", "Y_eps", "limit_gap"],
                      [(f.eps, f.X_tilde, f.t_eps, f.Y_eps, f.limit_gap)
                       for f in sw])
    _emit({"rows": len(sw), "csv": os.path.basename(path),
           "final_limit_gap": sw[-1].limit_gap})
    return 0


def _cmd_mountain_pass(args) -> int:
    import numpy as np

    from .mountainpass import level_bound, mp_geometry, mp_level
    from .solver import assemble

    cfg = _load_config(args)
    op = assemble(cfg.params, args.grid)
    rho, beta, _ = mp_geometry(cfg.params, op)
    st = mp_level(cfg.params, op, m=args.path_points)
    payload = {"beta": beta, "rho": rho, "level": st.level,
               "bound": level_bound(cfg.params), "converged": st.converged,
               "iterations": st.iterations}
    _emit(payload)
    out = _out_dir(args)
    _write_json(out, "mountain_pass.json", payload)
    # ray path profile: cumulative stiffness-metric arc fraction and energy
    from .mountainpass import phi_value

    dofs = [pt.dofs for pt in st.points]
    seg = [float(np.sqrt((b - a) @ op.A @ (b - a)))
           for a, b in zip(dofs, dofs[1:])]
    total = sum(seg) or 1.0
    arc = [0.0]
    for ln in seg:
        arc.append(arc[-1] + ln / total)
    rows = [(j, arc[j], phi_value(cfg.params, op, pt))
            for j, pt in enumerate(st.points)]
    _write_csv(out, "mountain_pass_path.csv", ["index", "arc_fraction", "phi"],
               rows)
    return 0 if st.converged else 2


def _cmd_verify(args) -> int:
    from .verifysuite import VERSION, run_all

    cfg = _load_config(args)
    report = run_all(cfg, tol=args.tol)
    out = _out_dir(args)

    results_payload = {
        "checks": [
            {"index": r.index, "name": r.name, "passed": r.passed,
             "details": {k: v for k, v in r.details}}
            for r in report.results
        ],
        "passed": report.passed,
    }
    results_path = _write_json(out, "verify_results.json", results_payload)
    timings_path = _write_json(out, "timings.json", {
        "seconds": {str(r.index): r.seconds for r in report.results},
        "budgets": {str(r.index): r.budget for r in report.results},
        "wall_s": report.wall_s,
        "workers": report.workers,
    })

    manifest = RunManifest(
        version=VERSION,
        seed=cfg.seed,
        config_text=cfg.raw_text(),
        outputs=(
            (os.path.basename(results_path), _sha256(results_path)),
            (os.path.basename(timings_path), None),
        ),
        checks=tuple((r.index, r.name, r.passed) for r in report.results),
        passed=report.passed,
    )
    with open(os.path.join(out, "manifest.json"), "wb") as fh:
        fh.write(manifest.to_bytes())

    for r in report.results:
        line = "PASS" if r.passed else "FAIL"
        sys.stdout.write(f"{line} {r.index:2d} {r.name} ({r.seconds:.1f}s)\n")
    sys.stdout.write(("PASS" if report.passed else "FAIL") + " overall\n")
    return 0 if report.passed else 2


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    top = _Parser(prog="fracvar", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--config")
        p.add_argument("--out")
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("validate")
    common(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("constants")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--q", type=float)
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("bubble")
    common(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--eta", type=float, default=1.0)
    p.set_defaults(fn=_cmd_bubble)

    p = sub.add_parser("bubble-norms")
    common(p)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--eps-grid", nargs="+", required=True)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--eta", type=float, default=1.0)
    p.set_defaults(fn=_cmd_bubble_norms)

    p = sub.add_parser("seminorm")
    common(p)
    p.add_argument("--method", choices=("radial", "mc"), default="radial")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--samples", type=int, default=200_000)
    p.set_defaults(fn=_cmd_seminorm)

    p = sub.add_parser("verify-estimates")
    common(p)
    p.add_argument("--suite", default="all",
                   choices=("all", "A", "thm22", "delta", "energy", "norms"))
    p.set_defaults(fn=_cmd_verify_estimates)

    p = sub.add_parser("minimize")
    common(p)
    p.add_argument("--grid", type=int, default=128)
    p.set_defaults(fn=_cmd_minimize)

    p = sub.add_parser("eigen")
    common(p)
    p.add_argument("--grid", type=int, default=128)
    p.set_defaults(fn=_cmd_eigen)

    p = sub.add_parser("fiber")
    common(p)
    p.add_argument("--eps-grid", nargs="+", required=True)
    p.set_defaults(fn=_cmd_fiber)

    p = sub.add_parser("mountain-pass")
    common(p)
    p.add_argument("--path-points", type=int, default=21)
    p.add_argument("--grid", type=int, default=128)
    p.set_defaults(fn=_cmd_mountain_pass)

    p = sub.add_parser("verify")
    common(p)
    p.set_defaults(fn=_cmd_verify)

    return top


def _cap_threads(n: int) -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.threads is not None:
            if args.threads < 1:
                raise _UsageError("--threads must be >= 1")
            _cap_threads(args.threads)
        return args.fn(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n{_SYNOPSIS}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, QuadratureError, SolverError, MountainPassError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1 if isinstance(exc, ConfigError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
