"""In-memory span and counter recorder, installed from outside the package.

Every traced function is replaced, in each ``fracvar`` module that binds it,
by a wrapper that appends one span ``[name, start, end, parent]`` to
``Recorder.spans`` (``parent`` is the index of the enclosing span, -1 at the
root).  Nothing is written while the workload runs; ``Recorder.dump`` writes
the spans once, and ``layer_metrics`` derives self times and counters from
them afterwards.  The package itself is not modified.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# Functions per module, each wrapped as a span named "<module>.<function>".
LAYER_FUNCTIONS = {
    "quad": ("seminorm_mc", "seminorm_radial", "radial_power_integral",
             "ball_restricted_form", "bilinear_radial"),
    "constants": ("kernel_batch",),
    "solver": ("assemble", "first_eigenvalue", "minimize_S", "power_integral",
               "power_gradient", "euler_residual"),
    "mountainpass": ("mp_geometry", "mp_level", "fiber_sweep", "phi_value",
                     "phi_gradient"),
    "asymptotics": ("sweep_bubble_norms", "sweep_A", "sweep_weighted_seminorm",
                    "sweep_energy", "check_delta_lemma"),
    "bubble": ("lq_norm",),
    "cli": ("main",),
}

# Battery checks, in run order; each span is named "check.NN".
CHECK_FUNCTIONS = (
    "check_closed_form_integrals", "check_scale_invariance", "check_norm_rates",
    "check_weight_bump", "check_residual_rates", "check_power_gap",
    "check_energy_dip", "check_eigenvalue", "check_fiber_limits",
    "check_pass_level", "check_cross_method", "check_determinism",
)

CHO_FACTOR = "solver.cho_factor"


# Counters taken from a call's result: span name -> [(counter, fn)].
COUNTERS = {
    "quad.seminorm_mc": [("pairs", lambda out: out.samples_or_panels)],
    "quad.seminorm_radial": [("panels", lambda out: out.samples_or_panels)],
    "constants.kernel_batch": [("taus", lambda out: out.size)],
    "solver.assemble": [("quadrature_rows", lambda out: out.meta["quadrature_rows"])],
    "solver.minimize_S": [("iterations", lambda out: out.iterations),
                          ("converged", lambda out: float(out.converged))],
    "mountainpass.mp_level": [("iterations", lambda out: out.iterations)],
}

# The CLI entry point; its own time (config, artifacts, manifest) is not layer work.
CLI_MAIN = "cli.main"


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name, ())
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for counter, get in counters:
                self.counters[f"{name}.{counter}"] += get(out)
            return out

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counters": dict(self.counters)}, fh)


def rebind(original, replacement) -> int:
    """Replace every binding of ``original`` in the ``fracvar`` modules."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fracvar" or mod_name.startswith("fracvar.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def install(recorder: Recorder) -> None:
    """Wrap every layer function, each check and scipy's Cholesky factorization."""
    import importlib

    import scipy.linalg

    for short, names in LAYER_FUNCTIONS.items():
        mod = importlib.import_module(f"fracvar.{short}")
        for fn_name in names:
            fn = getattr(mod, fn_name)
            rebind(fn, recorder.wrap(f"{short}.{fn_name}", fn))
    suite = importlib.import_module("fracvar.verifysuite")
    for i, fn_name in enumerate(CHECK_FUNCTIONS, start=1):
        fn = getattr(suite, fn_name)
        rebind(fn, recorder.wrap(f"check.{i:02d}", fn))
    # fracvar calls it as ``sla.cho_factor``; scipy's own callers bind it elsewhere
    scipy.linalg.cho_factor = recorder.wrap(CHO_FACTOR, scipy.linalg.cho_factor)


def self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def covered_seconds(spans) -> float:
    """Wall time inside named layer spans.

    Self times partition the time inside root spans (roots never overlap in
    one thread); the self time of ``cli.main`` is left out, so that time the
    battery spends outside its checks and layers shows as uncovered.
    """
    return sum(t for span, t in zip(spans, self_times(spans)) if span[0] != CLI_MAIN)


def wrapper_seconds() -> float:
    """Median extra cost of one traced call over a direct call, in seconds.

    Measured on a no-op with a throwaway recorder; the traced run's overhead
    is estimated as this cost times its number of spans, since one traced and
    one untraced body differ by more than that from run to run.
    """
    def noop():
        return None

    traced = Recorder().wrap("calibrate", noop)
    clock = time.perf_counter
    n = 20000
    costs = []
    for _ in range(7):
        t0 = clock()
        for _ in range(n):
            noop()
        t1 = clock()
        for _ in range(n):
            traced()
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / n)
    return statistics.median(costs)


def descendants_named(spans, ancestor: int, name: str) -> int:
    """Number of spans called ``name`` nested anywhere below span ``ancestor``."""
    inside = {ancestor}
    count = 0
    end = spans[ancestor][2]
    # descendants follow their ancestor in ``spans`` and start before it ends
    for i in range(ancestor + 1, len(spans)):
        if spans[i][1] > end:
            break
        if spans[i][3] in inside:
            inside.add(i)
            count += spans[i][0] == name
    return count


def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer metrics: calls and self seconds per function plus counters."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    secs: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    for (name, start, end, _), t in zip(spans, own):
        calls[name] += 1
        secs[name] += t
        inclusive[name] += end - start
    out: dict[str, float] = {}
    for name in (f"{short}.{fn}" for short, fns in LAYER_FUNCTIONS.items() for fn in fns):
        out[f"{name}.calls"] = float(calls[name])
        out[f"{name}.s"] = secs[name]
    for i in range(1, len(CHECK_FUNCTIONS) + 1):
        out[f"check.{i:02d}.s"] = inclusive[f"check.{i:02d}"]

    mc = "quad.seminorm_mc"
    out[f"{mc}.pairs"] = counters.get(f"{mc}.pairs", 0.0)
    out[f"{mc}.pairs_per_s"] = out[f"{mc}.pairs"] / inclusive[mc] if inclusive[mc] > 0 else 0.0
    out["quad.seminorm_radial.panels"] = counters.get("quad.seminorm_radial.panels", 0.0)
    out["constants.kernel_batch.taus"] = counters.get("constants.kernel_batch.taus", 0.0)
    out["solver.assemble.quadrature_rows"] = counters.get("solver.assemble.quadrature_rows", 0.0)

    ms = "solver.minimize_S"
    out[f"{ms}.iterations"] = counters.get(f"{ms}.iterations", 0.0)
    out[f"{ms}.converged_frac"] = (counters.get(f"{ms}.converged", 0.0) / calls[ms]
                                   if calls[ms] else 0.0)
    out[f"{CHO_FACTOR}.calls"] = float(calls[CHO_FACTOR])
    n_ops = calls["solver.assemble"]
    out[f"{CHO_FACTOR}.per_operator"] = calls[CHO_FACTOR] / n_ops if n_ops else 0.0

    mp = "mountainpass.mp_level"
    iters = counters.get(f"{mp}.iterations", 0.0)
    out[f"{mp}.iterations"] = iters
    # each phi evaluation on the path makes two power_integral calls
    evals = sum(descendants_named(spans, i, "solver.power_integral")
                for i, span in enumerate(spans) if span[0] == mp) / 2.0
    out[f"{mp}.phi_evals_per_iter"] = evals / iters if iters else 0.0
    return out
