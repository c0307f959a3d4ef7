"""One workload body in a fresh process.

Run from the checkout root with ``PYTHONPATH=src`` and the BLAS thread
variables already set.  The child imports the package and loads the config,
prints ``READY`` (the parent stops its set-up clock there), then, unless
``--setup-only`` is given, runs one workload body and prints one JSON line:
body wall and CPU seconds, peak RSS, the operation records, the environment
and, with ``--trace 1``, the per-layer metrics from the span recorder.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import fracvar
    from fracvar.problem import load_config

    import workloads

    src = os.path.realpath("src")
    if not os.path.realpath(fracvar.__file__).startswith(src + os.sep):
        raise SystemExit(f"fracvar imported from {fracvar.__file__}, not from {src}")
    cfg = load_config(workloads.CONFIG)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    body = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(params=cfg.params, seed=args.seed, scratch=args.scratch)
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)

    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    ops = body(ctx)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "environment": environment(),
    }
    if recorder is not None:
        layers = spans.layer_metrics(recorder.spans, recorder.counters)
        layers["trace.covered_frac"] = spans.covered_seconds(recorder.spans) / wall
        tracing = len(recorder.spans) * spans.wrapper_seconds()
        layers["trace.overhead_frac"] = tracing / (wall - tracing)
        result["layers"] = layers
        recorder.dump(os.path.join(args.scratch, "spans.json"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
