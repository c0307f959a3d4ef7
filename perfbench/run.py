"""fracvar benchmark: one command, three workloads, end-to-end or per-layer.

    python3 perfbench/run.py --workload {battery,solve,continuum} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Every workload body runs in a fresh child process with one BLAS thread
(``OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1`` set before numpy is imported).
Load is a closed loop: one caller makes one library call at a time.

``--trace 0`` runs bodies, each in a new child, until ``--seconds`` have
passed (at least one), and reports the end-to-end metrics: medians over the
bodies, and set-up time as the median over at least ``SETUP_SAMPLES`` spawns.
``--trace 1`` runs one traced body and reports its per-layer metrics; wall
time always comes from untraced bodies, and the traced run estimates its own
overhead from its span count (see ``spans.wrapper_seconds``).

The last line of stdout is the JSON result; earlier lines carry the
environment and a summary of each operation.  Full records (operation values,
times, spans) go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
WORKLOADS = ("battery", "solve", "continuum")
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 120.0  # per child
REFERENCE = os.path.join(HERE, "reference_values.json")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "certified_frac": "fraction"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FRACVAR_OUT"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH="src", PYTHONHASHSEED="0")
    return env


def run_child(workload: str, seed: int, scratch: str, trace: int = 0,
              setup_only: bool = False) -> tuple[float, dict | None]:
    """Spawn one child; return (set-up seconds, parsed result, None if set-up only).

    The child is killed if it runs longer than ``CHILD_TIMEOUT_S``.
    """
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--scratch", scratch]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            env=child_env(), text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}"
                         + (" (timed out)" if proc.returncode == -signal.SIGKILL else ""))
    if ready.strip() != "READY":
        raise BenchError(f"child did not start: {ready.strip() or 'no output'}")
    if setup_only:
        return setup, None
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("child printed no result")
    return setup, json.loads(lines[-1])


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def max_rel_drift(ops: list[dict], reference: dict) -> float:
    """Largest relative change of a seed-independent value against the reference."""
    ref = reference["values"]
    drift = 0.0
    for op in ops:
        for key, value in op["stable"].items():
            base = ref.get(f"{op['name']}.{key}")
            if base is not None:
                drift = max(drift, abs(value - base) / max(abs(base), 1e-300))
    return drift


def verdict(ops: list[dict], reference: dict) -> tuple[bool, int]:
    """(correct, failed).

    ``failed`` counts operations whose certificate failed, for any reason.
    The run is not ``correct`` when a value is not finite, or when a
    certificate shows a wrong number ("math") on an operation that did not
    fail that way at the reference commit.  Running out of iterations or
    budget, or a chance z-test failure, counts as failed but not incorrect.
    """
    known = reference["failures"]
    failed = [op for op in ops if not op["passed"]]
    finite = all(math.isfinite(v) for op in ops for v in op["values"].values())
    wrong = [op for op in failed if op["reason"] == "math" and known.get(op["name"]) != "math"]
    return finite and not wrong, len(failed)


def end_to_end(workload: str, seed: int, seconds: float, scratch: str):
    setups, results = [], []
    t0 = time.perf_counter()
    while not results or time.perf_counter() - t0 < seconds:
        setup, result = run_child(workload, seed, scratch)
        setups.append(setup)
        results.append(result)
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, seed, scratch, setup_only=True)[0])
    ops = [op for r in results for op in r["ops"]]
    failed = sum(not op["passed"] for op in ops)
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "certified_frac": (len(ops) - failed) / len(ops),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    extra = {"bodies": len(results), "setup_samples": setups,
             "wall_samples": [r["wall_s"] for r in results]}
    return ops, metrics, results[0]["environment"], extra


def per_layer(workload: str, seed: int, scratch: str, reference: dict):
    _, traced = run_child(workload, seed, scratch, trace=1)
    layers = dict(traced["layers"])
    layers["values.max_rel_drift"] = max_rel_drift(traced["ops"], reference)
    layers["verifysuite.budget_failures"] = float(
        sum(op["reason"] == "budget" for op in traced["ops"]))
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    extra = {"traced_wall_s": traced["wall_s"]}
    return traced["ops"], metrics, traced["environment"], extra


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last == "s":
        return "s"
    if last == "pairs_per_s":
        return "1/s"
    if last.endswith("frac") or last in ("per_operator", "phi_evals_per_iter", "max_rel_drift"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps its child (see run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for need in ("src/fracvar/__init__.py", "default.cfg"):
        if not os.path.isfile(need):
            sys.stderr.write(f"error: {need} not found; run from the root of a fracvar checkout\n")
            return 2
    if args.seed < 0 or args.seconds <= 0:
        sys.stderr.write("error: need --seed >= 0 and --seconds > 0\n")
        return 2

    scratch = os.path.abspath(os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{os.getpid()}"))
    os.makedirs(scratch, exist_ok=True)
    try:
        reference = load_reference()
        if args.trace:
            ops, metrics, env, extra = per_layer(args.workload, args.seed, scratch, reference)
        else:
            ops, metrics, env, extra = end_to_end(args.workload, args.seed, args.seconds,
                                                  scratch)
        spans_file = os.path.join(scratch, "spans.json")
        if os.path.exists(spans_file):
            os.replace(spans_file, os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json"))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct, failed = verdict(ops, reference)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "metrics": metrics, "runs": extra, "ops": ops}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"environment": env}))
    for op in ops:
        status = "ok" if op["passed"] else f"FAILED({op['reason']})"
        print(f"{op['name']} {op['seconds']:.4f}s {status}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
