"""Write ``reference_values.json``: seed-independent values and failing ops.

    python3 perfbench/record_reference.py

Run from the root of a checkout at the commit whose numbers are the
reference.  Each workload runs once per seed of ``REFERENCE_SEEDS`` in a
fresh child.  A value is recorded only if it is identical across the seeds
(it must not depend on the seed); every operation that fails at some seed is
listed with its reason.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess

import run

REFERENCE_SEEDS = (0, 1)


def main() -> int:
    values: dict[str, list[float]] = {}
    failures: dict[str, str] = {}
    scratch = os.path.abspath(os.path.join(run.OUT_DIR, "reference"))
    os.makedirs(scratch, exist_ok=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip() or None
    try:
        for workload in run.WORKLOADS:
            for seed in REFERENCE_SEEDS:
                _, result = run.run_child(workload, seed, scratch)
                for op in result["ops"]:
                    if not op["passed"]:
                        failures.setdefault(op["name"], op["reason"])
                    for key, value in op["stable"].items():
                        values.setdefault(f"{op['name']}.{key}", []).append(value)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    stable = {k: v[0] for k, v in sorted(values.items())
              if len(v) == len(REFERENCE_SEEDS) and len(set(v)) == 1}
    unstable = sorted(set(values) - set(stable))
    if unstable:
        print("seed-dependent values left out:", ", ".join(unstable))
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"commit": commit, "seeds": list(REFERENCE_SEEDS),
                   "failures": dict(sorted(failures.items())), "values": stable}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
