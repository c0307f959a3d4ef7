"""Fast self-test of the benchmark harness (not part of the package's tests).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _trace_keys() -> set[str]:
    keys = set(spans.layer_metrics([], {}))
    return keys | {"trace.covered_frac", "trace.overhead_frac", "values.max_rel_drift",
                   "verifysuite.budget_failures"}


def test_metric_names_valid_unique_and_with_units():
    bench = _bench()
    entries = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in entries] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in entries)
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END_UNITS)
    for m in bench["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)


def test_per_layer_list_matches_what_the_trace_reports():
    per_layer = {m["name"]: m["unit"] for m in _bench()["per_layer"]}
    assert set(per_layer) == _trace_keys()
    assert all(per_layer[k] == run.layer_unit(k) for k in per_layer)


def test_spans_nest_and_self_times_add_up():
    rec = spans.Recorder()

    def leaf(x):
        return x + 1

    traced_leaf = rec.wrap("m.leaf", leaf)

    def middle(x):
        return traced_leaf(x) + traced_leaf(x)

    top = rec.wrap("m.top", rec.wrap("m.middle", middle))
    assert top(1) == 4
    names = [s[0] for s in rec.spans]
    assert names == ["m.top", "m.middle", "m.leaf", "m.leaf"]
    parents = [s[3] for s in rec.spans]
    assert parents == [-1, 0, 1, 1]
    for name, start, end, parent in rec.spans:
        assert start <= end
        if parent >= 0:
            assert rec.spans[parent][1] <= start and end <= rec.spans[parent][2]
    own = spans.self_times(rec.spans)
    total = rec.spans[0][2] - rec.spans[0][1]
    assert all(t >= 0.0 for t in own)
    assert math.isclose(sum(own), total, rel_tol=1e-9, abs_tol=1e-12)
    assert spans.descendants_named(rec.spans, 0, "m.leaf") == 2
    assert math.isclose(spans.covered_seconds(rec.spans), total, rel_tol=1e-9, abs_tol=1e-12)


def test_cli_main_own_time_is_not_covered():
    rec = spans.Recorder()
    inner = rec.wrap("quad.leaf", lambda: time.sleep(0.01))

    def cli_main():
        time.sleep(0.01)
        inner()

    rec.wrap(spans.CLI_MAIN, cli_main)()
    main_span, leaf_span = rec.spans
    leaf = leaf_span[2] - leaf_span[1]
    assert math.isclose(spans.covered_seconds(rec.spans), leaf, rel_tol=1e-9)
    assert spans.covered_seconds(rec.spans) < main_span[2] - main_span[1]
    assert 0.0 < spans.wrapper_seconds() < 1e-3


def test_install_rebinds_calling_modules():
    import fracvar.mountainpass as mp
    import fracvar.solver as solver

    original = solver.power_integral
    rec = spans.Recorder()
    wrapped = rec.wrap("solver.power_integral", original)
    try:
        assert spans.rebind(original, wrapped) >= 3  # solver, mountainpass, package
        assert mp.power_integral is wrapped and solver.power_integral is wrapped
    finally:
        spans.rebind(wrapped, original)
    assert mp.power_integral is original


def test_certificates_fail_on_perturbed_values():
    exact = workloads.getoor_energy(6, 0.5)
    assert workloads.getoor_certificate(exact * (1 + 1e-6), exact, 1e-6 * exact)
    assert not workloads.getoor_certificate(exact * (1 + 1e-4), exact, 1e-6 * exact)

    assert workloads.level_certificate(2.0, 1.0, 3.0)
    assert not workloads.level_certificate(0.99, 1.0, 3.0)
    assert not workloads.level_certificate(3.0, 1.0, 3.0)

    res = SimpleNamespace(converged=True, constraint_residual=0.0)
    assert workloads.minimize_certificate(res) == (True, "unconverged")
    assert workloads.minimize_certificate(
        SimpleNamespace(converged=True, constraint_residual=1e-6)) == (False, "math")
    assert workloads.minimize_certificate(
        SimpleNamespace(converged=False, constraint_residual=0.0)) == (False, "unconverged")

    vals = [10.0, 10.05, 11.0]  # affine in kappa = 0, 0.05, 1
    errs = [1e-12] * 3
    good = dict(bilinear=11.0, crit=0.5, crit_alt=0.5, kqs=0.6)
    assert workloads.bubble_certificate(vals, errs, **good)
    assert not workloads.bubble_certificate([10.0, 10.05 * (1 + 1e-8), 11.0], errs, **good)
    assert not workloads.bubble_certificate(vals, [1e-12, 1e-12, 1e-6], **good)
    assert not workloads.bubble_certificate(vals, errs, **{**good, "bilinear": 11.0 + 1e-9})
    assert not workloads.bubble_certificate(vals, errs, **{**good, "crit": 0.7, "crit_alt": 0.7})

    gaps = [SimpleNamespace(limit_gap=g, Y_eps=1.0) for g in (3.0, 2.0, 1.0)]
    assert workloads.fiber_certificate(gaps, 2.0)
    assert not workloads.fiber_certificate(gaps[::-1], 2.0)
    assert not workloads.fiber_certificate(gaps, 1.0)


def test_verdict_tells_wrong_numbers_from_known_failures():
    ref = {"failures": {"solve.mp": "math"}, "values": {"a.x": 2.0}}

    def op(name, passed, reason="", value=1.0):
        return {"name": name, "passed": passed, "reason": "" if passed else reason,
                "values": {"x": value}, "stable": {"x": value}}

    assert run.verdict([op("a", True), op("solve.mp", False, "math")], ref) == (True, 1)
    assert run.verdict([op("b", False, "unconverged")], ref) == (True, 1)
    assert run.verdict([op("b", False, "statistical")], ref) == (True, 1)
    assert run.verdict([op("b", False, "math")], ref) == (False, 1)
    assert run.verdict([op("a", True, value=math.nan)], ref) == (False, 0)
    assert run.max_rel_drift([op("a", True, value=2.0)], ref) == 0.0
    assert math.isclose(run.max_rel_drift([op("a", True, value=2.2)], ref), 0.1)


def test_lam_fractions_cover_each_third():
    import numpy as np

    lo, hi = workloads.LAM_FRACTION
    width = (hi - lo) / len(workloads.SOLVE_GRIDS)
    for seed in range(20):
        fs = workloads.lam_fractions(np.random.default_rng(seed))
        assert [int((f - lo) // width) for f in fs] == list(range(len(fs)))
