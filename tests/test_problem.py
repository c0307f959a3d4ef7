import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad as spquad

from fracvar.constants import sphere_surface
from fracvar.problem import (
    ConfigError,
    ProblemParams,
    WeightModel,
    critical_exponent,
    ns_admissible,
    parse_config_text,
    validate,
    weight_from_params,
)


def test_critical_exponent_values():
    assert critical_exponent(6, 0.5) == pytest.approx(2.4, abs=1e-15)
    assert critical_exponent(3, 0.2) == pytest.approx(6.0 / 2.6, rel=1e-15)
    # s -> 0 limit
    assert critical_exponent(4, 1e-9) == pytest.approx(2.0, abs=1e-8)


def test_critical_exponent_domain():
    with pytest.raises(ValueError):
        critical_exponent(2, 0.5)
    with pytest.raises(ValueError):
        critical_exponent(5, 0.0)
    with pytest.raises(ValueError):
        critical_exponent(5, 1.0)


def test_dimension_order_admissibility_table():
    assert ns_admissible(3, 0.2) and not ns_admissible(3, 0.3)
    assert ns_admissible(4, 0.45) and not ns_admissible(4, 0.5)
    assert ns_admissible(5, 0.7) and not ns_admissible(5, 0.8)
    for s in (0.1, 0.5, 0.9):
        assert ns_admissible(6, s) and ns_admissible(9, s)


def test_validate_known_regimes():
    rep = validate(ProblemParams(n=6, s=0.7, k=2, lam=1.0))
    assert rep.ok and rep.ns_admissible and rep.k_admissible and rep.theorem1_regime

    rep = validate(ProblemParams(n=3, s=0.3, k=2, lam=1.0))
    assert not rep.ns_admissible and not rep.theorem1_regime

    rep = validate(ProblemParams(n=5, s=0.5, k=2, lam=1.0))
    assert rep.ok and rep.ns_admissible and rep.k_admissible


def test_validate_rejections():
    codes = {c for c, _ in validate(ProblemParams(n=2, s=0.5)).errors}
    assert "E_DIMENSION" in codes
    codes = {c for c, _ in validate(ProblemParams(n=6, s=1.5)).errors}
    assert "E_ORDER" in codes
    codes = {c for c, _ in validate(ProblemParams(n=6, s=0.5, p0=0.0)).errors}
    assert "E_WEIGHT_MIN" in codes
    codes = {c for c, _ in validate(ProblemParams(n=6, s=0.5, eta=0.0)).errors}
    assert "E_CUTOFF" in codes
    codes = {c for c, _ in validate(ProblemParams(n=6, s=0.5, eta=1.0, R=4.0)).errors}
    assert "E_DOMAIN" in codes


# the error code of each float field's range check
_RANGE_CODES = {"s": "E_ORDER", "k": "E_GROWTH", "kappa": "E_AMPLITUDE", "lam": "E_PERTURBATION",
                "q": "E_EXPONENT", "p0": "E_WEIGHT_MIN", "eta": "E_CUTOFF", "R": "E_DOMAIN"}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", [f.name for f in fields(ProblemParams) if f.type == "float"])
def test_validate_rejects_non_finite(field, value):
    rep = validate(replace(ProblemParams(n=6, s=0.5, lam=1.0), **{field: value}))
    assert not rep.ok
    assert _RANGE_CODES[field] in {c for c, _ in rep.errors}


@pytest.mark.parametrize("field, value", [
    ("kappa", 0.0), ("k", 2.0), ("q", 2.0), ("lam", -1e300), ("p0", 1e-300), ("eta", 1e-300), ("R", 5.0),
])
def test_validate_keeps_finite_range_edges(field, value):
    assert validate(replace(ProblemParams(n=6, s=0.5, lam=1.0), **{field: value})).ok


def test_validate_boundary_warns_not_fails():
    # growth exponent at the admissibility edge k = n - 4s
    rep = validate(ProblemParams(n=6, s=0.5, k=4.0, lam=1.0))
    assert rep.ok
    assert not rep.k_admissible
    assert rep.warnings
    # order at a dimension boundary
    rep = validate(ProblemParams(n=3, s=0.25, lam=1.0))
    assert rep.ok and rep.warnings


def test_validate_is_pure():
    p = ProblemParams(n=6, s=0.5, k=2, lam=0.5)
    assert validate(p) == validate(p)


def test_theorem_regime_needs_positive_lambda():
    assert not validate(ProblemParams(n=6, s=0.5, k=2, lam=0.0)).theorem1_regime
    assert validate(ProblemParams(n=6, s=0.5, k=2, lam=0.3)).theorem1_regime


def test_weight_constant_and_center():
    w = WeightModel(n=6, p0=1.5, kappa=0.0, k=2.0, eta=1.0)
    assert w.radial(np.linalg.norm(np.zeros(6))) == 1.5
    assert w.radial(np.linalg.norm(np.full(6, 2.0))) == 1.5
    assert w.far == 1.5 and w.sup() == 1.5 and w.excess_mass() == 0.0


def test_weight_truncated_power_center_and_floor():
    w = WeightModel(n=6, p0=1.0, kappa=0.3, k=2, eta=1.0)
    assert w.radial(np.linalg.norm(np.zeros(6))) == pytest.approx(1.0, abs=0.0)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.normal(size=6) * rng.uniform(0.1, 20.0)
        assert w.radial(np.linalg.norm(x)) >= 1.0 - 1e-15


def test_weight_junction_continuity():
    w = WeightModel(n=6, p0=1.0, kappa=0.7, k=3, eta=1.0)
    r = 4.0  # junction radius 4*eta
    left = 1.0 + 0.7 * r**3
    right = 1.0 + 0.7 * r**3 * (r / r) ** 7
    assert w.radial(r) == pytest.approx(left, rel=1e-15)
    assert left == pytest.approx(right, rel=1e-15)
    # numerically approach from both sides
    assert w.radial(r - 1e-12) == pytest.approx(w.radial(r + 1e-12), rel=1e-9)


def test_weight_tail_mass_closed_form():
    # int (p - p0) over R^n: closed form vs 1D quadrature
    w = WeightModel(n=6, p0=1.0, kappa=0.4, k=2, eta=1.0)
    closed = w.excess_mass()
    inner, _ = spquad(lambda r: 0.4 * r**2 * r**5, 0.0, 4.0, epsrel=1e-12)
    outer, _ = spquad(lambda r: 0.4 * 4.0**2 * (4.0 / r) ** 7 * r**5, 4.0, np.inf, epsrel=1e-12)
    assert closed == pytest.approx(sphere_surface(6) * (inner + outer), rel=1e-10)


def test_weight_sup_is_attained_at_junction():
    w = WeightModel(n=5, p0=2.0, kappa=0.25, k=3, eta=0.5)
    r = np.linspace(0.0, 50.0, 20001)
    assert w.sup() == pytest.approx(float(np.max(w.radial(r))), rel=1e-12)


def _truncated_power_both_branches(w, r):
    # reference: both branches over every radius, then a select
    r = np.asarray(r, dtype=float)
    r4 = 4.0 * w.eta
    inner = w.p0 + w.kappa * np.minimum(r, r4) ** w.k
    with np.errstate(divide="ignore"):
        tail = w.p0 + w.kappa * r4**w.k * np.where(r > r4, (r4 / np.maximum(r, r4)) ** (w.n + 1), 1.0)
    return np.where(r <= r4, inner, tail)


@pytest.mark.parametrize("kappa", [0.0, 0.3])
def test_weight_tail_evaluated_only_beyond_junction(kappa):
    w = WeightModel(n=6, p0=1.2, kappa=kappa, k=2.5, eta=0.5)
    r = np.concatenate([np.linspace(0.0, 6.0, 600),
                        [np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0), np.inf]]).reshape(2, -1)
    got = w.radial(r)
    assert got.shape == r.shape
    assert np.array_equal(got, _truncated_power_both_branches(w, r))
    for x in (0.0, 1.3, 2.0, 4.7):
        assert np.ndim(w.radial(x)) == 0
        assert w.radial(x) == _truncated_power_both_branches(w, x)
    if kappa == 0.0:
        assert np.all(got == 1.2)


def test_config_roundtrip_and_defaults():
    text = """
    # sample run
    n = 6
    s = 0.5
    k = 2
    kappa = 0.05
    lambda = 0.5
    q = 2.0
    p0 = 1.0
    eta = 1.0
    weight.variant = TruncatedPower
    seed = 42
    """
    cfg = parse_config_text(text)
    assert cfg.params.n == 6 and cfg.params.s == 0.5
    assert cfg.params.R == 5.0  # default 5*eta
    assert cfg.seed == 42
    assert ("weight.variant", "TruncatedPower") in cfg.raw


def test_config_errors():
    with pytest.raises(ConfigError):
        parse_config_text("s = 0.5\n")  # n missing
    with pytest.raises(ConfigError):
        parse_config_text("n = 6\ns = 0.5\nbogus_key = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("n = 6\nn = 7\ns = 0.5\n")


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_config_seed_outside_u64_is_rejected(seed):
    # numpy's generators take seeds in [0, 2^64), as the --seed flag does
    with pytest.raises(ConfigError, match="seed"):
        parse_config_text(f"n = 6\ns = 0.5\nseed = {seed}\n")


def test_config_largest_u64_seed_is_accepted():
    assert parse_config_text(f"n = 6\ns = 0.5\nseed = {2**64 - 1}\n").seed == 2**64 - 1


@pytest.mark.parametrize("variant", ["", "weight.variant = Constant\n", "weight.variant = TruncatedPower\n"],
                         ids=["default", "Constant", "TruncatedPower"])
def test_config_weight_table_needs_tabulated_variant(variant):
    # no weight reads a table, so weight.table is an unknown key
    with pytest.raises(ConfigError, match="weight.table"):
        parse_config_text(f"n = 6\ns = 0.5\n{variant}weight.table = 0:1.0, 1:1.2, 2:1.0\n")


@pytest.mark.parametrize("value", ["nan", "-inf"])
@pytest.mark.parametrize("key", ["s", "k", "kappa", "lambda", "q", "p0", "eta", "R"])
def test_config_non_finite_number_is_rejected(key, value):
    # float() parses both
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        parse_config_text("".join(f"{k} = {v}\n" for k, v in {"n": "6", "s": "0.5", key: value}.items()))


def test_weight_from_params_matches_fields():
    p = ProblemParams(n=6, s=0.5, k=2, kappa=0.3, eta=2.0)
    w = weight_from_params(p)
    assert w.radial(1.0) == pytest.approx(1.0 + 0.3 * 1.0, rel=1e-15)
    assert math.isfinite(w.excess_mass())


# Property tests: derandomized and without an example database, so that every
# run draws the same examples.
_props = settings(max_examples=60, deadline=None, derandomize=True, database=None)
_weights = st.builds(
    WeightModel,
    n=st.integers(3, 12),
    p0=st.floats(1e-3, 1e3),
    kappa=st.floats(0.0, 1e2),
    k=st.floats(2.0, 8.0),
    eta=st.floats(0.1, 10.0),
)


@_props
@given(_weights, st.floats(0.0, 1e4))
def test_weight_floor_center_and_junction(w, r):
    assert w.radial(r) >= w.p0
    assert w.radial(0.0) == w.p0
    r4 = 4.0 * w.eta
    assert w.radial(np.nextafter(r4, np.inf)) == pytest.approx(float(w.radial(r4)), rel=1e-12)
    assert w.radial(np.nextafter(r4, 0.0)) == pytest.approx(float(w.radial(r4)), rel=1e-12)


@_props
@given(_weights, st.floats(0.05, 0.95))
def test_bump_moment_matches_radial_quadrature(w, s):
    r4 = 4.0 * w.eta
    # the bump phi of p = p0 + kappa phi, read off the weight at p0 = 0 and
    # kappa = 1: subtracting p0 from p would cancel all the digits of the
    # tail where the bump is below p0's ulp
    bump = replace(w, p0=0.0, kappa=1.0)
    # the excess mass (a = n - 1) and the energy threshold's moment (a = -1 - 2s)
    for a in (w.n - 1.0, -1.0 - 2.0 * s):
        def moment(r):
            return float(bump.radial(r)) * r**a

        inner, _ = spquad(moment, 0.0, r4, epsrel=1e-12)
        outer, _ = spquad(moment, r4, np.inf, epsrel=1e-12)
        assert w.bump_moment(a) == pytest.approx(sphere_surface(w.n) * (inner + outer), rel=1e-8, abs=1e-300)
    assert w.excess_mass() == w.kappa * w.bump_moment(w.n - 1.0)
    with pytest.raises(ValueError):
        w.bump_moment(float(w.n))


_finite = st.floats(allow_nan=False, allow_infinity=False)


@_props
@given(
    st.fixed_dictionaries({"n": st.integers(3, 40), "s": _finite, "k": _finite, "kappa": _finite,
                           "lambda": _finite, "q": _finite, "p0": _finite, "eta": _finite, "R": _finite,
                           "seed": st.integers(0, 2**64 - 1)}),
    st.randoms(use_true_random=False),
)
def test_config_text_round_trips(values, rnd):
    items = list(values.items())
    rnd.shuffle(items)
    cfg = parse_config_text("# generated\n" + "".join(f"{k} = {v!r}\n" for k, v in items))
    p = cfg.params
    assert (p.n, p.s, p.k, p.kappa, p.lam, p.q, p.p0, p.eta, p.R, cfg.seed) == tuple(
        values[k] for k in ("n", "s", "k", "kappa", "lambda", "q", "p0", "eta", "R", "seed"))
    assert cfg.raw == tuple((k, repr(v)) for k, v in items)
    assert parse_config_text(cfg.raw_text()) == cfg
