"""Problem definition: parameters, admissibility checks, and the weight model.

The minimization problem lives on a ball Omega = B(0, R) in dimension n >= 3,
with fractional order s in (0, 1), a radial weight p(x) >= p0 attaining its
global minimum p0 at the origin, a subcritical perturbation lambda * |u|^q,
and the critical exponent q_s = 2n/(n - 2s).  By translation invariance the
weight and every profile are radial about the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import bubble_constants, sphere_surface


class ConfigError(ValueError):
    """Raised for malformed configuration text."""


def critical_exponent(n: int, s: float) -> float:
    """Critical Sobolev exponent q_s = 2n / (n - 2s).

    Requires n >= 3 and 0 < s < 1 (so that q_s > 2 and the fractional
    space embeds in L^{q_s}).
    """
    if int(n) != n or n < 3:
        raise ValueError(f"dimension must be an integer >= 3, got {n}")
    if not (0.0 < s < 1.0):
        raise ValueError(f"order s must lie in (0, 1), got {s}")
    return 2.0 * n / (n - 2.0 * s)


def ns_admissible(n: int, s: float) -> bool:
    """Dimension/order compatibility for the existence regime.

    True iff (n = 3 and s < 1/4), (n = 4 and s < 1/2), (n = 5 and s < 3/4),
    or n >= 6 with any s in (0, 1).  Boundary values are excluded (open
    intervals).
    """
    if not (0.0 < s < 1.0):
        return False
    bound = _ns_boundary(n)
    return n >= 6 if bound is None else s < bound


def _ns_boundary(n: int) -> float | None:
    """The open upper bound on s for n = 3, 4, 5; None for every other n."""
    return {3: 0.25, 4: 0.5, 5: 0.75}.get(n)


@dataclass(frozen=True)
class ProblemParams:
    """Immutable bundle of problem parameters.

    ``lam`` is the perturbation coefficient (written ``lambda`` in config
    files; renamed here because of the Python keyword).  The weight's
    minimum, and the center of the ball of radius ``R``, is the origin.
    """

    n: int
    s: float
    k: float = 2.0
    kappa: float = 0.0
    lam: float = 0.0
    q: float = 2.0
    p0: float = 1.0
    eta: float = 1.0
    R: float = 5.0

    @property
    def k_admissible(self) -> bool:
        """Weight growth exponent constraint 2 <= k < n - 4s (open at the top)."""
        return 2.0 <= self.k < self.n - 4.0 * self.s

    @property
    def level(self) -> float:
        """The threshold level p0 Ss: a q = 2 ground state's energy lies below it."""
        return self.p0 * bubble_constants(self.n, self.s).Ss


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of :func:`validate`: hard errors, soft warnings, regime flags and their messages."""

    ok: bool
    errors: tuple[tuple[str, str], ...]
    warnings: tuple[str, ...]
    regime_errors: tuple[str, ...]
    ns_admissible: bool
    k_admissible: bool
    theorem1_regime: bool

    def reasons(self) -> str:
        lines = [f"{code}: {msg}" for code, msg in self.errors]
        lines += [f"warning: {w}" for w in self.warnings]
        return "\n".join(lines)


def validate(params: ProblemParams) -> ValidityReport:
    """Check structural validity of the parameters.

    Hard errors (specific codes) reject n < 3, s outside (0,1), p0 <= 0,
    eta <= 0, R < 5*eta, kappa < 0, k < 2, q outside [2, q_s), and any
    float parameter that is not finite (a non-finite lambda under
    ``E_PERTURBATION``, every other one under its range's code).
    Exact boundary values of the open admissibility intervals produce
    warnings, not errors — the strict flags are still False there.
    ``theorem1_regime`` is True iff ns_admissible and k_admissible hold and
    lambda > 0 (the eigenvalue upper bound lambda < lambda_1 is a separate,
    solver-side check).  Parameters without hard errors that miss either
    admissibility flag get one message each in ``regime_errors``.
    """
    errors: list[tuple[str, str]] = []
    warnings: list[str] = []
    regime: list[str] = []

    if int(params.n) != params.n or params.n < 3:
        errors.append(("E_DIMENSION", f"dimension n must be an integer >= 3, got {params.n}"))
    if not (0.0 < params.s < 1.0):
        errors.append(("E_ORDER", f"order s must lie in the open interval (0, 1), got {params.s}"))
    # a comparison with NaN is false, so each check asks 'not in range'; inf is in no range
    if not 0.0 < params.p0 < math.inf:
        errors.append(("E_WEIGHT_MIN", f"global weight minimum p0 must be positive and finite, got {params.p0}"))
    if not 0.0 < params.eta < math.inf:
        errors.append(("E_CUTOFF", f"cutoff radius eta must be positive and finite, got {params.eta}"))
    if not 5.0 * params.eta <= params.R < math.inf:
        errors.append(("E_DOMAIN", f"domain radius R must be finite with R >= 5*eta (= {5.0 * params.eta}), "
                                   f"got {params.R}"))
    if not 0.0 <= params.kappa < math.inf:
        errors.append(("E_AMPLITUDE", f"weight amplitude kappa must be >= 0 and finite, got {params.kappa}"))
    if not 2.0 <= params.k < math.inf:
        errors.append(("E_GROWTH", f"weight growth exponent k must be >= 2 and finite, got {params.k}"))
    if not math.isfinite(params.lam):
        errors.append(("E_PERTURBATION", f"perturbation coefficient lambda must be finite, got {params.lam}"))

    ns_ok = False
    k_ok = False
    if not errors or all(code not in ("E_DIMENSION", "E_ORDER") for code, _ in errors):
        ns_ok = ns_admissible(params.n, params.s)
        k_ok = params.k_admissible

        bound = _ns_boundary(params.n)
        if bound is not None and params.s == bound:
            warnings.append(
                f"s = {params.s} sits exactly on the boundary of the admissible "
                f"order range for n = {params.n}; the strict regime requires s < {bound}"
            )
        elif bound is not None and params.s > bound:
            warnings.append(
                f"(n, s) = ({params.n}, {params.s}) is outside the admissible range: "
                f"n = {params.n} requires s < {bound}"
            )

        k_top = params.n - 4.0 * params.s
        if params.k == k_top:
            warnings.append(
                f"k = {params.k} equals the boundary value n - 4s = {k_top}; "
                "treated as inadmissible (strict inequality required)"
            )

        qs = critical_exponent(params.n, params.s)  # n and s passed their checks above
        if not 2.0 <= params.q < qs:
            errors.append(("E_EXPONENT", f"subcritical exponent q must lie in [2, q_s = {qs}), got {params.q}"))
        if not ns_ok:
            regime.append(f"order s = {params.s} is outside the admissible range for n = {params.n}"
                          + (f" (requires s < {bound})" if bound is not None else ""))
        if not k_ok:
            regime.append(f"weight growth k = {params.k} is out of range for (n, s) = ({params.n}, {params.s})")

    if params.lam < 0.0:
        warnings.append(f"lambda = {params.lam} < 0: outside the perturbation regime of interest")

    theorem1 = ns_ok and k_ok and params.lam > 0.0
    return ValidityReport(
        ok=not errors,
        errors=tuple(errors),
        warnings=tuple(warnings),
        regime_errors=() if errors else tuple(regime),
        ns_admissible=ns_ok,
        k_admissible=k_ok,
        theorem1_regime=theorem1,
    )


# ---------------------------------------------------------------------------
# Weight model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightModel:
    """The radial weight p(|x|) of the problem, a truncated power bump.

    p(r) = p0 + kappa * r^k for r <= 4*eta, then a continuous integrable
    tail p0 + kappa * (4 eta)^k * (4 eta / r)^(n+1).  It attains the local
    growth bound with equality on the ball B(0, 4 eta), is bounded, >= p0
    pointwise, equals p0 at the origin, tends to ``far`` = p0 at infinity,
    and has finite excess mass \\int (p - p0) dx.  The pair forms read a
    weight through ``radial`` and ``far`` only.
    """

    n: int
    p0: float
    kappa: float
    k: float
    eta: float

    @property
    def far(self) -> float:
        """The far-field limit of p."""
        return self.p0

    def radial(self, r):
        """Vectorized evaluation p(r) for radii r >= 0."""
        r = np.asarray(r, dtype=float)
        r4 = 4.0 * self.eta
        out = np.asarray(self.p0 + self.kappa * np.minimum(r, r4) ** self.k)
        # beyond 4*eta the bump decays like r^-(n+1); continuous at the junction
        far = r > r4
        out[far] = self.p0 + self.kappa * r4**self.k * (r4 / r[far]) ** (self.n + 1)
        return out

    def sup(self) -> float:
        """The maximum of p, attained at r = 4*eta."""
        return self.p0 + self.kappa * (4.0 * self.eta) ** self.k

    def bump_moment(self, a: float) -> float:
        """sigma(S^{n-1}) \\int_0^inf phi(r) r^a dr in closed form, for the bump phi of p = p0 + kappa phi.

        sigma(S^{n-1}) (4 eta)^(k+a+1) (1/(k+a+1) + 1/(n-a)), the bulk power
        integral plus the exactly integrable tail; finite for -k-1 < a < n.
        """
        if not -self.k - 1.0 < a < self.n:
            raise ValueError(f"the bump's moment of order {a} diverges; need -k-1 < a < n")
        r4 = 4.0 * self.eta
        return sphere_surface(self.n) * r4 ** (self.k + a + 1.0) * (1.0 / (self.k + a + 1.0) + 1.0 / (self.n - a))

    def excess_mass(self) -> float:
        """\\int_{R^n} (p - p0) dx = kappa * bump_moment(n - 1)."""
        return self.kappa * self.bump_moment(self.n - 1.0)


def weight_from_params(params: ProblemParams) -> WeightModel:
    return WeightModel(n=params.n, p0=params.p0, kappa=params.kappa, k=params.k, eta=params.eta)


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------

_CONFIG_KEYS = ("n", "s", "k", "kappa", "lambda", "q", "p0", "eta", "R", "weight.variant", "seed")


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration plus the raw key/value text for exact round-trip."""

    params: ProblemParams
    seed: int
    raw: tuple[tuple[str, str], ...]

    def raw_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.raw)


def parse_seed(text: str) -> int:
    """A seed written in decimal digits, in [0, 2^64): the seeds numpy's generators take."""
    if not (text.isascii() and text.isdigit() and int(text) < 2**64):
        raise ValueError(f"expected an integer in [0, 2^64), got {text!r}")
    return int(text)


def parse_config_text(text: str) -> RunConfig:
    """Parse line-oriented ``key = value`` configuration text.

    Blank lines and ``#`` comments are ignored.  Unknown keys are an error,
    as are a number that is not finite, a seed outside [0, 2^64), and a
    ``weight.variant`` other than ``TruncatedPower``, the one weight the
    parameters describe.  Raw value strings are preserved verbatim so that a
    config snapshot round-trips decimal-exactly.
    """
    raw: list[tuple[str, str]] = []
    seen: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        seen[key] = value
        raw.append((key, value))

    if "n" not in seen or "s" not in seen:
        raise ConfigError("config must define at least 'n' and 's'")

    def _float(key: str, default: float) -> float:
        try:
            value = float(seen.get(key, default))
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: not a number: {seen[key]!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"key {key!r}: not a finite number: {seen[key]!r}")
        return value

    try:
        n = int(seen["n"])
    except ValueError as exc:
        raise ConfigError(f"key 'n': not an integer: {seen['n']!r}") from exc

    eta = _float("eta", 1.0)
    params = ProblemParams(
        n=n,
        s=_float("s", 0.0),
        k=_float("k", 2.0),
        kappa=_float("kappa", 0.0),
        lam=_float("lambda", 0.0),
        q=_float("q", 2.0),
        p0=_float("p0", 1.0),
        eta=eta,
        R=_float("R", 5.0 * eta),
    )

    variant = seen.get("weight.variant", "TruncatedPower")
    if variant != "TruncatedPower":
        raise ConfigError(f"weight.variant {variant!r} is not supported; the weight is TruncatedPower")

    try:
        seed = parse_seed(seen.get("seed", "0"))
    except ValueError as exc:
        raise ConfigError(f"key 'seed': {exc}") from exc

    return RunConfig(params=params, seed=seed, raw=tuple(raw))


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
