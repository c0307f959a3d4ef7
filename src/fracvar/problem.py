"""Problem definition: parameters, admissibility checks, and the weight model.

The minimization problem lives on a ball Omega = B(0, R) in dimension n >= 3,
with fractional order s in (0, 1), a radial weight p(x) >= p0 attaining its
global minimum p0 at the origin, a subcritical perturbation lambda * |u|^q,
and the critical exponent q_s = 2n/(n - 2s).  By translation invariance the
weight and every profile are radial about the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import sphere_surface


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
    if n == 3:
        return s < 0.25
    if n == 4:
        return s < 0.5
    if n == 5:
        return s < 0.75
    return n >= 6


def _ns_boundary(n: int) -> float | None:
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
    def q_s(self) -> float:
        return critical_exponent(self.n, self.s)

    @property
    def ns_admissible(self) -> bool:
        return ns_admissible(self.n, self.s)

    @property
    def k_admissible(self) -> bool:
        """Weight growth exponent constraint 2 <= k < n - 4s (open at the top)."""
        return 2.0 <= self.k < self.n - 4.0 * self.s


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of :func:`validate`: hard errors, soft warnings, regime flags."""

    ok: bool
    errors: tuple[tuple[str, str], ...]
    warnings: tuple[str, ...]
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
    eta <= 0, R < 5*eta, kappa < 0, k < 2, and q outside [2, q_s).
    Exact boundary values of the open admissibility intervals produce
    warnings, not errors — the strict flags are still False there.
    ``theorem1_regime`` is True iff ns_admissible and k_admissible hold and
    lambda > 0 (the eigenvalue upper bound lambda < lambda_1 is a separate,
    solver-side check).
    """
    errors: list[tuple[str, str]] = []
    warnings: list[str] = []

    if int(params.n) != params.n or params.n < 3:
        errors.append(("E_DIMENSION", f"dimension n must be an integer >= 3, got {params.n}"))
    if not (0.0 < params.s < 1.0):
        errors.append(("E_ORDER", f"order s must lie in the open interval (0, 1), got {params.s}"))
    if params.p0 <= 0.0:
        errors.append(("E_WEIGHT_MIN", f"global weight minimum p0 must be positive, got {params.p0}"))
    if params.eta <= 0.0:
        errors.append(("E_CUTOFF", f"cutoff radius eta must be positive, got {params.eta}"))
    if params.R < 5.0 * params.eta:
        errors.append(("E_DOMAIN", f"domain radius R must satisfy R >= 5*eta (= {5.0 * params.eta}), got {params.R}"))
    if params.kappa < 0.0:
        errors.append(("E_AMPLITUDE", f"weight amplitude kappa must be >= 0, got {params.kappa}"))
    if params.k < 2.0:
        errors.append(("E_GROWTH", f"weight growth exponent k must be >= 2, got {params.k}"))

    ns_ok = False
    k_ok = False
    if not errors or all(code not in ("E_DIMENSION", "E_ORDER") for code, _ in errors):
        ns_ok = params.ns_admissible
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

        try:
            qs = params.q_s
        except ValueError:
            qs = None
        if qs is not None and not (2.0 <= params.q < qs):
            errors.append(("E_EXPONENT", f"subcritical exponent q must lie in [2, q_s = {qs}), got {params.q}"))

    if params.lam < 0.0:
        warnings.append(f"lambda = {params.lam} < 0: outside the perturbation regime of interest")

    theorem1 = ns_ok and k_ok and params.lam > 0.0
    return ValidityReport(
        ok=not errors,
        errors=tuple(errors),
        warnings=tuple(warnings),
        ns_admissible=ns_ok,
        k_admissible=k_ok,
        theorem1_regime=theorem1,
    )


# ---------------------------------------------------------------------------
# Weight model
# ---------------------------------------------------------------------------

VARIANTS = ("Constant", "TruncatedPower", "TabulatedRadial")


@dataclass(frozen=True)
class WeightModel:
    """Concrete radial weight p(|x|).

    Variants:

    * ``Constant`` — p == p0 everywhere.
    * ``TruncatedPower`` — p(r) = p0 + kappa * r^k for r <= 4*eta, then a
      continuous integrable tail p0 + kappa * (4 eta)^k * (4 eta / r)^(n+1).
      Attains the local growth bound with equality on the ball B(0, 4 eta).
    * ``TabulatedRadial`` — piecewise-linear interpolation of (r, p) samples,
      clamped to the last sample value beyond the table and floored at p0.

    Every variant is bounded, >= p0 pointwise, equals p0 at the origin, and
    has finite excess mass \\int (p - p0) dx.
    """

    variant: str
    n: int
    p0: float
    kappa: float = 0.0
    k: float = 2.0
    eta: float = 1.0
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown weight variant {self.variant!r}; expected one of {VARIANTS}")
        if self.variant == "TabulatedRadial":
            if not self.table:
                raise ValueError("TabulatedRadial requires a (r, p) sample table")
            rs = [r for r, _ in self.table]
            if rs != sorted(rs) or rs[0] != 0.0:
                raise ValueError("weight table must start at r = 0 with increasing radii")
            if any(p < self.p0 for _, p in self.table):
                raise ValueError("weight table values must be >= p0")
            if self.table[0][1] != self.p0:
                raise ValueError("weight table must attain p0 at r = 0")

    @classmethod
    def constant(cls, n: int, p0: float) -> "WeightModel":
        return cls(variant="Constant", n=n, p0=p0)

    @classmethod
    def truncated_power(cls, n: int, p0: float, kappa: float, k: float, eta: float) -> "WeightModel":
        return cls(variant="TruncatedPower", n=n, p0=p0, kappa=kappa, k=k, eta=eta)

    @classmethod
    def tabulated(cls, n: int, p0: float, table) -> "WeightModel":
        return cls(variant="TabulatedRadial", n=n, p0=p0, table=tuple((float(r), float(p)) for r, p in table))

    def radial(self, r):
        """Vectorized evaluation p(r) for radii r >= 0."""
        r = np.asarray(r, dtype=float)
        if self.variant == "Constant":
            return np.full_like(r, self.p0)
        if self.variant == "TruncatedPower":
            r4 = 4.0 * self.eta
            out = np.asarray(self.p0 + self.kappa * np.minimum(r, r4) ** self.k)
            # beyond 4*eta the bump decays like r^-(n+1); continuous at the junction
            far = r > r4
            out[far] = self.p0 + self.kappa * r4**self.k * (r4 / r[far]) ** (self.n + 1)
            return out
        rs = np.array([t[0] for t in self.table])
        ps = np.array([t[1] for t in self.table])
        return np.maximum(np.interp(r, rs, ps), self.p0)

    def sup(self) -> float:
        """A finite upper bound for p (exact for the built-in variants)."""
        if self.variant == "Constant":
            return self.p0
        if self.variant == "TruncatedPower":
            return self.p0 + self.kappa * (4.0 * self.eta) ** self.k
        return max(p for _, p in self.table)

    def excess_mass(self) -> float:
        """\\int_{R^n} (p - p0) dx, closed form where available.

        For TruncatedPower: sigma(S^{n-1}) * kappa * (4 eta)^(k+n) * (1/(k+n) + 1),
        the bulk power integral plus the exactly integrable tail.
        """
        sig = sphere_surface(self.n)
        if self.variant == "Constant":
            return 0.0
        if self.variant == "TruncatedPower":
            r4 = 4.0 * self.eta
            return sig * self.kappa * r4 ** (self.k + self.n) * (1.0 / (self.k + self.n) + 1.0)
        # tabulated: numeric radial quadrature over the table's support
        rs = np.array([t[0] for t in self.table])
        grid = np.linspace(rs[0], rs[-1], 4097)
        vals = (self.radial(grid) - self.p0) * grid ** (self.n - 1)
        return sig * float(np.trapezoid(vals, grid))


def weight_from_params(params: ProblemParams, variant: str = "TruncatedPower") -> WeightModel:
    if variant == "Constant":
        return WeightModel.constant(params.n, params.p0)
    if variant == "TruncatedPower":
        return WeightModel.truncated_power(params.n, params.p0, params.kappa, params.k, params.eta)
    raise ValueError(f"cannot build {variant!r} from bare parameters (needs a table)")


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------

_CONFIG_KEYS = ("n", "s", "k", "kappa", "lambda", "q", "p0", "eta", "R", "weight.variant", "weight.table", "seed")


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration plus the raw key/value text for exact round-trip."""

    params: ProblemParams
    weight: WeightModel
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
    as are a seed outside [0, 2^64), a ``weight.table`` that the weight
    variant does not read, and a table that does not parse or that
    :class:`WeightModel` rejects.  Raw value strings are preserved verbatim so
    that a config snapshot round-trips decimal-exactly.
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
            return float(seen.get(key, default))
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: not a number: {seen[key]!r}") from exc

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
    if variant == "TabulatedRadial":
        pairs = []
        try:
            for chunk in seen.get("weight.table", "").split(","):
                chunk = chunk.strip()
                if not chunk:
                    continue
                r_str, _, p_str = chunk.partition(":")
                pairs.append((float(r_str), float(p_str)))
            weight = WeightModel.tabulated(params.n, params.p0, pairs)
        except ValueError as exc:
            raise ConfigError(f"key 'weight.table': {exc}") from exc
    elif variant in ("Constant", "TruncatedPower"):
        if "weight.table" in seen:
            raise ConfigError(f"key 'weight.table' is read only by weight.variant = TabulatedRadial, not {variant!r}")
        weight = weight_from_params(params, variant)
    else:
        raise ConfigError(f"unknown weight.variant {variant!r}")

    try:
        seed = parse_seed(seen.get("seed", "0"))
    except ValueError as exc:
        raise ConfigError(f"key 'seed': {exc}") from exc

    return RunConfig(params=params, weight=weight, seed=seed, raw=tuple(raw))


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
