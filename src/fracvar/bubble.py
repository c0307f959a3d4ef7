"""The extremal bubble family, the smooth cutoff, and their product.

U_eps(x) = (eps / (eps^2 + |x|^2))^((n-2s)/2) optimizes the weightless
critical Sobolev quotient; multiplying by a smooth radial cutoff supported in
B(0, 2 eta) produces the compactly supported test family whose eps -> 0
asymptotics drive every existence signature in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import critical_exponent


def _psi(t: np.ndarray) -> np.ndarray:
    """Standard smooth step: 1 for t <= 0, 0 for t >= 1, C-infinity overall."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out[lo] = 1.0
    out[hi] = 0.0
    tm = t[mid]
    with np.errstate(over="ignore", under="ignore"):
        a = np.exp(-1.0 / (1.0 - tm))
        b = np.exp(-1.0 / tm)
        out[mid] = a / (a + b)
    return out


@dataclass(frozen=True)
class Bubble:
    """U_{eps,s}, radially decreasing about the origin, positive everywhere; (n, s) as for critical_exponent."""

    eps: float
    s: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"eps must be finite and positive, got {self.eps}")
        critical_exponent(self.n, self.s)

    @property
    def exponent(self) -> float:
        return (self.n - 2.0 * self.s) / 2.0

    @property
    def support(self) -> float:
        return math.inf

    def radial_value(self, r):
        r = np.asarray(r, dtype=float)
        m = self.exponent
        with np.errstate(over="ignore"):  # r**2 = inf far out, where U is 0
            return (self.eps / (self.eps**2 + r**2)) ** m


@dataclass(frozen=True)
class Cutoff:
    """Radial bump: 1 on B(0, eta), 0 outside B(0, 2 eta), smooth throughout.

    Realized as psi((r - eta)/eta) with the standard exponential partition
    bump, so all derivatives vanish at both junction radii.
    """

    eta: float

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError(f"eta must be finite and positive, got {self.eta}")

    def radial_value(self, r):
        r = np.asarray(r, dtype=float)
        return _psi((r - self.eta) / self.eta)


@dataclass(frozen=True)
class TruncatedBubble:
    """u_{eps,s} = U * Psi, nonnegative, supported in the closed ball of radius 2 eta.

    Evaluated as the plain product: Psi is exactly 0 from 2 eta on and U is
    finite and nonnegative there (U(inf) = 0), so the value is +0.0 outside
    the support, and NaN at r = NaN.
    """

    bubble: Bubble
    cutoff: Cutoff

    @property
    def support(self) -> float:
        return 2.0 * self.cutoff.eta

    def radial_value(self, r):
        return self.bubble.radial_value(r) * self.cutoff.radial_value(r)


def truncated_bubble(eps: float, s: float, n: int, eta: float) -> TruncatedBubble:
    return TruncatedBubble(Bubble(eps=eps, s=s, n=n), Cutoff(eta=eta))


def lq_norm(profile, q: float, *, r_max: float | None = None) -> float:
    """\\int_{R^n} |profile|^q dx for a bubble or truncated bubble, up to radius ``r_max``.

    A free bubble's ``r_max`` defaults to 1e3 eps.  The sum is
    :func:`fracvar.quad.radial_power_integral`'s.
    """
    from .quad import radial_power_integral

    if not 1.0 <= q < math.inf:
        raise ValueError(f"need a finite q >= 1, got {q}")
    if not isinstance(profile, (Bubble, TruncatedBubble)):
        raise TypeError("profile must be a Bubble or TruncatedBubble")
    if isinstance(profile, Bubble) and r_max is None:
        r_max = 1e3 * profile.eps
    n = profile.n if isinstance(profile, Bubble) else profile.bubble.n
    return radial_power_integral(profile, q, n, r_max=r_max)
