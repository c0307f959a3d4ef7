"""The extremal bubble family, the smooth cutoff, and their product.

U_eps(x) = (eps / (eps^2 + |x - a|^2))^((n-2s)/2) optimizes the weightless
critical Sobolev quotient; multiplying by a smooth radial cutoff supported in
B(a, 2 eta) produces the compactly supported test family whose eps -> 0
asymptotics drive every existence signature in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._panels import geometric_refine, panel_nodes
from .constants import sphere_surface


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


def _psi_deriv(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    with np.errstate(over="ignore", under="ignore"):
        a = np.exp(-1.0 / (1.0 - tm))
        b = np.exp(-1.0 / tm)
        out[mid] = -a * b * (1.0 / (1.0 - tm) ** 2 + 1.0 / tm**2) / (a + b) ** 2
    return out


@dataclass(frozen=True)
class Bubble:
    """U_{eps,s,a}, radially decreasing about a, positive everywhere."""

    eps: float
    s: float
    n: int
    a: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")

    @property
    def exponent(self) -> float:
        return (self.n - 2.0 * self.s) / 2.0

    @property
    def support(self) -> float:
        return math.inf

    def radial_value(self, r):
        r = np.asarray(r, dtype=float)
        m = self.exponent
        return (self.eps / (self.eps**2 + r**2)) ** m

    def radial_deriv(self, r):
        r = np.asarray(r, dtype=float)
        m = self.exponent
        return -2.0 * m * r * self.eps**m * (self.eps**2 + r**2) ** (-(m + 1.0))

    def center(self) -> np.ndarray:
        return np.zeros(self.n) if self.a is None else np.asarray(self.a, dtype=float)


@dataclass(frozen=True)
class Cutoff:
    """Radial bump: 1 on B(a, eta), 0 outside B(a, 2 eta), smooth throughout.

    Realized as psi((r - eta)/eta) with the standard exponential partition
    bump, so all derivatives vanish at both junction radii.
    """

    eta: float
    a: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.eta <= 0.0:
            raise ValueError(f"eta must be positive, got {self.eta}")

    def radial_value(self, r):
        r = np.asarray(r, dtype=float)
        return _psi((r - self.eta) / self.eta)

    def radial_deriv(self, r):
        r = np.asarray(r, dtype=float)
        return _psi_deriv((r - self.eta) / self.eta) / self.eta


@dataclass(frozen=True)
class TruncatedBubble:
    """u_{eps,s,a} = U * Psi, nonnegative, supported in the closed ball of radius 2 eta."""

    bubble: Bubble
    cutoff: Cutoff

    @property
    def support(self) -> float:
        return 2.0 * self.cutoff.eta

    def radial_value(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape)
        inside = ~(r >= self.support)
        out[inside] = self.bubble.radial_value(r[inside]) * self.cutoff.radial_value(r[inside])
        return out

    def radial_deriv(self, r):
        r = np.asarray(r, dtype=float)
        return self.bubble.radial_deriv(r) * self.cutoff.radial_value(r) + self.bubble.radial_value(
            r
        ) * self.cutoff.radial_deriv(r)


def truncated_bubble(eps: float, s: float, n: int, eta: float, a=None) -> TruncatedBubble:
    return TruncatedBubble(Bubble(eps=eps, s=s, n=n, a=a), Cutoff(eta=eta, a=a))


def eval_U(b: Bubble, x) -> float:
    """Pointwise bubble value at x in R^n."""
    x = np.asarray(x, dtype=float)
    return float(b.radial_value(np.linalg.norm(x - b.center())))


def eval_u(tb: TruncatedBubble, x) -> float:
    """Pointwise truncated-bubble value; exactly zero for |x - a| >= 2 eta."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x - tb.bubble.center())
    return float(tb.radial_value(r))


def _lq_breaks(eps: float, eta: float | None, r_max: float) -> np.ndarray:
    """Panel breakpoints adapted to the eps-scale peak and the cutoff shoulders."""
    inner_top = eta if eta is not None else min(1.0, r_max)
    pieces = [geometric_refine(0.0, inner_top, toward=0.0, ratio=0.5, floor=max(eps * 1e-6, 1e-14))]
    if eta is not None and r_max > eta:
        shoulder = np.linspace(eta, min(2.0 * eta, r_max), 9)
        pieces.append(shoulder)
        if r_max > 2.0 * eta:
            pieces.append(geometric_refine(2.0 * eta, r_max, toward=2.0 * eta, ratio=0.5, floor=0.25))
    elif r_max > inner_top:
        pieces.append(geometric_refine(inner_top, r_max, toward=inner_top, ratio=0.5, floor=0.25))
    return np.unique(np.concatenate(pieces))


def lq_norm(profile, q: float, *, r_max: float | None = None) -> float:
    """\\int_{R^n} |profile|^q dx for a radial profile (relative accuracy ~1e-8).

    Works for both the truncated family (compact support, integrated exactly
    over it) and the free bubble (pass ``r_max``; default 1e3 bubble widths).
    16-point Gauss-Legendre panels are graded toward the origin at the eps scale and
    split at the cutoff shoulders where the integrand loses analyticity.
    """
    if q < 1.0:
        raise ValueError(f"need q >= 1, got {q}")
    if isinstance(profile, TruncatedBubble):
        n = profile.bubble.n
        eps = profile.bubble.eps
        eta = profile.cutoff.eta
        top = profile.support
    elif isinstance(profile, Bubble):
        n = profile.n
        eps = profile.eps
        eta = None
        top = r_max if r_max is not None else 1e3 * eps
    else:
        raise TypeError("profile must be a Bubble or TruncatedBubble")
    if r_max is not None:
        top = min(top, r_max) if math.isfinite(top) else r_max
    breaks = _lq_breaks(eps, eta, top)
    r, w = panel_nodes(breaks, 16)
    vals = profile.radial_value(r) ** q
    return sphere_surface(n) * float(np.sum(w * vals * r ** (n - 1)))
