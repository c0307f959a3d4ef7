"""Closed-form and quadrature evaluation of the problem's constants.

The bubble profile U_eps(x) = (eps / (eps^2 + |x|^2))^((n-2s)/2) carries a
family of universal constants: its critical-norm mass K_{q_s}, the general
L^q masses K_{q,s}, the coefficient K_{2,s} of the eps^{2s} term in its
squared L^2 norm, its Gagliardo seminorm K_s, and the sharp quotient
S_s = K_s / K_{q_s}^{2/q_s}.  K_s is always produced by the package's own
radial quadrature; a literature closed form is wired in as an optional
cross-check oracle but is never the source of truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._panels import geometric_refine, gl_rule, panel_nodes


def sphere_surface(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1} in R^n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def lebesgue_power_integral(n: int, alpha: float) -> float:
    """Closed form for \\int_{R^n} (1 + |y|^2)^(-alpha) dy.

    Equals pi^(n/2) * Gamma(alpha - n/2) / Gamma(alpha); diverges unless
    alpha > n/2.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not n / 2.0 < alpha < math.inf:
        raise ValueError(f"need a finite alpha > n/2 = {n / 2.0} (the integral diverges below), got alpha = {alpha}")
    return math.pi ** (n / 2.0) * math.gamma(alpha - n / 2.0) / math.gamma(alpha)


def lebesgue_power_quadrature(n: int, alpha: float) -> float:
    """Independent 1D radial quadrature of \\int (1 + |y|^2)^(-alpha) dy.

    Substituting r = tan(phi) turns sigma * int_0^inf r^(n-1) (1+r^2)^(-alpha) dr
    into sigma * int_0^(pi/2) sin^(n-1) cos^(2 alpha - n - 1).  The cosine
    exponent beta may be negative (down to -1), so the endpoint is handled by
    graded panels plus a two-term analytic tail.  Used as the cross-check
    oracle for :func:`lebesgue_power_integral`; shares no code with it.
    """
    if not n / 2.0 < alpha < math.inf:
        raise ValueError(f"need a finite alpha > n/2 = {n / 2.0} (the integral diverges below), got alpha = {alpha}")
    beta = 2.0 * alpha - n - 1.0
    h = 1e-5
    breaks = np.concatenate(
        [
            np.linspace(0.0, 1.0, 9),
            geometric_refine(1.0, math.pi / 2.0 - h, toward=math.pi / 2.0 - h, floor=1e-7),
        ]
    )
    phi, w = panel_nodes(np.unique(breaks), 16)
    body = float(np.sum(w * np.sin(phi) ** (n - 1) * np.cos(phi) ** beta))
    # analytic tail over [pi/2 - h, pi/2]: cos phi = sin t ~ t - t^3/6,
    # sin^(n-1) phi = cos^(n-1) t ~ 1 - (n-1) t^2 / 2
    tail = h ** (beta + 1.0) / (beta + 1.0) - (beta / 6.0 + (n - 1.0) / 2.0) * h ** (beta + 3.0) / (beta + 3.0)
    return sphere_surface(n) * (body + tail)


# ---------------------------------------------------------------------------
# Angular kernel K(tau)
# ---------------------------------------------------------------------------

def kernel_batch(n: int, s: float, taus: np.ndarray) -> np.ndarray:
    """Vectorized angular kernel on an array of ratios tau >= 0, tau != 1.

    K(tau) = sigma(S^{n-2}) * int_0^pi sin^{n-2}(t) *
             ((1 - tau)^2 + 4 tau sin^2(t/2))^(-(n+2s)/2) dt.

    The integrand peaks at t = 0 with width ~ |1 - tau|, so each tau gets
    theta-panels [0, w], [w, 2w], ... doubling up to pi with w = max(|1-tau|,
    1e-8).  The taus are bucketed by panel count so each bucket evaluates as
    one broadcasted 20-point Gauss-Legendre sum.

    K(0) = sigma(S^{n-1}) and K(1/xi) = xi^(n+2s) K(xi).  K diverges at
    tau = 1, where the pair forms of :mod:`fracvar.quad` model a band instead.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if np.any(taus < 0.0):
        raise ValueError("tau must be >= 0")
    out = np.empty_like(taus)
    expo = -(n + 2.0 * s) / 2.0
    sig = sphere_surface(n - 1)

    widths = np.maximum(np.abs(1.0 - taus), 1e-8)
    counts = np.ceil(np.log2(math.pi / widths)).astype(int)
    counts = np.maximum(counts, 1)

    x01, w01 = gl_rule(20)
    x01 = 0.5 * (x01 + 1.0)  # nodes on [0, 1]
    w01 = 0.5 * w01

    for c in np.unique(counts):
        idx = np.where(counts == c)[0]
        tt = taus[idx][:, None, None]
        first = widths[idx][:, None]
        # panel edges 0, w, 2w, 4w, ..., capped at pi
        edges = first * np.concatenate([[0.0], 2.0 ** np.arange(c + 1)])[None, :]
        edges = np.minimum(edges, math.pi)
        lo = edges[:, :-1, None]
        dtheta = (edges[:, 1:] - edges[:, :-1])[:, :, None]
        theta = lo + dtheta * x01[None, None, :]
        dist2 = (1.0 - tt) ** 2 + 4.0 * tt * np.sin(theta / 2.0) ** 2
        vals = np.sin(theta) ** (n - 2) * dist2**expo
        out[idx] = np.sum(vals * (dtheta * w01[None, None, :]), axis=(1, 2))
    return sig * out


# ---------------------------------------------------------------------------
# Bubble constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantSet:
    """The constants attached to the bubble family at a given (n, s).

    ``Kq_s`` is the L^q mass for the optional subcritical exponent ``q``
    (None when no q was requested).  ``Ks`` is the Gagliardo seminorm of
    U_{1,s,0} computed by radial quadrature; ``Ss = Ks / Kqs^(2/q_s)``, with
    ``q_s`` the critical exponent of :func:`fracvar.problem.critical_exponent`.
    """

    n: int
    s: float
    q: float | None
    Kqs: float
    Kq_s: float | None
    K2s: float
    Ks: float
    Ss: float
    q_s: float


def _ks_radius(n: int, s: float) -> float:
    """Where Ks is truncated: the bubble's r^-(n-2s) decay leaves < ~1e-8 relative far-far mass beyond."""
    return max(120.0, 10.0 ** (8.0 / (n - 2.0 * s)))


@lru_cache(maxsize=None)
def _bubble_constants_cached(n: int, s: float, q: float | None) -> ConstantSet:
    """The constant set of :func:`bubble_constants`, cached per (n, s, q)."""
    from . import quad
    from .bubble import Bubble
    from .problem import critical_exponent

    qs = critical_exponent(n, s)
    Kqs = lebesgue_power_integral(n, n)  # exponent q_s (n - 2s)/2 = n
    K2s = lebesgue_power_integral(n, n - 2.0 * s)
    Kq_s = None
    if q is not None:
        Kq_s = lebesgue_power_integral(n, q * (n - 2.0 * s) / 2.0)
    Ks = quad.seminorm_radial(Bubble(eps=1.0, s=s, n=n), None, n, s, _ks_radius(n, s)).value
    Ss = Ks / Kqs ** (2.0 / qs)
    return ConstantSet(n=n, s=s, q=q, Kqs=Kqs, Kq_s=Kq_s, K2s=K2s, Ks=Ks, Ss=Ss, q_s=qs)


def bubble_constants(n: int, s: float, q: float | None = None) -> ConstantSet:
    """Evaluate the full constant set at (n, s), optionally with K_{q,s}.

    ``Kqs`` and ``K2s`` come from the closed-form power integral (the
    exponents q_s (n-2s)/2 = n and 2 (n-2s)/2 = n - 2s respectively); ``Ks``
    is measured by the deterministic seminorm quadrature; ``Ss`` is derived.
    (n, s) follow :func:`fracvar.problem.critical_exponent`'s rule (an
    integer n >= 3, s in (0, 1)).  Divergence errors from the power integral
    propagate (e.g. K2s requires n > 4s, and a NaN q is rejected there).
    """
    from .problem import critical_exponent

    critical_exponent(n, s)
    return _bubble_constants_cached(int(n), float(s), None if q is None else float(q))


def sharp_constant_reference(n: int, s: float) -> float:
    """Optional closed-form cross-check for S_s (never the source of truth).

    Combines the known extremal value of the spectrally normalized quotient
    with the Fourier normalization constant of the singular-kernel form.
    """
    spectral = (
        2.0**(2.0 * s)
        * math.pi**s
        * math.gamma((n + 2.0 * s) / 2.0)
        / math.gamma((n - 2.0 * s) / 2.0)
        * (math.gamma(n / 2.0) / math.gamma(float(n))) ** (2.0 * s / n)
    )
    c_inv = (
        math.pi ** ((n + 1.0) / 2.0)
        * math.gamma(s + 0.5)
        / (math.gamma(1.0 + 2.0 * s) * math.sin(math.pi * s) * math.gamma(s + n / 2.0))
    )
    return 2.0 * c_inv * spectral
