"""Gauss-Legendre panel primitives shared by the quadrature modules."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre


@lru_cache(maxsize=None)
def gl_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes/weights on [-1, 1], read-only: every caller shares them."""
    x, w = roots_legendre(npts)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def panel_nodes(breaks: np.ndarray, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Map an npts-point GL rule onto each interval of ``breaks``.

    Returns flat arrays (nodes, weights) of length (len(breaks)-1)*npts,
    ordered panel by panel.
    """
    breaks = np.asarray(breaks, dtype=float)
    x, w = gl_rule(npts)
    lo = breaks[:-1][:, None]
    half = 0.5 * (breaks[1:] - breaks[:-1])[:, None]
    nodes = lo + half * (x[None, :] + 1.0)
    weights = half * w[None, :]
    return nodes.ravel(), weights.ravel()


def geometric_refine(a: float, b: float, toward: float, floor: float) -> np.ndarray:
    """Panel breakpoints on [a, b] accumulating geometrically toward one endpoint.

    ``toward`` must equal ``a`` or ``b``.  Successive panel widths halve
    approaching that endpoint, and halving stops before a panel would be
    ``floor`` or shorter, so the panel at the endpoint is as wide as its
    neighbour, each in (floor, 2 floor] (or the whole interval when
    (b - a) / 2 <= floor).
    """
    if not b > a:
        raise ValueError("need b > a")
    length = b - a
    cuts = [0.0]
    d = length
    while d * 0.5 > floor:
        d *= 0.5
        cuts.append(length - d)
    cuts.append(length)
    offsets = np.array(cuts)
    if toward == a:
        pts = b - offsets
    elif toward == b:
        pts = a + offsets
    else:
        raise ValueError("'toward' must be one of the interval endpoints")
    return np.unique(pts)
