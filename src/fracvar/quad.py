"""Weighted Gagliardo double integrals: radial reduction and Monte Carlo.

For radial u supported in [0, r_hi] the double integral

    N_p(u) = iint p(x) |u(x) - u(y)|^2 / |x - y|^(n+2s) dx dy

collapses, via x = r x', y = rho y' and the angular kernel K(tau), to

    N_p(u) = 2 sigma(S^{n-1}) * ( core + outer ),

    core  = int_0^{r_hi} r^{n-1-2s} int_0^{1-delta} wbar(r, tau r)
            |u(r) - u(tau r)|^2 K(tau) tau^{n-1} dtau dr
            + (the band |tau - 1| < delta: one more tau node at 1 - delta),
    outer = int_0^{r_hi} u(rho)^2 rho^{n-1-2s}
            int_0^{min(rho/r_hi, 1-delta)} wbar(rho/t, rho) K(t) t^{2s-1} dt drho,

where wbar is the symmetrized weight (p(r) + p(rho))/2.  On the band the
kernel behaves like (1-tau)^(-1-2s), and the Lipschitz model |u(r) - u(tau r)|^2
~ u'(r)^2 r^2 (1-tau)^2 gives it u'(r)^2 r^2 times band = K(1-delta)
delta^(1+2s) delta^(2-2s) / (2-2s).  Its node has weight band / delta^2, so
the node's term reads u' off the secant across the band and a profile is
read by value only.  The outer fold accounts exactly for the pairs whose
larger radius exceeds r_hi, where u vanishes.  The prefactor
2 sigma(S^{n-1}) collects the ordered-pair doubling and the x'-sphere measure.
The band width delta = ``DELTA`` and the floor ``T_FLOOR`` of the tau-panels
at the origin are module constants; the rest of the rule is one value, a
:class:`PairRule`.  :func:`seminorm_radial` adds a pass on its rule's
:meth:`~PairRule.refined` rule and reports the shift as its error;
:func:`bilinear_radial` and :func:`ball_restricted_form` are single passes.

Every profile and weight is radial about the origin, and
:func:`radial_power_integral` is the one power sum of a profile.

The Monte Carlo path is an independent oracle, one pair estimator
(:func:`_pair_mc`) with two callers.  Every factor of the integrand is
radial, so a pair is drawn as the radii (|x|, |z|, |y|) of y = x + z: |x|
from the caller's proposal, |z| from the density proportional to
|z|^(2-n-2s) below a pivot (cancelling the kernel singularity against the
quadratic difference) or to |z|^-(n+2s) above it, and |y| from the law of
the angle between x and z.  Each pair carries a balance-heuristic weight
over the two symmetric generation routes.

The core's tau row (:func:`_kernel_row`, the band's node last) depends on
neither the weight nor the profile, so it is cached per rule.  The FE
stiffness of :mod:`fracvar.solver` is this pair form on the hat basis, on
its own rule, so the band |tau - 1| < delta is modelled in this module
only.  A row of the outer fold depends on its inner radius, the weight and
the geometry (n, s, r_hi, n_t), not on the profile.  So the rows of the
unit weight and of a :class:`~fracvar.problem.WeightModel` are memoized by
exact radius, per weight (by value) and geometry (:func:`_fold_rows`):
profiles, passes and nested grids that share radii share rows, bit for
bit.  The core's profile table (values and differences on the r x tau
table) depends on the profile and the rule, not on the weight.  So a
:class:`~fracvar.bubble.TruncatedBubble`'s (by value) is memoized per rule
(:func:`_core_diffs`), shared by its pair forms under several weights.  The
memo holds the most recent profile only, on at most two rules, and a pair
form on any other profile empties it first.

Apart from the memoized profile tables, no r x tau table is built whole.
The core runs ``ROW_BLOCK`` radial nodes at a time: a block's inner radii,
weight table and product live only while its rows are summed, and a
profile that is not memoized is evaluated on the block alone.  The row
sums are then weighted and added in turn, which is the order of
``np.einsum("i,ij->")`` on the whole table, so the value is the same bit
for bit.  The outer fold and the FE assembly of :mod:`fracvar.solver` run
on the same blocks.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
from scipy.interpolate import CubicSpline

from ._panels import geometric_refine, panel_nodes
from .bubble import Bubble, TruncatedBubble
from .constants import kernel_batch, sphere_surface
from .problem import WeightModel


# DELTA is the width of the |tau - 1| band of the Lipschitz model; T_FLOOR
# bounds the t-panel next to the origin, in the core's tau rule and in the
# outer fold's relative rule.
DELTA = 1e-6
T_FLOOR = 1e-9
# radial nodes per block of r x tau rows: the core, the outer fold and the
# FE assembly build their working tables this many rows at a time
ROW_BLOCK = 64
# batches of the Monte Carlo estimators; their spread gives the standard error
MC_BATCHES = 64


@dataclass(frozen=True)
class SeminormEstimate:
    value: float
    abs_error: float
    method: str  # "RadialDeterministic" | "MonteCarlo"
    samples_or_panels: int


class PairRule(NamedTuple):
    """The pair form's quadrature rule, a value: ``n_r`` Gauss-Legendre points per radial panel
    of ``breaks``, and ``n_t`` per tau-panel of :func:`_kernel_row` and per t-panel of the outer fold."""

    breaks: tuple[float, ...]
    n_r: int
    n_t: int

    def radial_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        return panel_nodes(self.breaks, self.n_r)

    def refined(self) -> PairRule:
        """This rule with each radial panel halved; the tau and t rules are unchanged."""
        b = np.asarray(self.breaks, dtype=float)
        return self._replace(breaks=tuple(np.unique(np.concatenate([b, 0.5 * (b[1:] + b[:-1])])).tolist()))


# ---------------------------------------------------------------------------
# Radial profiles
# ---------------------------------------------------------------------------

class _CallableProfile:
    """A plain radial callable as a profile: ``radial_value`` and ``support``."""

    def __init__(self, fn, support: float):
        self._fn = fn
        self.support = support

    def radial_value(self, r):
        return np.asarray(self._fn(np.asarray(r, dtype=float)), dtype=float)


def as_profile(u, support: float):
    """``u`` if it is a profile (``radial_value`` and ``support``), else the callable ``u`` on ``support``."""
    if hasattr(u, "radial_value"):
        return u
    if callable(u):
        return _CallableProfile(u, support)
    raise TypeError("expected a radial profile object or callable")


def default_r_breaks(profile, r_hi: float) -> np.ndarray:
    """Radial panel boundaries adapted to the profile's concentration scales."""
    pieces = []
    if isinstance(profile, TruncatedBubble):
        eps = profile.bubble.eps
        eta = profile.cutoff.eta
        pieces.append(geometric_refine(0.0, min(eta, r_hi), toward=0.0, floor=max(eps * 1e-8, 1e-14)))
        if r_hi > eta:
            pieces.append(np.linspace(eta, min(2.0 * eta, r_hi), 9))
        if r_hi > 2.0 * eta:
            pieces.append(geometric_refine(2.0 * eta, r_hi, toward=2.0 * eta, floor=0.1))
    elif isinstance(profile, Bubble):
        eps = profile.eps
        top = min(max(1.0, eps), r_hi)
        pieces.append(geometric_refine(0.0, top, toward=0.0, floor=max(eps * 1e-8, 1e-14)))
        if r_hi > top:
            pieces.append(geometric_refine(top, r_hi, toward=top, floor=0.1))
    else:
        pieces.append(geometric_refine(0.0, r_hi, toward=0.0, floor=r_hi * 1e-10))
        pieces.append(np.linspace(0.0, r_hi, 33))
    return np.unique(np.concatenate(pieces))


# ---------------------------------------------------------------------------
# Kernel helpers
# ---------------------------------------------------------------------------

def _t_panels(top: float, floor: float) -> np.ndarray:
    """Breaks on [0, top], graded toward 0 (floor ``T_FLOOR``) below 1/2 and toward ``top`` (``floor``) above."""
    lo = geometric_refine(0.0, 0.5, toward=0.0, floor=T_FLOOR)
    return np.unique(np.concatenate([lo, geometric_refine(0.5, top, toward=top, floor=floor)]))


@lru_cache(maxsize=8)
def _kernel_row(n: int, s: float, n_t: int):
    """The core's tau rule (``tn``, ``tau_fac = tw * tn**(n-1) * K(tn)``), read-only.

    The tau-panels on (0, 1 - DELTA) are graded toward both endpoints, and
    the band's node comes last: at 1 - DELTA, of weight band / DELTA^2, with
    ``band = K(1 - DELTA) DELTA^(1+2s) DELTA^(2-2s) / (2-2s)`` from the band's
    Lipschitz model.  The row depends on neither the weight, the profile nor
    the radial panels, so every pair form and every assembly on the same rule
    shares it.
    """
    tn, tw = panel_nodes(_t_panels(1.0 - DELTA, DELTA), n_t)
    tau_fac = tw * tn ** (n - 1) * kernel_batch(n, s, tn)
    k_edge = float(kernel_batch(n, s, np.array([1.0 - DELTA]))[0])
    band = k_edge * DELTA ** (1.0 + 2.0 * s) * DELTA ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    tn = np.append(tn, 1.0 - DELTA)
    tau_fac = np.append(tau_fac, band / DELTA**2)
    tn.flags.writeable = False
    tau_fac.flags.writeable = False
    return tn, tau_fac


@lru_cache(maxsize=8)
def _kernel_interp(n: int, s: float):
    """Cached spline surrogate for K(tau) on (0, 1), ~1e-9 relative accuracy.

    Two charts: K vs log(tau) below 0.5 (K is flat toward 0), log(K) vs
    log(1 - tau) above (where K ~ (1-tau)^(-1-2s), so the chart is nearly
    linear).  It fills the outer fold's kernel table, about 10^6 queries on
    a fine pass, for each fold row the memo of :func:`_fold_rows` lacks; a
    direct evaluation would dominate the runtime.
    """
    xl = np.linspace(math.log(1e-13), math.log(0.62), 1600)
    kl = kernel_batch(n, s, np.exp(xl))
    left = CubicSpline(xl, kl)
    yr = np.linspace(math.log(1e-8), math.log(0.62), 1000)
    kr = kernel_batch(n, s, 1.0 - np.exp(yr))
    right = CubicSpline(yr, np.log(kr))

    def ev(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        lo = t < 0.5
        tl = np.clip(t[lo], 1e-13, None)
        out[lo] = left(np.log(tl))
        th = np.clip(1.0 - t[~lo], 1e-8, None)
        out[~lo] = np.exp(right(np.log(th)))
        return out

    return ev


# ---------------------------------------------------------------------------
# Deterministic pair form
# ---------------------------------------------------------------------------

def _unit_weight(r):
    return np.ones_like(np.asarray(r, dtype=float))


def _weight_fns(w):
    """Return (radial evaluator, far-field limit) for a weight, or the unit weight for None."""
    if w is None:
        return _unit_weight, 1.0
    return w.radial, w.far


def _sym_weight(wfun, wr: np.ndarray, far: np.ndarray) -> np.ndarray:
    """The symmetrized weight 0.5 (p(r) + p(rho)) on a table, a new array: ``wr`` = p(r) per row,
    ``far`` the partner radii rho, one row per r.  The FE stiffness and the pair forms share it."""
    wb = wr[:, None] + wfun(far)
    wb *= 0.5
    return wb


def _row_blocks(m: int) -> list[slice]:
    """The slices of ``ROW_BLOCK`` consecutive rows, in order, that cover ``m`` rows."""
    return [slice(lo, lo + ROW_BLOCK) for lo in range(0, m, ROW_BLOCK)]


@lru_cache(maxsize=8)
def _rel_outer_rule(n_t: int):
    """(first break, nodes, weights) of the outer fold's relative t-panels past 0, read-only."""
    rel = _t_panels(1.0, 1e-7)[1:]
    reln, relw = panel_nodes(rel, n_t)
    reln.flags.writeable = False
    relw.flags.writeable = False
    return float(rel[0]), reln, relw


def _outer_fold(rn: np.ndarray, wfun, wfar: float, n: int, s: float, *, r_hi: float, n_t: int) -> np.ndarray:
    """Tail factor for pairs whose larger radius exceeds r_hi.

    For each inner radius ``rn[i]`` this is the exact t = r/rho fold of the
    kernel against the symmetrized weight over rho in (r_hi, inf), plus the
    analytic remainder below the relative floor where the far radius sits at
    the weight's far-field limit.  Contract against
    ``rw * u(rn) * v(rn) * rn**(n-1-2s)`` to recover the outer contribution.

    Every step is elementwise and each row is summed on its own, so a row's
    value does not depend on the other radii passed with it; the pair forms
    and the assembly reach it through :func:`_fold_rows`.
    """
    two_s = 2.0 * s
    sig = sphere_surface(n)
    rel0, reln, relw = _rel_outer_rule(n_t)
    t_hi = np.minimum(rn / r_hi, 1.0 - DELTA)
    T = t_hi[:, None] * reln[None, :]
    wr = wfun(rn)
    with np.errstate(divide="ignore", over="ignore"):
        wbo = _sym_weight(wfun, wr, rn[:, None] / np.maximum(T, 1e-300))
    # wbo * K(T) * T^(2s-1) * t_hi * relw, in that order, in place
    wbo *= _kernel_interp(n, float(s))(T)
    T **= two_s - 1.0
    wbo *= T
    np.multiply(t_hi[:, None], relw[None, :], out=T)
    wbo *= T
    fold = np.sum(wbo, axis=1)
    # analytic remainder of the fold below the relative floor, where the
    # far radius rho/t is effectively at the weight's far-field limit
    t_lo = t_hi * rel0
    fold += 0.5 * (wfar + wr) * sig * t_lo**two_s / two_s
    return fold


# The memo of fold rows: per (weight, n, s, r_hi, n_t), the sorted radii
# seen so far and their fold values.  At most _FOLD_KEYS keys are kept, the
# least recently used dropped first, and a key past _FOLD_ROWS radii starts
# afresh; missing radii are folded ROW_BLOCK at a time, which bounds the
# working tables.  The lock makes each update whole under threads.
_FOLD_KEYS = 16
_FOLD_ROWS = 1 << 15
_fold_memo: dict = {}
_fold_lock = threading.Lock()


def _fold_rows(w, n: int, s: float, rn: np.ndarray, *, r_hi: float, n_t: int) -> np.ndarray:
    """:func:`_outer_fold` at radii ``rn`` for weight ``w``, bit for bit, from the memo where it can.

    Missing rows are folded ``ROW_BLOCK`` radii at a time; each row is
    summed on its own, so the blocks do not change its bits.  Only the unit
    weight (None) and a :class:`WeightModel`, which is frozen and compared
    by value, are memoized; any other weight object could change between
    calls, so its rows are always computed afresh.
    """
    wfun, wfar = _weight_fns(w)

    def fold(r):
        return np.concatenate([_outer_fold(r[blk], wfun, wfar, n, s, r_hi=r_hi, n_t=n_t)
                               for blk in _row_blocks(len(r))])

    if w is not None and type(w) is not WeightModel:
        return fold(rn)
    key = (w, n, float(s), float(r_hi), n_t)
    with _fold_lock:
        radii, vals = _fold_memo.pop(key, (np.empty(0), np.empty(0)))
        if len(radii) > _FOLD_ROWS:
            radii, vals = np.empty(0), np.empty(0)
        new = np.setdiff1d(rn, radii)
        if len(new):
            at = np.searchsorted(radii, new)
            radii, vals = np.insert(radii, at, new), np.insert(vals, at, fold(new))
        _fold_memo[key] = radii, vals
        if len(_fold_memo) > _FOLD_KEYS:
            del _fold_memo[next(iter(_fold_memo))]
    return vals[np.searchsorted(radii, rn)]


# The memo of core tables: per (profile, rule), the profile's values at the
# rule's radii and its differences across the tau row.  It holds one profile
# only, on at most _CORE_RULES radial rules (a seminorm's coarse and halved
# passes), the oldest dropped first; a pair form on any other profile
# empties it first, so the tables live until the next profile's pair form.
# The lock makes each update whole under threads.
_CORE_RULES = 2
_core_memo: dict = {}
_core_lock = threading.Lock()


def _core_diffs(p, rule: PairRule, rn: np.ndarray, tn: np.ndarray):
    """``(u(rn), rows)`` of profile ``p``: ``rows(blk)`` is ``u(rn[blk])[:, None] - u(rn[blk, None] * tn)``.

    ``rn`` are the radial nodes of ``rule`` and ``tn`` its tau row.  The
    differences depend on neither the weight nor the tau weights, so the
    pair forms of one profile under several weights share them, bit for
    bit.  Only a :class:`TruncatedBubble`, which is frozen and compared by
    value, is memoized: its whole table is built once, a block of rows at a
    time, kept read-only, and ``rows`` slices it.  Any other profile object
    could change between calls, and no caller repeats a free
    :class:`Bubble`'s table (kept, it would outlive the one seminorm of
    :func:`fracvar.constants.bubble_constants`), so ``rows`` evaluates it
    afresh on each block alone.
    """
    def diffs(u, blk):
        return u[blk, None] - p.radial_value(rn[blk, None] * tn)

    with _core_lock:
        if type(p) is not TruncatedBubble:
            _core_memo.clear()
        else:
            key = (p, rule)
            if key not in _core_memo:
                if any(k[0] != p for k in _core_memo):
                    _core_memo.clear()
                u, d = p.radial_value(rn), np.empty((len(rn), len(tn)))
                for blk in _row_blocks(len(rn)):
                    d[blk] = diffs(u, blk)
                u.flags.writeable = d.flags.writeable = False
                _core_memo[key] = u, d
                if len(_core_memo) > _CORE_RULES:
                    del _core_memo[next(iter(_core_memo))]
            u, d = _core_memo[key]
            return u, d.__getitem__
    u = p.radial_value(rn)
    return u, lambda blk: diffs(u, blk)


def _einsum_by_rows(r_fac: np.ndarray, blocks) -> float:
    """``np.einsum("i,ij->", r_fac, table)`` of a table given as consecutive row ``blocks``, bit for bit.

    That einsum adds, for each row in turn from +0.0, ``r_fac[i]`` times
    the row's sum by ``np.einsum("ij->i")``; so does this, block by block.
    """
    sums = np.concatenate([np.einsum("ij->i", b) for b in blocks])
    return float(np.cumsum(np.append(0.0, r_fac * sums))[-1])


def _pair_form(pa, pb, w, n: int, s: float, rule: PairRule, *, r_hi: float, include_outer: bool) -> float:
    """2 sigma(S^{n-1}) (core + outer) of the profiles ``pa`` and ``pb`` on the quadrature ``rule``.

    The core runs ``ROW_BLOCK`` radial nodes at a time: a block's profile
    rows come from :func:`_core_diffs`, and its weight table and products
    are formed in one fixed order, in place, and reduced by
    :func:`_einsum_by_rows` in the order of ``np.einsum("i,ij->")`` on the
    whole table.  The outer fold rows come from :func:`_fold_rows`.  So a
    table or a row from a memo gives the same value, bit for bit.
    """
    two_s = 2.0 * s
    wfun, _ = _weight_fns(w)

    rn, rw = rule.radial_nodes()  # Gauss-Legendre nodes are interior, so every rn > 0

    # --- core, the band's node at 1 - DELTA last ----------------------
    tn, tau_fac = _kernel_row(n, s, rule.n_t)
    ua, rows_a = _core_diffs(pa, rule, rn, tn)
    ub, rows_b = (ua, rows_a) if pb is pa else _core_diffs(pb, rule, rn, tn)
    wr = wfun(rn)

    def block(blk):
        da = rows_a(blk)
        db = da if pb is pa else rows_b(blk)
        # wb * da * db * tau_fac, in that order, in place
        wb = _sym_weight(wfun, wr[blk], rn[blk, None] * tn)
        wb *= da
        wb *= db
        wb *= tau_fac
        return wb

    total = _einsum_by_rows(rw * rn ** (n - 1.0 - two_s), map(block, _row_blocks(len(rn))))

    # --- outer --------------------------------------------------------
    if include_outer:
        fold = _fold_rows(w, n, s, rn, r_hi=r_hi, n_t=rule.n_t)
        total += float(np.sum(rw * ua * ub * rn ** (n - 1.0 - two_s) * fold))

    return 2.0 * sphere_surface(n) * total


def _breaks_to(r_breaks, r_hi: float, *profiles) -> PairRule:
    """The profile rule, 14 and 12 points per panel, on ``r_breaks`` or the profiles' default union, to r_hi."""
    if r_breaks is not None:
        breaks = np.asarray(r_breaks, dtype=float)
    else:
        breaks = np.unique(np.concatenate([default_r_breaks(p, r_hi) for p in profiles]))
    breaks = breaks[breaks <= r_hi * (1.0 + 1e-15)]
    if breaks[-1] < r_hi:
        breaks = np.append(breaks, r_hi)
    return PairRule(tuple(breaks.tolist()), 14, 12)


def seminorm_radial(u, w, n: int, s: float, r_max: float, *, r_breaks=None) -> SeminormEstimate:
    """Deterministic weighted Gagliardo seminorm of a radial profile, with its error.

    ``u`` is a radial profile (or callable, treated as supported in
    [0, r_max]); ``w`` is a weight with ``radial(r)`` and its far-field
    limit ``far``, or None for the unit weight.  ``r_breaks`` overrides the
    profile-adapted radial panels.  The form is computed on the panels and
    again with each one halved (:meth:`PairRule.refined`): the value is the
    finer pass, and ``abs_error`` the shift between the two.  The
    single-pass value on the same panels is ``bilinear_radial(u, u, ...)``.
    """
    prof = as_profile(u, r_max)
    r_hi = min(r_max, prof.support) if math.isfinite(prof.support) else r_max
    rule = _breaks_to(r_breaks, r_hi, prof)
    coarse = _pair_form(prof, prof, w, n, s, rule, r_hi=r_hi, include_outer=True)
    fine = _pair_form(prof, prof, w, n, s, rule.refined(), r_hi=r_hi, include_outer=True)
    return SeminormEstimate(value=fine, abs_error=abs(fine - coarse), method="RadialDeterministic",
                            samples_or_panels=2 * (len(rule.breaks) - 1))


def bilinear_radial(u, v, w, n: int, s: float, r_max: float, *, r_breaks=None) -> float:
    """The weighted scalar product <u, v>_p of two radial profiles, in one pass.

    Same decomposition as :func:`seminorm_radial` with the quadratic
    difference polarized into a product of differences, on the union of the
    two profiles' default panels unless ``r_breaks`` is given.  With
    ``v = u`` this is the seminorm's single pass, without an error estimate.
    """
    pu = as_profile(u, r_max)
    pv = pu if v is u else as_profile(v, r_max)
    r_hi = min(r_max, max(p.support if math.isfinite(p.support) else r_max for p in (pu, pv)))
    return _pair_form(pu, pv, w, n, s, _breaks_to(r_breaks, r_hi, pu, pv), r_hi=r_hi, include_outer=True)


def ball_restricted_form(u, weight_fn, n: int, s: float, r_hi: float) -> float:
    """Pair form restricted to both points in the ball of radius r_hi, in one pass.

    ``weight_fn`` is an arbitrary radial factor (e.g. r^k); it is
    symmetrized across the pair exactly like a weight model.  No outer
    fold: pairs leaving the ball are excluded by definition.
    """
    prof = as_profile(u, math.inf)
    return _pair_form(prof, prof, SimpleNamespace(radial=weight_fn, far=0.0), n, s, _breaks_to(None, r_hi, prof),
                      r_hi=r_hi, include_outer=False)


# ---------------------------------------------------------------------------
# Radial power integral
# ---------------------------------------------------------------------------

def radial_power_integral(u, expo: float, n: int, *, r_max: float | None = None) -> float:
    """\\int |u|^expo dx over radii up to r_max, on 16-point panels of :func:`default_r_breaks`.

    The one power sum of a radial profile; :func:`fracvar.bubble.lq_norm`
    calls it.  A bubble's dimension must equal ``n``.
    """
    prof = as_profile(u, r_max if r_max is not None else math.inf)
    top = prof.support if r_max is None else min(prof.support, r_max)
    if not math.isfinite(top):
        raise ValueError("profile has unbounded support; pass r_max")
    if isinstance(u, (Bubble, TruncatedBubble)) and n != (u.n if isinstance(u, Bubble) else u.bubble.n):
        raise ValueError("dimension n does not match the bubble's")
    r, wq = panel_nodes(default_r_breaks(prof, top), 16)
    vals = np.abs(prof.radial_value(r)) ** expo
    return sphere_surface(n) * float(np.sum(wq * vals * r ** (n - 1)))


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------

def _partner_radius(rng, rx: np.ndarray, rho: np.ndarray, n: int) -> np.ndarray:
    """|y| for y = x + rho d, d uniform on the sphere, from |x| = rx.

    The cosine t of the angle between x and d has the law 2B - 1 with
    B ~ Beta((n-1)/2, (n-1)/2), so |y|^2 = rx^2 + rho^2 + 2 rx rho t.
    """
    t = 2.0 * rng.beta(0.5 * (n - 1), 0.5 * (n - 1), len(rx)) - 1.0
    return np.sqrt(np.maximum(rx * rx + rho * rho + 2.0 * rx * rho * t, 0.0))


def _batched(draw, seed: int) -> tuple[float, float]:
    """(mean, standard error) of ``draw(rng)`` over ``MC_BATCHES`` batches.

    Batch b draws from the b-th spawn of ``SeedSequence(seed)``, so the
    result is independent of how batches would be scheduled.
    """
    vals = np.array([draw(np.random.default_rng(c)) for c in np.random.SeedSequence(seed).spawn(MC_BATCHES)])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(MC_BATCHES))


def _pair_mc(u, support: float, wfun, n: int, s: float, D: float, near, far, seed: int) -> SeminormEstimate:
    """Monte Carlo estimate of iint wbar |u(x) - u(y)|^2 / |x - y|^(n+2s) over pair radii.

    ``u`` and the weight ``wfun`` (wbar is its endpoint mean) are radial,
    and u is 0 from the radius ``support`` on (which may be inf).  ``near``
    and ``far`` are ``(m, draw, density)``: a batch draws m radii |x| by
    ``draw(rng, m)``, whose law over R^n has the radial ``density``.  The
    near piece pairs them with rho = |x - y| <= D from the density
    ~ rho^(2-n-2s), the far piece with rho > D from ~ rho^-(n+2s), and |y|
    comes from :func:`_partner_radius`.  Each pair is weighted by the mean
    of its two endpoint densities (the balance heuristic), so the estimate
    is unbiased wherever the densities cover the integrand.  A pair with
    both radii at or past the support is exactly +0.0 (the density at |x|
    is positive), so only the other pairs are evaluated, and u only below
    the support.
    """
    sig = sphere_surface(n)
    two_s = 2.0 * s
    c_near = sig * D ** (2.0 - two_s) / (2.0 - two_s)
    c_far = sig / (two_s * D**two_s)

    def u_in(r):
        out = np.zeros_like(r)
        inside = r < support
        out[inside] = u(r[inside])
        return out

    def piece(rng, m, draw, density, is_near):
        rx = draw(rng, m)
        if is_near:
            rho = np.maximum(D * rng.random(m) ** (1.0 / (2.0 - two_s)), D * 1e-9)
        else:
            rho = D * np.maximum(rng.random(m), 1e-16) ** (-1.0 / two_s)
        ry = _partner_radius(rng, rx, rho, n)
        on = np.minimum(rx, ry) < support
        x, y = rx[on], ry[on]
        val = np.zeros(m)
        val[on] = 0.5 * (wfun(x) + wfun(y)) * (u_in(x) - u_in(y)) ** 2 / (0.5 * (density(x) + density(y)))
        # the rho density cancels the kernel up to rho^-2 (near) or exactly (far)
        return np.mean(val / rho**2 if is_near else val)

    value, se = _batched(lambda rng: c_near * piece(rng, *near, True) + c_far * piece(rng, *far, False), seed)
    return SeminormEstimate(value=value, abs_error=se, method="MonteCarlo",
                            samples_or_panels=MC_BATCHES * (near[0] + far[0]))


def mc_reference_ks(n: int, s: float, N: int = 1_000_000, seed: int = 0) -> SeminormEstimate:
    """Monte Carlo estimate of Ks: the full-space seminorm of the unit bubble.

    Independent of the deterministic radial path.  The unit bubble has
    unbounded support, so both pieces of :func:`_pair_mc` (pivot 4) draw |x|
    over all of R^n from a half-Cauchy radius, which covers the core and the
    algebraic tail.
    """
    sig = sphere_surface(n)
    m = max(N // MC_BATCHES, 16)

    def u(r):
        return (1.0 + r * r) ** (-(n - 2.0 * s) / 2.0)

    def draw(rng, k):
        return np.tan(0.5 * math.pi * np.clip(rng.random(k), 1e-12, 1.0 - 1e-12))

    def density(r):
        r = np.maximum(r, 1e-12)
        return (2.0 / math.pi) / (1.0 + r * r) / (sig * r ** (n - 1.0))

    return _pair_mc(u, math.inf, _unit_weight, n, s, 4.0, (m, draw, density), (max(m // 4, 8), draw, density), seed)


def seminorm_mc(u, w, n: int, s: float, N: int = 200_000, seed: int = 0) -> SeminormEstimate:
    """Unbiased Monte Carlo estimate of the weighted Gagliardo seminorm.

    ``u`` is a radial profile with ``radial_value`` that vanishes beyond a
    finite ``support`` (:func:`as_profile` wraps a radial callable).  It is
    :func:`_pair_mc` with pivot D = 3x the support.  The near piece (3/4 of
    the pairs) draws |x| uniform in the ball of radius 1.5x the support; the
    far piece draws |x| uniform in the support, so its partner lies outside
    it.  ``N`` >= 1 is the requested number of pairs; each batch draws at
    least 16.  Reproducible per seed.
    """
    if N < 1:
        raise ValueError(f"seminorm_mc needs N >= 1 pairs, got {N}")
    support = float(getattr(u, "support", math.inf))
    if not math.isfinite(support):
        raise ValueError("seminorm_mc needs a profile with a finite support; see as_profile")
    m = max(N // MC_BATCHES, 16)
    m_near = (3 * m) // 4

    def uniform(m_piece, R):
        vol = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * R**n
        return m_piece, lambda rng, k: R * rng.random(k) ** (1.0 / n), lambda r: (r <= R) / vol

    est = _pair_mc(u.radial_value, support, _weight_fns(w)[0], n, s, 3.0 * support,
                   uniform(m_near, 1.5 * support), uniform(m - m_near, support), seed)
    if est.value != 0.0 and est.abs_error > 0.2 * abs(est.value):
        warnings.warn(f"Monte Carlo variance overflow: relative standard error "
                      f"{est.abs_error / abs(est.value):.1%} exceeds 20%", RuntimeWarning, stacklevel=2)
    return est
