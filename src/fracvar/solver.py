"""Discrete minimization of the weighted Rayleigh problem on radial grids.

Fields are continuous piecewise-linear radial functions on a graded grid
0 = r_0 < ... < r_M = R, extended by zero beyond R.  The stiffness matrix A
is the pair form of :mod:`fracvar.quad` on the hat basis, on its own rule
(:func:`stiffness_rule`): core rows, one per (r, tau) node, the band
|tau - 1| < delta being one more tau node, and outer-fold rows.  Each row
holds its square-rooted, nonnegative contribution on at most four hat
coefficients, so A = X^T X for the factor X of all rows, symmetric positive
semidefinite by construction and exactly linear in the weight.  X is never
stored whole: scipy forms the Gram product of one block of rows at a time
(:func:`_gram`), so the working set is a block, not the million rows of a
fine grid.  The mass matrix is the Gram matrix of its quadrature rows, by
the same routine.  The assembled operator carries the Cholesky factor of A,
computed once by :func:`assemble`; every solve against A in the package
reuses it.  It also owns the grid's power-integral rule (:class:`GridRule`:
per-interval Gauss-Legendre weights, the Jacobian r^(n-1) and the hat
values at the panel nodes), built once beside the factor, so the descents
below interpolate a dof vector and integrate its powers without rebuilding
the rule or a validated field at every step.

The constrained infimum

    S = inf { u^T A u - lam * u^T Mq u : ||I u||_{q_s} = 1 }

(I u the interpolant, its q_s-norm by per-interval Gauss-Legendre panels)
is computed by :func:`_projected_descent`, the one constrained-descent loop
of the package: an A-preconditioned descent direction, tangential
projection against the constraint gradient, and monotone Armijo
backtracking with a retraction back onto the constraint set after every
step.  Here the retraction renormalizes onto the sphere, so the constraint
holds to rounding throughout; :mod:`fracvar.mountainpass` runs the same
loop on the Nehari set with a ray rescale as the retraction.  An energy
dipping below -10 * p0 * Ss is reported as an indefinite regime (lam at or
above the first eigenvalue) rather than ground round further.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np
import scipy.linalg as sla
from scipy.sparse import csr_array

from ._panels import gl_rule, panel_nodes
from .bubble import truncated_bubble
from .constants import sphere_surface
from .problem import ProblemParams, critical_exponent, weight_from_params
from .quad import PairRule, _fold_rows, _kernel_row, _row_blocks, _sym_weight


class SolverError(RuntimeError):
    """Assembly or factorization failed (typically quadrature under-resolution)."""


# ---------------------------------------------------------------------------
# Fields and grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialField:
    """Continuous piecewise-linear radial function, zero at and beyond R.

    ``values[i]`` is the value at ``nodes[i]``; the last value must be
    exactly zero (Dirichlet exterior condition).  The object is a radial
    profile (``radial_value`` and ``support``), so the continuum quadratures
    accept it directly.
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape or len(nodes) < 3:
            raise ValueError("need matching 1-d node/value arrays with at least 3 nodes")
        if not _increasing_from_zero(nodes):
            raise ValueError("nodes must be finite and increase strictly from 0")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        if values[-1] != 0.0:
            raise ValueError("field must vanish at the outer node (zero exterior extension)")
        nodes.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @property
    def support(self) -> float:
        return float(self.nodes[-1])

    @property
    def dofs(self) -> np.ndarray:
        """Coefficients at nodes r_0 .. r_{M-1} (the outer node is pinned)."""
        return self.values[:-1]

    def radial_value(self, r):
        r = np.asarray(r, dtype=float)
        return np.interp(r, self.nodes, self.values, right=0.0)


def _increasing_from_zero(nodes: np.ndarray) -> bool:
    """Whether 1-d ``nodes`` start at 0 and increase strictly to a finite end (NaN fails)."""
    return nodes[0] == 0.0 and bool(np.all(np.diff(nodes) > 0.0)) and math.isfinite(nodes[-1])


def make_grid(R: float, M: int = 128) -> np.ndarray:
    """Radial nodes 0, R*1.05^(1-M), ..., R: geometric clustering toward 0."""
    if not (M >= 4 and 0.0 < R < math.inf):
        raise ValueError("need M >= 4 and 0 < R < inf")
    j = np.arange(1, M + 1, dtype=float)
    return np.concatenate([[0.0], R * 1.05 ** (j - M)])


def interpolate_field(profile, nodes: np.ndarray) -> RadialField:
    """Sample a radial profile (``radial_value``) at the nodes; pins the outer node to 0."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(profile.radial_value(nodes), dtype=float).copy()
    values[-1] = 0.0
    return RadialField(nodes, values)


def _bubble_start(params: ProblemParams, nodes: np.ndarray, eps: float) -> RadialField:
    """The interpolant of the truncated bubble of width eps: where the grid descents start."""
    return interpolate_field(truncated_bubble(eps, params.s, params.n, eta=params.eta), nodes)


def _hat_at(nodes: np.ndarray, pts: np.ndarray):
    """Indices and values of the two hat coefficients covering each point.

    Returns (i0, v0, i1, v1); the Dirichlet node M is mapped to index 0
    with value 0, and points at or beyond r_M evaluate to 0.
    """
    M = len(nodes) - 1
    j = np.clip(np.searchsorted(nodes, pts, side="right") - 1, 0, M - 1)
    theta = (pts - nodes[j]) / (nodes[j + 1] - nodes[j])
    inside = pts < nodes[-1]
    v0 = np.where(inside, 1.0 - theta, 0.0)
    v1 = np.where(inside & (j + 1 < M), theta, 0.0)
    i1 = np.where(j + 1 < M, j + 1, 0)
    return j, v0, i1, v1


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StiffnessOperator:
    """Dense weighted-form matrix A and mass matrix Mq on the hat basis.

    Both matrices carry the full n-dimensional normalization (the sphere
    measure and the ordered-pair doubling), so u^T A u approximates the
    seminorm of the interpolant and u^T Mq u its squared L^2 norm.  ``cho``
    is the Cholesky factor of A in :func:`scipy.linalg.cho_factor` form,
    checked finite once here so that :meth:`solve` checks only its
    right-hand side.  ``rule`` is the grid's power-integral rule, and
    ``meta`` records the row count of the factor X, ``quadrature_rows``.
    """

    A: np.ndarray
    Mq: np.ndarray
    cho: tuple[np.ndarray, bool]
    rule: GridRule
    nodes: np.ndarray
    meta: Mapping[str, float]

    def __post_init__(self) -> None:
        for name in ("A", "Mq", "nodes"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not np.all(np.isfinite(self.cho[0])):  # pragma: no cover - cho_factor checked A
            raise SolverError("stiffness factor has non-finite entries")
        self.cho[0].setflags(write=False)
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))

    @property
    def size(self) -> int:
        return self.A.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^{-1} b by the stored factor; b must be finite."""
        return sla.cho_solve(self.cho, np.asarray_chkfinite(b), check_finite=False)


def _gram(M: int, blocks) -> tuple[np.ndarray, int]:
    """The Gram matrix X^T X of a sparse factor X given in row blocks, and X's row count.

    Each block is ``(cols, vals)``: ``cols[a]`` and ``vals[a]`` hold the
    column and the value of slot a of every row.  A block becomes one CSR
    matrix X_b, its repeated columns within a row summed first: a band row's
    slots nearly cancel, and only their merged difference keeps its products
    accurate.  scipy forms X_b^T X_b, whose entries are distinct, and it is
    added into the dense matrix in place.
    """
    G = np.zeros((M, M))
    n_rows = 0
    for cols, vals in blocks:
        k, rows = len(cols), len(cols[0])
        X = csr_array((np.column_stack(vals).ravel(), np.column_stack(cols).ravel(),
                       np.arange(0, k * rows + 1, k)), shape=(rows, M))
        X.sum_duplicates()
        prod = (X.T @ X).tocoo()
        G[prod.coords] += prod.data
        n_rows += rows
    return G, n_rows


def stiffness_rule(nodes: np.ndarray) -> PairRule:
    """A's quadrature rule on grid nodes: 4 radial points per interval, 10 per tau-panel."""
    return PairRule(tuple(np.asarray(nodes, dtype=float).tolist()), 4, 10)


def _stiffness_rows(params: ProblemParams, rule: PairRule):
    """The rows of the stiffness factor X on the grid ``rule.breaks``, as :func:`_gram` blocks.

    The rows are :mod:`fracvar.quad`'s pair form on the hat basis on
    ``rule``, the band's node of :func:`fracvar.quad._kernel_row` included.
    The core rows come on the pair form's blocks of ``ROW_BLOCK`` r-nodes,
    each added into the dense Gram matrix before the next is built, and the
    outer rows last; but the outer fold is computed first, while no block or
    product is alive, which keeps the peak memory down.
    """
    n, s = params.n, params.s
    weight = weight_from_params(params)
    nodes = np.asarray(rule.breaks)

    rn, rw = rule.radial_nodes()
    ia0, va0, ia1, va1 = _hat_at(nodes, rn)
    radial = rw * rn ** (n - 1.0 - 2.0 * s)

    # outer rows: pairs whose far radius exceeds R, where the field vanishes
    sq_out = np.sqrt(radial * _fold_rows(weight, n, s, rn, r_hi=nodes[-1], n_t=rule.n_t))

    # core rows: one per (r-node, tau-node) ordered pair
    wr = weight.radial(rn)
    tn, tau_fac = _kernel_row(n, s, rule.n_t)
    nt = len(tn)
    for blk in _row_blocks(len(rn)):
        inner = rn[blk, None] * tn
        wb = _sym_weight(weight.radial, wr[blk], inner)
        sq = np.sqrt(radial[blk, None] * tau_fac[None, :] * wb).ravel()
        ib0, vb0, ib1, vb1 = _hat_at(nodes, inner.ravel())
        yield ([np.repeat(ia0[blk], nt), np.repeat(ia1[blk], nt), ib0, ib1],
               [np.repeat(va0[blk], nt) * sq, np.repeat(va1[blk], nt) * sq, -vb0 * sq, -vb1 * sq])

    yield [ia0, ia1], [va0 * sq_out, va1 * sq_out]


def assemble(params: ProblemParams, grid) -> StiffnessOperator:
    """Assemble the weighted Gagliardo stiffness and the mass matrix.

    ``grid`` is either a node array or an integer M (expanded through
    :func:`make_grid` with the problem radius).  The stiffness is the pair
    form on :func:`stiffness_rule`; the mass matrix is exact, by the 8-point
    :func:`grid_rule` (more from n = 14).
    """
    nodes = make_grid(params.R, int(grid)) if np.isscalar(grid) else np.asarray(grid, dtype=float)
    if nodes.ndim != 1 or len(nodes) < 5 or not _increasing_from_zero(nodes):
        raise ValueError("grid must be finite increasing nodes starting at 0 with at least 4 intervals")
    M = len(nodes) - 1
    n = params.n
    G, n_rows = _gram(M, _stiffness_rows(params, stiffness_rule(nodes)))
    A = 2.0 * sphere_surface(n) * G

    # the mass rows: per-interval Gauss-Legendre on phi_i phi_j r^(n-1)
    mass = grid_rule(nodes, n, max(8, n // 2 + 2))
    im0, wm0, im1, wm1 = _hat_at(nodes, mass.r.ravel())
    sq_m = np.sqrt(mass.wq.ravel() * mass.sig * mass.rn1.ravel())
    Mq, _ = _gram(M, [([im0, im1], [wm0 * sq_m, wm1 * sq_m])])

    factors = []
    for name, mat in (("stiffness", A), ("mass", Mq)):
        try:
            factors.append(sla.cho_factor(mat))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise SolverError(f"{name} matrix is not positive definite: quadrature under-resolved") from exc
    # the mass factor only certifies positive definiteness; A's is kept

    return StiffnessOperator(A=A, Mq=Mq, cho=factors[0], rule=grid_rule(nodes, n), nodes=nodes,
                             meta={"quadrature_rows": float(n_rows)})


# ---------------------------------------------------------------------------
# Interpolant norms on the grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridRule:
    """Per-interval Gauss-Legendre rule for power integrals of grid interpolants.

    On interval i of width h_i the panel nodes ``r`` are r_i + h_i x_k with
    weights ``wq`` = h_i w_k, shaped (intervals, npts), where (x_k, w_k) is
    the rule mapped to [0, 1]: :func:`fracvar._panels.panel_nodes`'s, as in
    :func:`fracvar.quad.radial_power_integral`.  ``rn1`` is r^(n-1) at the
    nodes and ``x01`` / ``omx`` are the hat values x_k and 1 - x_k, shaped
    (1, npts).  ``sig`` is the measure of S^{n-1}.  Built by :func:`grid_rule`.
    """

    sig: float
    r: np.ndarray
    wq: np.ndarray
    rn1: np.ndarray
    x01: np.ndarray
    omx: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.r, self.wq, self.rn1, self.x01, self.omx):
            arr.setflags(write=False)

    def interpolate(self, dofs: np.ndarray) -> np.ndarray:
        """Interpolant at the panel nodes, the outer node pinned to zero."""
        values = np.append(dofs, 0.0)
        if not np.isfinite(values).all():
            raise ValueError("field values must be finite")
        return values[:-1][:, None] * self.omx + values[1:][:, None] * self.x01

    def integral(self, u: np.ndarray, expo: float) -> float:
        """\\int |u|^expo dx from the interpolant ``u`` at the panel nodes."""
        return self.sig * float((self.wq * np.abs(u) ** expo * self.rn1).sum())

    def gradient(self, u: np.ndarray, expo: float) -> np.ndarray:
        """Gradient of :meth:`integral` with respect to the hat coefficients."""
        dens = self.wq * np.abs(u) ** (expo - 2.0) * u * self.rn1
        g = np.zeros(len(u) + 1)
        g[:-1] += (dens * self.omx).sum(axis=1)
        g[1:] += (dens * self.x01).sum(axis=1)
        return expo * self.sig * g[:-1]


def grid_rule(nodes: np.ndarray, n: int, npts: int = 12) -> GridRule:
    """The npts-point :class:`GridRule` of a node array in dimension n."""
    r, wq = (a.reshape(-1, npts) for a in panel_nodes(nodes, npts))
    x01 = 0.5 * (gl_rule(npts)[0][None, :] + 1.0)
    return GridRule(sig=sphere_surface(n), r=r, wq=wq, rn1=r ** (n - 1), x01=x01, omx=1.0 - x01)


def power_integral(field: RadialField, expo: float, n: int) -> float:
    """\\int |u|^expo dx of the interpolant, on the 12-point :class:`GridRule`."""
    rule = grid_rule(field.nodes, n)
    return rule.integral(rule.interpolate(field.dofs), expo)


def power_gradient(field: RadialField, expo: float, n: int) -> np.ndarray:
    """Gradient of \\int |u|^expo dx with respect to the hat coefficients."""
    rule = grid_rule(field.nodes, n)
    return rule.gradient(rule.interpolate(field.dofs), expo)


def _with_dofs(nodes: np.ndarray, dofs: np.ndarray) -> RadialField:
    return RadialField(nodes, np.append(dofs, 0.0))


# ---------------------------------------------------------------------------
# Constrained minimization
# ---------------------------------------------------------------------------

# Armijo backtracking, shared by every descent in the package: accept a step
# once it gains ARMIJO times the predicted decrease, shrink a rejected step by
# SHRINK for at most MAX_BACKTRACKS trials, and grow the next trial step by
# GROW after a first-trial acceptance.
ARMIJO = 1e-4
SHRINK = 0.5
GROW = 1.3
MAX_BACKTRACKS = 60

# An energy this fraction below p0 * Ss counts as below the threshold.
MARGIN_FRAC = 0.02

MINIMIZE_TOL = 1e-6
MINIMIZE_MAX_ITER = 2000
# the width of the truncated bubble that the sphere descents start from
START_WIDTH = 0.2


@dataclass(frozen=True)
class MinimizeResult:
    field: RadialField
    energy: float
    constraint_residual: float
    iterations: int
    converged: bool
    below_threshold: bool
    status: str


def _projected_descent(solve, start, gradients, stop, retract, max_iter: int,
                       floor_energy: float = -math.inf):
    """Minimize an energy on a constraint set by projected gradient descent.

    ``start`` is a point u on the set with its energy, as ``(u, E)``.
    ``retract(v)`` maps a point back onto the set and returns ``(u, E)``
    there, or None when it cannot, so the energy is computed from what the
    retraction evaluates.  ``gradients(u)`` returns the
    energy gradient g and the constraint gradient c.  The descent direction
    is the Riemannian gradient in the metric of the SPD matrix whose inverse
    ``solve`` applies: g and c are both preconditioned, by one two-column
    ``solve``, before the tangential projection, so stiff high-frequency
    components do not leak back in through the projector.  If that is not a
    descent direction, the Euclidean tangential gradient g_tan takes its
    place.  c never vanishes on the sets in use (<c, u> is nonzero on the
    sphere and on the Nehari set), so the projections need no guard.

    ``stop(u, g, g_tan)`` declares convergence.  Each trial step is mapped
    back onto the set by ``retract`` and accepted under monotone Armijo
    backtracking.  Returns (u, energy, iterations, status, history) with
    status ``converged``, ``stalled`` (no step accepted),
    ``indefinite_regime`` (energy below ``floor_energy``) or ``max_iter``,
    and ``history`` the energies of the start and of every accepted step.
    """
    u, E = start
    history = [E]
    alpha = 1.0
    status = "max_iter"
    it = 0
    for it in range(1, max_iter + 1):
        g, c = gradients(u)
        g_tan = g - (g @ c) / (c @ c) * c
        if stop(u, g, g_tan):
            status = "converged"
            break
        y, z = np.ascontiguousarray(solve(np.column_stack((g, c))).T)
        d = y - (y @ c) / (z @ c) * z
        slope = float(d @ g)
        if slope <= 0.0:
            d, slope = g_tan, float(g_tan @ g_tan)

        a = alpha
        for _ in range(MAX_BACKTRACKS):
            trial = retract(u - a * d)
            if trial is not None and trial[1] <= E - ARMIJO * a * slope:
                u, E = trial
                history.append(E)
                alpha = a * GROW if a == alpha else a
                break
            a *= SHRINK
        else:
            status = "stalled"
            break
        if E < floor_energy:
            status = "indefinite_regime"
            break
    return u, E, it, status, history


def _min_form_on_sphere(
    Q: np.ndarray,
    op: StiffnessOperator,
    expo: float,
    u0: np.ndarray,
    tol: float,
    max_iter: int,
    floor_energy: float = -math.inf,
):
    """Minimize v^T Q v over the sphere (integral of |I v|^expo) = 1.

    :func:`_projected_descent` in the metric of the stiffness matrix A of
    ``op``, retracting by renormalization, for at most ``max_iter`` steps
    (its two callers, :func:`minimize_S` and ``mountainpass._alpha_q``, pass
    different ones).  Converged once the tangential gradient drops below
    ``tol`` relative to ||2 A v||.  The constraint is integrated by the
    operator's grid rule.  Returns (v, energy, iterations, status).
    """
    rule = op.rule

    def gradients(v: np.ndarray):
        return 2.0 * (Q @ v), rule.gradient(rule.interpolate(v), expo)

    def stop(v: np.ndarray, g: np.ndarray, g_tan: np.ndarray) -> bool:
        return float(np.linalg.norm(g_tan)) <= tol * (2.0 * float(np.linalg.norm(op.A @ v)))

    def retract(v: np.ndarray) -> tuple[np.ndarray, float] | None:
        nrm = rule.integral(rule.interpolate(v), expo) ** (1.0 / expo)
        if not (nrm > 0.0 and math.isfinite(nrm)):
            return None
        w = v / nrm
        return w, float(w @ Q @ w)

    start = retract(np.asarray(u0, dtype=float))
    if start is None:
        raise ValueError("initial field must be nonzero with a finite constraint norm")
    return _projected_descent(op.solve, start, gradients, stop, retract, max_iter, floor_energy)[:4]


def minimize_S(params: ProblemParams, op: StiffnessOperator) -> MinimizeResult:
    """Projected-gradient minimization of u^T A u - lam u^T Mq u on the q_s sphere.

    The descent starts from the interpolant of the truncated bubble of
    width ``START_WIDTH``.  The descent direction is the tangentially
    projected gradient, preconditioned by the stiffness factorization;
    Armijo backtracking on the renormalized iterate keeps the energy
    monotone across accepted steps.  Convergence is declared when the projected gradient drops below
    ``MINIMIZE_TOL`` relative to ||2 A u||; the descent stops with status
    ``max_iter`` after ``MINIMIZE_MAX_ITER`` steps.  Both are module
    constants read at call time.  An energy below -10 p0 Ss stops the
    descent with status ``indefinite_regime`` (lam at or beyond the first
    eigenvalue, where the infimum is not a ground state).
    """
    if params.q != 2.0:
        raise ValueError("the constrained minimization is the q = 2 Rayleigh problem")
    qs = critical_exponent(params.n, params.s)
    level = params.level
    init = _bubble_start(params, op.nodes, START_WIDTH)
    u, E, it, status = _min_form_on_sphere(
        op.A - params.lam * op.Mq, op, qs, init.dofs,
        MINIMIZE_TOL, MINIMIZE_MAX_ITER, floor_energy=-10.0 * level,
    )

    field = _with_dofs(op.nodes, u)
    resid = abs(op.rule.integral(op.rule.interpolate(u), qs) ** (1.0 / qs) - 1.0)
    return MinimizeResult(
        field=field,
        energy=E,
        constraint_residual=resid,
        iterations=it,
        converged=status == "converged",
        below_threshold=E < level - MARGIN_FRAC * level,
        status=status,
    )


def refinement_check(params: ProblemParams, M: int = 128) -> tuple[float, float, float]:
    """Converged energies at M and 2M intervals and their relative change."""
    e = [minimize_S(params, assemble(params, m)).energy for m in (M, 2 * M)]
    rel = abs(e[1] - e[0]) / abs(e[1])
    return e[0], e[1], rel


# ---------------------------------------------------------------------------
# First eigenvalue
# ---------------------------------------------------------------------------

EIGEN_TOL = 1e-8
EIGEN_MAX_ITER = 200


def first_eigenvalue(op: StiffnessOperator) -> tuple[float, RadialField]:
    """Smallest lam with A u = lam Mq u by inverse power iteration.

    Each iteration solves against the operator's stiffness factor.  Raises
    :class:`SolverError` if the eigen-residual is still above ``EIGEN_TOL``
    (relative to ||A u||) after ``EIGEN_MAX_ITER`` iterations, module
    constants read at call time.  The eigenfield is Mq-normalized with its
    largest coefficient positive.
    """
    A, Mq = op.A, op.Mq
    v = np.ones(op.size)
    v /= math.sqrt(v @ Mq @ v)
    Mv = Mq @ v
    for _ in range(EIGEN_MAX_ITER):
        v = op.solve(Mv)
        v /= math.sqrt(v @ Mq @ v)
        Av = A @ v
        Mv = Mq @ v
        lam = float(v @ Av)
        if np.linalg.norm(Av - lam * Mv) <= EIGEN_TOL * np.linalg.norm(Av):
            break
    else:
        raise SolverError(f"inverse iteration missed tolerance {EIGEN_TOL:.1e} after {EIGEN_MAX_ITER} iterations")
    if v[np.argmax(np.abs(v))] < 0.0:
        v = -v
    return lam, _with_dofs(op.nodes, v)


def euler_residual(params: ProblemParams, op: StiffnessOperator, field: RadialField, S_value: float) -> float:
    """Relative first-order stationarity defect of a candidate minimizer.

    At a constrained minimizer the multiplier is pinned by contracting the
    stationarity equation with u itself, giving
    2 A u - 2 lam Mq u - (2 S / q_s) * grad \\int |u|^{q_s} = 0; the returned
    value is the norm of that vector relative to ||2 A u||.  ``field``
    lives on the grid of ``op``, whose rule integrates the constraint.
    """
    qs = critical_exponent(params.n, params.s)
    u = field.dofs
    grad_c = op.rule.gradient(op.rule.interpolate(u), qs)
    r = 2.0 * (op.A @ u) - 2.0 * params.lam * (op.Mq @ u) - (2.0 * S_value / qs) * grad_c
    return float(np.linalg.norm(r) / np.linalg.norm(2.0 * (op.A @ u)))
