import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import quad as sp_quad
from scipy.optimize import minimize as sp_minimize
from scipy.sparse import csr_matrix

from fracvar import solver
from fracvar.bubble import truncated_bubble
from fracvar.constants import bubble_constants, sphere_surface
from fracvar.problem import ProblemParams, critical_exponent, weight_from_params
from fracvar.quad import bilinear_radial
from fracvar.solver import (
    RadialField,
    SolverError,
    StiffnessOperator,
    assemble,
    euler_residual,
    first_eigenvalue,
    grid_rule,
    interpolate_field,
    make_grid,
    minimize_S,
    power_gradient,
    power_integral,
    refinement_check,
    stiffness_rule,
)

P = ProblemParams(n=6, s=0.5, k=2, kappa=0.05, lam=21.0, q=2.0, p0=1.0, eta=1.0, R=5.0)
P_FREE = ProblemParams(n=6, s=0.5, k=2, kappa=0.0, lam=0.0, q=2.0, p0=1.0, eta=1.0, R=5.0)
QS = critical_exponent(6, 0.5)
LEVEL = bubble_constants(6, 0.5).Ss


@pytest.fixture(scope="module")
def op128():
    return assemble(P, 128)


@pytest.fixture(scope="module")
def ground(op128):
    return minimize_S(P, op128)


def test_make_grid_shape():
    g = make_grid(5.0, 128)
    assert len(g) == 129
    assert g[0] == 0.0 and g[-1] == pytest.approx(5.0)
    assert np.all(np.diff(g) > 0.0)
    assert g[2] / g[1] == pytest.approx(1.05, rel=1e-12)


def test_field_validation():
    nodes = make_grid(2.0, 8)
    with pytest.raises(ValueError):
        RadialField(nodes, np.ones(len(nodes)))  # nonzero at R
    with pytest.raises(ValueError):
        RadialField(nodes[::-1], np.zeros(len(nodes)))
    bad = np.zeros(len(nodes))
    bad[1] = math.nan
    with pytest.raises(ValueError):
        RadialField(nodes, bad)
    # NaN compares false, so "any diff <= 0" read a NaN node as increasing
    for non_finite in ([0.0, math.nan, 1.0], [0.0, 1.0, math.inf]):
        with pytest.raises(ValueError):
            RadialField(np.array(non_finite), np.array([1.0, 1.0, 0.0]))


@pytest.mark.parametrize("R", [math.nan, math.inf])
def test_make_grid_rejects_non_finite_radius(R):
    with pytest.raises(ValueError):
        make_grid(R, 8)


@pytest.mark.parametrize("at, node", [(3, math.nan), (-1, math.inf)], ids=["nan", "inf-outer"])
def test_assemble_rejects_non_finite_nodes_before_assembly(at, node):
    # the grid check rejects them, not the factorization after the whole assembly
    nodes = make_grid(5.0, 8)
    nodes[at] = node
    with pytest.raises(ValueError, match="grid must be"):
        assemble(P, nodes)


def test_field_interpolates_and_vanishes_outside():
    nodes = make_grid(2.0, 16)
    vals = np.exp(-nodes)
    vals[-1] = 0.0
    f = RadialField(nodes, vals)
    assert f.radial_value(nodes[3]) == pytest.approx(vals[3])
    mid = 0.5 * (nodes[4] + nodes[5])
    assert f.radial_value(mid) == pytest.approx(0.5 * (vals[4] + vals[5]))
    assert f.radial_value(2.5) == 0.0


def test_stiffness_symmetric(op128):
    assert np.max(np.abs(op128.A - op128.A.T)) == 0.0
    assert np.max(np.abs(op128.Mq - op128.Mq.T)) == 0.0


def test_assembly_exact_matrices(op128):
    # Recorded with numpy 2.4.6 and scipy 1.17.1, A once the band was one
    # more tau node of the core rows: the operator must not move a bit.
    assert hashlib.sha256(op128.A.tobytes()).hexdigest() == (
        "9b0c9d7bdf090a25ad54e9dffcbea749fa6deeb79f4b0cceedddb8ce248c35e8")
    assert hashlib.sha256(op128.Mq.tobytes()).hexdigest() == (
        "5ce22eea43a6fcbe0c09ea70f14efba3f21d638fff3faea2c9be705e305ca756")


def test_assembly_exact_matrices_stiff_regime():
    # A recorded once the band was one more tau node of the core rows, and
    # Mq before the Gram matrices were accumulated in row blocks (the CSR
    # product X^T X at the time): neither may move a bit
    op = assemble(replace(P, kappa=1.0, p0=0.5), 512)
    assert op.meta["quadrature_rows"] == 987136.0
    assert hashlib.sha256(op.A.tobytes()).hexdigest() == (
        "9499971ac64ae6fe41ff1a2a64e2bbbfad036c0cd2140c5ec6db2367fe93a437")
    assert hashlib.sha256(op.Mq.tobytes()).hexdigest() == (
        "908d6126b5fb734a105ec64be26bcf15f6ed259b1a88c7b250d1657d018bc62e")


# the (kappa, p0) weights of the solve benchmark, with P's other parameters
SOLVE_WEIGHTS = ((0.0, 1.0), (0.05, 1.0), (0.2, 1.5), (1.0, 0.5))


@pytest.mark.parametrize("points", [(4, 10), (6, 14)], ids=["4-10", "6-14"])
@pytest.mark.parametrize("kappa, p0, uniform", [(k, p, False) for k, p in SOLVE_WEIGHTS]
                         + [(0.05, 1.0, True)])
def test_stiffness_matches_csr_gram(points, kappa, p0, uniform):
    # the row blocks of the stiffness factor, stacked into one CSR matrix X
    # (which sums each row's repeated columns): 2 sigma _gram(rows) is
    # 2 sigma X^T X, up to the order in which the per-block products are
    # added, and on A's rule it is A.  Uniform nodes give many repeated
    # columns; the finer rule gives blocks of another shape.
    nodes = np.linspace(0.0, 5.0, 49) if uniform else make_grid(5.0, 48)
    rule = stiffness_rule(nodes)._replace(n_r=points[0], n_t=points[1])
    params = replace(P, kappa=kappa, p0=p0)
    blocks = [(np.array(c), np.array(v)) for c, v in solver._stiffness_rows(params, rule)]
    assert len(blocks) > 3  # several core blocks and the outer rows
    rows, start = [], 0
    for cols, _ in blocks:
        rows.append(np.tile(np.arange(start, start + cols.shape[1]), len(cols)))
        start += cols.shape[1]
    X = csr_matrix((np.concatenate([v.ravel() for _, v in blocks]),
                    (np.concatenate(rows), np.concatenate([c.ravel() for c, _ in blocks]))),
                   shape=(start, 48))
    G, n_rows = solver._gram(48, solver._stiffness_rows(params, rule))
    A = 2.0 * sphere_surface(6) * G
    assert n_rows == start
    gram = 2.0 * sphere_surface(6) * (X.T @ X).toarray()
    assert np.max(np.abs(gram - A)) <= 1e-14 * np.max(np.abs(A))
    if rule == stiffness_rule(nodes):
        op = assemble(params, nodes)
        assert op.meta["quadrature_rows"] == n_rows and np.array_equal(op.A, A)


def test_assembly_traced_peak_memory():
    # the Gram matrices are accumulated a row block at a time; the tall
    # factor X of all rows (as a CSR product) peaked at about 137 MiB here,
    # and the per-block products peak at about 8.1 MiB
    assemble(P, 32)
    tracemalloc.start()
    try:
        assemble(P, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def test_cold_outer_fold_traced_peak_memory():
    # missing fold rows are computed quad.ROW_BLOCK radii at a time, before
    # any core block: one table of all 2048 radii at M = 512 peaked at 53 MiB,
    # 51 of them the fold, and the blocked fold, run first, at about 10.6 MiB
    from fracvar import quad

    assemble(P, 32)
    quad._fold_memo.clear()
    tracemalloc.start()
    try:
        assemble(P, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_assemblies_share_one_kernel_row(monkeypatch):
    from fracvar import quad, solver

    assemble(P_FREE, 32)
    calls = []
    real = quad.kernel_batch
    for module in (quad, solver):
        monkeypatch.setattr(module, "kernel_batch", lambda *a, **k: calls.append(a) or real(*a, **k),
                            raising=False)
    assemble(P, 48)
    assert calls == []


def test_weight_doubling_doubles_stiffness():
    double = ProblemParams(n=6, s=0.5, k=2, kappa=0.1, lam=0.0, q=2.0, p0=2.0, eta=1.0, R=5.0)
    single = ProblemParams(n=6, s=0.5, k=2, kappa=0.05, lam=0.0, q=2.0, p0=1.0, eta=1.0, R=5.0)
    a = assemble(single, 48)
    b = assemble(double, 48)
    assert np.allclose(b.A, 2.0 * a.A, rtol=1e-10, atol=0.0)
    assert np.allclose(b.Mq, a.Mq, rtol=0.0, atol=0.0)


def test_quadratic_form_matches_profile_quadrature(op128):
    fld = interpolate_field(truncated_bubble(0.5, 0.5, 6, eta=1.0), op128.nodes)
    qa = float(fld.dofs @ op128.A @ fld.dofs)
    form = bilinear_radial(fld, fld, weight_from_params(P), 6, 0.5, 5.0, r_breaks=op128.nodes)
    assert qa == pytest.approx(form, rel=0.02)
    # the two quadratures agree far more tightly than the contract requires
    assert qa == pytest.approx(form, rel=5e-4)


@pytest.mark.parametrize("field", ["eigenvector", "bubble"])
@pytest.mark.parametrize("kappa, p0, s", [(0.0, 1.0, 0.5), (0.05, 1.0, 0.5), (1.0, 0.5, 0.5), (0.05, 1.0, 0.75)])
def test_stiffness_is_the_pair_form_on_the_hat_basis(field, kappa, p0, s):
    # on A's own rule (its radial points per grid interval and tau points per
    # panel), the profile quadrature of a hat field is v^T A v up to rounding:
    # one pair form, one band model
    from fracvar import quad

    params = replace(P, kappa=kappa, p0=p0, s=s)
    op = assemble(params, 128)
    if field == "eigenvector":
        u_h = first_eigenvalue(op)[1]
    else:
        u_h = interpolate_field(truncated_bubble(0.5, s, 6, eta=1.0), op.nodes)
    form = quad._pair_form(u_h, u_h, weight_from_params(params), 6, s, stiffness_rule(op.nodes),
                           r_hi=5.0, include_outer=True)
    assert form == pytest.approx(float(u_h.dofs @ op.A @ u_h.dofs), rel=1e-13, abs=0.0)


def test_mass_matrix_exact_on_linear_ramp(op128):
    vals = 1.0 - op128.nodes / 5.0
    vals[-1] = 0.0
    ramp = RadialField(op128.nodes, vals)
    exact = sphere_surface(6) * 5.0**6 * (1.0 / 6.0 - 2.0 / 7.0 + 1.0 / 8.0)
    assert float(ramp.dofs @ op128.Mq @ ramp.dofs) == pytest.approx(exact, rel=1e-13)


def test_power_integral_against_adaptive_quadrature():
    nodes = make_grid(3.0, 32)
    vals = 1.0 / (1.0 + nodes**2)
    vals[-1] = 0.0
    f = RadialField(nodes, vals)
    ref, _ = sp_quad(lambda r: np.abs(f.radial_value(r)) ** QS * r**5, 0.0, 3.0,
                     points=list(nodes[1:-1]), limit=400, epsabs=1e-13, epsrel=1e-13)
    assert power_integral(f, QS, 6) == pytest.approx(sphere_surface(6) * ref, rel=1e-8)
    rule = grid_rule(f.nodes, 6, 40)
    assert rule.integral(rule.interpolate(f.dofs), QS) == pytest.approx(sphere_surface(6) * ref, rel=1e-12)


def test_power_gradient_matches_finite_differences():
    nodes = make_grid(2.0, 24)
    vals = np.exp(-(nodes**2))
    vals[-1] = 0.0
    f = RadialField(nodes, vals)
    g = power_gradient(f, QS, 6)
    rng = np.random.default_rng(0)
    for i in rng.choice(len(nodes) - 1, size=4, replace=False):
        h = 1e-6
        up, dn = vals.copy(), vals.copy()
        up[i] += h
        dn[i] -= h
        up[-1] = dn[-1] = 0.0
        fd = (power_integral(RadialField(nodes, up), QS, 6)
              - power_integral(RadialField(nodes, dn), QS, 6)) / (2.0 * h)
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-12)


def test_power_integral_and_gradient_exact_values():
    # recorded with numpy 2.4.6; a change in the order of the float
    # operations of the grid rule moves the last bits
    f = interpolate_field(truncated_bubble(0.3, 0.5, 6, 1.0), make_grid(5.0, 128))
    assert power_integral(f, QS, 6).hex() == "0x1.0945e82402efap-1"
    assert power_integral(f, 2.2, 6).hex() == "0x1.b9e4b7454930cp-2"
    picks = (0, 30, 60, 90, 105)
    assert [float(power_gradient(f, QS, 6)[i]).hex() for i in picks] == [
        "0x1.25132ae054c88p-33", "0x1.50de9c8cee462p-20", "0x1.80cf7c04ca627p-9",
        "0x1.5dd9194a31a57p-5", "0x1.2988e228573d5p-8"]
    assert [float(power_gradient(f, 2.2, 6)[i]).hex() for i in picks] == [
        "0x1.266baa5177465p-34", "0x1.5593b2fa74cb8p-21", "0x1.c3a68894e9474p-10",
        "0x1.eab172f10d46ap-5", "0x1.0a0cd01c5476bp-6"]


def test_first_eigenvalue_against_dense_solver(op128):
    lam1, field = first_eigenvalue(op128)
    oracle = sla.eigh(op128.A, op128.Mq, subset_by_index=[0, 0], eigvals_only=True)[0]
    assert lam1 > 0.0
    assert lam1 == pytest.approx(oracle, rel=1e-8)
    v = field.dofs
    assert float(v @ op128.A @ v) / float(v @ op128.Mq @ v) == pytest.approx(lam1, rel=1e-8)
    resid = np.linalg.norm(op128.A @ v - lam1 * op128.Mq @ v)
    assert resid <= 1e-8 * np.linalg.norm(op128.A @ v)


def test_eigenvalue_scales_with_weight():
    double = ProblemParams(n=6, s=0.5, k=2, kappa=0.1, lam=0.0, q=2.0, p0=2.0, eta=1.0, R=5.0)
    single = ProblemParams(n=6, s=0.5, k=2, kappa=0.05, lam=0.0, q=2.0, p0=1.0, eta=1.0, R=5.0)
    l1, _ = first_eigenvalue(assemble(single, 48))
    l2, _ = first_eigenvalue(assemble(double, 48))
    assert l2 == pytest.approx(2.0 * l1, rel=1e-8)


def test_eigenvalue_dominates_unweighted():
    lw, _ = first_eigenvalue(assemble(P, 48))
    lu, _ = first_eigenvalue(assemble(P_FREE, 48))
    assert lw >= P.p0 * lu * (1.0 - 1e-12)


def test_coercivity_below_lambda1(op128):
    lam1, _ = first_eigenvalue(op128)
    pencil = op128.A - 0.9 * lam1 * op128.Mq
    rng = np.random.default_rng(7)
    for _ in range(100):
        v = rng.standard_normal(op128.size)
        assert float(v @ pencil @ v) > 0.0


def test_ground_state_below_level(ground):
    assert ground.converged
    assert ground.status == "converged"
    assert ground.constraint_residual <= 1e-8
    assert ground.energy < 0.98 * P.p0 * LEVEL
    assert ground.below_threshold


def test_ground_state_is_stationary(ground, op128):
    assert euler_residual(P, op128, ground.field, ground.energy) <= 1e-4


def test_random_field_is_not_stationary(op128):
    rng = np.random.default_rng(3)
    vals = np.abs(rng.standard_normal(len(op128.nodes)))
    vals[-1] = 0.0
    f = RadialField(op128.nodes, vals)
    nrm = power_integral(f, QS, 6) ** (1.0 / QS)
    f = RadialField(op128.nodes, f.values / nrm)
    assert euler_residual(P, op128, f, float(f.dofs @ (op128.A - 21.0 * op128.Mq) @ f.dofs)) > 1e-2


def test_ground_state_matches_sequential_quadratic_oracle():
    op = assemble(P, 48)
    Q = op.A - P.lam * op.Mq
    u0 = interpolate_field(truncated_bubble(0.2, 0.5, 6, eta=1.0), op.nodes).dofs.copy()
    u0 /= power_integral(RadialField(op.nodes, np.append(u0, 0.0)), QS, 6) ** (1.0 / QS)
    oracle = sp_minimize(
        lambda v: float(v @ Q @ v), u0, jac=lambda v: 2.0 * (Q @ v),
        constraints=[dict(
            type="eq",
            fun=lambda v: power_integral(RadialField(op.nodes, np.append(v, 0.0)), QS, 6) - 1.0,
            jac=lambda v: power_gradient(RadialField(op.nodes, np.append(v, 0.0)), QS, 6),
        )],
        method="SLSQP", options=dict(maxiter=2000, ftol=1e-14),
    )
    assert oracle.success
    res = minimize_S(P, op)
    assert res.energy == pytest.approx(oracle.fun, rel=1e-5)


def test_minimizer_nonnegative_from_nonnegative_init(ground):
    assert ground.field.values.min() >= -1e-8


def test_energy_monotone_in_iteration_budget(op128, monkeypatch):
    energies = []
    for k in (5, 15, 30, 60):
        monkeypatch.setattr(solver, "MINIMIZE_MAX_ITER", k)
        energies.append(minimize_S(P, op128).energy)
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_no_minimizer_at_lambda_zero(monkeypatch):
    op = assemble(P_FREE, 96)
    monkeypatch.setattr(solver, "MINIMIZE_MAX_ITER", 3000)
    res = minimize_S(P_FREE, op)
    assert res.energy >= P_FREE.p0 * LEVEL * (1.0 - 1e-3)
    assert res.energy <= P_FREE.p0 * LEVEL * (1.0 + 1e-2)
    assert not res.below_threshold


def test_descent_solves_once_per_iteration(op128, monkeypatch):
    # the preconditioned gradient and constraint gradient share one
    # two-column solve against the stiffness factor
    shapes = []
    real = StiffnessOperator.solve

    def counting(self, b):
        shapes.append(np.shape(b))
        return real(self, b)

    monkeypatch.setattr(StiffnessOperator, "solve", counting)
    monkeypatch.setattr(solver, "MINIMIZE_MAX_ITER", 25)
    res = minimize_S(P, op128)
    assert res.iterations == 25 and res.status == "max_iter"
    assert shapes == [(op128.size, 2)] * 25


def test_concentration_sharpens_under_refinement(monkeypatch):
    monkeypatch.setattr(solver, "MINIMIZE_MAX_ITER", 4000)
    tops = []
    for M in (64, 160):
        op = assemble(P_FREE, M)
        res = minimize_S(P_FREE, op)
        tops.append(np.abs(res.field.values).max())
    assert tops[1] > 1.2 * tops[0]


def test_indefinite_regime_detected(op128):
    lam1, _ = first_eigenvalue(op128)
    huge = ProblemParams(n=6, s=0.5, k=2, kappa=0.05, lam=50.0 * lam1, q=2.0, p0=1.0, eta=1.0, R=5.0)
    res = minimize_S(huge, assemble(huge, 64))
    assert res.status == "indefinite_regime"
    assert not res.converged


def test_eigen_solve_raises_when_it_misses_its_tolerance(op128, monkeypatch):
    monkeypatch.setattr(solver, "EIGEN_MAX_ITER", 1)
    with pytest.raises(SolverError):
        first_eigenvalue(op128)


def test_minimize_requires_q2(op128):
    sub = ProblemParams(n=6, s=0.5, k=2, kappa=0.05, lam=1.0, q=2.2, p0=1.0, eta=1.0, R=5.0)
    with pytest.raises(ValueError):
        minimize_S(sub, op128)


def test_refinement_gate():
    e1, e2, rel = refinement_check(P, 96)
    assert rel < 0.02
