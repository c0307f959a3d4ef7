import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

import fracvar
from fracvar.bubble import truncated_bubble
from fracvar.constants import bubble_constants
from fracvar.mountainpass import (
    FiberResult,
    _alpha_q,
    _fiber_root,
    _phi_ray,
    _phi_scalars,
    fiber_sweep,
    level_bound,
    mp_geometry,
    mp_level,
    phi_gradient,
    phi_value,
    ps_diagnostics,
)
from fracvar.problem import ProblemParams, critical_exponent
from fracvar.solver import (
    _min_form_on_sphere,
    _with_dofs,
    assemble,
    first_eigenvalue,
    interpolate_field,
    minimize_S,
    power_integral,
)

P_GS = ProblemParams(n=6, s=0.5, k=2, kappa=0.05, lam=21.0, q=2.0)
P_MP = ProblemParams(n=6, s=0.5, k=2, kappa=0.004, lam=1.0, q=2.2)
P_FREE = ProblemParams(n=6, s=0.5, k=2, kappa=0.0, lam=0.0, q=2.0)
P_SW = ProblemParams(n=6, s=0.5, k=2, kappa=0.002, lam=1.0, q=2.0)
QS = critical_exponent(6, 0.5)
SP = bubble_constants(6, 0.5).Ss  # p0 = 1
T_LIMIT = SP ** (1.0 / (QS - 2.0))
EPS_GRID = np.array([0.2, 0.14, 0.1, 0.07, 0.05])


@pytest.fixture(scope="module")
def op_gs():
    return assemble(P_GS, 128)


@pytest.fixture(scope="module")
def op_mp():
    return assemble(P_MP, 128)


@pytest.fixture(scope="module")
def op_free():
    return assemble(P_FREE, 128)


@pytest.fixture(scope="module")
def ground(op_gs):
    res = minimize_S(P_GS, op_gs)
    assert res.converged
    return res


@pytest.fixture(scope="module")
def path_mp(op_mp):
    return mp_level(P_MP, op_mp)


# ---------------------------------------------------------------- fiber root


def test_fiber_root_without_subcritical_term_is_closed_form():
    # lam = 0 (or zero subcritical mass): t = X^{1/(qs-2)} exactly
    assert _fiber_root(200.0, 0.9, 0.0, 2.0, QS) == pytest.approx(200.0 ** 2.5, rel=1e-14)
    assert _fiber_root(200.0, 0.0, 5.0, 2.0, QS) == pytest.approx(200.0 ** 2.5, rel=1e-14)


def test_fiber_root_closed_form_matches_bisection():
    r_closed = _fiber_root(200.0, 0.9, 21.0, 2.0, QS)
    r_bisect = _fiber_root(200.0, 0.9, 21.0, 2.0, QS, bisect=True)
    assert r_closed == pytest.approx(r_bisect, rel=1e-10)


def test_fiber_root_decreases_with_lam():
    roots = [_fiber_root(150.0, 1.2, lam, 2.2, QS) for lam in (0.0, 1.0, 5.0, 20.0)]
    assert all(a > b for a, b in zip(roots, roots[1:]))


def test_fiber_root_rejects_bad_scalars():
    with pytest.raises(ValueError):
        _fiber_root(150.0, 1.0, -1.0, 2.0, QS)
    with pytest.raises(ValueError):
        _fiber_root(0.0, 1.0, 1.0, 2.0, QS)


def test_fiber_root_vanishes_when_lam_term_dominates():
    # q = 2 with X <= lam * int v^2: the ray has no interior maximum
    assert _fiber_root(1.0, 1.0, 10.0, 2.0, QS) is None


# ---------------------------------------------------------------- fiber_t
# The ray maximum t of a normalized profile and its value Y, computed the way
# mp_level's retraction computes them: _fiber_root on the profile's scalars,
# then _phi_ray at that root.


def _fiber_t(ground, op):
    P, Q, T = _phi_scalars(P_GS, op, ground.field.dofs)
    assert T == pytest.approx(1.0, rel=1e-12)
    t = _fiber_root(P / T, Q / T, P_GS.lam, P_GS.q, QS)
    return P, t, _phi_ray(P_GS, P, Q, T, t)


def test_fiber_t_on_ground_state_matches_ray_algebra(ground, op_gs):
    # For the normalized minimizer (int |u|^qs = 1) the ray maximum is
    # explicit in the energy: t = E^{1/(qs-2)} and Y = (s/n) E^{n/2s}
    E = ground.energy
    _, t, Y = _fiber_t(ground, op_gs)
    assert t == pytest.approx(E ** 2.5, rel=1e-10)
    assert Y == pytest.approx((P_GS.s / P_GS.n) * E ** 6.0, rel=1e-10)


def test_fiber_t_invariants(ground, op_gs):
    # Below the lam = 0 values of X = P
    X, t, Y = _fiber_t(ground, op_gs)
    assert t <= X ** 2.5 * (1.0 + 1e-12)
    assert Y <= (P_GS.s / P_GS.n) * X ** 6.0 * (1.0 + 1e-12)


def test_fiber_sweep_reports_missing_root():
    # lam so large that X - lam * int v^2 < 0: no positive ray maximum
    p_bad = ProblemParams(n=6, s=0.5, k=2, kappa=0.05, lam=1e6, q=2.0)
    with pytest.raises(ValueError, match="no positive fiber root"):
        fiber_sweep(p_bad, [0.2])


# ---------------------------------------------------------------- fiber_sweep


def test_fiber_sweep_bubble_family_q2():
    sw = fiber_sweep(P_SW, EPS_GRID)
    gaps = [f.limit_gap for f in sw]
    assert gaps[0] == pytest.approx(1236.9840, rel=1e-6)
    assert gaps[-1] == pytest.approx(358.6509, rel=1e-6)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] / T_LIMIT < 0.02
    B = level_bound(P_SW)
    assert all(f.Y_eps < B for f in sw)
    assert all(f.t_eps > 0.0 for f in sw)


def test_fiber_sweep_bubble_family_q22():
    sw = fiber_sweep(P_MP, EPS_GRID)
    gaps = [f.limit_gap for f in sw]
    assert gaps[0] == pytest.approx(31853.6734, rel=1e-6)
    assert gaps[-1] == pytest.approx(16842.1972, rel=1e-6)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    B = level_bound(P_MP)
    assert all(f.Y_eps < B for f in sw)


@pytest.mark.parametrize("lam", [0.1, 10.0])
def test_fiber_sweep_q22_other_lams_stay_below_bound(lam):
    p = ProblemParams(n=6, s=0.5, k=2, kappa=0.004, lam=lam, q=2.2)
    sw = fiber_sweep(p, np.array([0.2, 0.1, 0.05]))
    gaps = [f.limit_gap for f in sw]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert all(f.Y_eps < level_bound(p) for f in sw)


def test_fiber_sweep_computes_each_bubble_form_once(monkeypatch):
    # check 9's four regimes: the three q = 2.2 ones share the kappa = 0.004 weight
    import fracvar.mountainpass as mp

    calls = []
    radial = mp.seminorm_radial

    def counted(*args, **kwargs):
        calls.append(args)
        return radial(*args, **kwargs)

    monkeypatch.setattr(mp, "seminorm_radial", counted)
    mp._bubble_form_and_mass.cache_clear()
    regimes = [P_SW] + [replace(P_MP, lam=lam) for lam in (0.1, 1.0, 10.0)]
    sweeps = [fiber_sweep(p, EPS_GRID) for p in regimes]
    assert len(calls) == 10
    # the lam = 10 sweep came wholly from the cache; a cold one is bit-identical
    mp._bubble_form_and_mass.cache_clear()
    assert fiber_sweep(regimes[-1], EPS_GRID[:2]) == sweeps[-1][:2]
    assert len(calls) == 12


def test_fiber_sweep_records_eps_and_normalization():
    sw = fiber_sweep(P_SW, np.array([0.2, 0.1]))
    assert [f.eps for f in sw] == [0.2, 0.1]
    assert all(isinstance(f, FiberResult) for f in sw)


def test_fiber_sweep_input_validation():
    with pytest.raises(ValueError):
        fiber_sweep(P_SW, np.array([]))
    with pytest.raises(ValueError):
        fiber_sweep(P_SW, np.ones((2, 2)))
    with pytest.raises(ValueError, match="refusing"):
        fiber_sweep(P_SW, np.array([0.005]))


# ---------------------------------------------------------------- geometry


def test_geometry_values_q2(op_gs):
    rho, beta, e = mp_geometry(P_GS, op_gs)
    assert rho == pytest.approx(5.7221912149e5, rel=1e-8)
    assert beta == pytest.approx(1.3619800422e10, rel=1e-8)
    e_len = math.sqrt(e.dofs @ op_gs.A @ e.dofs)
    assert e_len > rho
    assert phi_value(P_GS, op_gs, e) < 0.0


def test_geometry_values_q22(op_mp):
    # beta depends on the iteratively computed embedding constant
    rho, beta, e = mp_geometry(P_MP, op_mp)
    assert rho == pytest.approx(2.1817103340e6, rel=1e-6)
    assert beta == pytest.approx(3.7007055436e11, rel=1e-6)
    assert math.sqrt(e.dofs @ op_mp.A @ e.dofs) > rho
    assert phi_value(P_MP, op_mp, e) < 0.0


def test_geometry_lam0_reaches_the_bound(op_free):
    # Without the subcritical term the pass height equals (s/n)(p0 Ss)^{n/2s}
    # and the radius is (p0 Ss)^{qs/(2(qs-2))}
    rho, beta, _ = mp_geometry(P_FREE, op_free)
    assert beta == pytest.approx(level_bound(P_FREE), rel=1e-12)
    assert rho == pytest.approx(SP ** 3.0, rel=1e-12)


def test_geometry_shape_of_the_pass(op_gs):
    rho, beta, e = mp_geometry(P_GS, op_gs)
    zero = _with_dofs(op_gs.nodes, np.zeros(len(op_gs.nodes) - 1))
    assert phi_value(P_GS, op_gs, zero) == 0.0
    assert 0.0 < beta
    e_len = math.sqrt(e.dofs @ op_gs.A @ e.dofs)
    small = _with_dofs(op_gs.nodes, (rho / (2.0 * e_len)) * e.dofs)
    assert phi_value(P_GS, op_gs, small) > 0.0
    doubled = _with_dofs(op_gs.nodes, 2.0 * e.dofs)
    assert phi_value(P_GS, op_gs, doubled) < phi_value(P_GS, op_gs, e) < 0.0


@pytest.mark.parametrize("lam", [0.0, 5.0, 20.0])
def test_geometry_beta_positive_below_lam1(op_gs, lam):
    p = ProblemParams(n=6, s=0.5, k=2, kappa=0.05, lam=lam, q=2.0)
    _, beta, _ = mp_geometry(p, op_gs)
    assert beta > 0.0


def test_geometry_rejects_bad_lam(op_gs, op_mp):
    p_high = ProblemParams(n=6, s=0.5, k=2, kappa=0.05, lam=50.0, q=2.0)
    with pytest.raises(ValueError):
        mp_geometry(p_high, op_gs)  # lam above the first eigenvalue
    p_neg = ProblemParams(n=6, s=0.5, k=2, kappa=0.004, lam=-1.0, q=2.2)
    with pytest.raises(ValueError):
        mp_geometry(p_neg, op_mp)


# ---------------------------------------------------------------- alpha_q


def test_alpha_q_at_two_is_the_first_eigenvalue(op_gs):
    lam1, _ = first_eigenvalue(op_gs)
    assert _alpha_q(P_GS, op_gs) == lam1


def test_alpha_q_dual_route_at_two(op_gs):
    # The sphere-constrained descent with exponent 2 must reproduce the
    # inverse-iteration eigenvalue
    ub = truncated_bubble(0.2, 0.5, 6, 1.0)
    init = interpolate_field(ub, op_gs.nodes)
    d0 = init.dofs / power_integral(init, 2.0, 6) ** 0.5
    _, val, _, status = _min_form_on_sphere(
        op_gs.A, op_gs, 2.0, d0.copy(), 1e-8, 4000,
    )
    lam1, _ = first_eigenvalue(op_gs)
    assert status == "converged"
    assert val == pytest.approx(lam1, rel=1e-8)


def test_alpha_q_supercritical_exponent(op_mp):
    assert _alpha_q(P_MP, op_mp) == pytest.approx(80.9641581412, rel=1e-6)


# ---------------------------------------------------------------- mp_level


def test_path_descent_q22(path_mp, op_mp):
    B = level_bound(P_MP)
    rho, beta, _ = mp_geometry(P_MP, op_mp)
    assert path_mp.converged
    assert path_mp.level < B
    assert 0.53 * B < path_mp.level < 0.57 * B
    assert path_mp.level > beta
    assert len(path_mp.points) == 21
    diffs = np.diff(path_mp.trace)
    assert np.all(diffs <= 1e-9)
    # the ray path runs from 0 into the negative region beyond rho
    assert not np.any(path_mp.points[0].dofs)
    end = path_mp.points[-1].dofs
    assert phi_value(P_MP, op_mp, path_mp.points[-1]) < 0.0
    assert math.sqrt(end @ op_mp.A @ end) > rho


def test_level_is_the_maximum_of_its_own_path(path_mp, op_mp):
    theta = np.arange(400) / 400.0
    pts = [pt.dofs for pt in path_mp.points]
    phis = [phi_value(P_MP, op_mp, _with_dofs(op_mp.nodes, (1.0 - th) * a + th * b))
            for a, b in zip(pts, pts[1:]) for th in theta]
    assert max(phis) <= path_mp.level * (1.0 + 1e-9)
    # the minimizer sits at the maximum of its own fiber
    rep = ps_diagnostics(P_MP, op_mp, path_mp.max_point)
    X, sub = rep.seminorm_part / rep.critical_mass, rep.subcritical_mass / rep.critical_mass
    assert _fiber_root(X, sub, P_MP.lam, P_MP.q, QS) == pytest.approx(1.0, abs=1e-9)


def test_starts_reach_the_same_level(path_mp):
    levels = path_mp.start_levels
    assert len(levels) >= 2 and min(levels) == path_mp.level
    assert (max(levels) - min(levels)) / min(levels) <= 1e-6


def test_level_lies_above_beta_at_lam10():
    p = replace(P_MP, lam=10.0)
    op = assemble(p, 128)
    _, beta, _ = mp_geometry(p, op)
    st = mp_level(p, op)
    assert beta <= st.level < level_bound(p)


def test_path_max_point_is_near_critical(path_mp, op_mp):
    # the polish pushes the crest gradient well below the initial one
    _, _, e = mp_geometry(P_MP, op_mp)
    thetas = (np.arange(3) + 1.0) / 4.0
    best, best_val = None, -math.inf
    Z0 = np.outer(np.linspace(0.0, 1.0, 21), e.dofs)
    for i in range(20):
        for th in np.concatenate(([0.0], thetas)):
            d = (1.0 - th) * Z0[i] + th * Z0[i + 1]
            v = phi_value(P_MP, op_mp, _with_dofs(op_mp.nodes, d))
            if v > best_val:
                best, best_val = d, v
    g0 = np.linalg.norm(phi_gradient(P_MP, op_mp, _with_dofs(op_mp.nodes, best)))
    g1 = np.linalg.norm(phi_gradient(P_MP, op_mp, path_mp.max_point))
    assert g1 <= g0 / 10.0
    scale = np.linalg.norm(op_mp.A @ path_mp.max_point.dofs)
    assert g1 / scale < 1e-5
    rep = ps_diagnostics(P_MP, op_mp, path_mp.max_point)
    assert rep.identity_residual < 1e-8
    assert abs(rep.level - path_mp.level) < 0.05 * path_mp.level


def test_path_descent_q2_finds_the_ground_state_level(ground, op_gs):
    c_true = (P_GS.s / P_GS.n) * ground.energy ** 6.0
    st = mp_level(P_GS, op_gs)
    assert st.converged
    assert st.level == pytest.approx(c_true, rel=1e-6)
    # the polished crest lands on the critical point itself
    assert phi_value(P_GS, op_gs, st.max_point) == pytest.approx(c_true, rel=1e-4)
    g = np.linalg.norm(phi_gradient(P_GS, op_gs, st.max_point))
    assert g / np.linalg.norm(op_gs.A @ st.max_point.dofs) < 1e-5


def test_path_descent_without_subcritical_term(op_free):
    # no critical point exists: the Nehari descent concentrates at the bound
    # instead of converging
    B = level_bound(P_FREE)
    st = mp_level(P_FREE, op_free)
    assert not st.converged
    assert 0.999 * B < st.level < 1.001 * B
    assert np.all(np.isfinite(st.max_point.dofs))


def test_path_descent_needs_three_points(op_gs):
    with pytest.raises(ValueError):
        mp_level(P_GS, op_gs, m=2)


def test_one_stiffness_factorization_per_operator(monkeypatch):
    # assembly factors A (kept on the operator) and Mq (a definiteness
    # check); the eigen-solve, the constrained descents and the Nehari
    # descent reuse the operator's factor
    factored = []
    real = sla.cho_factor

    def counting(a, *args, **kwargs):
        factored.append(np.array(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(sla, "cho_factor", counting)
    op = assemble(P_GS, 64)
    first_eigenvalue(op)
    minimize_S(P_GS, op)
    assert len(factored) == 2
    assert sum(np.array_equal(a, op.A) for a in factored) == 1

    factored.clear()
    op = assemble(P_MP, 64)
    mp_geometry(P_MP, op)
    mp_level(P_MP, op)
    assert len(factored) == 2
    assert sum(np.array_equal(a, op.A) for a in factored) == 1


# ---------------------------------------------------------------- diagnostics


def test_ps_diagnostics_at_exact_critical_point(ground, op_gs):
    # rescale the normalized minimizer onto the Nehari set
    w = ground.energy ** (1.0 / (QS - 2.0)) * ground.field.dofs
    fld = _with_dofs(op_gs.nodes, w)
    rep = ps_diagnostics(P_GS, op_gs, fld)
    assert rep.identity_residual < 1e-10
    assert rep.grad_norm / np.linalg.norm(op_gs.A @ w) < 1e-4
    assert rep.level == pytest.approx((P_GS.s / P_GS.n) * ground.energy ** 6.0, rel=1e-10)
    assert rep.seminorm_part > 0.0 and rep.critical_mass > 0.0


def test_ps_diagnostics_far_from_critical(op_gs):
    rng = np.random.default_rng(7)
    dofs = np.abs(rng.standard_normal(len(op_gs.nodes) - 1))
    rep = ps_diagnostics(P_GS, op_gs, _with_dofs(op_gs.nodes, dofs))
    assert rep.identity_residual > 0.1
    assert rep.grad_norm > 0.0


# ---------------------------------------------------------------- exact values

_EXACT_VALUES_CHILD = """
import json
from fracvar.mountainpass import mp_level
from fracvar.problem import ProblemParams
from fracvar.solver import assemble, minimize_S
P_GS = ProblemParams(n=6, s=0.5, k=2, kappa=0.05, lam=21.0, q=2.0)
P_MP = ProblemParams(n=6, s=0.5, k=2, kappa=0.004, lam=1.0, q=2.2)
g = minimize_S(P_GS, assemble(P_GS, 128))
st = mp_level(P_MP, assemble(P_MP, 128))
print(json.dumps([g.energy.hex(), g.iterations, st.level.hex(), st.iterations]))
"""


def test_grid_descents_exact_values():
    # BLAS reductions depend on the thread count, so the descents run in a
    # fresh interpreter with one BLAS thread.  Recorded with numpy 2.4.6,
    # scipy 1.17.1 and OpenBLAS 0.3.31; any change to the order of the
    # float operations in minimize_S or mp_level moves the last bits.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracvar.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _EXACT_VALUES_CHILD], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    energy, iterations, level, mp_iterations = json.loads(out.stdout)
    assert (energy, iterations) == ("0x1.b511b0871fbc6p+6", 52)
    assert (level, mp_iterations) == ("0x1.c47be5391fc78p+38", 424)
