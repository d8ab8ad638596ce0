"""Stepping machinery: stencils, block solver, IMEX step, linear marches.

Oracles used here:
  * quadratics (exact for every eta stencil, including the one-sided ends)
    and the exact discrete derivative of sin on the periodic axis,
  * a dense np.linalg.solve of the assembled block-tridiagonal matrix,
  * a scalar implicit-Euler heat march written out longhand,
  * the exact one-step update of pure explicit advection.
"""

import numpy as np
import pytest

from mhbl import (
    CFLError,
    DegenerateStateError,
    GridSizingError,
    LinearSolveError,
    OutflowSpec,
    Params,
    State,
    make_grid,
    sample_outflow,
)
from mhbl.stepper import (
    CFL_CONSTANT,
    BlockTridiag,
    FrozenCoeffs,
    Trajectory,
    apply_bcs,
    apply_derivative,
    solve_linear_problem,
    step_linear,
)

PARAMS = Params(mu=1.0, kappa=1.0, nu=1.0, R=1.0, cV=1.0, delta=0.05)


def small_grid(nx=8, neta=16, eta_max=3.0, dt=0.01, t_end=0.05):
    return make_grid(nx, neta, eta_max, dt, t_end)


# ---------------------------------------------------------------------------
# finite-difference stencils

def test_eta_stencils_exact_on_quadratics():
    g = small_grid()
    eta = g.eta[None, :]
    f = 1.5 - 0.7 * eta + 0.3 * eta ** 2
    f = np.broadcast_to(f, (g.nx, g.neta)).copy()
    d1 = apply_derivative(f, g, axis="eta", order=1)
    d2 = apply_derivative(f, g, axis="eta", order=2)
    np.testing.assert_allclose(d1, np.broadcast_to(-0.7 + 0.6 * eta, d1.shape),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(d2, np.full_like(d2, 0.6), rtol=0, atol=1e-12)


def test_xi_stencils_match_discrete_fourier_symbol():
    # centered differences act on sin(xi) with the exact factors
    # sin(dxi)/dxi and (2 - 2 cos(dxi))/dxi^2
    g = small_grid(nx=16)
    xi = g.xi[:, None]
    f = np.broadcast_to(np.sin(xi), (g.nx, g.neta)).copy()
    d1 = apply_derivative(f, g, axis="xi", order=1)
    d2 = apply_derivative(f, g, axis="xi", order=2)
    np.testing.assert_allclose(
        d1, np.cos(xi) * np.sin(g.dxi) / g.dxi * np.ones(g.neta), atol=1e-13)
    np.testing.assert_allclose(
        d2, -np.sin(xi) * (2.0 - 2.0 * np.cos(g.dxi)) / g.dxi ** 2
        * np.ones(g.neta), atol=1e-13)


def test_derivative_trailing_axes_ride_along():
    g = small_grid()
    rng = np.random.default_rng(0)
    f = rng.normal(size=(g.nx, g.neta, 3))
    d = apply_derivative(f, g, axis="eta", order=1)
    for c in range(3):
        np.testing.assert_array_equal(
            d[..., c], apply_derivative(f[..., c], g, axis="eta", order=1))


def test_derivative_validates_axis_and_order():
    g = small_grid()
    f = np.zeros((g.nx, g.neta))
    with pytest.raises(GridSizingError):
        apply_derivative(f, g, axis="tau", order=1)
    with pytest.raises(GridSizingError):
        apply_derivative(f, g, axis="eta", order=3)
    with pytest.raises(GridSizingError):
        apply_derivative(f, g, axis="xi", order=0)


# ---------------------------------------------------------------------------
# block-tridiagonal solver

def random_block_system(rng, nb=4, m=8):
    L = 0.3 * rng.normal(size=(nb, m, 3, 3))
    U = 0.3 * rng.normal(size=(nb, m, 3, 3))
    D = rng.normal(size=(nb, m, 3, 3)) + 4.0 * np.eye(3)
    return BlockTridiag(lower=L, diag=D, upper=U)


def assert_matches_dense(sys, rhs):
    x = sys.solve(rhs)
    dense = sys.dense()
    for b in range(rhs.shape[0]):
        want = np.linalg.solve(dense[b], rhs[b].reshape(-1))
        np.testing.assert_allclose(x[b].reshape(-1), want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("nb,m", [(4, 8), (1, 1), (1, 5), (3, 2)])
def test_block_solve_matches_dense_oracle(nb, m):
    # m = 1 (neta = 3) has no lower or upper block at all
    rng = np.random.default_rng(42)
    sys = random_block_system(rng, nb, m)
    assert_matches_dense(sys, rng.normal(size=(nb, m, 3)))


def test_block_solve_detects_singular_block():
    rng = np.random.default_rng(1)
    sys = random_block_system(rng)
    # a zero block row makes the matrix itself singular; pivoting hits the
    # zero pivot at the column's last row, so the message must not rely on it
    sys.diag[2, 5] = 0.0
    sys.lower[2, 5] = 0.0
    sys.upper[2, 5] = 0.0
    with pytest.raises(LinearSolveError, match="eta row 5, xi column 2"):
        sys.solve(rng.normal(size=(4, 8, 3)))


def test_block_solve_pivots_past_a_singular_diagonal_block():
    # D - L cp vanishes in block row 5 of column 2, so elimination without
    # pivoting breaks down there, but the matrix itself is nonsingular
    rng = np.random.default_rng(1)
    sys = random_block_system(rng)
    sys.diag[2, 5] = 0.0
    sys.lower[2, 5] = 0.0
    assert_matches_dense(sys, rng.normal(size=(4, 8, 3)))


@pytest.mark.parametrize("where", ["diag", "rhs"])
def test_block_solve_rejects_nan(where):
    rng = np.random.default_rng(3)
    sys = random_block_system(rng)
    rhs = rng.normal(size=(4, 8, 3))
    target = sys.diag if where == "diag" else rhs
    target[1, 6, 0] = np.nan
    with pytest.raises(LinearSolveError, match="non-finite .* xi column 1"):
        sys.solve(rhs)


# ---------------------------------------------------------------------------
# IMEX step against scalar oracles

def constant_outflow(grid, U=0.0, Theta=1.0, H=1.0, P=1.5, theta_star=1.0):
    return sample_outflow(
        OutflowSpec.constant(U=U, Theta=Theta, Hfield=H, P=P,
                             theta_star=theta_star), grid)


def diag_coeffs(grid, b0=0.0, c0=0.0):
    """Hand-built frozen coefficients: A = c0 I (explicit advection) and
    B = b0 I (implicit diffusion); F = G = 0."""
    shape = (grid.nx, grid.neta)
    eye = np.broadcast_to(np.eye(3), shape + (3, 3)).copy()
    zero = np.zeros(shape + (3, 3))
    return FrozenCoeffs(A=c0 * eye, B=b0 * eye, F=zero.copy(), G=zero.copy(),
                        adv_radius=np.full(shape, abs(c0)))


def test_step_matches_scalar_heat_march():
    # u1 diffuses with Dirichlet 0 at both ends; theta and q stay constant.
    g = small_grid(nx=6, neta=16, eta_max=3.0, dt=0.01, t_end=0.05)
    outflow = constant_outflow(g)
    b0 = 0.7
    frozen = diag_coeffs(g, b0=b0)
    w = np.sin(np.pi * g.eta / g.eta_max)
    v = State(u1=np.broadcast_to(w, (g.nx, g.neta)).copy(),
              theta=np.ones((g.nx, g.neta)),
              q=np.full((g.nx, g.neta), 0.5), time=0.0)

    # longhand scalar implicit Euler on the interior rows
    m = g.neta - 2
    K = (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) / g.deta ** 2
    M = np.eye(m) / g.dt + b0 * K
    u_oracle = w[1:-1].copy()

    for _ in range(g.nsteps):
        v = step_linear(v, frozen, outflow, PARAMS, g)
        u_oracle = np.linalg.solve(M, u_oracle / g.dt)
        np.testing.assert_allclose(v.u1[:, 1:-1],
                                   np.broadcast_to(u_oracle, (g.nx, m)),
                                   rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(v.theta, 1.0, atol=1e-13)
    np.testing.assert_allclose(v.q, 0.5, atol=1e-13)


def test_heat_step_follows_exact_modal_decay():
    # sin(pi eta / eta_max) is an exact eigenvector of the discrete Dirichlet
    # Laplacian, so implicit Euler scales it by 1/(1 + dt lam_h) per step.
    g = small_grid(nx=6, neta=24, eta_max=3.0, dt=0.02, t_end=0.2)
    outflow = constant_outflow(g)
    frozen = diag_coeffs(g, b0=1.0)
    w = np.sin(np.pi * g.eta / g.eta_max)
    v = State(u1=np.broadcast_to(w, (g.nx, g.neta)).copy(),
              theta=np.ones((g.nx, g.neta)),
              q=np.full((g.nx, g.neta), 0.5), time=0.0)
    lam_h = (2.0 - 2.0 * np.cos(np.pi * g.deta / g.eta_max)) / g.deta ** 2
    rho = 1.0 / (1.0 + g.dt * lam_h)
    factor = 1.0
    for _ in range(g.nsteps):
        v = step_linear(v, frozen, outflow, PARAMS, g)
        factor *= rho
        np.testing.assert_allclose(
            v.u1, np.broadcast_to(factor * w, v.u1.shape),
            rtol=1e-12, atol=1e-13)
        assert v.u1.min() >= -1e-13      # no undershoot: maximum principle
    # ten steps of the slowest mode lose about twenty percent
    assert 0.75 < factor < 0.85


def test_step_matches_explicit_advection_update():
    # with B = F = G = 0 a step is exactly v - dt c D_xi v on the interior
    g = small_grid(nx=16, neta=16, eta_max=3.0, dt=0.05, t_end=0.05)
    outflow = constant_outflow(g)
    c0 = 1.0
    frozen = diag_coeffs(g, c0=c0)
    w = np.sin(np.pi * g.eta / g.eta_max)
    u = w[None, :] * np.sin(g.xi)[:, None]
    v = State(u1=u, theta=np.ones_like(u), q=np.full_like(u, 0.5), time=0.0)
    out = step_linear(v, frozen, outflow, PARAMS, g)
    sym = np.sin(g.dxi) / g.dxi
    want = w[None, :] * (np.sin(g.xi) - c0 * g.dt * sym * np.cos(g.xi))[:, None]
    np.testing.assert_allclose(out.u1[:, 1:-1], want[:, 1:-1],
                               rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(out.theta, 1.0, atol=1e-14)
    np.testing.assert_allclose(out.q, 0.5, atol=1e-14)


def test_step_is_affine_in_the_state():
    # for fixed coefficients: step(v0 + w) - step(v0) == step(v0 + 2w) - step(v0 + w)
    g = small_grid()
    outflow = constant_outflow(g)
    base = State.constant(g, 0.1, 1.0, 0.5)
    frozen = FrozenCoeffs.from_state(base.as_array(), outflow.P[0],
                                     outflow.P_t[0], outflow.P_xi[0],
                                     PARAMS, g)
    rng = np.random.default_rng(5)
    w = 0.01 * rng.normal(size=(g.nx, g.neta, 3))
    s0 = step_linear(base, frozen, outflow, PARAMS, g).as_array()
    s1 = step_linear(State.from_array(base.as_array() + w), frozen, outflow,
                     PARAMS, g).as_array()
    s2 = step_linear(State.from_array(base.as_array() + 2 * w), frozen,
                     outflow, PARAMS, g).as_array()
    np.testing.assert_allclose(s1 - s0, s2 - s1, rtol=0, atol=1e-12)


def test_cfl_refusal():
    g = small_grid(nx=8, dt=0.5, t_end=0.5)   # dxi ~ 0.785, bound 0.39 at radius 1
    outflow = constant_outflow(g)
    frozen = diag_coeffs(g, c0=1.0)
    v = State.constant(g, 0.0, 1.0, 0.5)
    assert g.dt > CFL_CONSTANT * g.dxi / 1.0
    with pytest.raises(CFLError):
        step_linear(v, frozen, outflow, PARAMS, g)


# ---------------------------------------------------------------------------
# boundary conditions

def test_apply_bcs_enforces_rows_and_is_idempotent():
    g = small_grid()
    outflow = constant_outflow(g, U=0.2, Theta=1.1, H=1.2, P=2.0,
                               theta_star=0.9)
    rng = np.random.default_rng(8)
    v = State.from_array(rng.uniform(0.3, 0.6, size=(g.nx, g.neta, 3)))
    b = apply_bcs(v, outflow, g)
    np.testing.assert_array_equal(b.u1[:, 0], 0.0)
    np.testing.assert_allclose(b.theta[:, 0], 0.9)
    np.testing.assert_allclose(b.q[:, 0], (4 * b.q[:, 1] - b.q[:, 2]) / 3)
    np.testing.assert_allclose(b.u1[:, -1], 0.2)
    np.testing.assert_allclose(b.theta[:, -1], 1.1)
    np.testing.assert_allclose(b.q[:, -1], 0.5 * 1.2 ** 2)
    bb = apply_bcs(b, outflow, g)
    np.testing.assert_array_equal(b.as_array(), bb.as_array())
    # interior untouched
    np.testing.assert_array_equal(b.as_array()[:, 1:-1], v.as_array()[:, 1:-1])


# ---------------------------------------------------------------------------
# frozen-coefficient marches

def constant_trajectory(g, v):
    data = np.repeat(v.as_array()[None], g.nsteps + 1, axis=0)
    return Trajectory(data=data, times=g.times.copy())


def test_march_preserves_exact_constant():
    g = small_grid()
    outflow = constant_outflow(g, U=0.0, Theta=1.0, H=1.0, P=1.5,
                               theta_star=1.0)
    v = State.constant(g, 0.0, 1.0, 0.5)   # matches wall and far data
    traj = solve_linear_problem(constant_trajectory(g, v), v, outflow,
                                PARAMS, g)
    np.testing.assert_allclose(
        traj.data, np.broadcast_to(v.as_array()[None], traj.data.shape),
        rtol=0, atol=1e-14)


def test_march_levels_satisfy_bcs_exactly():
    g = small_grid()
    outflow = constant_outflow(g)
    rng = np.random.default_rng(12)
    pert = 0.02 * rng.normal(size=(g.nx, g.neta, 3))
    v0 = State.from_array(
        State.constant(g, 0.0, 1.0, 0.5).as_array() + pert)
    traj = solve_linear_problem(constant_trajectory(
        g, State.constant(g, 0.0, 1.0, 0.5)), v0, outflow, PARAMS, g)
    for k in range(traj.nlevels):
        s = traj.state(k)
        fixed = apply_bcs(s, outflow, g)
        np.testing.assert_array_equal(s.as_array(), fixed.as_array())


def test_march_rejects_mismatched_coefficient_trajectory():
    g = small_grid()
    outflow = constant_outflow(g)
    v = State.constant(g, 0.0, 1.0, 0.5)
    bad = Trajectory(data=np.repeat(v.as_array()[None], 3, axis=0),
                     times=np.arange(3) * g.dt)
    with pytest.raises(GridSizingError):
        solve_linear_problem(bad, v, outflow, PARAMS, g)


def test_frozen_coeffs_numeric_radius_matches_closed_form():
    g = small_grid()
    outflow = constant_outflow(g)
    v = State.constant(g, 0.3, 1.2, 0.4).as_array()
    fc = FrozenCoeffs.from_state(v, outflow.P[0], outflow.P_t[0],
                                 outflow.P_xi[0], PARAMS, g)
    numeric_radius = np.max(np.abs(np.linalg.eigvals(fc.A)), axis=-1)
    np.testing.assert_allclose(fc.adv_radius, numeric_radius,
                               rtol=1e-12, atol=1e-12)


def test_frozen_coeffs_clamp_does_not_hide_nan():
    # clamping pushes theta and q back inside the admissible set, but NaN
    # survives np.maximum and np.clip and must reach the degeneracy guard
    g = small_grid()
    outflow = constant_outflow(g, P=1.5)
    v = State.constant(g, 0.0, 1.0, 0.5).as_array().copy()
    v[2, 3, 1] = np.nan
    with pytest.raises(DegenerateStateError):
        FrozenCoeffs.from_state(v, outflow.P[0], outflow.P_t[0],
                                outflow.P_xi[0], PARAMS, g, clamp=True)


def test_frozen_coeffs_clamp_recovers_inadmissible_state():
    g = small_grid()
    outflow = constant_outflow(g, P=1.5)
    v = State.constant(g, 0.0, 1.0, 0.5).as_array().copy()
    v[2, 3, 1] = -0.4   # negative temperature
    v[4, 5, 2] = 2.0    # q beyond P
    with pytest.raises(Exception):
        FrozenCoeffs.from_state(v, outflow.P[0], outflow.P_t[0],
                                outflow.P_xi[0], PARAMS, g)
    fc = FrozenCoeffs.from_state(v, outflow.P[0], outflow.P_t[0],
                                 outflow.P_xi[0], PARAMS, g, clamp=True)
    assert np.all(np.isfinite(fc.A))
