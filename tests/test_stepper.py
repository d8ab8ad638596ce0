"""Stepping machinery: stencils, block solver, IMEX step, linear marches.

Oracles used here:
  * quadratics (exact for every eta stencil, including the one-sided ends)
    and the exact discrete derivative of sin on the periodic axis,
  * a dense np.linalg.solve of the assembled block-tridiagonal matrix, for
    any block size and for a whole step as the coupled 3x3 system,
  * the generic BlockTridiag solve, which the step's named solvers
    (solve_u1, solve_theta_q) must equal bit for bit, folds included,
  * a scalar implicit-Euler heat march written out longhand,
  * the exact one-step update of pure explicit advection,
  * the step written longhand with the dense coeffs.eval_* matrices and
    np.einsum, which must agree bit for bit with the entry-wise step,
  * source scans that keep the LAPACK band format inside the stepper and
    the dense coefficient path out of it, and a spy on dgbsv that pins the
    band's Fortran layout.
"""

import ast
import dataclasses
import inspect
import pathlib
import re

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from conftest import traced_peak

import mhbl
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
from mhbl import coeffs, stepper
from mhbl.stepper import (
    CFL_CONSTANT,
    BlockTridiag,
    FrozenCoeffs,
    Trajectory,
    _set_boundary_rows,
    _step_arrays,
    apply_derivative,
    solve_linear_problem,
)

PARAMS = Params(mu=1.0, kappa=1.0, nu=1.0, R=1.0, cV=1.0, delta=0.05)
SRC = pathlib.Path(mhbl.__file__).parent


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

def random_block_system(rng, nb=4, m=8, k=3):
    L = 0.3 * rng.normal(size=(nb, m, k, k))
    U = 0.3 * rng.normal(size=(nb, m, k, k))
    D = rng.normal(size=(nb, m, k, k)) + 4.0 * np.eye(k)
    return BlockTridiag(lower=L, diag=D, upper=U)


def assert_matches_dense(sys, rhs):
    x = sys.solve(rhs)
    dense = sys.dense()
    for b in range(rhs.shape[0]):
        want = np.linalg.solve(dense[b], rhs[b].reshape(-1))
        np.testing.assert_allclose(x[b].reshape(-1), want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("nb,m", [(4, 8), (1, 1), (1, 5), (3, 2)])
def test_block_solve_matches_dense_oracle(nb, m):
    # m = 1 (neta = 3) has no lower or upper block at all; a step solves
    # k = 1 and k = 2, and k = 3 is the coupled system
    for k in (1, 2, 3):
        rng = np.random.default_rng(42)
        sys = random_block_system(rng, nb, m, k)
        assert_matches_dense(sys, rng.normal(size=(nb, m, k)))


@settings(derandomize=True, database=None, deadline=None)
@given(k=st.sampled_from([1, 2, 3]), nb=st.integers(1, 4), m=st.integers(1, 6),
       data=st.data())
def test_block_solve_property_matches_dense(k, nb, m, data):
    # strictly diagonally dominant rows: nonsingular without any pivoting
    def blocks():
        return data.draw(hnp.arrays(np.float64, (nb, m, k, k),
                                    elements=st.floats(-1.0, 1.0)))
    L, D, U = blocks(), blocks(), blocks()
    off = (np.abs(L).sum(axis=-1) + np.abs(U).sum(axis=-1)
           + np.abs(D).sum(axis=-1) - np.abs(np.diagonal(D, axis1=-2, axis2=-1)))
    D[..., np.arange(k), np.arange(k)] = 1.0 + off
    rhs = data.draw(hnp.arrays(np.float64, (nb, m, k),
                               elements=st.floats(-1.0, 1.0)))
    assert_matches_dense(BlockTridiag(lower=L, diag=D, upper=U), rhs)


def test_block_solve_detects_singular_block():
    for k in (3, 2, 1):
        rng = np.random.default_rng(1)
        sys = random_block_system(rng, k=k)
        # a zero block row makes the matrix itself singular; pivoting hits the
        # zero pivot at the column's last row, so the message must not rely on it
        sys.diag[2, 5] = 0.0
        sys.lower[2, 5] = 0.0
        sys.upper[2, 5] = 0.0
        with pytest.raises(LinearSolveError, match="xi column 2, eta row 5"):
            sys.solve(rng.normal(size=(4, 8, k)))


@pytest.mark.parametrize("blocks,rhs", [
    ((4, 8, 2, 2), (4, 8, 3)),    # rhs last axis is not the block size
    ((4, 8, 2, 3), (4, 8, 2)),    # non-square blocks
], ids=["rhs-axis", "non-square"])
def test_block_solve_rejects_mismatched_shapes(blocks, rhs):
    sys = BlockTridiag(lower=np.zeros(blocks), diag=np.ones(blocks),
                       upper=np.zeros(blocks))
    with pytest.raises(LinearSolveError,
                       match=re.escape(f"blocks {blocks}") + ".*"
                       + re.escape(f"rhs {rhs}")):
        sys.solve(np.ones(rhs))


def test_block_solve_pivots_past_a_singular_diagonal_block():
    # D - L cp vanishes in block row 5 of column 2, so elimination without
    # pivoting breaks down there, but the matrix itself is nonsingular; k = 1
    # takes the tridiagonal solver's row interchanges, k >= 2 the band's
    for k in (1, 2, 3):
        rng = np.random.default_rng(1)
        sys = random_block_system(rng, k=k)
        sys.diag[2, 5] = 0.0
        sys.lower[2, 5] = 0.0
        assert_matches_dense(sys, rng.normal(size=(4, 8, k)))


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
# the march's named solvers against the generic block solver

def eta_blocks(F, B, dt, deta):
    """L, D, U (nx, m, k, k) from k x k entries, the expressions and order
    the named solvers keep: f = F/(2 deta), b = B/deta^2, L = -f - b,
    D = 2 b then + 1/dt on the diagonal, U = f - b."""
    k = len(F)
    L, D, U = (np.empty(F[0][0].shape + (k, k)) for _ in range(3))
    for i, j in np.ndindex(k, k):
        f, b = F[i][j] / (2.0 * deta), B[i][j] / deta ** 2
        L[..., i, j] = -f - b
        D[..., i, j] = 2.0 * b
        if i == j:
            D[..., i, i] += 1.0 / dt
        U[..., i, j] = f - b
    return L, D, U


def random_entries(rng, nx, m, k):
    """k x k entry grids (nx, m): F of either sign, B with a positive
    diagonal, as the frozen diffusion has."""
    F = [[rng.normal(size=(nx, m)) for _ in range(k)] for _ in range(k)]
    B = [[rng.uniform(0.5, 1.5, (nx, m)) if i == j
          else 0.3 * rng.normal(size=(nx, m)) for j in range(k)]
         for i in range(k)]
    return F, B


SOLVER_SHAPES = [(2, 1), (1, 4), (3, 2), (4, 6), (16, 30)]


@pytest.mark.parametrize("nx,m", SOLVER_SHAPES)
def test_solve_u1_equals_the_block_solver(nx, m):
    dt, deta = 0.01, 0.1
    rng = np.random.default_rng(nx * 100 + m)
    [[f00]], [[b00]] = random_entries(rng, nx, m, 1)
    rhs, far = rng.normal(size=(nx, m)), rng.normal(size=nx)
    L, D, U = eta_blocks([[f00]], [[b00]], dt, deta)
    want_rhs = rhs[..., None].copy()
    want_rhs[:, -1] -= U[:, -1, :, 0] * far[:, None]
    want = BlockTridiag(lower=L, diag=D, upper=U).solve(want_rhs)
    saved = rhs.copy()
    got = stepper.solve_u1(f00, b00, rhs, far, dt, deta)
    np.testing.assert_array_equal(got, want[..., 0])
    np.testing.assert_array_equal(rhs, saved)     # folds go into a copy


@pytest.mark.parametrize("nx,m", SOLVER_SHAPES)
def test_solve_theta_q_equals_the_block_solver(nx, m):
    dt, deta = 0.01, 0.1
    rng = np.random.default_rng(nx * 100 + m)
    F, B = random_entries(rng, nx, m, 2)
    rhs = rng.normal(size=(nx, m, 2))
    wall, far = rng.normal(size=nx), rng.normal(size=(nx, 2))
    # the wall theta and the far row fold into the right-hand side, the wall
    # q closure q0 = (4 q1 - q2) / 3 into rows 1 and 2
    L, D, U = eta_blocks(F, B, dt, deta)
    want_rhs = rhs.copy()
    want_rhs[:, 0] -= L[:, 0, :, 0] * wall[:, None]
    D[:, 0, :, 1] += 4.0 / 3.0 * L[:, 0, :, 1]
    U[:, 0, :, 1] -= 1.0 / 3.0 * L[:, 0, :, 1]
    want_rhs[:, -1] -= (U[:, -1] @ far[:, :, None])[..., 0]
    want = BlockTridiag(lower=L, diag=D, upper=U).solve(want_rhs)
    saved = rhs.copy()
    got = stepper.solve_theta_q(F, B, rhs, wall, far, dt, deta)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(rhs, saved)     # folds go into a copy


def u1_system(nx=4, m=8, seed=9):
    rng = np.random.default_rng(seed)
    [[f00]], [[b00]] = random_entries(rng, nx, m, 1)
    return f00, b00, rng.normal(size=(nx, m)), rng.normal(size=nx)


def theta_q_system(nx=4, m=8, seed=9):
    rng = np.random.default_rng(seed)
    F, B = random_entries(rng, nx, m, 2)
    return (F, B, rng.normal(size=(nx, m, 2)), rng.normal(size=nx),
            rng.normal(size=(nx, 2)))


@pytest.mark.parametrize("where", ["entry", "rhs"])
def test_named_solvers_reject_nan(where):
    f00, b00, rhs, far = u1_system()
    (f00 if where == "entry" else rhs)[1, 6] = np.nan
    with pytest.raises(LinearSolveError, match="^non-finite .* xi column 1$"):
        stepper.solve_u1(f00, b00, rhs, far, 0.01, 0.1)
    F, B, rhs, wall, far = theta_q_system()
    (B[1][0] if where == "entry" else rhs[..., 1])[2, 3] = np.nan
    with pytest.raises(LinearSolveError, match="^non-finite .* xi column 2$"):
        stepper.solve_theta_q(F, B, rhs, wall, far, 0.01, 0.1)


@pytest.mark.parametrize("col,row", [(2, 7), (1, 0)])
def test_solve_u1_names_a_singular_row(col, row):
    # with dt = 1/2, deta = 1 and b00 = -1, D = 2 b + 1/dt is exactly 0;
    # f00 = 2 (last row) or -2 (first row) zeroes the one off-diagonal entry
    # inside the matrix too, so that whole row vanishes
    f00, b00, rhs, far = u1_system()
    f00[col, row], b00[col, row] = (2.0 if row else -2.0), -1.0
    with pytest.raises(LinearSolveError,
                       match=f"^singular implicit system at xi column {col}, "
                             f"eta row {row} "):
        stepper.solve_u1(f00, b00, rhs, far, 0.5, 1.0)


@pytest.mark.parametrize("col,row,r", [(2, 7, 1), (3, 7, 0), (1, 0, 0)])
def test_solve_theta_q_names_a_singular_row(col, row, r):
    # component r's equation at that row vanishes: its diagonal entry as in
    # the u1 case, its off-diagonal entries (and so the wall q fold) zero
    F, B, rhs, wall, far = theta_q_system()
    F[r][r][col, row], B[r][r][col, row] = (2.0 if row else -2.0), -1.0
    F[r][1 - r][col, row] = B[r][1 - r][col, row] = 0.0
    with pytest.raises(LinearSolveError,
                       match=f"^singular implicit system at xi column {col}, "
                             f"eta row {row} "):
        stepper.solve_theta_q(F, B, rhs, wall, far, 0.5, 1.0)


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
    entries = {f.name: np.zeros(shape) for f in dataclasses.fields(FrozenCoeffs)}
    entries.update(u1=np.full(shape, c0), b00=np.full(shape, b0),
                   b11=np.full(shape, b0), b22=np.full(shape, b0),
                   adv_radius=np.full(shape, abs(c0)))
    return FrozenCoeffs(**entries)


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

    v = v.as_array()
    for k in range(g.nsteps):
        v = _step_arrays(v, k + 1, frozen, outflow, PARAMS, g)
        u_oracle = np.linalg.solve(M, u_oracle / g.dt)
        np.testing.assert_allclose(v[:, 1:-1, 0],
                                   np.broadcast_to(u_oracle, (g.nx, m)),
                                   rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(v[..., 1], 1.0, atol=1e-13)
    np.testing.assert_allclose(v[..., 2], 0.5, atol=1e-13)


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
    v = v.as_array()
    for k in range(g.nsteps):
        v = _step_arrays(v, k + 1, frozen, outflow, PARAMS, g)
        u1 = v[..., 0]
        factor *= rho
        np.testing.assert_allclose(
            u1, np.broadcast_to(factor * w, u1.shape),
            rtol=1e-12, atol=1e-13)
        assert u1.min() >= -1e-13        # no undershoot: maximum principle
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
    out = _step_arrays(v.as_array(), 1, frozen, outflow, PARAMS, g)
    sym = np.sin(g.dxi) / g.dxi
    want = w[None, :] * (np.sin(g.xi) - c0 * g.dt * sym * np.cos(g.xi))[:, None]
    np.testing.assert_allclose(out[:, 1:-1, 0], want[:, 1:-1],
                               rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(out[..., 1], 1.0, atol=1e-14)
    np.testing.assert_allclose(out[..., 2], 0.5, atol=1e-14)


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
    b = base.as_array()
    s0 = _step_arrays(b, 1, frozen, outflow, PARAMS, g)
    s1 = _step_arrays(b + w, 1, frozen, outflow, PARAMS, g)
    s2 = _step_arrays(b + 2 * w, 1, frozen, outflow, PARAMS, g)
    np.testing.assert_allclose(s1 - s0, s2 - s1, rtol=0, atol=1e-12)


def dense_coeffs(v, outflow, P_t, P_xi, g, k=0):
    """A, B, F, G at a coefficient level v as dense (nx, neta, 3, 3) matrices
    from coeffs.matrices, the layout the stepper does not use."""
    dv = apply_derivative(v, g, axis="eta", order=1)
    m = coeffs.matrices(v, dv, outflow.P[k][:, None], P_t[:, None],
                        P_xi[:, None], PARAMS)
    return m["A"], m["B"], m["F"], m["G"]


def coupled_step(v, dense, outflow, g, source):
    """One step as the coupled 3x3 block system with the wall and far rows
    folded in, solved densely column by column."""
    dt, deta, sl = g.dt, g.deta, slice(1, -1)
    k_new = outflow.time_index(g.dt)
    A, B, F, G = dense
    dxv = apply_derivative(v, g, axis="xi", order=1)
    rhs = (v / dt - np.einsum("xeij,xej->xei", A, dxv)
           - np.einsum("xeij,xej->xei", G, v) + source)[:, sl]
    F, B = F[:, sl], B[:, sl]
    L = -F / (2.0 * deta) - B / deta ** 2
    D = np.eye(3) / dt + 2.0 * B / deta ** 2
    U = F / (2.0 * deta) - B / deta ** 2
    rhs[:, 0] -= L[:, 0, :, 1] * outflow.theta_star[k_new][:, None]
    D[:, 0, :, 2] += 4.0 / 3.0 * L[:, 0, :, 2]
    U[:, 0, :, 2] -= 1.0 / 3.0 * L[:, 0, :, 2]
    rhs[:, -1] -= (U[:, -1] @ outflow.far[k_new][..., None])[..., 0]
    dense = BlockTridiag(lower=L, diag=D, upper=U).dense()
    return np.stack([np.linalg.solve(dense[x], rhs[x].reshape(-1))
                     for x in range(g.nx)]).reshape(rhs.shape)


def test_step_matches_coupled_block_system():
    # the u1 solve, then the (theta, q) solve with the u1 couplings F[1:, 0]
    # on its right-hand side, is the coupled system solved exactly
    g = small_grid(nx=6, neta=12)
    outflow = constant_outflow(g, U=0.2, Theta=1.1, H=1.2, P=2.0,
                               theta_star=0.9)
    rng = np.random.default_rng(17)
    v = np.stack([rng.uniform(-0.3, 0.3, (g.nx, g.neta)),
                  rng.uniform(0.8, 1.2, (g.nx, g.neta)),
                  rng.uniform(0.5, 0.9, (g.nx, g.neta))], axis=-1)
    P_t, P_xi = rng.normal(size=g.nx), rng.normal(size=g.nx)
    frozen = FrozenCoeffs.from_state(v, outflow.P[0], P_t, P_xi, PARAMS, g)
    assert np.min(np.abs([frozen.f10[:, 1:-1], frozen.f20[:, 1:-1]])) > 0.0
    source = rng.normal(size=v.shape)
    got = _step_arrays(v, 1, frozen, outflow, PARAMS, g, source=source)
    dense = dense_coeffs(v, outflow, P_t, P_xi, g)
    np.testing.assert_allclose(got[:, 1:-1],
                               coupled_step(v, dense, outflow, g, source),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(
        got, _set_boundary_rows(got.copy(), outflow.theta_star[1],
                                outflow.far[1]))


def dense_step(v, dense, outflow, g, source):
    """One step written longhand from the dense matrices with np.einsum, the
    eta weights spelled out per block."""
    A, B, F, G = dense
    dt, deta, sl = g.dt, g.deta, slice(1, -1)
    dxv = apply_derivative(v, g, axis="xi", order=1)
    expl = (np.einsum("xeij,xej->xei", A, dxv)
            + np.einsum("xeij,xej->xei", G, v))
    rhs_full = v / dt - expl + source
    F, B = F[:, sl], B[:, sl]
    out = _set_boundary_rows(np.zeros_like(v), outflow.theta_star[1],
                             outflow.far[1])
    f, b = F[..., :1, :1] / (2.0 * deta), B[..., :1, :1] / deta ** 2
    U = f - b
    rhs = rhs_full[:, sl, :1].copy()
    rhs[:, -1] -= U[:, -1, :, 0] * out[:, -1, :1]
    out[:, sl, :1] = BlockTridiag(lower=-f - b, diag=1.0 / dt + 2.0 * b,
                                  upper=U).solve(rhs)
    f, b = F[..., 1:, 1:] / (2.0 * deta), B[..., 1:, 1:] / deta ** 2
    L, D, U = -f - b, np.eye(2) / dt + 2.0 * b, f - b
    rhs = rhs_full[:, sl, 1:] - F[..., 1:, 0] * (
        (out[:, 2:, :1] - out[:, :-2, :1]) / (2.0 * deta))
    rhs[:, 0] -= L[:, 0, :, 0] * out[:, 0, 1:2]
    D[:, 0, :, 1] += 4.0 / 3.0 * L[:, 0, :, 1]
    U[:, 0, :, 1] -= 1.0 / 3.0 * L[:, 0, :, 1]
    rhs[:, -1] -= (U[:, -1] @ out[:, -1, 1:, None])[..., 0]
    out[:, sl, 1:] = BlockTridiag(lower=L, diag=D, upper=U).solve(rhs)
    out[:, 0, 2] = (4.0 * out[:, 1, 2] - out[:, 2, 2]) / 3.0
    return out


def random_level(rng, g, u=0.3):
    return np.stack([rng.uniform(-u, u, (g.nx, g.neta)),
                     rng.uniform(0.8, 1.2, (g.nx, g.neta)),
                     rng.uniform(0.5, 0.9, (g.nx, g.neta))], axis=-1)


@pytest.mark.parametrize("nx,neta,seed", [(6, 12, 0), (16, 32, 1), (5, 8, 2)])
def test_step_matches_dense_formulation_bit_for_bit(nx, neta, seed):
    # the nine explicit products and the entry-wise eta blocks keep the
    # operation order of the dense formulation: every sum over j runs in
    # order, and the dropped terms are exact zeros
    g = small_grid(nx=nx, neta=neta)
    outflow = constant_outflow(g, U=0.2, Theta=1.1, H=1.2, P=2.0,
                               theta_star=0.9)
    rng = np.random.default_rng(seed)
    coeff, v = random_level(rng, g), random_level(rng, g)
    P_t, P_xi = rng.normal(size=g.nx), rng.normal(size=g.nx)
    source = rng.normal(size=v.shape)
    frozen = FrozenCoeffs.from_state(coeff, outflow.P[0], P_t, P_xi, PARAMS, g)
    dense = dense_coeffs(coeff, outflow, P_t, P_xi, g)
    np.testing.assert_array_equal(
        _step_arrays(v, 1, frozen, outflow, PARAMS, g, source=source),
        dense_step(v, dense, outflow, g, source))
    np.testing.assert_array_equal(
        _step_arrays(v, 1, frozen, outflow, PARAMS, g),
        dense_step(v, dense, outflow, g, 0.0))


def test_theta_q_band_reaches_dgbsv_without_a_copy(monkeypatch):
    # the band is written in LAPACK's Fortran order and factored in place,
    # so the wrapper neither copies it nor returns a second array
    g = small_grid(nx=6, neta=12)
    outflow = constant_outflow(g, U=0.2, Theta=1.1, H=1.2, P=2.0,
                               theta_star=0.9)
    rng = np.random.default_rng(6)
    coeff, v = random_level(rng, g), random_level(rng, g)
    frozen = FrozenCoeffs.from_state(coeff, outflow.P[0], outflow.P_t[0],
                                     outflow.P_xi[0], PARAMS, g)
    calls, dgbsv = [], stepper.dgbsv

    def spy(kl, ku, ab, b, **kwargs):
        out = dgbsv(kl, ku, ab, b, **kwargs)
        calls.append((ab.shape, ab.flags.f_contiguous,
                      np.shares_memory(out[0], ab)))
        return out

    monkeypatch.setattr(stepper, "dgbsv", spy)
    _step_arrays(v, 1, frozen, outflow, PARAMS, g)
    assert calls == [((10, 2 * g.nx * (g.neta - 2)), True, True)]


def test_step_peak_memory_stays_below_20_levels():
    # frozen entries, the explicit products and the band written straight
    # from them, solved in place (19.3 levels); the (nx, m, k, k) eta blocks
    # beside the band took 22.2, the dense 3x3 layout alone 12 level-sized
    # arrays, a band copied to Fortran order inside the solve 28.6, and an
    # |band| copy for the pivot scale 27.0
    g = make_grid(32, 64, 3.0, 0.01, 0.05)
    outflow = constant_outflow(g, U=0.2, Theta=1.1, H=1.2, P=2.0,
                               theta_star=0.9)
    rng = np.random.default_rng(4)
    coeff, v = random_level(rng, g), random_level(rng, g)
    P_t, P_xi = rng.normal(size=g.nx), rng.normal(size=g.nx)

    def step():
        frozen = FrozenCoeffs.from_state(coeff, outflow.P[0], P_t, P_xi,
                                         PARAMS, g)
        _step_arrays(v, 1, frozen, outflow, PARAMS, g)

    _, peak = traced_peak(step)
    assert peak / v.nbytes < 20.0


def test_cfl_refusal():
    g = small_grid(nx=8, dt=0.5, t_end=0.5)   # dxi ~ 0.785, bound 0.39 at radius 1
    outflow = constant_outflow(g)
    frozen = diag_coeffs(g, c0=1.0)
    v = State.constant(g, 0.0, 1.0, 0.5)
    assert g.dt > CFL_CONSTANT * g.dxi / 1.0
    with pytest.raises(CFLError):
        _step_arrays(v.as_array(), 1, frozen, outflow, PARAMS, g)


def test_cfl_refusal_names_the_fastest_node():
    g = small_grid(nx=8, dt=0.5, t_end=0.5)
    outflow = constant_outflow(g)
    frozen = diag_coeffs(g, c0=0.1)          # within the bound everywhere
    frozen.adv_radius[5, 7] = 3.0            # but one node
    v = State.constant(g, 0.0, 1.0, 0.5)
    with pytest.raises(CFLError, match=r"spectral radius 3 at xi column 5, "
                                       r"eta row 7\)$"):
        _step_arrays(v.as_array(), 1, frozen, outflow, PARAMS, g)


# ---------------------------------------------------------------------------
# boundary conditions

def test_boundary_rows_are_enforced_and_idempotent():
    g = small_grid()
    outflow = constant_outflow(g, U=0.2, Theta=1.1, H=1.2, P=2.0,
                               theta_star=0.9)
    rng = np.random.default_rng(8)
    v = State.from_array(rng.uniform(0.3, 0.6, size=(g.nx, g.neta, 3)))

    def set_rows(s):
        return State.from_array(
            _set_boundary_rows(s.as_array(), outflow.theta_star[0],
                               outflow.far[0]), time=s.time)

    b = set_rows(v)
    np.testing.assert_array_equal(b.u1[:, 0], 0.0)
    np.testing.assert_allclose(b.theta[:, 0], 0.9)
    np.testing.assert_allclose(b.q[:, 0], (4 * b.q[:, 1] - b.q[:, 2]) / 3)
    np.testing.assert_allclose(b.u1[:, -1], 0.2)
    np.testing.assert_allclose(b.theta[:, -1], 1.1)
    np.testing.assert_allclose(b.q[:, -1], 0.5 * 1.2 ** 2)
    bb = set_rows(b)
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
        s = traj.data[k]
        fixed = _set_boundary_rows(s.copy(), outflow.theta_star[k],
                                   outflow.far[k])
        np.testing.assert_array_equal(s, fixed)


def test_march_rejects_mismatched_coefficient_trajectory():
    g = small_grid()
    outflow = constant_outflow(g)
    v = State.constant(g, 0.0, 1.0, 0.5)
    bad = Trajectory(data=np.repeat(v.as_array()[None], 3, axis=0),
                     times=np.arange(3) * g.dt)
    with pytest.raises(GridSizingError):
        solve_linear_problem(bad, v, outflow, PARAMS, g)


def test_march_overwrites_its_coefficient_trajectory_in_place():
    # each level k of the coefficient trajectory is read by the step off
    # level k only, so the march stores the new level k in its slot; the
    # result must equal a march of _step_arrays over a saved copy
    g = small_grid()
    outflow = constant_outflow(g, U=0.2, Theta=1.1, H=1.2, P=2.0,
                               theta_star=0.9)
    rng = np.random.default_rng(21)
    base = State.constant(g, 0.0, 1.0, 0.5).as_array()
    coeff = Trajectory(
        data=base + 0.02 * rng.normal(size=(g.nsteps + 1,) + base.shape),
        times=g.times.copy())
    saved = coeff.data.copy()
    v0 = State.from_array(base + 0.02 * rng.normal(size=base.shape))
    state = _set_boundary_rows(v0.as_array(), outflow.theta_star[0],
                               outflow.far[0])
    ref = [state]
    for k in range(g.nsteps):
        frozen = FrozenCoeffs.from_state(saved[k], outflow.P[k], outflow.P_t[k],
                                         outflow.P_xi[k], PARAMS, g)
        state = _step_arrays(state, k + 1, frozen, outflow, PARAMS, g)
        ref.append(state)
    ref = np.stack(ref)

    seen = []

    def measure(k, new, old):
        # slot k still holds the old level; the slots below it the new ones
        np.testing.assert_array_equal(coeff.data[k], saved[k])
        np.testing.assert_array_equal(coeff.data[:k], ref[:k])
        np.testing.assert_array_equal(old, saved[k])
        np.testing.assert_array_equal(new, ref[k])
        seen.append(k)

    traj = solve_linear_problem(coeff, v0, outflow, PARAMS, g, measure=measure)
    assert np.shares_memory(traj.data, coeff.data)
    assert seen == list(range(g.nsteps + 1))
    np.testing.assert_array_equal(traj.data, ref)
    assert not np.array_equal(saved, ref)


def test_frozen_coeffs_numeric_radius_matches_closed_form():
    g = small_grid()
    outflow = constant_outflow(g)
    v = State.constant(g, 0.3, 1.2, 0.4).as_array()
    fc = FrozenCoeffs.from_state(v, outflow.P[0], outflow.P_t[0],
                                 outflow.P_xi[0], PARAMS, g)
    A, _, _, _ = dense_coeffs(v, outflow, outflow.P_t[0], outflow.P_xi[0], g)
    numeric_radius = np.max(np.abs(np.linalg.eigvals(A)), axis=-1)
    np.testing.assert_allclose(fc.adv_radius, numeric_radius,
                               rtol=1e-12, atol=1e-12)


def test_frozen_coeffs_entries_are_contiguous_grid_arrays():
    # the march's arithmetic runs on these; strided entries would slow it
    g = small_grid()
    outflow = constant_outflow(g)
    v = State.constant(g, 0.3, 1.2, 0.4).as_array()
    fc = FrozenCoeffs.from_state(v, outflow.P[0], outflow.P_t[0],
                                 outflow.P_xi[0], PARAMS, g)
    for field in dataclasses.fields(FrozenCoeffs):
        value = getattr(fc, field.name)
        assert value.shape == (g.nx, g.neta), field.name
        assert value.flags.c_contiguous, field.name


@pytest.mark.parametrize("node,value,needle", [
    ((2, 3, 1), np.nan, "theta = nan"),
    ((4, 5, 2), np.nan, "q = nan"),
], ids=["theta", "q"])
def test_frozen_coeffs_reject_nan_state(node, value, needle):
    # a NaN theta or q must reach the degeneracy guard and name its node
    g = small_grid()
    outflow = constant_outflow(g, P=1.5)
    v = State.constant(g, 0.0, 1.0, 0.5).as_array().copy()
    v[node] = value
    x, j = node[:2]
    with pytest.raises(DegenerateStateError,
                       match=f"^{needle} .* at xi column {x}, eta row {j}$"):
        FrozenCoeffs.from_state(v, outflow.P[0], outflow.P_t[0],
                                outflow.P_xi[0], PARAMS, g)


@pytest.mark.parametrize("node,value,needle", [
    ((2, 3, 1), -0.4, "theta = -4.000e-01"),   # negative temperature
    ((4, 5, 2), 2.0, "P - q = -5.000e-01"),    # q beyond P
], ids=["theta", "P-q"])
def test_frozen_coeffs_refuse_inadmissible_state(node, value, needle):
    # coefficients are frozen only from states inside the set; there is no
    # clamp that would push a state back in and freeze another scheme
    assert "clamp" not in inspect.signature(FrozenCoeffs.from_state).parameters
    g = small_grid()
    outflow = constant_outflow(g, P=1.5)
    v = State.constant(g, 0.0, 1.0, 0.5).as_array().copy()
    v[node] = value
    x, j = node[:2]
    with pytest.raises(DegenerateStateError,
                       match=f"^{re.escape(needle)} .* at xi column {x}, "
                             f"eta row {j}$"):
        FrozenCoeffs.from_state(v, outflow.P[0], outflow.P_t[0],
                                outflow.P_xi[0], PARAMS, g)


@pytest.mark.parametrize("error", [DegenerateStateError, CFLError,
                                   LinearSolveError])
def test_march_errors_name_the_time_level(error):
    g = small_grid()
    outflow = constant_outflow(g)
    v = State.constant(g, 0.0, 1.0, 0.5)
    coeff = constant_trajectory(g, v)
    source = None
    if error is DegenerateStateError:
        coeff.data[2, 3, 4, 1] = 0.0          # theta at zero in level 2
    elif error is CFLError:
        coeff.data[2, ..., 0] = 100.0         # u1 far past the CFL bound
    else:
        source = np.zeros((g.nsteps + 1,) + coeff.data.shape[1:])
        source[3, 1, 4, 2] = np.nan           # enters the step off level 2
    with pytest.raises(error, match="^time level 2: "):
        solve_linear_problem(coeff, v, outflow, PARAMS, g, source=source)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_march_rejects_non_finite_frozen_u1(value):
    # u1 has no denominator guard; without its own check a NaN skipped the
    # CFL refusal and surfaced as a solver error, an inf as a CFL error
    g = small_grid()
    outflow = constant_outflow(g)
    v = State.constant(g, 0.0, 1.0, 0.5)
    coeff = constant_trajectory(g, v)
    coeff.data[2, 3, 5, 0] = value
    with pytest.raises(DegenerateStateError,
                       match=r"^time level 2: u1 = (nan|inf) is not finite "
                             r"at xi column 3, eta row 5$"):
        solve_linear_problem(coeff, v, outflow, PARAMS, g)


def _names(tree):
    """Every imported, attribute and plain name under an ast node."""
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for a in node.names]
    return names + [node.attr if isinstance(node, ast.Attribute) else node.id
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Attribute, ast.Name))]


def test_stepper_keeps_the_dense_coefficient_path_out_of_the_march():
    # the march reads the nonzero entries only; the dense 3x3 matrices serve
    # the identity checks and the tests
    tree = ast.parse((SRC / "stepper.py").read_text())
    names = _names(tree)
    assert [n for n in names if n in ("einsum", "matrices")] == []
    # the step writes each implicit system straight from the entries into
    # its named solver; the generic (nbatch, m, k, k) blocks stay out of it,
    # and out of the solvers' error paths
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    assert {"BlockTridiag", "_eta_weights"}.isdisjoint(
        _names(functions["_step_arrays"]))
    assert {"solve_u1", "solve_theta_q"} <= set(
        _names(functions["_step_arrays"]))
    for name in ("solve_u1", "solve_theta_q"):
        assert "BlockTridiag" not in _names(functions[name]), name
    assert "_eta_weights" not in names


def test_production_code_takes_the_operator_off_the_dense_matrices():
    # sources, compatibility derivatives and residuals go through
    # coeffs.operator, which reads the named entries; the dense view
    # coeffs.matrices is left to the identity checks, the energy functional
    # (which reads S) and the tests
    def names_in(module, function):
        [node] = [node for node in ast.parse((SRC / module).read_text()).body
                  if isinstance(node, ast.FunctionDef) and node.name == function]
        return _names(node)

    for module, function in (("mms.py", "manufacture_source"),
                             ("picard.py", "compatibility_derivatives"),
                             ("diagnostics.py", "residual_transformed"),
                             ("coeffs.py", "operator")):
        assert "matrices" not in names_in(module, function), function
    assert "einsum" not in names_in("coeffs.py", "operator")


def test_lapack_is_imported_only_by_the_stepper():
    # the band storage format is the stepper's business alone; it reaches
    # LAPACK through scipy's f2py module _flapack, and no module imports
    # scipy.linalg or anything under it
    importers, namers = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                names = []
            if any(f"{n}.".startswith("scipy.linalg.") for n in names):
                importers.add(path.name)
            # identifiers, imported names and string literals alike
            text = [getattr(node, f, None) for f in ("id", "attr", "name",
                                                     "asname", "value")]
            if any(isinstance(t, str) and "_flapack" in t for t in text):
                namers.add(path.name)
    assert importers == set()
    assert namers == {"stepper.py"}


def test_wall_closure_is_named_only_by_the_stepper():
    # the wall q closure is a boundary row, and the stepper's one
    # boundary-row writer owns it; every other module writes the rows
    # through that writer
    namers = {path.name for path in SRC.glob("*.py")
              if {"wall_q", "WALL_Q_WEIGHTS"} & set(
                  _names(ast.parse(path.read_text())))}
    assert namers == {"stepper.py"}
