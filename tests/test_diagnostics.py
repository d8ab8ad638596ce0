"""Norms, energy functional, residual checks, outflow consistency, trace bound.

Exact discrete facts used as oracles:
  * the periodic sum of sin^2 over equispaced nodes is nx/2, so the L2 norm
    of sin(xi) is exactly sqrt(pi * eta_max);
  * the centered stencils act on sin(xi) as multiplication by the symbols
    sin(dxi)/dxi and (2 - 2 cos dxi)/dxi^2;
  * the trapezoid rule integrates eta^2 with error exactly L * deta^2 / 6;
  * centered and one-sided second-order time differences are exact on traces
    linear in t.
"""

import re

import numpy as np
import pytest

from mhbl import (
    DegenerateStateError,
    GridSizingError,
    MissingTimeLevelError,
    OutflowSpec,
    Params,
    State,
    make_grid,
    sample_outflow,
)
from mhbl.diagnostics import (
    discrete_norm,
    energy_functional,
    outflow_consistency,
    residual_transformed,
    trace_check,
)
from mhbl import coeffs
from mhbl.stepper import Trajectory, apply_derivative

PARAMS = Params(mu=0.1, kappa=0.1, nu=0.1, R=1.0, cV=1.0, delta=0.05)


# ---------------------------------------------------------------------------
# norms

def test_norm_spec_validation():
    grid = make_grid(8, 16, 4.0, 0.1, 0.5)
    f = np.ones((8, 16))
    discrete_norm(f, 0, grid), discrete_norm(f, 2, grid)
    with pytest.raises(GridSizingError,
                       match="norm order k must be 0, 1 or 2, got 3"):
        discrete_norm(f, 3, grid)
    with pytest.raises(GridSizingError):
        discrete_norm(f, -1, grid)


def test_norm_of_constant_is_exact():
    grid = make_grid(12, 33, 5.0, 0.1, 0.5)
    f = np.full((12, 33), 0.7)
    want = 0.7 * np.sqrt(2.0 * np.pi * 5.0)
    for k in (0, 1, 2):
        # all derivative terms vanish exactly on constants
        assert discrete_norm(f, k, grid) == pytest.approx(
            want, rel=1e-15)


def test_norm_of_sine_matches_stencil_symbols():
    grid = make_grid(16, 33, 5.0, 0.1, 0.5)
    f = np.broadcast_to(np.sin(grid.xi)[:, None], (16, 33)).copy()
    base = np.pi * grid.eta_max
    sym1 = np.sin(grid.dxi) / grid.dxi
    sym2 = (2.0 - 2.0 * np.cos(grid.dxi)) / grid.dxi ** 2
    assert discrete_norm(f, 0, grid) == pytest.approx(
        np.sqrt(base), rel=1e-13)
    assert discrete_norm(f, 1, grid) == pytest.approx(
        np.sqrt(base * (1.0 + sym1 ** 2)), rel=1e-13)
    assert discrete_norm(f, 2, grid) == pytest.approx(
        np.sqrt(base * (1.0 + sym1 ** 2 + sym2 ** 2)), rel=1e-13)


def test_norm_of_linear_eta_has_exact_trapezoid_error():
    # trapezoid integrates eta^2 as L^3/3 + L deta^2 / 6 exactly
    grid = make_grid(8, 21, 4.0, 0.1, 0.5)
    f = np.broadcast_to(grid.eta[None, :], (8, 21)).copy()
    L, d = grid.eta_max, grid.deta
    want0 = np.sqrt(2.0 * np.pi * (L ** 3 / 3.0 + L * d ** 2 / 6.0))
    assert discrete_norm(f, 0, grid) == pytest.approx(want0, rel=1e-14)
    # d_eta f = 1 and d_eta^2 f = 0 exactly for the second-order stencils
    want1 = np.sqrt(want0 ** 2 + 2.0 * np.pi * L)
    assert discrete_norm(f, 1, grid) == pytest.approx(want1, rel=1e-14)


def test_norm_of_a_stack_is_each_field_norm_to_the_bit():
    # the Picard monitor measures three components in one call
    grid = make_grid(8, 21, 4.0, 0.1, 0.5)
    stack = np.random.default_rng(5).normal(size=(3, 8, 21))
    for k in (0, 1, 2):
        got = discrete_norm(stack, k, grid)
        assert got.shape == (3,)
        singles = [discrete_norm(f, k, grid) for f in stack]
        assert all(type(x) is float for x in singles)
        assert got.tolist() == singles


def test_norm_shape_validation():
    grid = make_grid(8, 21, 4.0, 0.1, 0.5)
    for shape in ((8, 20), (3, 8, 20), (21,)):
        with pytest.raises(GridSizingError):
            discrete_norm(np.zeros(shape), 0, grid)


# ---------------------------------------------------------------------------
# energy functional

def test_energy_zero_iff_zero_and_matches_longhand():
    rng = np.random.default_rng(7)
    grid = make_grid(6, 12, 4.0, 0.1, 0.5)
    vbar = np.stack([0.1 * np.ones((6, 12)), np.ones((6, 12)),
                     0.5 * np.ones((6, 12))], axis=-1)
    frozen = State(u1=0.2 + 0.05 * rng.random((6, 12)),
                   theta=1.0 + 0.2 * rng.random((6, 12)),
                   q=0.4 + 0.1 * rng.random((6, 12)))
    P_row = np.full(6, 1.5)

    v_eq = State(u1=vbar[..., 0], theta=vbar[..., 1], q=vbar[..., 2])
    assert energy_functional(v_eq, vbar, frozen, 1, grid, PARAMS,
                             P_row) == pytest.approx(0.0, abs=1e-15)

    v = State(u1=vbar[..., 0] + 0.1 * rng.standard_normal((6, 12)),
              theta=vbar[..., 1] + 0.1 * rng.standard_normal((6, 12)),
              q=vbar[..., 2] + 0.05 * rng.standard_normal((6, 12)))
    got = energy_functional(v, vbar, frozen, 1, grid, PARAMS, P_row)
    assert got > 0.0

    # longhand: loop over multi-indices and nodes
    S = coeffs.matrices(frozen.as_array(), np.zeros((6, 12, 3)),
                        P_row[:, None], 0.0, 0.0, PARAMS)["S"]
    w = v.as_array() - vbar
    weights = grid.eta_weights()
    total = 0.0
    for a1, a2 in ((0, 0), (0, 1), (1, 0)):
        dw = w
        if a1:
            dw = apply_derivative(dw, grid, axis="xi", order=a1)
        if a2:
            dw = apply_derivative(dw, grid, axis="eta", order=a2)
        for i in range(6):
            for j in range(12):
                total += (dw[i, j] @ S[i, j] @ dw[i, j]) * weights[j] * grid.dxi
    assert got == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# transformed-system residual

def constant_traj(grid, u1=0.0, theta=1.0, q=0.5):
    data = np.empty((grid.nsteps + 1, grid.nx, grid.neta, 3))
    data[..., 0], data[..., 1], data[..., 2] = u1, theta, q
    return Trajectory(data=data, times=grid.times.copy())


def test_residual_vanishes_on_constant_trajectory():
    grid = make_grid(8, 16, 4.0, 0.01, 0.05)
    data = sample_outflow(OutflowSpec.constant(
        U=0.0, Theta=1.0, Hfield=1.0, P=1.5, theta_star=1.0), grid)
    rep = residual_transformed(constant_traj(grid), data, PARAMS, grid)
    assert rep.equations == ("tangential momentum", "temperature",
                             "tangential field")
    assert np.all(rep.max_norm <= 1e-12)
    assert np.all(rep.l2_norm <= 1e-12)


def test_residual_recovers_linear_drift_exactly():
    # v = v0 + t c, xi- and eta-independent, constant outflow: every term of
    # the residual vanishes except the exact centered time derivative c
    grid = make_grid(8, 16, 4.0, 0.01, 0.05)
    data = sample_outflow(OutflowSpec.constant(
        U=0.0, Theta=1.0, Hfield=1.0, P=1.5, theta_star=1.0), grid)
    c = np.array([0.1, 0.2, -0.1])
    traj = constant_traj(grid)
    drift = traj.data + grid.times[:, None, None, None] * c
    traj = Trajectory(data=drift, times=grid.times.copy())
    rep = residual_transformed(traj, data, PARAMS, grid)
    np.testing.assert_allclose(rep.max_norm, np.abs(c), rtol=1e-11)


def test_residual_time_level_handling():
    grid = make_grid(8, 16, 4.0, 0.01, 0.05)
    data = sample_outflow(OutflowSpec.constant(
        U=0.0, Theta=1.0, Hfield=1.0, P=1.5, theta_star=1.0), grid)
    one = Trajectory(data=constant_traj(grid).data[:1],
                     times=grid.times[:1].copy())
    with pytest.raises(MissingTimeLevelError):
        residual_transformed(one, data, PARAMS, grid)
    two = Trajectory(data=constant_traj(grid).data[:2],
                     times=grid.times[:2].copy())
    rep = residual_transformed(two, data, PARAMS, grid)
    assert np.all(rep.max_norm <= 1e-12)


# ---------------------------------------------------------------------------
# outflow consistency

def test_constant_outflow_residuals_identically_zero():
    grid = make_grid(12, 16, 4.0, 0.01, 0.06)
    data = sample_outflow(OutflowSpec.constant(
        U=0.4, Theta=1.3, Hfield=1.1, P=2.0, theta_star=0.9), grid)
    rep = outflow_consistency(data, PARAMS)
    assert rep.fields.shape == (3, grid.nsteps + 1, grid.nx)
    assert np.all(rep.fields == 0.0)
    assert np.all(rep.max_norm == 0.0)


def test_defected_outflow_residual_matches_injected_defect():
    # Theta = 2 + 0.3 t with everything else constant leaves only the exact
    # time derivative in the temperature channel
    grid = make_grid(12, 16, 4.0, 0.01, 0.06)
    spec = OutflowSpec(U=0.0,
                       Theta=lambda t, xi: 2.0 + 0.3 * t + 0.0 * xi,
                       Hfield=1.0, P=1.5, theta_star=1.0)
    data = sample_outflow(spec, grid)
    rep = outflow_consistency(data, PARAMS)
    np.testing.assert_allclose(rep.fields[1], 0.3, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rep.fields[0], 0.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rep.fields[2], 0.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rep.max_norm, [0.0, 0.3, 0.0], atol=1e-12)


def test_degenerate_outflow_rejected():
    grid = make_grid(8, 16, 4.0, 0.01, 0.05)
    for P, where in (
            (1.0, "(0, 0)"),   # P - H^2/2 = -0.125 everywhere
            # P - H^2/2 = 0.075 - 10 t + 0.05 cos(xi): positive at t = 0; at
            # t = 0.01 first negative where cos(xi) < 1/2, at xi node 2 of 8
            (lambda t, xi: 1.2 - 10.0 * t + 0.05 * np.cos(xi), "(1, 2)")):
        data = sample_outflow(OutflowSpec(U=0.0, Theta=1.0, Hfield=1.5, P=P,
                                          theta_star=1.0), grid)
        with pytest.raises(DegenerateStateError,
                           match=re.escape(f"(time level, xi node) = {where}")):
            outflow_consistency(data, PARAMS)


# ---------------------------------------------------------------------------
# trace inequality

def trace_grid(neta):
    return make_grid(16, neta, 16.0, 0.1, 0.5)


def test_trace_bound_sharp_field_near_equality():
    # exp(-eta) attains equality in the continuum; the discrete sides agree
    # to the quadrature error, tightening under refinement
    eps = []
    for neta in (64, 256):
        grid = trace_grid(neta)
        f = np.broadcast_to(np.exp(-grid.eta)[None, :], (16, neta)).copy()
        lhs, rhs = trace_check(f, grid)
        assert lhs == pytest.approx(np.sqrt(2.0 * np.pi), rel=1e-14)
        assert lhs <= rhs * 1.05
        eps.append(abs(lhs / rhs - 1.0))
    assert eps[1] < eps[0] / 4.0
    assert eps[1] < 0.05


def test_trace_bound_holds_for_shipped_fields():
    grid = trace_grid(256)
    eta = grid.eta[None, :]
    xi = grid.xi[:, None]
    fields = [
        (1.0 + 0.3 * np.cos(xi)) * np.exp(-eta),
        eta * np.exp(-2.0 * eta) * np.ones((16, 1)),
        (np.exp(-2.0 * eta) + 0.5 * np.exp(-eta)) * np.ones((16, 1)),
    ]
    for f in fields:
        lhs, rhs = trace_check(f, grid)
        assert lhs <= rhs * 1.05


def test_trace_zero_wall_value_trivially_bounded():
    grid = trace_grid(128)
    f = (grid.eta * np.exp(-2.0 * grid.eta))[None, :] * np.ones((16, 1))
    lhs, rhs = trace_check(f, grid)
    assert lhs == 0.0 and rhs > 0.0


def test_trace_requires_decay_and_matching_shape():
    grid = trace_grid(128)
    slow = (grid.eta * np.exp(-grid.eta))[None, :] * np.ones((16, 1))
    with pytest.raises(GridSizingError):
        trace_check(slow, grid)      # |f(eta_max)| / max|f| is 4.9e-6
    with pytest.raises(GridSizingError):
        trace_check(np.zeros((16, 5)), grid)
