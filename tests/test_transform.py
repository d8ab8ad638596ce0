"""Coordinate transform, pullback and physical-side residuals.

Closed-form oracles:
  * h10 = 1 + y gives eta(y) = y + y^2/2 exactly (trapezoid is exact on
    linear integrands),
  * h1_hat = 1 + eta gives psi(y) = e^y - 1,
  * constant h10 = H makes the whole round trip exact when the eta and y
    grids have the same node count,
  * the divergence and pressure constraints vanish identically on any
    pullback output by construction.
"""

import numpy as np
import pytest
from conftest import traced_peak
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline, PchipInterpolator

from mhbl import (
    GridSizingError,
    LinearSolveError,
    MissingTimeLevelError,
    NondegeneracyError,
    OutflowSpec,
    Params,
    State,
    make_grid,
    sample_outflow,
)
from mhbl import transform
from mhbl.stencils import bounded_diff, periodic_diff
from mhbl.transform import (
    RESIDUAL_MIDDLE,
    RESIDUAL_OUTER,
    PhysicalState,
    _cumtrapz,
    _interp_at_psi,
    _locate_in_eta,
    _spline_inverse,
    check_physical_constraints,
    initial_eta_map,
    pullback_physical,
    residual_original,
    stream_from_h1,
    time_differences,
)

PARAMS = Params(mu=1.0, kappa=1.0, nu=1.0, R=1.0, cV=1.0, delta=0.05)


# ---------------------------------------------------------------------------
# forward map

def test_eta_table_exact_for_linear_h1():
    # eta(y) = integral of (1 + s) ds = y + y^2/2, node-exact under trapezoid
    y = np.linspace(0.0, 2.0, 41)
    nx = 4
    grid = make_grid(nx, 16, 4.0, 0.1, 0.5)
    h10 = np.broadcast_to(1.0 + y, (nx, y.size)).copy()
    u10 = np.zeros_like(h10)
    th0 = np.ones_like(h10)
    v0, eta_table = initial_eta_map(u10, th0, h10, y, grid, delta=0.05)
    np.testing.assert_allclose(
        eta_table, np.broadcast_to(y + 0.5 * y ** 2, h10.shape),
        rtol=0, atol=1e-14)
    assert v0.time == 0.0
    # q = h1^2/2 and h1 is sampled off the same table
    np.testing.assert_allclose(v0.q, 0.5 * (2.0 * v0.q) , atol=0)  # tautology guard
    assert v0.q.min() >= 0.5 * 1.0 ** 2 - 1e-12


def test_initial_map_exact_for_constant_h1():
    # h10 = 2: eta = 2y; with neta = ny the node images coincide and the
    # hatted fields are exact samples u10(eta/2)
    y = np.linspace(0.0, 3.0, 25)
    nx = 6
    grid = make_grid(nx, 25, 6.0, 0.1, 0.5)
    x = 2.0 * np.pi * np.arange(nx) / nx
    u10 = np.sin(x)[:, None] * (y * np.exp(-y))[None, :]
    th0 = 1.0 + 0.1 * (y ** 2 / (1 + y ** 2))[None, :] * np.ones((nx, 1))
    h10 = np.full((nx, y.size), 2.0)
    v0, eta_table = initial_eta_map(u10, th0, h10, y, grid, delta=0.05)
    np.testing.assert_allclose(eta_table, np.broadcast_to(2.0 * y, (nx, y.size)),
                               atol=1e-14)
    np.testing.assert_allclose(v0.u1, u10, rtol=0, atol=1e-13)
    np.testing.assert_allclose(v0.theta, th0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(v0.q, 2.0, rtol=0, atol=1e-13)


def test_initial_map_rejects_degenerate_h1():
    y = np.linspace(0.0, 2.0, 21)
    grid = make_grid(4, 16, 4.0, 0.1, 0.5)
    h10 = np.full((4, 21), 0.01)   # below delta
    z = np.zeros_like(h10)
    with pytest.raises(NondegeneracyError):
        initial_eta_map(z, 1.0 + z, h10, y, grid, delta=0.05)


def test_initial_map_rejects_nan_h1():
    y = np.linspace(0.0, 2.0, 21)
    grid = make_grid(4, 16, 4.0, 0.1, 0.5)
    h10 = np.ones((4, 21))
    h10[2, 7] = np.nan
    z = np.zeros_like(h10)
    with pytest.raises(NondegeneracyError):
        initial_eta_map(z, 1.0 + z, h10, y, grid, delta=0.05)


def test_initial_map_validates_grid():
    grid = make_grid(4, 16, 4.0, 0.1, 0.5)
    y_bad = np.array([0.0, 0.1, 0.3, 0.35, 0.6])   # non-uniform
    z = np.zeros((4, 5))
    with pytest.raises(GridSizingError):
        initial_eta_map(z, 1.0 + z, 1.0 + z, y_bad, grid, delta=0.05)
    y_off = np.linspace(1.0, 2.0, 5)               # does not start at the wall
    with pytest.raises(GridSizingError):
        initial_eta_map(z, 1.0 + z, 1.0 + z, y_off, grid, delta=0.05)
    y = np.linspace(0.0, 2.0, 9)
    with pytest.raises(GridSizingError):
        initial_eta_map(np.zeros((4, 5)), np.ones((4, 5)), np.ones((4, 5)),
                        y, grid, delta=0.05)       # shape mismatch


# ---------------------------------------------------------------------------
# stream function

def test_stream_function_exponential_oracle():
    # d_y psi = 1 + psi with psi(0) = 0 has the solution psi = e^y - 1
    errs = []
    for neta, ny in ((129, 81), (257, 161)):
        grid = make_grid(4, neta, 8.0, 0.1, 0.5)
        h1_hat = np.broadcast_to(1.0 + grid.eta, (4, neta)).copy()
        y = np.linspace(0.0, 2.0, ny)
        psi = stream_from_h1(h1_hat, grid, y, delta=0.05)
        errs.append(np.max(np.abs(psi - (np.exp(y) - 1.0)[None, :])))
    assert errs[0] < 3e-3
    assert errs[0] / errs[1] > 3.0       # second-order drop under refinement


def test_stream_function_constant_h1_exact_and_monotone():
    grid = make_grid(4, 33, 6.0, 0.1, 0.5)
    h1_hat = np.full((4, 33), 2.0)
    y = np.linspace(0.0, 3.0, 33)
    psi = stream_from_h1(h1_hat, grid, y, delta=0.05)
    np.testing.assert_allclose(psi, np.broadcast_to(2.0 * y, (4, 33)),
                               rtol=0, atol=1e-13)
    assert np.all(np.diff(psi, axis=1) >= 0.0)
    assert np.max(np.abs(psi[:, 0])) == 0.0   # wall value pinned


def test_stream_function_monotone_for_rough_h1():
    # a strongly alternating (but admissible) h1 makes the plain spline
    # inverse overshoot; the shape-preserving fallback must keep psi monotone
    grid = make_grid(4, 17, 8.0, 0.01, 0.02)
    h1row = np.where(np.sin(3.0 * grid.eta) > 0, 10.0, 0.06)
    h1_hat = np.broadcast_to(h1row, (4, 17)).copy()
    table = cumulative_trapezoid(1.0 / h1row, grid.eta, initial=0.0)
    y = np.linspace(0.0, table[-1], 60)
    raw = CubicSpline(table, grid.eta, bc_type="not-a-knot")(y)
    assert np.min(np.diff(raw)) < 0.0            # the trigger is real

    psi = stream_from_h1(h1_hat, grid, y, delta=0.05)
    assert np.all(np.diff(psi, axis=1) >= 0.0)
    assert np.max(np.abs(psi[:, 0])) == 0.0
    assert np.max(psi) <= grid.eta_max + 1e-12


def test_stream_function_rejects_degenerate_h1():
    grid = make_grid(4, 16, 4.0, 0.1, 0.5)
    y = np.linspace(0.0, 2.0, 9)
    with pytest.raises(NondegeneracyError):
        stream_from_h1(np.full((4, 16), 1e-4), grid, y, delta=0.05)
    with pytest.raises(GridSizingError):
        stream_from_h1(np.ones((4, 7)), grid, y, delta=0.05)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stream_function_rejects_non_finite_h1(bad):
    grid = make_grid(4, 16, 4.0, 0.1, 0.5)
    y = np.linspace(0.0, 2.0, 9)
    h1_hat = np.ones((4, 16))
    h1_hat[1, 5] = bad
    with pytest.raises(NondegeneracyError):
        stream_from_h1(h1_hat, grid, y, delta=0.05)


@pytest.mark.parametrize("neta", [8, 33])
def test_batched_spline_matches_scipy_per_row(neta):
    rng = np.random.default_rng(neta)
    eta = np.arange(neta) * (5.0 / (neta - 1))
    steps = 0.02 + rng.random((6, neta - 1)) * rng.choice([0.1, 1.0, 10.0], (6, 1))
    table = np.concatenate([np.zeros((6, 1)), np.cumsum(steps, axis=1)], axis=1)
    # queries past the longest row's end, and exactly on some knots
    y = np.sort(np.concatenate([np.linspace(0.0, 1.2 * table.max(), 301),
                                table[0], table[3, 2:5]]))
    got = _spline_inverse(table, eta, y)
    for i in range(table.shape[0]):
        want = CubicSpline(table[i], eta, bc_type="not-a-knot",
                           extrapolate=False)(y)
        np.testing.assert_array_equal(got[i], want)
    assert np.isnan(got).any() and not np.isnan(got).all()


def test_spline_inverse_reports_a_failed_band_solve(monkeypatch):
    # LAPACK's info is checked, as scipy's solve_banded checked it
    real = transform.dgtsv

    def singular(*args):
        *out, _ = real(*args)
        return (*out, 7)

    monkeypatch.setattr(transform, "dgtsv", singular)
    table = np.cumsum(np.ones((2, 8)), axis=1)
    with pytest.raises(LinearSolveError, match="info = 7"):
        _spline_inverse(table, np.arange(8.0), np.linspace(1.0, 8.0, 5))


@pytest.mark.parametrize("shape", [(6, 2), (5, 33), (64, 128)])
def test_cumtrapz_matches_scipy_bit_for_bit(shape):
    rng = np.random.default_rng(shape[1])
    f = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 1e3], (shape[0], 1))
    x = np.cumsum(rng.uniform(0.01, 2.0, shape[1])) - 0.5   # non-uniform
    want = cumulative_trapezoid(f, x, axis=1, initial=0.0)
    assert np.array_equal(_cumtrapz(f, x), want)


def test_pchip_fallback_replaces_only_rough_rows(monkeypatch):
    grid = make_grid(4, 17, 8.0, 0.01, 0.02)
    rough = np.where(np.sin(3.0 * grid.eta) > 0, 10.0, 0.06)
    smooth = 1.0 + 0.5 * np.tanh(grid.eta)
    h1_hat = np.stack([smooth, rough, smooth[::-1], rough])
    table = cumulative_trapezoid(1.0 / h1_hat, grid.eta, axis=1, initial=0.0)
    y = np.linspace(0.0, 1.1 * table.max(), 80)
    refitted = []

    def pchip_row(table_row, eta, y_nodes):
        refitted.append(table_row)
        return pchip_row.original(table_row, eta, y_nodes)

    pchip_row.original = transform._pchip_row
    monkeypatch.setattr(transform, "_pchip_row", pchip_row)
    psi = stream_from_h1(h1_hat, grid, y, delta=0.05)
    assert len(refitted) == 2
    for row, i in zip(refitted, (1, 3)):
        assert np.array_equal(row, table[i])
    for i in range(4):
        spline = CubicSpline(table[i], grid.eta, bc_type="not-a-knot",
                             extrapolate=False)(y)
        pchip = PchipInterpolator(table[i], grid.eta, extrapolate=False)(y)
        spline, pchip = (np.where(np.isnan(f), grid.eta_max, f)
                         for f in (spline, pchip))
        assert np.any(np.diff(spline) < 0.0) == (i % 2 == 1)
        assert not np.array_equal(spline, pchip)
        np.testing.assert_array_equal(psi[i], pchip if i % 2 else spline)


@pytest.mark.parametrize("neta", [8, 33])
def test_shared_index_interpolation_matches_np_interp(neta):
    rng = np.random.default_rng(100 + neta)
    eta = np.arange(neta) * (6.0 / (neta - 1))
    fields = rng.standard_normal((6, 5, neta))
    psi = rng.uniform(-0.5, eta[-1] + 0.5, (5, 40))
    psi[:, :neta] = eta            # exactly at every knot
    psi[:, -3:] = [0.0, eta[-1], 0.5 * (eta[1] + eta[2])]
    located = _locate_in_eta(eta, psi)
    for f in fields:
        got = _interp_at_psi(f, eta, located)
        for i in range(psi.shape[0]):
            np.testing.assert_array_equal(got[i], np.interp(psi[i], eta, f[i]))


# ---------------------------------------------------------------------------
# pullback

def outflow_on(grid, P=1.5, **kw):
    return sample_outflow(OutflowSpec.constant(P=P, **kw), grid)


def test_pullback_requires_adjacent_level():
    grid = make_grid(4, 16, 4.0, 0.1, 0.5)
    data = outflow_on(grid)
    y = np.linspace(0.0, 2.0, 17)
    v = State.constant(grid, 0.0, 1.0, 0.5)
    with pytest.raises(MissingTimeLevelError):
        pullback_physical(v, data, PARAMS, grid, y, v_hat_prev=v)  # same time


def test_pullback_constant_state_is_exact():
    # H = 1: psi = y, h1 = 1, h2 = 0, rho = (2P - 1)/(2 R Theta), u2 = 0
    grid = make_grid(8, 33, 6.0, 0.01, 0.05)
    data = outflow_on(grid, P=1.0, U=0.0, Theta=1.0, Hfield=1.0, theta_star=1.0)
    y = np.linspace(0.0, 4.0, 33)
    v = State.constant(grid, 0.0, 1.0, 0.5, time=0.0)
    v_next = State.constant(grid, 0.0, 1.0, 0.5, time=grid.dt)
    ps = pullback_physical(v, data, PARAMS, grid, y, v_hat_prev=v_next)
    np.testing.assert_allclose(ps.h1, 1.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(ps.h2, 0.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(ps.u1, 0.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(ps.u2, 0.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(ps.theta, 1.0, rtol=0, atol=1e-13)
    # rho from the pressure constraint: (2 - 1) / 2 = 1/2
    np.testing.assert_allclose(ps.rho, 0.5, rtol=0, atol=1e-13)
    div, press = check_physical_constraints(ps, data, PARAMS)
    assert div <= 1e-13 and press <= 1e-13


def test_pullback_constraints_hold_for_generic_state():
    # the divergence and pressure identities are structural: they hold to
    # rounding for any admissible input, not just constants
    grid = make_grid(16, 48, 6.0, 0.01, 0.05)
    data = outflow_on(grid, P=1.5)
    y = np.linspace(0.0, 4.0, 49)
    xi = grid.xi[:, None]
    eta = grid.eta[None, :]
    u1 = 0.2 * np.sin(xi) * eta * np.exp(-eta)
    th = 1.0 + 0.1 * np.cos(xi) * np.exp(-eta)
    q = 0.5 + 0.1 * np.sin(xi) * np.exp(-(eta - 1.0) ** 2)
    v = State(u1=u1, theta=th, q=q, time=grid.dt)
    v_prev = State(u1=u1, theta=th, q=q * 1.01, time=0.0)
    ps = pullback_physical(v, data, PARAMS, grid, y, v_hat_prev=v_prev)
    assert ps.rho.min() > 0.0
    div, press = check_physical_constraints(ps, data, PARAMS)
    assert div <= 1e-12
    assert press <= 1e-12


def generic_levels(grid, times):
    xi = grid.xi[:, None]
    eta = grid.eta[None, :]
    return [State(u1=0.2 * np.sin(xi + t) * eta * np.exp(-eta),
                  theta=1.0 + 0.1 * np.cos(xi - t) * np.exp(-eta),
                  q=0.5 + 0.1 * np.sin(xi + 3 * t) * np.exp(-(eta - 1.0) ** 2),
                  time=t) for t in times]


def test_pullback_fields_are_adopted_and_share_nothing(monkeypatch):
    grid = make_grid(16, 48, 6.0, 0.01, 0.05)
    data = outflow_on(grid, P=1.5)
    y = np.linspace(0.0, 4.0, 49)
    v_prev, v = generic_levels(grid, (0.0, grid.dt))
    adopted = {}
    real = transform._frozen

    def spy(a, *args):
        out = real(a, *args)
        adopted[id(out)] = out is a
        return out

    monkeypatch.setattr(transform, "_frozen", spy)
    ps = pullback_physical(v, data, PARAMS, grid, y, v_hat_prev=v_prev)
    names = ("rho", "u1", "u2", "theta", "h1", "h2")
    fields = [getattr(ps, n) for n in names]
    for name, f in zip(names, fields):
        assert adopted[id(f)], f"{name} was copied"
        assert not f.flags.writeable and f.base is None
    held = [y, v.u1, v.theta, v.q, v_prev.u1, v_prev.theta, v_prev.q]
    for i, f in enumerate(fields):
        assert not any(np.shares_memory(f, a) for a in held + fields[i + 1:])
    assert not np.shares_memory(ps.y_nodes, y)


def test_round_trip_second_order_for_tanh_profile():
    # physical -> hatted -> psi -> physical, L_inf error drops ~4x per halving
    def run(ny):
        y = np.linspace(0.0, 6.0, ny)
        nx = 8
        h10_1d = 1.0 + 0.5 * np.tanh(y)
        eta_top = np.trapezoid(h10_1d, y)
        grid = make_grid(nx, ny, eta_top, 0.01, 0.02)
        x = grid.xi
        u10 = 0.3 * np.sin(x)[:, None] * (y * np.exp(-y))[None, :]
        th0 = 1.0 + 0.2 * (np.exp(-y))[None, :] * np.ones((nx, 1))
        h10 = np.broadcast_to(h10_1d, (nx, ny)).copy()
        data = outflow_on(grid, P=4.0)
        v0, _ = initial_eta_map(u10, th0, h10, y, grid, delta=0.05)
        v0 = State(u1=v0.u1, theta=v0.theta, q=v0.q, time=0.0)
        v_next = State(u1=v0.u1, theta=v0.theta, q=v0.q, time=grid.dt)
        ps = pullback_physical(v0, data, PARAMS, grid, y, v_hat_prev=v_next)
        return max(np.max(np.abs(ps.u1 - u10)),
                   np.max(np.abs(ps.theta - th0)),
                   np.max(np.abs(ps.h1 - h10)))

    e1, e2 = run(65), run(129)
    assert e1 / e2 > 3.0
    assert e2 < 5e-3


def test_output_stage_does_not_depend_on_the_block_size(monkeypatch):
    # one block, 3-row blocks and a ragged 5, 5, 2 split of 12 xi rows give
    # the same bits, under travelling traces (P varies along xi and with t)
    # and with a rough row, refitted by pchip, inside a later block
    grid = make_grid(12, 17, 8.0, 0.01, 0.05)
    data = sample_outflow(OutflowSpec(
        U=lambda t, xi: 0.1 * np.sin(xi - t),
        Theta=lambda t, xi: 1.0 + 0.1 * np.cos(xi - t), Hfield=1.5,
        P=lambda t, xi: 60.0 + 0.1 * np.cos(xi - t), theta_star=1.0), grid)
    y = np.linspace(0.0, 5.0, 41)
    rough = np.where(np.sin(3.0 * grid.eta) > 0, 10.0, 0.06)
    levels = [State(u1=v.u1, theta=v.theta, q=np.where(
        np.arange(grid.nx)[:, None] == 10, 0.5 * rough ** 2, v.q),
        time=v.time) for v in generic_levels(grid, [k * grid.dt
                                                    for k in range(4)])]
    bad = levels[1].q.copy()
    bad[10, 3] = 1e-10
    refitted = []

    def pchip_row(table_row, eta, y_nodes):
        refitted.append(table_row)
        return pchip_row.original(table_row, eta, y_nodes)

    pchip_row.original = transform._pchip_row
    monkeypatch.setattr(transform, "_pchip_row", pchip_row)
    runs = []
    for block_rows in (grid.nx, 3, 5):
        monkeypatch.setattr(transform, "BLOCK_ROWS", block_rows)
        refitted.clear()
        triple = [pullback_physical(levels[k], data, PARAMS, grid, y,
                                    v_hat_prev=levels[k - 1])
                  for k in (1, 2, 3)]
        assert len(refitted) == 3  # row 10 of each level
        report = residual_original(
            triple[1], time_differences(triple[0], triple[2], triple[1].time),
            data, PARAMS)
        with pytest.raises(NondegeneracyError) as error:
            stream_from_h1(np.sqrt(2.0 * bad), grid, y, PARAMS.delta)
        runs.append((triple, report, str(error.value)))
    (triple, report, message), *others = runs
    assert message == ("h1 must stay finite and >= delta = 0.05; "
                       "min = 1.41421e-05, max = 10")
    for other_triple, other_report, other_message in others:
        for ps, other_ps in zip(triple, other_triple):
            for name in ("rho", "u1", "u2", "theta", "h1", "h2"):
                np.testing.assert_array_equal(getattr(other_ps, name),
                                              getattr(ps, name), err_msg=name)
        np.testing.assert_array_equal(other_report.max_norm, report.max_norm)
        np.testing.assert_array_equal(other_report.l2_norm, report.l2_norm)
        assert other_message == message


def random_physical(nx, ny, seed=0):
    """A physical state with random positive fields at t = 0.01 (no
    structure: both constraints are O(1), and their maxima fall anywhere)."""
    rng = np.random.default_rng(seed)
    fields = {name: rng.uniform(0.5, 1.5, (nx, ny))
              for name in ("rho", "u1", "u2", "theta", "h1", "h2")}
    return PhysicalState(**fields, y_nodes=np.linspace(0.0, 5.0, ny),
                         time=0.01)


def travelling_outflow(grid):
    # P varies along xi and with t: each block reads its own rows of it
    return sample_outflow(OutflowSpec(
        U=0.0, Theta=1.0, Hfield=1.5,
        P=lambda t, xi: 2.0 + 0.1 * np.cos(xi - t), theta_star=1.0), grid)


def test_constraint_audit_does_not_depend_on_the_block_size(monkeypatch):
    # one block, 3-row blocks and a ragged 5, 5, 2 split of 12 xi rows give
    # the bits of the whole-level expressions
    grid = make_grid(12, 17, 8.0, 0.01, 0.05)
    data = travelling_outflow(grid)
    params = Params(mu=1.0, kappa=1.0, nu=1.0, R=1.3, cV=1.0, delta=0.05)
    ps = random_physical(grid.nx, 40)
    div = (periodic_diff(ps.h1, 2.0 * np.pi / grid.nx, 0, 1)
           + bounded_diff(ps.h2, ps.y_nodes[1] - ps.y_nodes[0], 1, 1))
    P = data.P[data.time_index(ps.time)][:, None]
    press = params.R * ps.rho * ps.theta + 0.5 * ps.h1 ** 2 - P
    whole = (float(np.max(np.abs(div))), float(np.max(np.abs(press))))
    # neither maximum lies in the first block of a split
    assert min(np.argmax(np.abs(div)), np.argmax(np.abs(press))) // 40 >= 5
    for block_rows in (grid.nx, 3, 5):
        monkeypatch.setattr(transform, "BLOCK_ROWS", block_rows)
        got = check_physical_constraints(ps, data, params)
        assert [g.hex() for g in got] == [w.hex() for w in whole], block_rows


@pytest.mark.parametrize("field,row", [("h2", 7), ("rho", 7), ("h1", 11),
                                       ("theta", 10)])
def test_constraint_audit_returns_nan_from_any_block(monkeypatch, field, row):
    # blocks of 5, 5 and 2 rows: a NaN past the first block, even in the
    # ragged last one, is a NaN maximum (Python's max() would drop it when
    # it is not the first operand); h2 makes only the divergence NaN, rho
    # and theta only the pressure residual, h1 both
    monkeypatch.setattr(transform, "BLOCK_ROWS", 5)
    grid = make_grid(12, 17, 8.0, 0.01, 0.05)
    fields = {name: getattr(random_physical(grid.nx, 40), name).copy()
              for name in ("rho", "u1", "u2", "theta", "h1", "h2")}
    fields[field][row, 20] = np.nan
    ps = PhysicalState(**fields, y_nodes=np.linspace(0.0, 5.0, 40), time=0.01)
    div, press = check_physical_constraints(ps, travelling_outflow(grid),
                                            PARAMS)
    assert np.isnan(div) == (field in ("h1", "h2"))
    assert np.isnan(press) == (field != "h2")


def test_constraint_audit_holds_one_block_of_temporaries():
    # the wide grid's physical level: 1 MiB per field.  The audit held
    # 3.12 fields of whole-level temporaries; in 64-row blocks it holds
    # 1.26, the stencils' temporaries of one block
    nx, ny = 256, 512
    assert nx >= 4 * transform.BLOCK_ROWS
    grid = make_grid(nx, 32, 8.0, 0.01, 0.05)
    data, ps = travelling_outflow(grid), random_physical(nx, ny)
    check_physical_constraints(ps, data, PARAMS)
    _, peak = traced_peak(check_physical_constraints, ps, data, PARAMS)
    assert peak / (nx * ny * 8) < 1.5


# ---------------------------------------------------------------------------
# residuals of the original equations

def constant_physical(grid, y, t, u1=0.3, theta=1.0, h1=1.0, P=1.5):
    shape = (grid.nx, y.size)
    rho = (2.0 * P - h1 ** 2) / (2.0 * PARAMS.R * theta)
    return PhysicalState(rho=np.full(shape, rho), u1=np.full(shape, u1),
                         u2=np.zeros(shape), theta=np.full(shape, theta),
                         h1=np.full(shape, h1), h2=np.zeros(shape),
                         y_nodes=y, time=t)


def test_residual_original_vanishes_on_constants():
    grid = make_grid(8, 16, 4.0, 0.01, 0.05)
    data = outflow_on(grid, P=1.5)
    y = np.linspace(0.0, 3.0, 25)
    sm, s0, sp = [constant_physical(grid, y, k * grid.dt) for k in range(3)]
    rep = residual_original(s0, time_differences(sm, sp, s0.time), data,
                            PARAMS)
    assert rep.equations == ("tangential momentum", "temperature",
                             "tangential field", "velocity divergence",
                             "magnetic divergence")
    assert np.all(rep.max_norm <= 1e-12)
    assert np.all(rep.l2_norm <= 1e-12)
    assert rep.max_norm.shape == (5,)


def test_residual_original_validates_time_levels():
    grid = make_grid(8, 16, 4.0, 0.01, 0.05)
    data = outflow_on(grid)
    y = np.linspace(0.0, 3.0, 25)
    s = [constant_physical(grid, y, t) for t in (0.0, grid.dt, 3 * grid.dt)]
    with pytest.raises(MissingTimeLevelError):
        time_differences(s[0], s[2], s[1].time)     # not equispaced
    with pytest.raises(MissingTimeLevelError):
        time_differences(s[1], s[0], 0.5 * grid.dt)  # dt1 <= 0
    ddt = time_differences(s[0], s[1], 0.5 * grid.dt)
    with pytest.raises(MissingTimeLevelError):
        residual_original(s[1], ddt, data, PARAMS)  # middle state elsewhere


def test_residual_original_flags_wrong_field():
    # breaking the magnetic divergence must show up in the r[4] channel
    grid = make_grid(8, 16, 4.0, 0.01, 0.05)
    data = outflow_on(grid, P=2.0)
    y = np.linspace(0.0, 3.0, 25)
    states = []
    for k in range(3):
        base = constant_physical(grid, y, k * grid.dt, P=2.0)
        h2 = 0.1 * y[None, :] * np.ones((grid.nx, 1))   # d_y h2 = 0.1 != 0
        states.append(PhysicalState(rho=base.rho, u1=base.u1, u2=base.u2,
                                    theta=base.theta, h1=base.h1, h2=h2,
                                    y_nodes=y, time=base.time))
    sm, s0, sp = states
    rep = residual_original(s0, time_differences(sm, sp, s0.time), data,
                            PARAMS)
    assert rep.max_norm[4] == pytest.approx(0.1, rel=1e-10)


def test_residual_original_reads_only_the_listed_fields():
    # what the cli holds of a residual triple: time, u1, theta and h1 of the
    # outer levels (read by time_differences), and also u2, h2 and y_nodes
    # of the middle one (read by residual_original)
    from types import SimpleNamespace

    grid = make_grid(16, 48, 6.0, 0.01, 0.05)
    data = outflow_on(grid, P=1.5)
    y = np.linspace(0.0, 4.0, 49)
    levels = generic_levels(grid, [k * grid.dt for k in range(4)])
    full = [pullback_physical(levels[k], data, PARAMS, grid, y,
                              v_hat_prev=levels[k - 1]) for k in (1, 2, 3)]
    held = [SimpleNamespace(**{n: getattr(ps, n) for n in reads})
            for ps, reads in zip(full, (RESIDUAL_OUTER, RESIDUAL_MIDDLE,
                                        RESIDUAL_OUTER))]
    want = residual_original(full[1], time_differences(full[0], full[2],
                                                       full[1].time),
                             data, PARAMS)
    got = residual_original(held[1], time_differences(held[0], held[2],
                                                      held[1].time),
                            data, PARAMS)
    assert got.max_norm.tobytes() == want.max_norm.tobytes()
    assert got.l2_norm.tobytes() == want.l2_norm.tobytes()
