"""Value types: parameters, grids, outflow sampling, states, admissibility."""

import numpy as np
import pytest

from mhbl import (
    AdmissibilityReport,
    Grid,
    GridSizingError,
    MissingTimeLevelError,
    OutflowData,
    OutflowSpec,
    Params,
    PositivityError,
    State,
    make_grid,
    sample_outflow,
    validate_admissibility,
)
from mhbl.fields import admissibility


# ---------------------------------------------------------------------------
# Params

def test_params_derived_ratio():
    p = Params(R=1.0, cV=1.0)
    assert p.a == pytest.approx(0.5, abs=0.0)
    p = Params(R=2.0, cV=3.0)
    assert p.a == pytest.approx(0.4, rel=1e-15)
    assert 0.0 < p.a < 1.0


@pytest.mark.parametrize("kw", [
    {"mu": 0.0}, {"kappa": -1.0}, {"nu": 0.0}, {"R": -2.0},
    {"cV": 0.0}, {"delta": 0.0}, {"mu": float("nan")},
])
def test_params_reject_nonpositive(kw):
    with pytest.raises(PositivityError):
        Params(**kw)


def test_params_frozen():
    p = Params()
    with pytest.raises(Exception):
        p.mu = 2.0


# ---------------------------------------------------------------------------
# Grid

def test_grid_spacings_and_axes():
    g = make_grid(8, 16, 4.0, 0.1, 1.0)
    assert g.dxi == pytest.approx(2.0 * np.pi / 8, rel=1e-15)
    assert g.deta == pytest.approx(4.0 / 15, rel=1e-15)
    assert g.nsteps == 10
    assert g.xi.shape == (8,)
    # periodic axis: no duplicated endpoint
    assert g.xi[0] == 0.0
    assert g.xi[-1] == pytest.approx(2.0 * np.pi - g.dxi, rel=1e-15)
    assert g.eta[0] == 0.0
    assert g.eta[-1] == pytest.approx(4.0, rel=1e-15)
    assert g.times.shape == (11,)
    assert g.times[-1] == pytest.approx(1.0, rel=1e-15)


def test_grid_trapezoid_weights():
    g = make_grid(8, 16, 4.0, 0.1, 1.0)
    w = g.eta_weights()
    # trapezoid weights integrate constants exactly
    assert w.sum() == pytest.approx(4.0, rel=1e-14)
    assert w[0] == pytest.approx(0.5 * g.deta)
    assert w[-1] == pytest.approx(0.5 * g.deta)
    assert np.all(w[1:-1] == g.deta)
    # and linear functions exactly
    assert (w * g.eta).sum() == pytest.approx(0.5 * 4.0 ** 2, rel=1e-14)


@pytest.mark.parametrize("args", [
    (3, 16, 4.0, 0.1, 1.0),      # nx too small
    (8, 7, 4.0, 0.1, 1.0),       # neta too small
    (8, 16, 0.0, 0.1, 1.0),      # flat domain
    (8, 16, 4.0, 0.0, 1.0),      # zero step
    (8, 16, 4.0, 0.2, 0.1),      # t_end < dt
])
def test_grid_rejects_degenerate(args):
    with pytest.raises(GridSizingError):
        make_grid(*args)


# ---------------------------------------------------------------------------
# Outflow sampling

def test_constant_outflow_exact_zero_derivatives():
    g = make_grid(8, 16, 4.0, 0.1, 1.0)
    spec = OutflowSpec.constant(U=0.3, Theta=1.2, Hfield=1.0, P=2.0,
                                theta_star=1.1)
    data = sample_outflow(spec, g)
    assert data.U.shape == (11, 8)
    assert np.all(data.P == 2.0)
    assert np.all(data.P_t == 0.0)
    assert np.all(data.P_xi == 0.0)
    np.testing.assert_allclose(data.vinf(0), np.broadcast_to([0.3, 1.2, 0.5], (8, 3)))


def test_sampled_pressure_gradients_match_difference_oracle():
    g = make_grid(32, 16, 4.0, 0.05, 0.5)
    spec = OutflowSpec(
        mode="functions",
        U=lambda t, xi: 0.0 * xi,
        Theta=lambda t, xi: 1.0 + 0.0 * xi,
        Hfield=lambda t, xi: 1.0 + 0.0 * xi,
        P=lambda t, xi: 1.0 + 0.1 * np.sin(xi) * (1.0 + t),
        theta_star=lambda t, xi: 1.0 + 0.0 * xi,
    )
    data = sample_outflow(spec, g)
    # centered periodic difference of the sampled P, written out directly
    k = 4
    P = data.P[k]
    oracle_xi = (np.roll(P, -1) - np.roll(P, 1)) / (2.0 * g.dxi)
    np.testing.assert_allclose(data.P_xi[k], oracle_xi, rtol=0, atol=1e-14)
    # P is linear in t, so the centered (and one-sided second-order) time
    # differences reproduce the exact derivative 0.1 sin(xi)
    for k in (0, 4, g.nsteps):
        np.testing.assert_allclose(data.P_t[k], 0.1 * np.sin(g.xi),
                                   rtol=0, atol=1e-12)


def test_analytic_pressure_gradients_override_differences():
    g = make_grid(16, 16, 4.0, 0.1, 0.5)
    spec = OutflowSpec(
        mode="functions",
        U=0.0, Theta=1.0, Hfield=1.0,
        P=lambda t, xi: 1.5 + 0.2 * np.cos(xi),
        theta_star=1.0,
        P_t=lambda t, xi: 0.0 * xi,
        P_xi=lambda t, xi: -0.2 * np.sin(xi),
    )
    data = sample_outflow(spec, g)
    np.testing.assert_allclose(data.P_xi[0], -0.2 * np.sin(g.xi), atol=1e-15)
    assert np.all(data.P_t == 0.0)


def test_outflow_requires_positive_traces():
    g = make_grid(8, 16, 4.0, 0.1, 1.0)
    spec = OutflowSpec.constant(P=2.0)
    bad = OutflowSpec(
        mode="functions", U=0.0,
        Theta=lambda t, xi: np.cos(xi),   # dips negative
        Hfield=1.0, P=2.0, theta_star=1.0)
    sample_outflow(spec, g)  # fine
    with pytest.raises(PositivityError):
        sample_outflow(bad, g)


def test_outflow_rejects_non_finite_traces_by_name():
    # a NaN trace used to reach check-outflow as "max residual nan", exit 0
    g = make_grid(8, 16, 4.0, 0.1, 1.0)
    bad = OutflowSpec(mode="functions", U=lambda t, xi: np.full_like(xi, np.nan),
                      Theta=1.0, Hfield=1.0, P=2.0, theta_star=1.0)
    with pytest.raises(PositivityError, match=r"outflow trace U is not finite"):
        sample_outflow(bad, g)


def test_outflow_mode_validated():
    with pytest.raises(PositivityError):
        OutflowSpec("wavy", 0.0, 1.0, 1.0, 1.0, 1.0)


def test_time_index_tolerance_and_missing_level():
    g = make_grid(8, 16, 4.0, 0.1, 1.0)
    data = sample_outflow(OutflowSpec.constant(), g)
    assert data.time_index(0.0) == 0
    assert data.time_index(0.3) == 3
    assert data.time_index(0.3 + 1e-12) == 3
    with pytest.raises(MissingTimeLevelError):
        data.time_index(0.35)
    with pytest.raises(MissingTimeLevelError):
        data.time_index(1.1)
    with pytest.raises(MissingTimeLevelError):
        data.time_index(-0.1)


# ---------------------------------------------------------------------------
# State

def test_state_round_trip_and_immutability():
    rng = np.random.default_rng(7)
    v = rng.normal(size=(8, 16, 3))
    s = State.from_array(v, time=0.25)
    np.testing.assert_array_equal(s.as_array(), v)
    assert s.time == 0.25
    with pytest.raises(ValueError):
        s.u1[0, 0] = 1.0   # frozen array

    c = State.constant(make_grid(8, 16, 4.0, 0.1, 1.0), 0.1, 1.0, 0.5)
    assert c.shape == (8, 16)
    assert np.all(c.q == 0.5)


def test_state_shape_validation():
    with pytest.raises(GridSizingError):
        State(u1=np.zeros((4, 8)), theta=np.zeros((4, 9)), q=np.zeros((4, 8)))
    with pytest.raises(GridSizingError):
        State(u1=np.zeros(8), theta=np.zeros(8), q=np.zeros(8))


# ---------------------------------------------------------------------------
# Admissibility

def _setup(theta=1.0, q=0.5, P=1.5):
    g = make_grid(8, 16, 4.0, 0.1, 1.0)
    data = sample_outflow(OutflowSpec.constant(P=P), g)
    return g, data, State.constant(g, 0.0, theta, q)


def test_admissibility_accepts_interior_state():
    g, data, s = _setup()
    rep = validate_admissibility(s, data, Params(delta=0.05))
    assert rep.ok
    assert rep.first_violation is None
    assert rep.min_theta == pytest.approx(1.0)
    assert rep.min_q == pytest.approx(0.5)
    assert rep.min_P_minus_q == pytest.approx(1.0)
    assert rep.min_Q > 0.0


@pytest.mark.parametrize("theta,q", [(0.01, 0.5), (1.0, 0.01), (1.0, 1.46)])
def test_admissibility_flags_violations(theta, q):
    g, data, s = _setup(theta=theta, q=q)
    rep = validate_admissibility(s, data, Params(delta=0.05))
    assert not rep.ok
    assert rep.first_violation == (0, 0)


def test_admissibility_margin_is_delta_not_zero():
    # q = 0.06 is positive but inside the delta = 0.1 margin
    g, data, s = _setup(q=0.06)
    assert not validate_admissibility(s, data, Params(delta=0.1)).ok
    assert validate_admissibility(s, data, Params(delta=0.05)).ok


def test_admissibility_over_a_trajectory_reports_first_index_and_nan():
    # the array-level check takes any leading shape: here (levels, nx, neta)
    # with P per (level, xi) broadcast over eta
    params = Params(delta=0.05)
    theta = np.ones((3, 4, 5))
    q = np.full((3, 4, 5), 0.5)
    P = np.full((3, 4, 1), 1.5)
    rep = admissibility(theta, q, P, params, params.delta)
    assert rep.ok and rep.first_violation is None
    assert rep.min_P_minus_q == pytest.approx(1.0)
    q[2, 1, 3] = 1.48            # P - q inside the margin
    theta[1, 3, 0] = np.nan      # NaN is a violation, not a pass
    rep = admissibility(theta, q, P, params, params.delta)
    assert not rep.ok
    assert rep.first_violation == (1, 3, 0)
    # the 2 delta margin of the solver's precondition uses the same check
    assert not admissibility(np.ones(3), np.full(3, 0.08), 1.5, params,
                             2.0 * params.delta).ok
