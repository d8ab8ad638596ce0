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


def test_grid_weights_are_made_once_and_read_only():
    # every norm term reads them: one array per grid, which no caller can
    # change under the others
    g = make_grid(8, 16, 4.0, 0.1, 1.0)
    w = g.eta_weights()
    assert g.eta_weights() is w
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        w *= 2.0
    assert w[0] == 0.5 * g.deta


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


@pytest.mark.parametrize("args,match", [
    ((8, 16, np.nan, 0.1, 1.0), r"^eta_max must be finite and positive, got nan$"),
    ((8, 16, np.inf, 0.1, 1.0), r"^eta_max must be finite and positive, got inf$"),
    ((8, 16, 4.0, np.nan, 1.0), r"^dt must be finite and positive, got nan$"),
    ((8, 16, 4.0, 0.1, np.inf), r"^t_end must be finite and positive, got inf$"),
    ((8, 16, 4.0, 0.1, np.nan), r"^t_end must be finite and positive, got nan$"),
    ((8, 16, 4.0, 0.02, 0.05), r"^t_end must be a whole number of steps: "
                               r"t_end=0\.05, dt=0\.02 give 2\.5 steps$"),
    ((8, 16, 4.0, 0.02, 0.07), r"^t_end must be a whole number of steps: "
                               r"t_end=0\.07, dt=0\.02 give 3\.5 steps$"),
], ids=["eta_max-nan", "eta_max-inf", "dt-nan", "t_end-inf", "t_end-nan",
        "t_end-2.5-steps", "t_end-3.5-steps"])
def test_grid_refuses_non_finite_values_and_partial_steps(args, match):
    with pytest.raises(GridSizingError, match=match):
        make_grid(*args)


@pytest.mark.parametrize("dt,t_end,nsteps", [
    (0.1, 0.3, 3),            # t_end / dt = 2.9999999999999996
    (0.01, 0.03, 3),
    (0.2 / 7, 0.2, 7),
    (1e-4, 1.0, 10000),
])
def test_grid_accepts_whole_steps_up_to_rounding(dt, t_end, nsteps):
    assert make_grid(8, 16, 4.0, dt, t_end).nsteps == nsteps


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
    np.testing.assert_allclose(data.far[0], np.broadcast_to([0.3, 1.2, 0.5], (8, 3)))


def test_sampled_pressure_gradients_match_difference_oracle():
    g = make_grid(32, 16, 4.0, 0.05, 0.5)
    spec = OutflowSpec(
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


def test_callable_pressure_gets_its_differences_beside_numeric_traces():
    # a callable P is differenced whatever the other traces are; a spec flag
    # once let numeric company turn its derivatives into silent zeros
    g = make_grid(16, 16, 4.0, 0.1, 0.5)
    spec = OutflowSpec(U=0.0, Theta=1.0, Hfield=1.0,
                       P=lambda t, xi: 1.5 + 0.2 * np.cos(xi) + 0.1 * t,
                       theta_star=1.0)
    data = sample_outflow(spec, g)
    oracle_xi = (np.roll(data.P, -1, axis=1) - np.roll(data.P, 1, axis=1)) \
        / (2.0 * g.dxi)
    np.testing.assert_array_equal(data.P_xi, oracle_xi)
    assert np.max(np.abs(data.P_xi)) > 0.19
    np.testing.assert_allclose(data.P_t, 0.1, rtol=0, atol=1e-12)


def test_numeric_pressure_gives_exact_zero_derivatives():
    # differencing the sampled 0.1 would leave 1.4e-16 at the time ends
    g = make_grid(8, 16, 4.0, 0.1, 1.0)
    spec = OutflowSpec(U=lambda t, xi: 0.1 * np.sin(xi - t), Theta=1.0,
                       Hfield=0.2, P=0.1, theta_star=1.0)
    data = sample_outflow(spec, g)
    assert np.all(data.P == 0.1)
    assert np.all(data.P_t == 0.0)
    assert np.all(data.P_xi == 0.0)


def test_outflow_requires_positive_traces():
    g = make_grid(8, 16, 4.0, 0.1, 1.0)
    spec = OutflowSpec.constant(P=2.0)
    bad = OutflowSpec(
        U=0.0,
        Theta=lambda t, xi: np.cos(xi),   # dips negative
        Hfield=1.0, P=2.0, theta_star=1.0)
    sample_outflow(spec, g)  # fine
    with pytest.raises(PositivityError):
        sample_outflow(bad, g)


def test_outflow_rejects_non_finite_traces_by_name():
    # a NaN trace used to reach check-outflow as "max residual nan", exit 0
    g = make_grid(8, 16, 4.0, 0.1, 1.0)
    bad = OutflowSpec(U=lambda t, xi: np.full_like(xi, np.nan),
                      Theta=1.0, Hfield=1.0, P=2.0, theta_star=1.0)
    with pytest.raises(PositivityError, match=r"outflow trace U is not finite"):
        sample_outflow(bad, g)


def test_outflow_trace_must_be_a_number_or_a_callable():
    for trace in ("wavy", None, np.ones(4)):
        with pytest.raises(PositivityError, match="trace Hfield must be a "
                                                  "real number or a callable"):
            OutflowSpec(0.0, 1.0, trace, 1.0, 1.0)


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


def test_state_adopts_frozen_owned_arrays():
    # a read-only, C-contiguous float64 array that owns its data is handed
    # over as it is: no copy
    u1, theta, q = (np.full((4, 8), c) for c in (0.1, 1.0, 0.5))
    for a in (u1, theta, q):
        a.setflags(write=False)
    s = State(u1=u1, theta=theta, q=q)
    assert s.u1 is u1 and s.theta is theta and s.q is q


def _writable(base):
    return base


def _view(base):
    v = base[:, :]
    v.setflags(write=False)
    return v


def _strided(base):
    v = base[:, ::2]
    v.setflags(write=False)
    return v


def _float32(base):
    a = base.astype(np.float32)
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("make", [_writable, _view, _strided, _float32])
@pytest.mark.parametrize("cls", ["State", "PhysicalState"])
def test_containers_copy_every_other_array(make, cls):
    # writable, non-owning, non-contiguous or non-float64 input is copied:
    # writing to the caller's array afterwards leaves the container as it was
    from mhbl.transform import PhysicalState

    base = np.arange(64.0).reshape(4, 16) / 64.0
    given = make(base)
    want = np.array(given, dtype=np.float64)
    if cls == "State":
        c = State(u1=given, theta=np.ones_like(want), q=np.ones_like(want))
    else:
        ones = np.ones_like(want)
        c = PhysicalState(rho=ones, u1=given, u2=ones, theta=ones, h1=ones,
                          h2=ones, y_nodes=np.arange(want.shape[1], dtype=float))
    assert c.u1 is not given and not c.u1.flags.writeable
    assert c.u1.flags.c_contiguous and c.u1.dtype == np.float64
    for a in (base, given):
        if a.base is None:  # an owner can always make itself writable again
            a.setflags(write=True)
            a[...] = -1.0
    np.testing.assert_array_equal(c.u1, want)


@pytest.mark.parametrize("bad", [
    {"u1": np.ones((3, 2))},
    dict.fromkeys(("rho", "u1", "u2", "theta", "h1", "h2"), np.ones(6)),
    {"y_nodes": np.arange(4.0)},
])
def test_physical_state_shape_validation(bad):
    # a mismatched field once made a snapshot that read back reshaped
    from mhbl.transform import PhysicalState

    f = np.ones((2, 3))
    good = dict(rho=f, u1=f, u2=f, theta=f, h1=f, h2=f, y_nodes=np.arange(3.0))
    PhysicalState(**good)
    with pytest.raises(GridSizingError):
        PhysicalState(**{**good, **bad})


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
    rep = admissibility(s.theta, s.q, data.P[0][:, None], Params(delta=0.05),
                        0.05)
    assert rep.ok
    assert rep.first_violation is None
    assert rep.min_theta == pytest.approx(1.0)
    assert rep.min_q == pytest.approx(0.5)
    assert rep.min_P_minus_q == pytest.approx(1.0)
    assert rep.min_Q > 0.0


@pytest.mark.parametrize("theta,q", [(0.01, 0.5), (1.0, 0.01), (1.0, 1.46)])
def test_admissibility_flags_violations(theta, q):
    g, data, s = _setup(theta=theta, q=q)
    rep = admissibility(s.theta, s.q, data.P[0][:, None], Params(delta=0.05),
                        0.05)
    assert not rep.ok
    assert rep.first_violation == (0, 0)


def test_admissibility_margin_is_delta_not_zero():
    # q = 0.06 is positive but inside the delta = 0.1 margin
    g, data, s = _setup(q=0.06)
    P = data.P[0][:, None]
    assert not admissibility(s.theta, s.q, P, Params(delta=0.1), 0.1).ok
    assert admissibility(s.theta, s.q, P, Params(delta=0.05), 0.05).ok


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
