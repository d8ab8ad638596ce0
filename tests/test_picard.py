"""Frozen-coefficient iteration: cutoff, background, compatibility data,
zeroth approximation and the full solve.

The constant fixed point is the sharpest oracle here: with outflow
(U=0, Theta=1, H=1, theta_star=1, P=1.5) the background equals the constant
initial state, the first time derivative from the equation is zero, and the
linear solver preserves constants exactly, so the iteration must converge
in one step with distance at rounding level.
"""

import ast
import csv
import inspect
from pathlib import Path

import numpy as np
import pytest
from conftest import traced_peak

from mhbl import (
    CFLError,
    DegenerateStateError,
    Grid,
    GridSizingError,
    LinearSolveError,
    MhblError,
    NonConvergenceError,
    OutflowSpec,
    Params,
    PreconditionError,
    State,
    make_grid,
    sample_outflow,
)
from mhbl.picard import (
    IterateRecord,
    IterationReport,
    build_background,
    build_zeroth_approx,
    compatibility_derivatives,
    cutoff_phi,
    picard_solve,
)
from mhbl import coeffs, mms, picard
from mhbl.config import parse_config
from mhbl.diagnostics import discrete_norm
from mhbl.snapshots import emit_plot_data
from mhbl.stepper import FrozenCoeffs, Trajectory, apply_derivative

PARAMS = Params(mu=0.1, kappa=0.1, nu=0.1, R=1.0, cV=1.0, delta=0.05)
SRC = Path(picard.__file__).parent
DEMO_INI = Path(__file__).resolve().parents[1] / "configs" / "demo.ini"


# ---------------------------------------------------------------------------
# cutoff

def test_cutoff_values_and_type():
    assert cutoff_phi(0.0) == 0.0
    assert cutoff_phi(1.0) == 0.0
    assert cutoff_phi(2.0) == 1.0
    assert cutoff_phi(7.5) == 1.0
    assert cutoff_phi(1.5) == pytest.approx(0.5, abs=1e-15)
    # quintic smoothstep at s = 1/4: s^3 (10 - 15 s + 6 s^2)
    assert cutoff_phi(1.25) == pytest.approx(0.103515625, abs=1e-15)
    assert isinstance(cutoff_phi(1.3), float)
    out = cutoff_phi(np.linspace(0.0, 3.0, 7))
    assert isinstance(out, np.ndarray) and out.shape == (7,)


def test_cutoff_monotone_symmetric_flat_ends():
    eta = np.linspace(0.0, 3.0, 601)
    phi = cutoff_phi(eta)
    assert np.all(np.diff(phi) >= 0.0)
    s = np.linspace(0.0, 1.0, 41)
    np.testing.assert_allclose(cutoff_phi(1.0 + s) + cutoff_phi(2.0 - s), 1.0,
                               rtol=0, atol=1e-14)
    # C^1 matching: the ramp leaves/enters the plateaus cubically
    assert cutoff_phi(1.001) < 1.1e-8
    assert 1.0 - cutoff_phi(1.999) < 1.1e-8


def test_cutoff_rejects_negative():
    with pytest.raises(ValueError):
        cutoff_phi(-0.1)
    with pytest.raises(ValueError):
        cutoff_phi(np.array([0.5, -1e-9]))


# ---------------------------------------------------------------------------
# background

def test_background_interpolates_wall_and_outflow():
    grid = make_grid(6, 25, 6.0, 0.05, 0.2)
    data = sample_outflow(OutflowSpec.constant(
        U=0.3, Theta=2.0, Hfield=1.2, P=2.0, theta_star=0.7), grid)
    bg = build_background(data, grid)
    phi = cutoff_phi(grid.eta)
    np.testing.assert_allclose(bg.phi, phi, atol=0)
    for k in (0, grid.nsteps):
        vbar = bg.components(k)
        assert vbar.shape == (3, grid.nx, grid.neta)
        np.testing.assert_allclose(
            vbar[:, :, 0], np.broadcast_to([[0.0], [0.7], [0.72]], (3, grid.nx)),
            rtol=0, atol=1e-15)                            # wall: phi = 0
        np.testing.assert_allclose(
            vbar[:, :, -1], np.broadcast_to([[0.3], [2.0], [0.72]], (3, grid.nx)),
            rtol=0, atol=1e-15)                            # far: phi = 1
        np.testing.assert_allclose(
            vbar[1],
            np.broadcast_to(2.0 * phi + 0.7 * (1.0 - phi), (grid.nx, grid.neta)),
            rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        bg.phi[0] = 9.0               # frozen


def test_background_tracks_time_varying_traces():
    grid = make_grid(6, 25, 6.0, 0.05, 0.2)
    bg = build_background(sample_outflow(time_varying_spec(), grid), grid)
    for k in range(grid.nsteps + 1):
        np.testing.assert_allclose(bg.components(k)[1, :, -1],
                                   1.0 + grid.times[k], rtol=0, atol=1e-15)


def time_varying_spec():
    return OutflowSpec(U=0.1,
                       Theta=lambda t, xi: 1.0 + t + 0.0 * xi,
                       Hfield=1.0, P=3.0, theta_star=0.5)


# ---------------------------------------------------------------------------
# compatibility derivatives

def test_compatibility_vanishes_on_constant_state():
    grid = make_grid(6, 16, 4.0, 0.05, 0.2)
    data = sample_outflow(OutflowSpec.constant(
        U=0.1, Theta=1.0, Hfield=1.0, P=1.5, theta_star=1.0), grid)
    v0 = State.constant(grid, 0.1, 1.0, 0.5)
    v0_t = compatibility_derivatives(v0, data, PARAMS, grid)
    assert v0_t.shape == (grid.nx, grid.neta, 3)
    np.testing.assert_allclose(v0_t, 0.0, rtol=0, atol=1e-14)


def test_compatibility_matches_equation_on_interior():
    # xi-independent data, quadratic in eta: the stencils are exact, so the
    # interior rows must equal -f - g + B (d_eta^2 v) computed longhand
    grid = make_grid(6, 20, 4.0, 0.05, 0.2)
    data = sample_outflow(OutflowSpec.constant(
        U=0.2, Theta=1.5, Hfield=1.2, P=2.0, theta_star=0.9), grid)
    eta = grid.eta[None, :]
    u1 = 0.2 + 0.01 * eta ** 2 * np.ones((grid.nx, 1))
    th = 1.5 + 0.02 * eta ** 2 * np.ones((grid.nx, 1))
    q = 0.8 + 0.005 * eta ** 2 * np.ones((grid.nx, 1))
    v0 = State(u1=u1, theta=th, q=q)
    arr = v0.as_array()

    P = data.P[0][:, None]
    dev = apply_derivative(arr, grid, axis="eta", order=1)
    d2ev_exact = np.empty_like(arr)
    d2ev_exact[..., 0] = 2 * 0.01
    d2ev_exact[..., 1] = 2 * 0.02
    d2ev_exact[..., 2] = 2 * 0.005
    m = coeffs.matrices(arr, dev, P, data.P_t[0][:, None],
                        data.P_xi[0][:, None], PARAMS)
    expected = -m["f"] - m["g"] + np.einsum("xeij,xej->xei", m["B"], d2ev_exact)

    v1 = compatibility_derivatives(v0, data, PARAMS, grid)
    np.testing.assert_allclose(v1[:, 1:-1], expected[:, 1:-1],
                               rtol=1e-12, atol=1e-13)
    # boundary rows follow the data: u1 wall rest, theta wall trace, q fold
    np.testing.assert_allclose(v1[:, 0, 0], 0.0, atol=0)
    # constant traces differentiate to rounding-level dust, not exact zero
    np.testing.assert_allclose(v1[:, 0, 1], 0.0, atol=1e-13)
    np.testing.assert_allclose(v1[:, 0, 2],
                               (4.0 * v1[:, 1, 2] - v1[:, 2, 2]) / 3.0,
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(v1[:, -1], 0.0, atol=1e-13)  # constant outflow


def test_compatibility_wall_theta_tracks_trace_derivative():
    grid = make_grid(6, 16, 4.0, 0.05, 0.2)
    spec = OutflowSpec(U=0.0, Theta=1.0, Hfield=1.0, P=1.5,
                       theta_star=lambda t, xi: 0.7 + 0.3 * t + 0.0 * xi)
    data = sample_outflow(spec, grid)
    v0 = State.constant(grid, 0.0, 1.0, 0.5)
    v0_t = compatibility_derivatives(v0, data, PARAMS, grid)
    # linear trace: the one-sided second-order difference is exact
    np.testing.assert_allclose(v0_t[:, 0, 1], 0.3, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# zeroth approximation

def test_zeroth_approx_matches_initial_data_and_slope():
    grid = make_grid(6, 25, 6.0, 0.05, 0.2)
    data = sample_outflow(OutflowSpec.constant(
        U=0.3, Theta=2.0, Hfield=1.2, P=2.5, theta_star=0.7), grid)
    eta = grid.eta[None, :]
    phi = cutoff_phi(grid.eta)[None, :]
    bump = 0.05 * (np.sin(grid.xi)[:, None] * eta ** 2 * np.exp(-eta))
    v0 = State(u1=0.3 * phi + bump * np.ones((grid.nx, 1)),
               theta=2.0 * phi + 0.7 * (1 - phi) + bump,
               q=0.72 + bump)
    bg = build_background(data, grid)
    v0_t = compatibility_derivatives(v0, data, PARAMS, grid)
    traj = build_zeroth_approx(bg, v0.as_array(), v0_t, grid)
    assert traj.nlevels == grid.nsteps + 1
    np.testing.assert_allclose(traj.times, grid.times, atol=0)
    np.testing.assert_allclose(traj.data[0], v0.as_array(), rtol=0, atol=1e-14)
    # constant outflow: vbar is time independent, so the zeroth iterate is
    # exactly v0 + tau * v1
    for k in (1, grid.nsteps):
        np.testing.assert_allclose(
            traj.data[k], v0.as_array() + grid.times[k] * v0_t,
            rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# full solve

def constant_setup(nx=8, neta=24, eta_max=4.0, dt=0.005, t_end=0.05):
    grid = make_grid(nx, neta, eta_max, dt, t_end)
    data = sample_outflow(OutflowSpec.constant(
        U=0.0, Theta=1.0, Hfield=1.0, P=1.5, theta_star=1.0), grid)
    return grid, data


def test_constant_data_is_a_fixed_point():
    grid, data = constant_setup()
    v0 = State.constant(grid, 0.0, 1.0, 0.5)
    traj, report = picard_solve(v0, data, PARAMS, grid, tol=1e-10)
    assert report.converged and not report.aborted
    assert report.iterations == 1
    assert report.distances[0] <= 1e-13
    assert all(report.admissible)
    assert report.norm_history[0] <= 1e-13
    np.testing.assert_allclose(
        traj.data, np.broadcast_to(v0.as_array(), traj.data.shape),
        rtol=0, atol=1e-13)


def test_margin_precondition_enforced():
    grid, data = constant_setup()
    v0 = State.constant(grid, 0.0, 1.0, 0.08)   # q < 2 delta
    with pytest.raises(PreconditionError):
        picard_solve(v0, data, PARAMS, grid)
    v0 = State.constant(grid, 0.0, 1.0, 1.42)   # P - q < 2 delta
    with pytest.raises(PreconditionError):
        picard_solve(v0, data, PARAMS, grid)


def test_non_finite_start_is_a_precondition():
    # a NaN in u1 passes the theta and q checks, and finite data can give a
    # d_tau v(0) that overflows: either is a fault of the data, refused
    # before the zeroth approximation is built, not an aborted report
    params, grid, outflow, v0, _ = parse_config(DEMO_INI.read_text()).problem()
    u1 = v0.u1.copy()
    u1[3, 10] = np.nan
    with pytest.raises(PreconditionError) as exc:
        picard_solve(State(u1=u1, theta=v0.theta, q=v0.q), outflow, params,
                     grid)
    assert str(exc.value) == ("initial data v(0) must be finite; u1 = nan at "
                              "xi column 3, eta row 10")
    with np.errstate(all="ignore"), pytest.raises(PreconditionError) as exc:
        picard_solve(State(u1=1e200 * v0.u1, theta=v0.theta, q=v0.q),
                     outflow, params, grid)
    assert str(exc.value) == ("initial time derivative d_tau v(0) must be "
                              "finite; q = nan at xi column 0, eta row 0")


def perturbed_setup(t_end=0.05, dt=0.005):
    grid = make_grid(8, 24, 4.0, dt, t_end)
    data = sample_outflow(OutflowSpec.constant(
        U=0.2, Theta=1.2, Hfield=1.1, P=2.0, theta_star=0.8), grid)
    phi = cutoff_phi(grid.eta)[None, :]
    eta = grid.eta[None, :]
    bump = 0.04 * np.sin(grid.xi)[:, None] * (eta ** 2 * np.exp(-eta))
    v0 = State(u1=0.2 * phi + bump, theta=1.2 * phi + 0.8 * (1 - phi) + bump,
               q=0.605 + bump)
    return grid, data, v0


def test_contraction_on_perturbed_data():
    grid, data, v0 = perturbed_setup()
    traj, report = picard_solve(v0, data, PARAMS, grid, tol=1e-9, max_iter=25)
    assert report.converged and not report.aborted
    assert all(report.admissible)
    assert all(r <= 0.5 for r in report.ratios)
    assert report.distances[-1] <= 1e-9
    # distances strictly decreasing once the iteration settles
    assert all(b < a for a, b in zip(report.distances, report.distances[1:]))


def test_nonconvergence_reported_not_raised():
    grid, data, v0 = perturbed_setup()
    traj, report = picard_solve(v0, data, PARAMS, grid, tol=1e-16, max_iter=2)
    assert not report.converged and not report.aborted
    assert report.iterations == 2
    assert "no convergence" in report.message


@pytest.mark.parametrize("error", [DegenerateStateError, CFLError,
                                   LinearSolveError])
def test_picard_errors_name_the_iterate(error, monkeypatch):
    # iterate 2 is handed a bad level-2 coefficient state or source
    grid, data, v0 = perturbed_setup()
    real = picard.solve_linear_problem
    calls = []

    def second_iterate_breaks(v_prev, v0, outflow, params, grid, source=None,
                              **kwargs):
        calls.append(1)
        if len(calls) == 2:
            v_prev = Trajectory(data=v_prev.data.copy(), times=v_prev.times)
            if error is DegenerateStateError:
                v_prev.data[2, 3, 4, 1] = 0.0      # theta at zero
            elif error is CFLError:
                v_prev.data[2, ..., 0] = 100.0     # u1 far past the CFL bound
            else:
                source = np.zeros_like(v_prev.data)
                source[3, 1, 4, 2] = np.nan        # enters the step off level 2
        return real(v_prev, v0, outflow, params, grid, source=source,
                    **kwargs)

    monkeypatch.setattr(picard, "solve_linear_problem", second_iterate_breaks)
    with pytest.raises(error, match="^Picard iterate 2: time level 2: "):
        picard_solve(v0, data, PARAMS, grid, tol=1e-16, max_iter=5)


def declining_pressure_setup():
    # P(t) = 1 - 6t crosses q + delta = 0.6 at t = 0.0583: the zeroth
    # approximation (constant q = 0.55) must leave the admissible set
    grid = make_grid(8, 24, 4.0, 0.01, 0.08)
    spec = OutflowSpec(U=0.0, Theta=1.0,
                       Hfield=np.sqrt(1.1), P=lambda t, xi: 1.0 - 6.0 * t + 0.0 * xi,
                       theta_star=1.0)
    data = sample_outflow(spec, grid)
    v0 = State.constant(grid, 0.0, 1.0, 0.55)
    return grid, data, v0


def test_admissibility_loss_aborts_by_default():
    grid, data, v0 = declining_pressure_setup()
    traj, report = picard_solve(v0, data, PARAMS, grid)
    assert report.aborted
    assert report.iterations == 0
    assert report.distances == []
    assert report.admissible == [False]
    assert "admissible" in report.message


def first_outside(traj, outflow, delta):
    """(level, xi column, eta row) of the first node outside the admissible
    set, levels first and then row-major, from whole arrays."""
    theta, q = traj[..., 1], traj[..., 2]
    bad = ~((theta >= delta) & (q >= delta)
            & (outflow.P[:, :, None] - q >= delta))
    return tuple(int(i) for i in np.argwhere(bad)[0])


def test_admissibility_loss_names_the_first_node_outside(monkeypatch):
    # the zeroth approximation of a declining pressure
    grid, data, v0 = declining_pressure_setup()
    zeroth = build_zeroth_approx(
        build_background(data, grid), v0.as_array(),
        compatibility_derivatives(v0, data, PARAMS, grid), grid)
    k, i, j = first_outside(zeroth.data, data, PARAMS.delta)
    _, report = picard_solve(v0, data, PARAMS, grid)
    assert report.aborted and "left the admissible set" in report.message
    assert report.message.endswith(
        f"at time level {k}, xi column {i}, eta row {j}")

    # iterate 2 is measured with q = P at level 3, xi column 2, eta row 5,
    # and theta < 0 at level 4, xi column 0, eta row 1: the level comes first
    grid, data, v0 = perturbed_setup()
    real = picard.solve_linear_problem
    calls = []

    def second_iterate_leaves(*args, measure, **kwargs):
        calls.append(1)

        def spoiled(k, v, old):
            if len(calls) == 2 and k in (3, 4):
                v = v.copy()
                if k == 3:
                    v[2, 5, 2] = data.P[3, 2]
                else:
                    v[0, 1, 1] = -1.0
            measure(k, v, old)
        return real(*args, measure=spoiled, **kwargs)

    monkeypatch.setattr(picard, "solve_linear_problem", second_iterate_leaves)
    _, report = picard_solve(v0, data, PARAMS, grid, tol=1e-16, max_iter=5)
    assert report.aborted and report.iterations == 2
    assert report.admissible == [True, True, False]
    assert report.message == ("iterate 2 left the admissible set "
                              "at time level 3, xi column 2, eta row 5")


def test_admissibility_loss_always_aborts():
    # the estimates hold only inside the admissible set, so there is no
    # policy that marches on with clamped coefficients: the zeroth
    # approximation leaves the set and the solve stops there, unsolved
    for name in (picard_solve, picard.solve_linear_problem,
                 FrozenCoeffs.from_state):
        params = inspect.signature(name).parameters
        assert {"on_admissibility_loss", "clamp"}.isdisjoint(params)
    grid, data, v0 = declining_pressure_setup()
    _, report = picard_solve(v0, data, PARAMS, grid, max_iter=3, tol=1e-12)
    assert report.aborted and not report.converged
    assert report.admissible == [False]
    assert isinstance(report.error(), MhblError)
    assert report.message.startswith(
        "zeroth approximation left the admissible set")


def test_max_iter_below_one_rejected_before_any_work(monkeypatch):
    grid, data = constant_setup()
    monkeypatch.setattr(picard, "build_background", None)   # never reached
    for bad in (0, -3):
        with pytest.raises(GridSizingError, match="max_iter"):
            picard_solve(State.constant(grid, 0.0, 1.0, 0.5), data, PARAMS,
                         grid, max_iter=bad)


def test_tol_negative_or_not_finite_rejected_before_any_work(monkeypatch):
    # such a tol used to run all max_iter iterates and report non-convergence
    grid, data = constant_setup()
    monkeypatch.setattr(picard, "build_background", None)   # never reached
    for bad in (-1e-8, float("nan"), float("inf")):
        with pytest.raises(GridSizingError, match="tol"):
            picard_solve(State.constant(grid, 0.0, 1.0, 0.5), data, PARAMS,
                         grid, tol=bad)


# ---------------------------------------------------------------------------
# the report: one record per iterate

def record(distance, admissible=True, norm=0.5, margin=0.1, min_Q=1.0):
    return IterateRecord(distance=distance, admissible=admissible, norm=norm,
                         margin=margin, min_Q=min_Q,
                         first_violation=None if admissible else (1, 2, 3))


def test_report_lists_are_views_of_the_records():
    recs = [record(None, norm=0.9, margin=0.3, min_Q=1.5), record(0.2),
            record(0.05, admissible=False, margin=-0.01), record(0.0),
            record(0.0)]
    rep = IterationReport(converged=True, iterates=recs)
    assert rep.iterations == 4
    assert rep.distances == [0.2, 0.05, 0.0, 0.0]
    # no quotient after a zero distance
    assert rep.ratios == [0.05 / 0.2, 0.0 / 0.05]
    assert rep.admissible == [True, True, False, True, True]
    assert rep.norm_history == [0.9, 0.5, 0.5, 0.5, 0.5]
    assert rep.margins == [0.3, 0.1, -0.01, 0.1, 0.1]
    assert rep.min_Q == [1.5, 1.0, 1.0, 1.0, 1.0]
    zeroth_only = IterationReport(converged=False, iterates=recs[:1],
                                  aborted=True)
    assert zeroth_only.iterations == 0
    assert zeroth_only.distances == [] and zeroth_only.ratios == []


def test_report_error_states_the_failure_policy():
    recs = [record(None), record(1e-3)]
    assert IterationReport(True, recs).error() is None
    aborted = IterationReport(False, recs, aborted=True, message="left")
    err = aborted.error()
    assert type(err) is MhblError and str(err) == "left"
    capped = IterationReport(False, recs, message="no convergence")
    err = capped.error()
    assert type(err) is NonConvergenceError and str(err) == "no convergence"


def test_nonconvergence_error_is_built_only_by_the_report():
    # cli and mms raise what IterationReport.error() returns; outside
    # picard.py only cli's exit table names the class
    namers = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        table = {id(node) for top in tree.body if isinstance(top, ast.Assign)
                 and [getattr(t, "id", None) for t in top.targets]
                 == ["EXIT_TABLE"] for node in ast.walk(top)}
        if any(isinstance(node, ast.Name) and node.id == "NonConvergenceError"
               and id(node) not in table for node in ast.walk(tree)):
            namers.add(path.name)
    assert namers == {"picard.py"}


def iteration_rows(report, tmp_path):
    emit_plot_data(report, str(tmp_path))
    with open(tmp_path / "iterations.csv", newline="") as fh:
        return list(csv.reader(fh))


def measured(rec):
    """The cells iterations.csv appends for an IterateRecord."""
    return [f"{rec.norm:.12e}", f"{rec.margin:.12e}", f"{rec.min_Q:.12e}"]


def test_iterations_csv_row_n_pairs_records_n_minus_1_and_n(tmp_path,
                                                           monkeypatch):
    grid, data, v0 = perturbed_setup()
    _, report = picard_solve(v0, data, PARAMS, grid, tol=1e-9, max_iter=25)
    assert report.converged and report.iterations >= 3
    rows = iteration_rows(report, tmp_path)
    assert rows[0] == ["iteration", "distance", "ratio", "admissible",
                       "norm", "margin", "min_Q"]
    assert len(rows) == len(report.iterates)
    recs = report.iterates
    for n, row in enumerate(rows[1:], start=1):
        ratio = "" if n == 1 else repr(recs[n].distance / recs[n - 1].distance)
        assert row == [str(n), f"{recs[n].distance:.12e}", ratio, "True",
                       *measured(recs[n])]
    assert [float(row[2]) for row in rows[2:]] == report.ratios

    # aborted at iterate 2: its row is the last and reads False
    real = picard.solve_linear_problem
    calls = []

    def second_iterate_leaves(*args, measure, **kwargs):
        calls.append(1)

        def spoiled(k, v, old):
            if len(calls) == 2 and k == 3:
                v = v.copy()
                v[2, 5, 2] = data.P[3, 2]
            measure(k, v, old)
        return real(*args, measure=spoiled, **kwargs)

    monkeypatch.setattr(picard, "solve_linear_problem", second_iterate_leaves)
    _, report = picard_solve(v0, data, PARAMS, grid, tol=1e-16, max_iter=5)
    assert report.aborted and report.iterations == 2
    rows = iteration_rows(report, tmp_path)
    recs = report.iterates
    assert rows[1:] == [
        ["1", f"{recs[1].distance:.12e}", "", "True", *measured(recs[1])],
        ["2", f"{recs[2].distance:.12e}",
         repr(recs[2].distance / recs[1].distance), "False",
         *measured(recs[2])]]
    assert float(rows[2][5]) < 0.0  # the margin of the iterate off the set


# ---------------------------------------------------------------------------
# per-iterate measurement

def record_iterates(monkeypatch):
    """A list that picard_solve's iterates are copied into, the zeroth first."""
    iterates = []
    real = picard.solve_linear_problem

    def recording(v_prev, *args, **kwargs):
        if not iterates:
            iterates.append(v_prev.data.copy())            # zeroth iterate
        out = real(v_prev, *args, **kwargs)
        iterates.append(out.data.copy())
        return out

    monkeypatch.setattr(picard, "solve_linear_problem", recording)
    return iterates


def test_norm_history_matches_stacked_background_reference(monkeypatch):
    # time-varying outflow: the background differs from level to level, so a
    # level paired with the wrong background row would show in the norm
    grid = make_grid(6, 25, 6.0, 0.05, 0.2)
    data = sample_outflow(time_varying_spec(), grid)
    phi = cutoff_phi(grid.eta)[None, :]
    eta = grid.eta[None, :]
    bump = 0.03 * np.sin(grid.xi)[:, None] * (eta ** 2 * np.exp(-eta))
    v0 = State(u1=0.1 * phi + bump, theta=phi + 0.5 * (1 - phi) + bump,
               q=0.5 + bump)
    iterates = record_iterates(monkeypatch)
    _, report = picard_solve(v0, data, PARAMS, grid, tol=1e-16, max_iter=3)
    assert len(report.norm_history) == len(iterates) == 4

    vbar = np.empty((grid.nsteps + 1, grid.nx, grid.neta, 3))
    vbar[..., 0] = data.U[:, :, None] * phi
    vbar[..., 1] = (data.Theta[:, :, None] * phi
                    + data.theta_star[:, :, None] * (1.0 - phi))
    vbar[..., 2] = 0.5 * data.Hfield[:, :, None] ** 2
    for got, traj in zip(report.norm_history, iterates):
        want = max(np.sqrt(sum(discrete_norm(w[..., c], 1, grid) ** 2
                               for c in range(3)))
                   for w in traj - vbar)
        assert got == pytest.approx(want, rel=1e-14)
    assert report.norm_history[0] > 0.0


def measure_levels(levels, old_levels, bg, grid):
    """Feed levels (and old_levels, or None) to a fresh per-level measure."""
    measure = picard._Measure(bg, PARAMS, grid)
    for k, v in enumerate(levels):
        measure(k, v, None if old_levels is None else old_levels[k])
    return measure.result()


def test_measure_propagates_a_nan_level():
    grid, data = constant_setup()
    bg = build_background(data, grid)
    level = State.constant(grid, 0.0, 1.0, 0.5).as_array()
    prev = np.stack([level] * (grid.nsteps + 1))
    traj = prev.copy()
    rec = measure_levels(traj, prev, bg, grid)
    assert rec.distance == 0.0 and rec.admissible and rec.norm <= 1e-13
    assert rec.first_violation is None
    # a NaN level after the first: the builtin max() would drop it
    traj[2] = np.nan
    rec = measure_levels(traj, prev, bg, grid)
    assert np.isnan(rec.distance) and np.isnan(rec.norm)
    assert rec.admissible is False and rec.first_violation == (2, 0, 0)
    assert np.isnan(rec.margin) and np.isnan(rec.min_Q)
    rec = measure_levels(traj, None, bg, grid)
    assert rec.distance is None and np.isnan(rec.norm)
    assert rec.admissible is False


def direct_margin(traj, outflow, delta):
    """min over levels of theta, q and P - q, less delta, from whole arrays."""
    theta, q = traj[..., 1], traj[..., 2]
    return float(min(theta.min(), q.min(),
                     (outflow.P[:, :, None] - q).min())) - delta


def test_margins_recorded_per_iterate(monkeypatch):
    grid, data, v0 = perturbed_setup()
    iterates = record_iterates(monkeypatch)
    _, report = picard_solve(v0, data, PARAMS, grid, tol=1e-9, max_iter=25)
    assert report.converged
    assert len(report.margins) == len(iterates) == report.iterations + 1
    assert all(m > 0.0 for m in report.margins)
    for got, traj in zip(report.margins, iterates):
        assert got == direct_margin(traj, data, PARAMS.delta)

    # the zeroth approximation of a declining pressure leaves the set
    grid, data, v0 = declining_pressure_setup()
    zeroth = build_zeroth_approx(
        build_background(data, grid), v0.as_array(),
        compatibility_derivatives(v0, data, PARAMS, grid), grid)
    _, report = picard_solve(v0, data, PARAMS, grid)
    assert report.aborted and report.admissible == [False]
    assert len(report.margins) == 1 and report.margins[0] < 0.0
    assert report.margins[0] == direct_margin(zeroth.data, data, PARAMS.delta)


def test_min_Q_recorded_per_iterate(monkeypatch):
    # min_Q[n] is the smallest Q = P + (1 - 2a) q of iterate n over all
    # levels; the last one is that of the returned trajectory
    grid, data, v0 = perturbed_setup()
    iterates = record_iterates(monkeypatch)
    traj, report = picard_solve(v0, data, PARAMS, grid, tol=1e-9, max_iter=25)
    assert report.converged
    assert len(report.min_Q) == len(iterates) == report.iterations + 1

    def direct(levels):
        return float(np.min([(data.P[k][:, None]
                              + (1.0 - 2.0 * PARAMS.a) * v[..., 2]).min()
                             for k, v in enumerate(levels)]))

    assert report.min_Q[-1] == direct(traj.data)
    for got, levels in zip(report.min_Q, iterates):
        assert got == direct(levels) > 0.0


def test_picard_peak_memory_stays_below_two_sources():
    # the 32x64 level of criterion 04's advection study; the source is built
    # before tracing starts, so the peak counts only what picard_solve holds:
    # one trajectory, which every iterate overwrites level by level, and one
    # step's work arrays with the march's one-level carry (together about
    # 0.8 trajectory at 42 levels); no second iterate, no stored background
    case = mms.case_library()["advection"]
    deta0 = case.eta_max / 31
    dt = case.base_dt * (case.eta_max / 63 / deta0) ** 2
    nsteps = int(round(case.t_end / dt))
    grid = make_grid(32, 64, case.eta_max, case.t_end / nsteps, case.t_end)
    outflow = sample_outflow(case.outflow_spec, grid)
    source = mms.manufacture_source(case, outflow, case.params, grid)
    v0 = mms.exact_state(case, grid, 0.0)
    (_, report), peak = traced_peak(picard_solve, v0, outflow, case.params,
                                    grid, tol=1e-10, max_iter=40,
                                    source=source)
    assert report.converged
    assert peak / source.nbytes < 2.0
