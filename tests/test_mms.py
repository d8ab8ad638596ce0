"""Manufactured cases: source construction, boundary compliance, solver
error behavior, study bookkeeping and the CSV export format.

The full three-case order study lives in the acceptance suite; here the
cases are exercised at coarse resolution where the expected behavior is
still sharp (constant case exact, temporal error halving under dt halving).
"""

import csv
import dataclasses

import numpy as np
import pytest

from mhbl import GridSizingError, PreconditionError, make_grid, sample_outflow
from mhbl.mms import (
    StudyResult,
    StudyRow,
    case_library,
    convergence_study,
    exact_state,
    manufacture_source,
    solve_case,
    write_study_csv,
)

CASES = case_library()


def test_library_contents():
    assert set(CASES) == {"constant", "advection", "shear", "diffusion"}
    for case in CASES.values():
        assert case.eta_max > 0 and case.t_end > 0 and case.base_dt > 0


def test_constant_case_has_zero_source_and_solves_exactly():
    case = CASES["constant"]
    grid = make_grid(8, 16, case.eta_max, 0.02, 0.1)
    outflow = sample_outflow(case.outflow_spec, grid)
    source = manufacture_source(case, outflow, case.params, grid)
    assert np.max(np.abs(source)) <= 1e-13
    traj, report, errors = solve_case(case, 8, 16, 0.02, t_end=0.1)
    assert report.converged
    assert np.all(errors <= 1e-12)


@pytest.mark.parametrize("name", ["advection", "shear", "diffusion"])
def test_cases_satisfy_boundary_conditions(name):
    case = CASES[name]
    grid = make_grid(8, 33, case.eta_max, case.base_dt, case.t_end)
    outflow = sample_outflow(case.outflow_spec, grid)
    xi = grid.xi[:, None]
    eta = grid.eta[None, :]
    for k in (0, grid.nsteps // 2, grid.nsteps):
        t = float(grid.times[k])
        arr = case.v(t, xi, eta)
        # wall: no-slip, prescribed temperature trace, zero q gradient
        np.testing.assert_allclose(arr[:, 0, 0], 0.0, atol=1e-15)
        np.testing.assert_allclose(arr[:, 0, 1], outflow.theta_star[k],
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(case.v_eta(t, xi, eta)[:, 0, 2], 0.0,
                                   atol=1e-15)
        # far edge: the outflow state
        np.testing.assert_allclose(arr[:, -1], outflow.vinf(k), rtol=0,
                                   atol=1e-12)


@pytest.mark.parametrize("name", ["advection", "shear", "diffusion"])
def test_cases_stay_admissible_with_margin(name):
    case = CASES[name]
    grid = make_grid(8, 33, case.eta_max, case.base_dt, case.t_end)
    outflow = sample_outflow(case.outflow_spec, grid)
    d = case.params.delta
    for k in range(grid.nsteps + 1):
        arr = case.v(float(grid.times[k]), grid.xi[:, None], grid.eta[None, :])
        P = outflow.P[k][:, None]
        assert arr[..., 1].min() >= d
        assert arr[..., 2].min() >= d
        assert (P - arr[..., 2]).min() >= d


def test_manufacture_source_rejects_inadmissible_case():
    case = CASES["advection"]

    def bad_v(t, xi, eta):
        z = np.zeros(np.broadcast_shapes(xi.shape, eta.shape))
        # q above P - delta for the case's P = 1
        return np.stack([z, 1.0 + z, 1.2 + z], axis=-1)

    tampered = dataclasses.replace(case, v=bad_v)
    grid = make_grid(8, 16, case.eta_max, 0.02, 0.1)
    outflow = sample_outflow(case.outflow_spec, grid)
    with pytest.raises(PreconditionError):
        manufacture_source(tampered, outflow, case.params, grid)


def test_solve_case_snaps_dt_to_land_on_t_end():
    case = CASES["advection"]
    traj, report, errors = solve_case(case, 8, 16, dt=0.03, t_end=0.2)
    assert report.converged
    assert traj.times[-1] == pytest.approx(0.2, abs=1e-14)
    # 0.2/0.03 rounds to 7 steps
    assert traj.nlevels == 8
    assert np.all(np.isfinite(errors)) and np.all(errors > 0.0)


def test_diffusion_error_is_purely_temporal_and_first_order():
    # quadratic-in-eta profiles make every spatial stencil exact; halving dt
    # must halve the error
    case = CASES["diffusion"]
    _, _, e1 = solve_case(case, 8, 16, dt=0.04)
    _, _, e2 = solve_case(case, 8, 16, dt=0.02)
    ratios = e1 / e2
    assert np.all(ratios > 1.6) and np.all(ratios < 2.5)
    # refining eta at fixed dt must not change the error noticeably (the
    # residual wobble is the trapezoid measure of the error profile itself)
    _, _, e3 = solve_case(case, 8, 32, dt=0.04)
    np.testing.assert_allclose(e3, e1, rtol=2e-2)


def test_convergence_study_validation():
    case = CASES["constant"]
    with pytest.raises(GridSizingError):
        convergence_study(case, [(8, 16), (8, 24)])
    with pytest.raises(GridSizingError):
        convergence_study(case, [(8, 16), (8, 24), (8, 32)], mode="sideways")


def test_constant_study_is_flagged_exact():
    case = CASES["constant"]
    res = convergence_study(case, [(8, 16), (8, 24), (8, 32)], t_end=0.1)
    assert res.exact and res.monotone
    assert all(np.isnan(o) for o in res.orders)
    assert len(res.rows) == 3
    assert res.rows[0].errors[1] <= 1e-12


def test_write_study_csv_format(tmp_path):
    rows = [StudyRow(nx=8, neta=16, dt=0.02, errors=(1e-3, 2e-3, 3e-3)),
            StudyRow(nx=16, neta=32, dt=0.005, errors=(2.5e-4, 5e-4, 7.5e-4)),
            StudyRow(nx=32, neta=64, dt=0.00125, errors=(6e-5, 1.2e-4, 1.9e-4))]
    res = StudyResult(case="advection", mode="spatial", rows=rows,
                      orders=(2.01, 1.99, 1.98), exact=False, monotone=True)
    path = tmp_path / "study.csv"
    write_study_csv(res, str(path))
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["case", "nx", "neta", "dt", "err_u1", "err_theta",
                      "err_q", "order_u1", "order_theta", "order_q"]
    assert len(got) == 4
    assert got[1][0] == "advection"
    assert got[1][1:3] == ["8", "16"]
    assert float(got[2][4]) == pytest.approx(2.5e-4)
    assert got[3][7] == "2.01"

    exact_res = StudyResult(case="constant", mode="spatial", rows=rows[:3],
                            orders=(float("nan"),) * 3, exact=True,
                            monotone=True)
    write_study_csv(exact_res, str(path))
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[1][7:] == ["exact", "exact", "exact"]


def test_exact_state_shape_and_time():
    case = CASES["shear"]
    grid = make_grid(8, 16, case.eta_max, 0.02, 0.1)
    st = exact_state(case, grid, 0.06)
    assert st.time == 0.06
    assert st.u1.shape == (8, 16)


@pytest.mark.parametrize("name", ["constant", "advection", "shear",
                                  "diffusion"])
def test_case_derivatives_match_finite_differences(name):
    # fourth-order central differences of v at random interior points
    case = CASES[name]
    h = 1e-3
    rng = np.random.default_rng(7)
    xi = rng.uniform(0.0, 2.0 * np.pi, (6, 1))
    eta = rng.uniform(0.1, case.eta_max - 0.1, (1, 7))

    def d1(f):
        return (-f(2.0) + 8.0 * f(1.0) - 8.0 * f(-1.0) + f(-2.0)) / (12.0 * h)

    def d2(f):
        return (-f(2.0) + 16.0 * f(1.0) - 30.0 * f(0.0) + 16.0 * f(-1.0)
                - f(-2.0)) / (12.0 * h * h)

    for t in rng.uniform(2.0 * h, case.t_end, 3):
        t = float(t)
        checks = {
            "v_t": d1(lambda s: case.v(t + s * h, xi, eta)),
            "v_xi": d1(lambda s: case.v(t, xi + s * h, eta)),
            "v_eta": d1(lambda s: case.v(t, xi, eta + s * h)),
            "v_etaeta": d2(lambda s: case.v(t, xi, eta + s * h)),
        }
        for field, fd in checks.items():
            np.testing.assert_allclose(getattr(case, field)(t, xi, eta), fd,
                                       rtol=0, atol=1e-8, err_msg=field)


def test_phase_shifted_case_shifts_the_source():
    # the phase shift perfbench applies: every field callable is replaced,
    # so the source must read each of them through the case
    case = CASES["advection"]
    grid = make_grid(16, 24, case.eta_max, case.base_dt, case.t_end)
    outflow = sample_outflow(case.outflow_spec, grid)
    phase = 2.0 * grid.dxi

    def shifted(fn):
        return lambda t, xi, eta: fn(t, xi + phase, eta)

    moved = dataclasses.replace(
        case, v=shifted(case.v), v_t=shifted(case.v_t),
        v_xi=shifted(case.v_xi), v_eta=shifted(case.v_eta),
        v_etaeta=shifted(case.v_etaeta))
    base = manufacture_source(case, outflow, case.params, grid)
    got = manufacture_source(moved, outflow, case.params, grid)
    np.testing.assert_allclose(got, np.roll(base, -2, axis=1), rtol=0,
                               atol=1e-12 * np.max(np.abs(base)))
