"""Manufactured solutions and convergence studies.

A manufactured case prescribes a smooth exact state v_e(t, xi, eta) that
satisfies the boundary conditions exactly, stays admissible with margin
delta, and comes with analytic derivatives.  The source

    s = d_tau v_e + A(v_e) d_xi v_e + f(v_e, d_eta v_e) + g(v_e)
        - B(v_e) d_eta^2 v_e

is evaluated with those analytic derivatives (never with the grid stencils)
and fed to the solver; the discrete solution then converges to v_e at the
scheme's order: second in space, first in time.

Every shipped case is separable: each of (u1, theta, q) is
c0 + a w(t, xi) g(eta), where a weight returns (w, d_t w, d_xi w) and a
profile (g, g', g''); a factor that depends on none of its arguments
returns floats.  So a case is data, three (c0, a, weight, profile) entries,
and advection and shear share the profiles eta e^{-eta^2} and the
wall-flat (1 + eta^2 + eta^4/2) e^{-eta^2}.

The shipped library:

  constant:   the fixed point itself; zero source, machine-zero errors.
  advection:  travelling wave in xi; the A d_xi v term dominates.
  shear:      xi-independent steep layers; the quadratic-gradient f/F term
              dominates the spatial balance.
  diffusion:  xi-independent quadratic-in-eta profiles, so every spatial
              stencil is exact and the measured error is purely temporal;
              the B d_eta^2 v term dominates the spatial balance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import coeffs
from .errors import GridSizingError, PreconditionError
from .fields import (FloatArray, Grid, OutflowData, OutflowSpec, Params,
                     State, admissibility, make_grid, sample_outflow)
from .picard import picard_solve

#: signature of the exact-field callables: (t, xi_col (nx,1), eta_row (1,neta))
FieldFn = Callable[[float, FloatArray, FloatArray], FloatArray]
PICARD_TOL, PICARD_MAX_ITER = 1e-10, 40


@dataclass(frozen=True)
class ManufacturedCase:
    """An exact solution with analytic derivatives and solver settings."""

    name: str
    params: Params
    outflow_spec: OutflowSpec
    eta_max: float
    t_end: float
    base_dt: float
    v: FieldFn
    v_t: FieldFn
    v_xi: FieldFn
    v_eta: FieldFn
    v_etaeta: FieldFn


def exact_state(case: ManufacturedCase, grid: Grid, t: float) -> State:
    xi = grid.xi[:, None]
    eta = grid.eta[None, :]
    return State.from_array(case.v(t, xi, eta), time=t)


def manufacture_source(case: ManufacturedCase, outflow: OutflowData,
                       params: Params, grid: Grid) -> FloatArray:
    """Sample the manufactured source on every grid level, (nt+1, nx, neta, 3).

    Uses the case's analytic derivatives together with the same sampled
    pressure data the solver sees, so the pressure terms cancel exactly in
    the error equation.  Rejects cases that leave the admissible set.
    """
    xi = grid.xi[:, None]
    eta = grid.eta[None, :]
    nt = grid.nsteps
    out = np.empty((nt + 1, grid.nx, grid.neta, 3))
    for k in range(nt + 1):
        t = float(grid.times[k])
        v = case.v(t, xi, eta)
        P = outflow.P[k][:, None]
        if not admissibility(v[..., 1], v[..., 2], P, params,
                             params.delta).ok:
            raise PreconditionError(
                f"case {case.name!r} leaves the admissible set at t = {t:g}")
        out[k] = case.v_t(t, xi, eta) + coeffs.operator(
            v, case.v_xi(t, xi, eta), case.v_eta(t, xi, eta),
            case.v_etaeta(t, xi, eta), P, outflow.P_t[k][:, None],
            outflow.P_xi[k][:, None], params)
    return out


def solve_case(case: ManufacturedCase, nx: int, neta: int, dt: float,
               t_end: Optional[float] = None):
    """Run the solver against a case; returns (trajectory, report, errors).

    errors are the weighted L2 norms of (computed - exact) per component at
    the final time.  dt is snapped so an integer number of steps lands on
    t_end exactly.
    """
    t_end = case.t_end if t_end is None else t_end
    nsteps = max(1, int(round(t_end / dt)))
    dt = t_end / nsteps
    grid = make_grid(nx, neta, case.eta_max, dt, t_end)
    outflow = sample_outflow(case.outflow_spec, grid)
    source = manufacture_source(case, outflow, case.params, grid)
    v0 = exact_state(case, grid, 0.0)
    traj, report = picard_solve(v0, outflow, case.params, grid, tol=PICARD_TOL,
                                max_iter=PICARD_MAX_ITER, source=source)
    vex = exact_state(case, grid, float(grid.times[-1])).as_array()
    diff = traj.data[-1] - vex
    w = grid.eta_weights()
    errors = np.sqrt(np.sum(diff ** 2 * w[None, :, None], axis=(0, 1)) * grid.dxi)
    return traj, report, errors


@dataclass(frozen=True)
class StudyRow:
    nx: int
    neta: int
    dt: float
    errors: Tuple[float, float, float]


@dataclass(frozen=True)
class StudyResult:
    """Errors and fitted orders of one convergence study.

    orders holds the least-squares slope of log error against log deta per
    component; exact flags studies whose errors sit at rounding level, where
    a fitted order would be noise.  monotone records whether every
    component's error decreased at each refinement.
    """

    case: str
    mode: str
    rows: List[StudyRow]
    orders: Tuple[float, float, float]
    exact: bool
    monotone: bool


def convergence_study(case: ManufacturedCase,
                      resolutions: Sequence[Tuple[int, int]],
                      mode: str = "spatial",
                      t_end: Optional[float] = None) -> StudyResult:
    """Refine (dxi, deta, dt) together and fit the observed order.

    mode "spatial" scales dt with deta^2 so the first-order time error stays
    subdominant and the fitted slope reflects the second-order stencils;
    mode "temporal" scales dt with deta and expects slope one.  At least
    three resolutions are required; the first runs at the case's base_dt.
    A failed solve raises its report's error, naming case and resolution.
    """
    if mode not in ("spatial", "temporal"):
        raise GridSizingError(f"mode must be 'spatial' or 'temporal', got {mode!r}")
    if len(resolutions) < 3:
        raise GridSizingError("a convergence study needs at least 3 resolutions")
    deta0 = case.eta_max / (resolutions[0][1] - 1)
    rows: List[StudyRow] = []
    for nx, neta in resolutions:
        deta = case.eta_max / (neta - 1)
        power = 2 if mode == "spatial" else 1
        dt = case.base_dt * (deta / deta0) ** power
        # the trajectory is not kept: bound to a name, it would be held
        # through the next resolution's solve
        report, errors = solve_case(case, nx, neta, dt, t_end=t_end)[1:]
        error = report.error()
        if error is not None:
            raise type(error)(f"case {case.name!r} at {nx}x{neta}: {error}")
        rows.append(StudyRow(nx=nx, neta=neta, dt=dt,
                             errors=tuple(float(e) for e in errors)))
    errs = np.array([r.errors for r in rows])
    exact = bool(np.all(errs < 1e-12))
    detas = np.log([case.eta_max / (r.neta - 1) for r in rows])
    orders = []
    for c in range(3):
        if exact:
            orders.append(float("nan"))
        else:
            slope = np.polyfit(detas, np.log(np.maximum(errs[:, c], 1e-300)), 1)[0]
            orders.append(float(slope))
    monotone = bool(np.all(np.diff(errs, axis=0) < 0.0)) if not exact else True
    return StudyResult(case=case.name, mode=mode, rows=rows,
                       orders=tuple(orders), exact=exact, monotone=monotone)


def write_study_csv(result: StudyResult, path: str) -> None:
    """Write a study as CSV with columns
    case, nx, neta, dt, err_u1, err_theta, err_q, order_u1, order_theta, order_q."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["case", "nx", "neta", "dt", "err_u1", "err_theta",
                     "err_q", "order_u1", "order_theta", "order_q"])
        for row in result.rows:
            wr.writerow([result.case, row.nx, row.neta, f"{row.dt:.12g}",
                         *(f"{e:.12e}" for e in row.errors),
                         *(("exact" if result.exact else f"{o:.6g}")
                           for o in result.orders)])


# --------------------------------------------------------------------------
# case library

def _separable_case(name: str, params: Params, spec: OutflowSpec,
                    eta_max: float, base_dt: float,
                    components: Sequence[tuple]) -> ManufacturedCase:
    """A case from the (c0, a, weight, profile) of u1, theta and q; each
    field callable evaluates every distinct weight and profile once."""
    weights = list(dict.fromkeys(c[2] for c in components))
    profiles = list(dict.fromkeys(c[3] for c in components))

    def field(w_part: int, g_part: int, with_c0: bool) -> FieldFn:
        def fn(t, xi, eta):
            ws = {w: w(t, xi) for w in weights}
            gs = {g: g(eta) for g in profiles}
            shape = np.broadcast_shapes(np.shape(xi), np.shape(eta))
            out = np.empty(shape + (3,))
            for i, (c0, a, w, g) in enumerate(components):
                term = a * ws[w][w_part] * gs[g][g_part]
                out[..., i] = c0 + term if with_c0 else term
            return out
        return fn

    return ManufacturedCase(
        name=name, params=params, outflow_spec=spec, eta_max=eta_max,
        t_end=0.2, base_dt=base_dt, v=field(0, 0, True),
        v_t=field(1, 0, False), v_xi=field(2, 0, False),
        v_eta=field(0, 1, False), v_etaeta=field(0, 2, False))


def _unit(*_):
    """The constant factor 1, as a weight or a profile."""
    return 1.0, 0.0, 0.0


def _bump(eta):
    """eta e^{-eta^2}: zero at the wall and decaying to the far edge."""
    e = np.exp(-eta ** 2)
    return (eta * e, (1.0 - 2.0 * eta ** 2) * e,
            (4.0 * eta ** 3 - 6.0 * eta) * e)


def _wall_flat(eta):
    """(1 + eta^2 + eta^4/2) e^{-eta^2} = 1 - eta^6/6 + O(eta^8).

    Flat to sixth order at the wall, so the one-sided Neumann closure there
    is essentially exact and the measured q error reflects the interior
    stencils rather than the wall node.
    """
    e = np.exp(-eta ** 2)
    return ((1.0 + eta ** 2 + 0.5 * eta ** 4) * e, -(eta ** 5) * e,
            (2.0 * eta ** 6 - 5.0 * eta ** 4) * e)


def _wave_sin(t, xi):
    s, c = np.sin(xi - t), np.cos(xi - t)
    return s, -c, c


def _wave_cos(t, xi):
    s, c = np.sin(xi - t), np.cos(xi - t)
    return c, s, -s


def make_constant_case() -> ManufacturedCase:
    """The exact fixed point: constant admissible data, zero source."""
    params = Params(mu=1.0, kappa=1.0, nu=1.0, R=1.0, cV=1.0, delta=0.05)
    spec = OutflowSpec.constant(U=0.0, Theta=1.0, Hfield=1.0, P=1.5,
                                theta_star=1.0)
    return _separable_case("constant", params, spec, 8.0, 0.02, [
        (0.0, 0.0, _unit, _unit), (1.0, 0.0, _unit, _unit),
        (0.5, 0.0, _unit, _unit)])


def make_advection_case() -> ManufacturedCase:
    """Travelling wave in xi; weak diffusivities keep A d_xi v dominant."""
    params = Params(mu=0.05, kappa=0.05, nu=0.05, R=1.0, cV=1.0, delta=0.05)
    spec = OutflowSpec.constant(U=0.0, Theta=1.0, Hfield=1.0, P=1.0,
                                theta_star=1.0)
    return _separable_case("advection", params, spec, 8.0, 0.02, [
        (0.0, 0.10, _wave_sin, _bump), (1.0, 0.10, _wave_cos, _bump),
        (0.5, 0.10, _wave_sin, _wall_flat)])


def make_shear_case() -> ManufacturedCase:
    """xi-independent layers with strong eta gradients; the quadratic f/F
    terms carry the spatial balance."""
    params = Params(mu=0.1, kappa=0.1, nu=0.1, R=1.0, cV=1.0, delta=0.05)
    spec = OutflowSpec.constant(U=0.0, Theta=1.0, Hfield=1.0, P=1.0,
                                theta_star=1.0)

    def w_u(t, xi):
        return 1.0 + 0.5 * math.sin(2.0 * t), math.cos(2.0 * t), 0.0

    def w_theta(t, xi):
        return 1.0 + 0.5 * math.cos(2.0 * t), -math.sin(2.0 * t), 0.0

    def w_q(t, xi):
        return 1.0 + 0.4 * math.sin(2.0 * t), 0.8 * math.cos(2.0 * t), 0.0

    return _separable_case("shear", params, spec, 8.0, 0.02, [
        (0.0, 0.5, w_u, _bump), (1.0, 0.3, w_theta, _bump),
        (0.5, 0.25, w_q, _wall_flat)])


def make_diffusion_case() -> ManufacturedCase:
    """Quadratic-in-eta pulsating profiles on [0, 4]: every spatial stencil
    is exact on them, so the measured error is the time error alone."""
    params = Params(mu=1.0, kappa=1.0, nu=1.0, R=1.0, cV=1.0, delta=0.05)
    spec = OutflowSpec.constant(U=0.0, Theta=1.0, Hfield=1.0, P=1.0,
                                theta_star=1.0)
    L = 4.0

    def w_sin(t, xi):
        return math.sin(2.0 * t), 2.0 * math.cos(2.0 * t), 0.0

    def w_cos(t, xi):
        return math.cos(2.0 * t), -2.0 * math.sin(2.0 * t), 0.0

    def g_u(eta):
        return (4.0 * (eta / L) * (1.0 - eta / L), 4.0 / L - 8.0 * eta / L ** 2,
                -8.0 / L ** 2)

    def g_q(eta):
        return 1.0 - (eta / L) ** 2, -2.0 * eta / L ** 2, -2.0 / L ** 2

    return _separable_case("diffusion", params, spec, L, 0.04, [
        (0.0, 0.15, w_sin, g_u), (1.0, 0.15, w_cos, g_u),
        (0.5, 0.15, w_sin, g_q)])


def case_library() -> Dict[str, ManufacturedCase]:
    cases = [make_constant_case(), make_advection_case(), make_shear_case(),
             make_diffusion_case()]
    return {c.name: c for c in cases}
