"""Manufactured solutions and convergence studies.

A manufactured case prescribes a smooth exact state v_e(t, xi, eta) that
satisfies the boundary conditions exactly, stays admissible with margin
delta, and comes with analytic derivatives.  The source

    s = d_tau v_e + A(v_e) d_xi v_e + f(v_e, d_eta v_e) + g(v_e)
        - B(v_e) d_eta^2 v_e

is evaluated with those analytic derivatives (never with the grid stencils)
and fed to the solver; the discrete solution then converges to v_e at the
scheme's order: second in space, first in time.

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
               t_end: Optional[float] = None, tol: float = 1e-10,
               max_iter: int = 40):
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
    traj, report = picard_solve(v0, outflow, case.params, grid, tol=tol,
                                max_iter=max_iter, source=source)
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

    @property
    def overall_order(self) -> float:
        return float(min(self.orders))


def convergence_study(case: ManufacturedCase,
                      resolutions: Sequence[Tuple[int, int]],
                      mode: str = "spatial",
                      dt0: Optional[float] = None,
                      t_end: Optional[float] = None,
                      tol: float = 1e-10,
                      max_iter: int = 40) -> StudyResult:
    """Refine (dxi, deta, dt) together and fit the observed order.

    mode "spatial" scales dt with deta^2 so the first-order time error stays
    subdominant and the fitted slope reflects the second-order stencils;
    mode "temporal" scales dt with deta and expects slope one.  At least
    three resolutions are required.
    """
    if mode not in ("spatial", "temporal"):
        raise GridSizingError(f"mode must be 'spatial' or 'temporal', got {mode!r}")
    if len(resolutions) < 3:
        raise GridSizingError("a convergence study needs at least 3 resolutions")
    dt0 = case.base_dt if dt0 is None else dt0
    deta0 = case.eta_max / (resolutions[0][1] - 1)
    rows: List[StudyRow] = []
    for nx, neta in resolutions:
        deta = case.eta_max / (neta - 1)
        power = 2 if mode == "spatial" else 1
        dt = dt0 * (deta / deta0) ** power
        _, report, errors = solve_case(case, nx, neta, dt, t_end=t_end,
                                       tol=tol, max_iter=max_iter)
        if not report.converged:
            raise PreconditionError(
                f"case {case.name!r} at {nx}x{neta}: {report.message}")
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

def _stack(u1, theta, q) -> FloatArray:
    u1, theta, q = np.broadcast_arrays(u1, theta, q)
    return np.stack([u1, theta, q], axis=-1).astype(float)


def make_constant_case() -> ManufacturedCase:
    """The exact fixed point: constant admissible data, zero source."""
    params = Params(mu=1.0, kappa=1.0, nu=1.0, R=1.0, cV=1.0, delta=0.05)
    spec = OutflowSpec.constant(U=0.0, Theta=1.0, Hfield=1.0, P=1.5,
                                theta_star=1.0)

    def v(t, xi, eta):
        z = np.zeros(np.broadcast_shapes(xi.shape, eta.shape))
        return _stack(z, z + 1.0, z + 0.5)

    def zero(t, xi, eta):
        z = np.zeros(np.broadcast_shapes(xi.shape, eta.shape))
        return _stack(z, z, z)

    return ManufacturedCase(name="constant", params=params, outflow_spec=spec,
                            eta_max=8.0, t_end=0.2, base_dt=0.02,
                            v=v, v_t=zero, v_xi=zero, v_eta=zero, v_etaeta=zero)


def make_advection_case() -> ManufacturedCase:
    """Travelling wave in xi; weak diffusivities keep A d_xi v dominant.

    The q profile is flat to sixth order at the wall, so the one-sided
    Neumann closure there is essentially exact and the measured q error
    reflects the interior stencils rather than the wall node.
    """
    params = Params(mu=0.05, kappa=0.05, nu=0.05, R=1.0, cV=1.0, delta=0.05)
    spec = OutflowSpec.constant(U=0.0, Theta=1.0, Hfield=1.0, P=1.0,
                                theta_star=1.0)
    au, ath, aq = 0.10, 0.10, 0.10

    def pieces(t, xi, eta):
        e = np.exp(-eta ** 2)
        gu = eta * e
        dgu = (1.0 - 2.0 * eta ** 2) * e
        d2gu = (4.0 * eta ** 3 - 6.0 * eta) * e
        # e^{-eta^2}(1 + eta^2 + eta^4/2) = 1 - eta^6/6 + O(eta^8)
        gq = (1.0 + eta ** 2 + 0.5 * eta ** 4) * e
        dgq = -(eta ** 5) * e
        d2gq = (2.0 * eta ** 6 - 5.0 * eta ** 4) * e
        s, c = np.sin(xi - t), np.cos(xi - t)
        return gu, dgu, d2gu, gq, dgq, d2gq, s, c

    def v(t, xi, eta):
        gu, _, _, gq, _, _, s, c = pieces(t, xi, eta)
        return _stack(au * s * gu, 1.0 + ath * c * gu, 0.5 + aq * s * gq)

    def v_t(t, xi, eta):
        gu, _, _, gq, _, _, s, c = pieces(t, xi, eta)
        return _stack(-au * c * gu, ath * s * gu, -aq * c * gq)

    def v_xi(t, xi, eta):
        gu, _, _, gq, _, _, s, c = pieces(t, xi, eta)
        return _stack(au * c * gu, -ath * s * gu, aq * c * gq)

    def v_eta(t, xi, eta):
        _, dgu, _, _, dgq, _, s, c = pieces(t, xi, eta)
        return _stack(au * s * dgu, ath * c * dgu, aq * s * dgq)

    def v_etaeta(t, xi, eta):
        _, _, d2gu, _, _, d2gq, s, c = pieces(t, xi, eta)
        return _stack(au * s * d2gu, ath * c * d2gu, aq * s * d2gq)

    return ManufacturedCase(name="advection", params=params, outflow_spec=spec,
                            eta_max=8.0, t_end=0.2, base_dt=0.02,
                            v=v, v_t=v_t, v_xi=v_xi, v_eta=v_eta,
                            v_etaeta=v_etaeta)


def make_shear_case() -> ManufacturedCase:
    """xi-independent layers with strong eta gradients; the quadratic f/F
    terms carry the spatial balance.  The q profile is wall-flat to sixth
    order for the same reason as in the advection case."""
    params = Params(mu=0.1, kappa=0.1, nu=0.1, R=1.0, cV=1.0, delta=0.05)
    spec = OutflowSpec.constant(U=0.0, Theta=1.0, Hfield=1.0, P=1.0,
                                theta_star=1.0)
    au, ath, aq = 0.5, 0.3, 0.25

    def parts(t, eta):
        e = np.exp(-eta ** 2)
        g = eta * e
        dg = (1.0 - 2.0 * eta ** 2) * e
        d2g = (4.0 * eta ** 3 - 6.0 * eta) * e
        b = (1.0 + eta ** 2 + 0.5 * eta ** 4) * e
        db = -(eta ** 5) * e
        d2b = (2.0 * eta ** 6 - 5.0 * eta ** 4) * e
        wu = 1.0 + 0.5 * math.sin(2.0 * t)
        wth = 1.0 + 0.5 * math.cos(2.0 * t)
        wq = 1.0 + 0.4 * math.sin(2.0 * t)
        dwu = math.cos(2.0 * t)
        dwth = -math.sin(2.0 * t)
        dwq = 0.8 * math.cos(2.0 * t)
        return g, dg, d2g, b, db, d2b, wu, wth, wq, dwu, dwth, dwq

    def v(t, xi, eta):
        g, _, _, b, _, _, wu, wth, wq, _, _, _ = parts(t, eta)
        one = np.ones_like(xi)
        return _stack(au * wu * g * one, 1.0 + ath * wth * g * one,
                      0.5 + aq * wq * b * one)

    def v_t(t, xi, eta):
        g, _, _, b, _, _, _, _, _, dwu, dwth, dwq = parts(t, eta)
        one = np.ones_like(xi)
        return _stack(au * dwu * g * one, ath * dwth * g * one,
                      aq * dwq * b * one)

    def v_xi(t, xi, eta):
        z = np.zeros(np.broadcast_shapes(xi.shape, eta.shape))
        return _stack(z, z, z)

    def v_eta(t, xi, eta):
        _, dg, _, _, db, _, wu, wth, wq, _, _, _ = parts(t, eta)
        one = np.ones_like(xi)
        return _stack(au * wu * dg * one, ath * wth * dg * one,
                      aq * wq * db * one)

    def v_etaeta(t, xi, eta):
        _, _, d2g, _, _, d2b, wu, wth, wq, _, _, _ = parts(t, eta)
        one = np.ones_like(xi)
        return _stack(au * wu * d2g * one, ath * wth * d2g * one,
                      aq * wq * d2b * one)

    return ManufacturedCase(name="shear", params=params, outflow_spec=spec,
                            eta_max=8.0, t_end=0.2, base_dt=0.02,
                            v=v, v_t=v_t, v_xi=v_xi, v_eta=v_eta,
                            v_etaeta=v_etaeta)


def make_diffusion_case() -> ManufacturedCase:
    """Quadratic-in-eta pulsating profiles on [0, 4]: every spatial stencil
    is exact on them, so the measured error is the time error alone."""
    params = Params(mu=1.0, kappa=1.0, nu=1.0, R=1.0, cV=1.0, delta=0.05)
    spec = OutflowSpec.constant(U=0.0, Theta=1.0, Hfield=1.0, P=1.0,
                                theta_star=1.0)
    L = 4.0
    au, ath, aq = 0.15, 0.15, 0.15

    def weights(t):
        return (math.sin(2.0 * t), math.cos(2.0 * t),
                2.0 * math.cos(2.0 * t), -2.0 * math.sin(2.0 * t))

    def v(t, xi, eta):
        s, c, _, _ = weights(t)
        one = np.ones_like(xi)
        gu = 4.0 * (eta / L) * (1.0 - eta / L)
        gq = 1.0 - (eta / L) ** 2
        return _stack(au * s * gu * one, 1.0 + ath * c * gu * one,
                      0.5 + aq * s * gq * one)

    def v_t(t, xi, eta):
        _, _, ds, dc = weights(t)
        one = np.ones_like(xi)
        gu = 4.0 * (eta / L) * (1.0 - eta / L)
        gq = 1.0 - (eta / L) ** 2
        return _stack(au * ds * gu * one, ath * dc * gu * one,
                      aq * ds * gq * one)

    def v_xi(t, xi, eta):
        z = np.zeros(np.broadcast_shapes(xi.shape, eta.shape))
        return _stack(z, z, z)

    def v_eta(t, xi, eta):
        s, c, _, _ = weights(t)
        one = np.ones_like(xi)
        dgu = 4.0 / L - 8.0 * eta / L ** 2
        dgq = -2.0 * eta / L ** 2
        return _stack(au * s * dgu * one, ath * c * dgu * one,
                      aq * s * dgq * one)

    def v_etaeta(t, xi, eta):
        s, c, _, _ = weights(t)
        one = np.ones_like(xi) * np.ones_like(eta)
        return _stack(au * s * (-8.0 / L ** 2) * one,
                      ath * c * (-8.0 / L ** 2) * one,
                      aq * s * (-2.0 / L ** 2) * one)

    return ManufacturedCase(name="diffusion", params=params, outflow_spec=spec,
                            eta_max=L, t_end=0.2, base_dt=0.04,
                            v=v, v_t=v_t, v_xi=v_xi, v_eta=v_eta,
                            v_etaeta=v_etaeta)


def case_library() -> Dict[str, ManufacturedCase]:
    cases = [make_constant_case(), make_advection_case(), make_shear_case(),
             make_diffusion_case()]
    return {c.name: c for c in cases}
