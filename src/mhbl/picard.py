"""Frozen-coefficient (Picard) iteration for the nonlinear system.

Each iterate solves the linear problem with coefficients frozen at the
previous iterate; the zeroth iterate is a background profile corrected by a
short Taylor expansion in time so that its initial value and initial time
derivatives match the data.  On a short enough time interval the iteration
contracts with factor <= 1/2 in the trajectory norm, and every iterate stays
in the admissible set theta >= delta, delta <= q <= P - delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import coeffs
from .diagnostics import NormSpec, discrete_norm
from .errors import (CFLError, DegenerateStateError, GridSizingError,
                     LinearSolveError, PreconditionError)
from .fields import (FloatArray, Grid, OutflowData, Params, State, _frozen,
                     admissibility)
from .stencils import bounded_diff
from .stepper import Trajectory, apply_derivative, solve_linear_problem, wall_q


def cutoff_phi(eta) -> FloatArray:
    """Monotone C^2 cutoff: 0 for eta <= 1, 1 for eta >= 2, quintic smoothstep
    6 s^5 - 15 s^4 + 10 s^3 (s = eta - 1) in between.  Rejects negative eta."""
    eta_arr = np.asarray(eta, dtype=float)
    if np.any(eta_arr < 0.0):
        raise ValueError("cutoff is defined for eta >= 0 only")
    s = np.clip(eta_arr - 1.0, 0.0, 1.0)
    out = s ** 3 * (10.0 + s * (-15.0 + 6.0 * s))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Background:
    """Background trajectory vbar interpolating wall and outflow data:

        vbar = (phi U, phi Theta + (1 - phi) theta_star, H^2 / 2),

    sampled at every grid time level; vbar has shape (nsteps+1, nx, neta, 3).
    vbar is trajectory-sized, so it is made read-only in place, not copied.
    """

    vbar: FloatArray
    phi: FloatArray

    def __post_init__(self) -> None:
        self.vbar.setflags(write=False)
        object.__setattr__(self, "phi", _frozen(self.phi))


def build_background(outflow: OutflowData, grid: Grid) -> Background:
    phi = np.asarray(cutoff_phi(grid.eta))
    nt = grid.nsteps
    vbar = np.empty((nt + 1, grid.nx, grid.neta, 3))
    for k in range(nt + 1):
        vbar[k, :, :, 0] = outflow.U[k][:, None] * phi[None, :]
        vbar[k, :, :, 1] = (outflow.Theta[k][:, None] * phi[None, :]
                            + outflow.theta_star[k][:, None] * (1.0 - phi[None, :]))
        vbar[k, :, :, 2] = 0.5 * outflow.Hfield[k][:, None] ** 2
    return Background(vbar=vbar, phi=phi)


@dataclass(frozen=True)
class CompatibilitySet:
    """Initial time derivatives v0_j = d_tau^j v(0) for j = 0..order.

    v0_list[j] has shape (nx, neta, 3); entry 0 is the initial data itself
    and entry 1, when present, is read off the equation at t = 0.
    """

    v0_list: List[FloatArray]

    @property
    def order(self) -> int:
        return len(self.v0_list) - 1


def compatibility_derivatives(v0: State, outflow: OutflowData, params: Params,
                              grid: Grid, order: int = 1) -> CompatibilitySet:
    """Compute v0_j for j <= order (only orders 0 and 1 are supported).

    The first derivative comes from the equation itself,

        v0_1 = -A(v0) d_xi v0 - f(v0, d_eta v0) - g(v0) + B(v0) d_eta^2 v0,

    with the discrete operators of the stepper.  The wall and far rows are
    overwritten with the time derivatives of the boundary data (zero for u1,
    d_tau theta_star for theta, the Neumann closure for q, and d_tau of the
    outflow state at the far edge), which is what the continuous
    compatibility conditions prescribe there.
    """
    if order not in (0, 1):
        raise GridSizingError(f"compatibility order must be 0 or 1, got {order}")
    arr = v0.as_array()
    out = [arr]
    if order == 1:
        dxv = apply_derivative(arr, grid, axis="xi", order=1)
        dev = apply_derivative(arr, grid, axis="eta", order=1)
        d2ev = apply_derivative(arr, grid, axis="eta", order=2)
        v1 = -coeffs.operator(arr, dxv, dev, d2ev, outflow.P[0][:, None],
                              outflow.P_t[0][:, None],
                              outflow.P_xi[0][:, None], params)
        # boundary rows follow the data, not the interior stencils
        dth_star = _ddt0(outflow.theta_star, grid.dt)
        v1[:, 0, 0] = 0.0
        v1[:, 0, 1] = dth_star
        v1[:, 0, 2] = wall_q(v1[:, 1, 2], v1[:, 2, 2])
        v1[:, -1, 0] = _ddt0(outflow.U, grid.dt)
        v1[:, -1, 1] = _ddt0(outflow.Theta, grid.dt)
        v1[:, -1, 2] = _ddt0(0.5 * outflow.Hfield ** 2, grid.dt)
        out.append(v1)
    return CompatibilitySet(v0_list=out)


def _ddt0(trace: FloatArray, dt: float) -> FloatArray:
    """Time derivative of a sampled trajectory or trace at t = 0, from the
    first three levels (two when that is all there is)."""
    return bounded_diff(trace[:3], dt, 0, 1)[0]


def build_zeroth_approx(background: Background, compat: CompatibilitySet,
                        grid: Grid) -> Trajectory:
    """Zeroth Picard iterate: the background plus the Taylor correction

        v0(tau) = vbar(tau) + sum_j tau^j / j! (v0_j - d_tau^j vbar(0)),

    so that d_tau^j v0(0) = v0_j for j <= order while the far-field behavior
    of vbar is kept.  d_tau vbar(0) is a one-sided difference of the sampled
    background.
    """
    nt = grid.nsteps
    vbar = background.vbar
    data = np.array(vbar)
    dvbar0 = [vbar[0]]
    if compat.order >= 1:
        dvbar0.append(_ddt0(vbar, grid.dt))
    for k in range(nt + 1):
        tau = grid.times[k]
        for j in range(compat.order + 1):
            data[k] += tau ** j / math.factorial(j) * (compat.v0_list[j] - dvbar0[j])
    return Trajectory(data=data, times=grid.times.copy())


@dataclass(frozen=True)
class IterationReport:
    """Convergence record of one Picard run.

    distances[n] is the trajectory distance sup_k || v^{n+1} - v^n ||_L2
    after iterate n+1; ratios are successive quotients.  admissible[n] flags
    iterate n (entry 0 is the zeroth approximation).  norm_history tracks
    sup_k || v^n - vbar ||_{H^k} for the report's norm order.
    """

    converged: bool
    iterations: int
    distances: List[float]
    ratios: List[float]
    admissible: List[bool]
    norm_history: List[float]
    aborted: bool = False
    message: str = ""


# The trajectory checks go level by level: no trajectory-sized temporaries.
def _traj_admissible(traj: Trajectory, outflow: OutflowData,
                     params: Params) -> bool:
    return all(admissibility(v[..., 1], v[..., 2], P[:, None], params,
                             params.delta).ok
               for v, P in zip(traj.data, outflow.P))


def _traj_distance(a: Trajectory, b: Trajectory, grid: Grid) -> float:
    w = grid.eta_weights()[:, None]
    return float(np.max([np.sqrt(np.sum((va - vb) ** 2 * w) * grid.dxi)
                         for va, vb in zip(a.data, b.data)]))


def _traj_norm(traj: Trajectory, background: Background, grid: Grid,
               k: int) -> float:
    spec = NormSpec(k=k)
    best = 0.0
    for lvl in range(traj.nlevels):
        w = traj.data[lvl] - background.vbar[lvl]
        total = 0.0
        for c in range(3):
            total += discrete_norm(w[..., c], spec, grid) ** 2
        best = max(best, math.sqrt(total))
    return best


def picard_solve(v0: State, outflow: OutflowData, params: Params, grid: Grid,
                 tol: float = 1e-8, max_iter: int = 30,
                 compat_order: int = 1,
                 on_admissibility_loss: str = "abort",
                 source: Optional[FloatArray] = None,
                 norm_order: int = 1):
    """Run the frozen-coefficient iteration to tolerance.

    Preconditions: v0 admissible with margin 2*delta (theta >= 2 delta,
    2 delta <= q <= P - 2 delta at t = 0).  Iterates solve the linear
    problem against the previous trajectory; the loop stops when the
    trajectory distance drops to tol or max_iter is hit.  Admissibility of
    every iterate is recorded; losing it either aborts with a report
    (default) or, with on_admissibility_loss="continue", clamps coefficient
    evaluations and keeps going with the iterate flagged.  A
    LinearSolveError, CFLError or DegenerateStateError from iterate n is
    raised again as the same class with "Picard iterate n: " before its
    message.

    Returns (trajectory, IterationReport).
    """
    if on_admissibility_loss not in ("abort", "continue"):
        raise GridSizingError(
            f"on_admissibility_loss must be 'abort' or 'continue', "
            f"got {on_admissibility_loss!r}")
    d = params.delta
    rep = admissibility(v0.theta, v0.q, outflow.P[0][:, None], params, 2.0 * d)
    if not rep.ok:
        raise PreconditionError(
            "initial data must satisfy theta >= 2 delta and "
            f"2 delta <= q <= P - 2 delta (delta = {d}); got min theta = "
            f"{rep.min_theta:.6g}, min q = {rep.min_q:.6g}, "
            f"min (P - q) = {rep.min_P_minus_q:.6g}")

    background = build_background(outflow, grid)
    compat = compatibility_derivatives(v0, outflow, params, grid,
                                       order=compat_order)
    prev = build_zeroth_approx(background, compat, grid)

    admissible = [_traj_admissible(prev, outflow, params)]
    distances: List[float] = []
    ratios: List[float] = []
    norms: List[float] = [_traj_norm(prev, background, grid, norm_order)]
    clamp = False
    if not admissible[0]:
        if on_admissibility_loss == "abort":
            return prev, IterationReport(
                converged=False, iterations=0, distances=[], ratios=[],
                admissible=admissible, norm_history=norms, aborted=True,
                message="zeroth approximation left the admissible set; "
                        "shorten t_end or fix the data")
        clamp = True

    traj = prev
    converged = False
    message = ""
    n_done = 0
    for n in range(1, max_iter + 1):
        try:
            traj = solve_linear_problem(prev, v0, outflow, params, grid,
                                        source=source, clamp=clamp)
        except (LinearSolveError, CFLError, DegenerateStateError) as exc:
            raise type(exc)(f"Picard iterate {n}: {exc}") from exc
        n_done = n
        distances.append(_traj_distance(traj, prev, grid))
        if len(distances) >= 2 and distances[-2] > 0.0:
            ratios.append(distances[-1] / distances[-2])
        ok = _traj_admissible(traj, outflow, params)
        admissible.append(ok)
        norms.append(_traj_norm(traj, background, grid, norm_order))
        if not ok:
            if on_admissibility_loss == "abort":
                return traj, IterationReport(
                    converged=False, iterations=n, distances=distances,
                    ratios=ratios, admissible=admissible, norm_history=norms,
                    aborted=True,
                    message=f"iterate {n} left the admissible set")
            clamp = True
        if distances[-1] <= tol:
            converged = True
            break
        prev = traj
    if not converged:
        message = (f"no convergence after {n_done} iterations; "
                   f"last distance {distances[-1]:.3e} > tol {tol:g}")
    return traj, IterationReport(
        converged=converged, iterations=n_done, distances=distances,
        ratios=ratios, admissible=admissible, norm_history=norms,
        aborted=False, message=message)
