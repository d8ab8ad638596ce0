"""Frozen-coefficient (Picard) iteration for the nonlinear system.

Each iterate solves the linear problem with coefficients frozen at the
previous iterate; the zeroth iterate is a background profile corrected by a
first-order Taylor expansion in time so that its initial value and initial
time derivative match the data.  On a short enough time interval the iteration
contracts with factor <= 1/2 in the trajectory norm, and every iterate stays
in the admissible set theta >= delta, delta <= q <= P - delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .diagnostics import discrete_norm
from .errors import (CFLError, DegenerateStateError, GridSizingError,
                     LinearSolveError, MhblError, NonConvergenceError,
                     PreconditionError)
from .fields import (FloatArray, Grid, OutflowData, Params, State, _frozen,
                     admissibility)
from .stencils import bounded_diff
from .stepper import (Trajectory, _operator_at, _planes, _set_boundary_rows,
                      solve_linear_problem)


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
    """Background vbar interpolating wall and outflow data:

        vbar = (phi U, phi Theta + (1 - phi) theta_star, H^2 / 2).

    It is a closed form in the outflow rows and the cutoff phi(eta), so it is
    evaluated one time level at a time and never stored as a trajectory.
    """

    outflow: OutflowData
    phi: FloatArray

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", _frozen(self.phi))

    def components(self, k: int) -> FloatArray:
        """vbar at time level k as its three (nx, neta) component fields,
        stacked on axis 0: shape (3, nx, neta)."""
        o, phi = self.outflow, self.phi[None, :]
        out = np.empty((3, o.U.shape[1], phi.shape[1]))
        np.multiply(o.U[k][:, None], phi, out=out[0])
        np.multiply(o.Theta[k][:, None], phi, out=out[1])
        out[1] += o.theta_star[k][:, None] * (1.0 - phi)
        out[2] = o.far[k][:, 2, None]
        return out


def build_background(outflow: OutflowData, grid: Grid) -> Background:
    return Background(outflow=outflow, phi=cutoff_phi(grid.eta))


def compatibility_derivatives(v0: State, outflow: OutflowData, params: Params,
                              grid: Grid) -> FloatArray:
    """The initial time derivative v0_t = d_tau v(0), of shape (nx, neta, 3),
    from the equation itself,

        v0_t = -A(v0) d_xi v0 - f(v0, d_eta v0) - g(v0) + B(v0) d_eta^2 v0,

    with the discrete operators of the stepper.  The wall and far rows are
    the stepper's boundary rows for the time derivatives of the boundary
    data, as the continuous compatibility conditions prescribe.
    """
    v0_t = -_operator_at(v0.as_array(), 0, outflow, params, grid)
    # boundary rows follow the data, not the interior stencils; they are
    # linear in it, so d_tau of the data obeys the same rows
    return _set_boundary_rows(v0_t, _ddt0(outflow.theta_star, grid.dt),
                              _ddt0(outflow.far, grid.dt))


def _ddt0(trace: FloatArray, dt: float) -> FloatArray:
    """Time derivative of a sampled trajectory or trace at t = 0, from the
    first three levels (two when that is all there is)."""
    return bounded_diff(trace[:3], dt, 0, 1)[0]


def build_zeroth_approx(background: Background, v0: FloatArray,
                        v0_t: FloatArray, grid: Grid) -> Trajectory:
    """Zeroth Picard iterate: the background plus the first-order Taylor
    correction

        v0(tau) = vbar(tau) + (v0 - vbar(0)) + tau (v0_t - d_tau vbar(0)),

    so that v0(0) = v0 and d_tau v0(0) = v0_t while the far-field behavior of
    vbar is kept.  d_tau vbar(0) is a one-sided difference of the first
    background levels; both corrections are formed once.
    """
    nt = grid.nsteps
    data = np.empty((nt + 1, grid.nx, grid.neta, 3))
    for k in range(nt + 1):
        data[k] = np.moveaxis(background.components(k), 0, -1)
    # read vbar(0) and d_tau vbar(0) off the first levels before they are
    # corrected
    shift = v0 - data[0]
    slope = v0_t - _ddt0(data[:3], grid.dt)
    for k in range(nt + 1):
        data[k] += shift
        data[k] += grid.times[k] * slope
    return Trajectory(data=data, times=grid.times.copy())


@dataclass(frozen=True)
class IterateRecord:
    """What was measured on Picard iterate n, over all its time levels:
    distance is sup_k || v^n(k) - v^{n-1}(k) ||_L2 (None for n = 0);
    admissible says whether every level lies in the admissible set with
    margin delta, and first_violation is (time level, xi column, eta row)
    of the first node outside it, or None; norm is the deviation
    sup_k || v^n(k) - vbar(k) ||_{H^1}; margin is the smallest of theta, q
    and P - q, less delta, negative or NaN exactly off the set; min_Q is
    the smallest Q = P + (1 - 2a) q, positive on admissible iterates.
    """

    distance: Optional[float]
    admissible: bool
    norm: float
    margin: float
    min_Q: float
    first_violation: Optional[Tuple[int, int, int]]


def _per_iterate(name: str, first: int = 0) -> property:
    """A read-only list of one IterateRecord field, from iterate first on."""
    return property(lambda report: [getattr(rec, name)
                                    for rec in report.iterates[first:]])


@dataclass(frozen=True)
class IterationReport:
    """Convergence record of one Picard run: one IterateRecord per iterate,
    the zeroth approximation first.  The lists are views of the records;
    distances starts at iterate 1, and ratios are the successive quotients
    of the distances, with none after a zero distance.
    """

    converged: bool
    iterates: List[IterateRecord]
    aborted: bool = False
    message: str = ""

    @property
    def iterations(self) -> int:
        return len(self.iterates) - 1

    distances = _per_iterate("distance", first=1)
    admissible = _per_iterate("admissible")
    norm_history = _per_iterate("norm")
    margins = _per_iterate("margin")
    min_Q = _per_iterate("min_Q")

    @property
    def ratios(self) -> List[float]:
        d = self.distances
        return [b / a for a, b in zip(d, d[1:]) if a > 0.0]

    def error(self) -> Optional[MhblError]:
        """The error to raise for this run, or None if it converged: MhblError
        (a solver error) for an abort, NonConvergenceError at max_iter."""
        if self.converged:
            return None
        return (MhblError if self.aborted else NonConvergenceError)(self.message)


class _Measure:
    """The measurement of one iterate, taken one level at a time: called as
    measure(k, v, old) for every level k in order, with the iterate's and
    the previous iterate's level k (old is None for the zeroth
    approximation), as solve_linear_problem's measure argument; result()
    returns the IterateRecord.  A NaN anywhere in a level makes the distance
    and the norm NaN; in theta or q it also fails admissibility and makes
    the margin NaN.  A distance or norm that overflows is inf, and no
    warning is raised for it.
    """

    def __init__(self, background: Background, params: Params, grid: Grid):
        self.background, self.params, self.grid = background, params, grid
        self.w = grid.eta_weights()[:, None]
        self.dists, self.norms, self.minima, self.Q_minima = [], [], [], []
        self.violation: Optional[Tuple[int, int, int]] = None

    def __call__(self, k: int, v: FloatArray, old: Optional[FloatArray]) -> None:
        with np.errstate(over="ignore"):  # an overflow is inf, unwarned
            if old is not None:
                # (v - old) ** 2 * w in place, summed over the interleaved
                # level
                d = v - old
                d **= 2
                d *= self.w
                self.dists.append(np.sqrt(np.sum(d) * self.grid.dxi))
                del d
            # the admissibility check reads the theta and q planes, then the
            # planes become v - vbar in place
            planes = _planes(v)
            rep = admissibility(planes[1], planes[2],
                                self.background.outflow.P[k][:, None],
                                self.params, self.params.delta)
            if self.violation is None and not rep.ok:
                self.violation = (k,) + rep.first_violation
            self.minima.append(np.min([rep.min_theta, rep.min_q,
                                       rep.min_P_minus_q]))
            self.Q_minima.append(rep.min_Q)
            planes -= self.background.components(k)
            comp = discrete_norm(planes, 1, self.grid)
            self.norms.append(math.sqrt(sum(n ** 2 for n in comp.tolist())))

    def result(self) -> IterateRecord:
        # np.max and np.min, not the builtins: they drop a NaN that is not first
        return IterateRecord(
            distance=float(np.max(self.dists)) if self.dists else None,
            admissible=self.violation is None,
            norm=float(np.max(self.norms)),
            margin=float(np.min(self.minima)) - self.params.delta,
            min_Q=float(np.min(self.Q_minima)),
            first_violation=self.violation)


def _require_finite(v: FloatArray, what: str) -> None:
    """Raise PreconditionError, naming the component, xi column and eta row
    of the first entry, unless every entry of an (nx, neta, 3) array is
    finite."""
    bad = ~np.isfinite(v)
    if bad.any():
        i, j, c = (int(n) for n in np.argwhere(bad)[0])
        raise PreconditionError(
            f"{what} must be finite; {('u1', 'theta', 'q')[c]} = "
            f"{v[i, j, c]:.6g} at xi column {i}, eta row {j}")


def picard_solve(v0: State, outflow: OutflowData, params: Params, grid: Grid,
                 tol: float = 1e-8, max_iter: int = 30,
                 source: Optional[FloatArray] = None):
    """Run the frozen-coefficient iteration to tolerance.

    Preconditions: v0 admissible with margin 2*delta (theta >= 2 delta,
    2 delta <= q <= P - 2 delta at t = 0), and admissible with margin delta
    once its wall and far rows are those of outflow level 0, the level
    every iterate marches from; then v0 and the d_tau v(0) of
    compatibility_derivatives finite.  Iterates solve the linear
    problem against the previous trajectory, overwriting it level by level,
    so the run holds one trajectory; the loop stops when the
    trajectory distance drops to tol (finite, >= 0) or max_iter is hit.
    Each iterate is measured into one IterateRecord; the first iterate that
    leaves the admissible set ends the loop with an aborted report naming
    its first node outside the set, as the estimates behind the iteration
    hold only inside it.  A LinearSolveError, CFLError or
    DegenerateStateError from iterate n is raised again as the same class
    with "Picard iterate n: " before its message.

    Returns (trajectory, IterationReport).
    """
    if max_iter < 1:
        raise GridSizingError(f"max_iter must be at least 1, got {max_iter}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise GridSizingError(f"tol must be finite and >= 0, got {tol!r}")
    d = params.delta
    rep = admissibility(v0.theta, v0.q, outflow.P[0][:, None], params, 2.0 * d)
    if not rep.ok:
        raise PreconditionError(
            "initial data must satisfy theta >= 2 delta and "
            f"2 delta <= q <= P - 2 delta (delta = {d}); got min theta = "
            f"{rep.min_theta:.6g}, min q = {rep.min_q:.6g}, "
            f"min (P - q) = {rep.min_P_minus_q:.6g}")
    # every iterate marches from this level: iterate 1 would measure it first
    start = _set_boundary_rows(v0.as_array(), outflow.theta_star[0],
                               outflow.far[0])
    rep = admissibility(start[..., 1], start[..., 2], outflow.P[0][:, None],
                        params, d)
    del start
    if not rep.ok:
        i, j = rep.first_violation
        raise PreconditionError(
            "initial data with the outflow's wall and far rows at t = 0 must "
            f"satisfy theta >= delta and delta <= q <= P - delta (delta = "
            f"{d}); it fails at xi column {i}, eta row {j}")

    data0 = v0.as_array()
    _require_finite(data0, "initial data v(0)")
    v0_t = compatibility_derivatives(v0, outflow, params, grid)
    _require_finite(v0_t, "initial time derivative d_tau v(0)")

    background = build_background(outflow, grid)
    traj = build_zeroth_approx(background, data0, v0_t, grid)
    records: List[IterateRecord] = []
    aborted, message = False, ""
    # iterate 0 is the zeroth approximation: measured, never solved for.
    # Each later iterate marches in place over the previous one, measured
    # level by level against it as it goes.
    for n in range(max_iter + 1):
        measure = _Measure(background, params, grid)
        if n == 0:
            for k, v in enumerate(traj.data):
                measure(k, v, None)
        else:
            try:
                traj = solve_linear_problem(traj, v0, outflow, params, grid,
                                            source=source, measure=measure)
            except (LinearSolveError, CFLError, DegenerateStateError) as exc:
                raise type(exc)(f"Picard iterate {n}: {exc}") from exc
        rec = measure.result()
        records.append(rec)
        if not rec.admissible:
            aborted = True
            k, i, j = rec.first_violation
            where = f"at time level {k}, xi column {i}, eta row {j}"
            message = (f"iterate {n} left the admissible set {where}" if n
                       else "zeroth approximation left the admissible set "
                       f"(shorten t_end or fix the data) {where}")
            break
        if n > 0 and rec.distance <= tol:
            break
    converged = not aborted and rec.distance <= tol
    if not (converged or aborted):
        message = (f"no convergence after {n} iterations; "
                   f"last distance {rec.distance:.3e} > tol {tol:g}")
    return traj, IterationReport(converged, records, aborted, message)
