"""Discrete norms, energy functional and residual checks.

Quadrature is the trapezoid rule in eta and the plain periodic sum in xi, so
a constant c has L2 norm c * sqrt(2 pi eta_max) exactly.  Sobolev orders up
to k = 2 are built from compositions of the second-order stencils.  The norm
is space-only: trajectories are measured level by level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import coeffs
from .errors import DegenerateStateError, GridSizingError, MissingTimeLevelError
from .fields import (DENOM_GUARD, FloatArray, Grid, OutflowData, Params, State,
                     _frozen, pressure_factors)
from .stencils import bounded_diff, periodic_diff
from .stepper import Trajectory, _operator_at, apply_derivative


@dataclass(frozen=True)
class NormSpec:
    """Sobolev order selector for the discrete norms; k in {0, 1, 2}."""

    k: int = 0

    def __post_init__(self) -> None:
        if self.k not in (0, 1, 2):
            raise GridSizingError(f"norm order k must be 0, 1 or 2, got {self.k}")


def _multi_indices(k: int):
    return [(a1, a2) for a1 in range(k + 1) for a2 in range(k + 1 - a1)]


def _derivative_power(f: FloatArray, grid: Grid, a1: int, a2: int,
                      axis: int = 0) -> FloatArray:
    """Mixed derivative d_xi^a1 d_eta^a2 f via the second-order stencils,
    with xi along the given axis of f and eta along the next."""
    out = f
    if a1:
        out = periodic_diff(out, grid.dxi, axis, a1)
    if a2:
        out = bounded_diff(out, grid.deta, axis + 1, a2)
    return out


def _l2_sq(f: FloatArray, grid: Grid):
    """Squared L2 norm over the last two axes (xi, eta) of f."""
    sq = f ** 2
    sq *= grid.eta_weights()
    return np.sum(sq, axis=(-2, -1)) * grid.dxi


def discrete_norm(f: FloatArray, spec: NormSpec, grid: Grid):
    """Discrete H^k norm of a scalar field (nx, neta), as a float.

    A stack of fields (..., nx, neta) gives the array of their norms from
    one pass of each stencil.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-2:] != (grid.nx, grid.neta):
        raise GridSizingError(f"field shape {f.shape} does not match the grid")
    total = 0.0
    for a1, a2 in _multi_indices(spec.k):
        total = total + _l2_sq(_derivative_power(f, grid, a1, a2, f.ndim - 2),
                               grid)
    norm = np.sqrt(total)
    return float(norm) if f.ndim == 2 else norm


def energy_functional(v: State, vbar: FloatArray, v_frozen: State,
                      spec: NormSpec, grid: Grid, params: Params,
                      P_row: FloatArray) -> float:
    """Symmetrizer-weighted energy of w = v - vbar about a frozen state:

        sum_{|alpha| <= k}  < d^alpha w , S(v_frozen) d^alpha w >.

    S is evaluated pointwise at v_frozen with pressure row P_row (nx,).
    Positive whenever w != 0 since S is positive definite on admissible
    frozen states.
    """
    w = v.as_array() - np.asarray(vbar, dtype=float)
    frozen = v_frozen.as_array()
    zero = np.zeros_like(frozen)
    S = coeffs.matrices(frozen, zero, P_row[:, None], 0.0, 0.0, params)["S"]
    wq = grid.eta_weights()
    total = 0.0
    for a1, a2 in _multi_indices(spec.k):
        dw = _derivative_power(w, grid, a1, a2)
        quad = np.einsum("xei,xeij,xej->xe", dw, S, dw)
        total += float(np.sum(quad * wq[None, :]) * grid.dxi)
    return total


@dataclass(frozen=True)
class ResidualReport:
    """Componentwise residual norms of the transformed system over a
    trajectory's interior nodes (max over evaluated time levels)."""

    max_norm: FloatArray
    l2_norm: FloatArray
    levels: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_norm", _frozen(self.max_norm))
        object.__setattr__(self, "l2_norm", _frozen(self.l2_norm))


def residual_transformed(traj: Trajectory, outflow: OutflowData,
                         params: Params, grid: Grid,
                         source: Optional[FloatArray] = None) -> ResidualReport:
    """Discrete residual of the nonlinear transformed system along a
    trajectory.

    Time derivatives are centered at interior levels (one-sided with exactly
    two levels), all coefficients are evaluated at the residual level, and
    the boundary rows are excluded.  A converged frozen-coefficient solution
    matches the source to the scheme's order.
    """
    nt = traj.nlevels - 1
    if nt < 1:
        raise MissingTimeLevelError("residual needs at least two time levels")
    klist = [1] if nt == 1 else list(range(1, nt))
    max_norm = np.zeros(3)
    l2_acc = np.zeros(3)
    w = grid.eta_weights()[1:-1]
    for k in klist:
        v = traj.data[k]
        ddt = bounded_diff(traj.data[k - 1:k + 2], grid.dt, 0, 1)[1]
        r = ddt + _operator_at(v, k, outflow, params, grid)
        if source is not None:
            r = r - source[k]
        inner = r[:, 1:-1, :]
        max_norm = np.maximum(max_norm, np.max(np.abs(inner), axis=(0, 1)))
        l2_acc = np.maximum(
            l2_acc,
            np.sqrt(np.sum(inner ** 2 * w[None, :, None], axis=(0, 1)) * grid.dxi))
    return ResidualReport(max_norm=max_norm, l2_norm=l2_acc, levels=len(klist))


@dataclass(frozen=True)
class OutflowConsistencyReport:
    """Residuals of the three outflow trace equations on the whole (t, xi)
    sampling; fields has shape (3, nsteps+1, nx)."""

    fields: FloatArray
    max_norm: FloatArray

    def __post_init__(self) -> None:
        object.__setattr__(self, "fields", _frozen(self.fields))
        object.__setattr__(self, "max_norm", _frozen(self.max_norm))


def outflow_consistency(outflow: OutflowData, params: Params) -> OutflowConsistencyReport:
    """Check that (U, Theta, H, P) solve the trace system they must satisfy
    for the far-field state to be an exact solution.

    With q = H^2/2, Q = P + (1 - 2a) q, the three residuals are

      r0 = U_t + U U_x - R Theta H H_x / (P - q) + R P_x Theta / (P - q)
      r1 = Theta_t + U Theta_x + a Theta H^2 U_x / Q - a (P_t + P_x U) Theta / Q
      r2 = H_t + U H_x - (P - q) H U_x / Q - (1 - a) (P_t + P_x U) H / Q.

    Time derivatives are centered (one-sided at the ends) and xi derivatives
    periodic centered; constant traces give exact zeros.  P - q or Q below
    DENOM_GUARD raises DegenerateStateError at its first (time level, xi node).
    """
    U, Th, H, P = outflow.U, outflow.Theta, outflow.Hfield, outflow.P
    if outflow.times.size < 2:
        raise MissingTimeLevelError("outflow consistency needs >= 2 time levels")
    dt = float(outflow.times[1] - outflow.times[0])
    dxi = 2.0 * np.pi / outflow.xi.size
    Pmq, Q = pressure_factors(P, outflow.far[..., 2], params.a)
    bad = (Pmq < DENOM_GUARD) | (Q < DENOM_GUARD)
    if bad.any():
        at = tuple(int(j) for j in np.argwhere(bad)[0])
        raise DegenerateStateError(
            f"outflow state degenerate: min (P - H^2/2) = {float(np.min(Pmq)):.3e}, "
            f"min Q = {float(np.min(Q)):.3e}; first below the {DENOM_GUARD:g} "
            f"guard at (time level, xi node) = {at}")
    a, R = params.a, params.R

    def ddt(f):
        # end stencils in difference form so constant traces give exact zeros
        out = np.empty_like(f)
        if f.shape[0] == 2:
            out[0] = out[1] = (f[1] - f[0]) / dt
            return out
        out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dt)
        out[0] = (4.0 * (f[1] - f[0]) - (f[2] - f[0])) / (2.0 * dt)
        out[-1] = (4.0 * (f[-1] - f[-2]) - (f[-1] - f[-3])) / (2.0 * dt)
        return out

    def ddx(f):
        return periodic_diff(f, dxi, 1, 1)

    mat_P = outflow.P_t + outflow.P_xi * U
    r = np.empty((3,) + U.shape)
    r[0] = ddt(U) + U * ddx(U) - R * Th * H * ddx(H) / Pmq \
        + R * outflow.P_xi * Th / Pmq
    r[1] = ddt(Th) + U * ddx(Th) + a * Th * H ** 2 * ddx(U) / Q \
        - a * mat_P * Th / Q
    r[2] = ddt(H) + U * ddx(H) - Pmq * H * ddx(U) / Q \
        - (1.0 - a) * mat_P * H / Q
    return OutflowConsistencyReport(fields=r,
                                    max_norm=np.max(np.abs(r), axis=(1, 2)))


def trace_check(f: FloatArray, grid: Grid) -> Tuple[float, float]:
    """Evaluate both sides of the wall-trace inequality

        || f(., 0) ||_{L2(T)}  <=  sqrt(2) ||f||^(1/2) ||d_eta f||^(1/2)

    for a field decaying toward eta_max.  Returns (lhs, rhs).  The
    inequality is derived for fields vanishing at infinity, so the far
    boundary value must already be negligible: |f| at eta_max below
    1e-6 * max |f| is required.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.nx, grid.neta):
        raise GridSizingError(f"field shape {f.shape} does not match the grid")
    fmax = float(np.max(np.abs(f)))
    if fmax > 0.0 and float(np.max(np.abs(f[:, -1]))) >= 1e-6 * fmax:
        raise GridSizingError(
            "field does not decay at eta_max; the trace bound does not apply")
    lhs = float(np.sqrt(np.sum(f[:, 0] ** 2) * grid.dxi))
    nf = np.sqrt(_l2_sq(f, grid))
    ndf = np.sqrt(_l2_sq(apply_derivative(f, grid, axis="eta", order=1), grid))
    rhs = float(np.sqrt(2.0) * np.sqrt(nf) * np.sqrt(ndf))
    return lhs, rhs
