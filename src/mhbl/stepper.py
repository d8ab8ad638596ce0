"""Linearized time stepping for the frozen-coefficient problems.

One Picard stage solves the linear system

    d_tau v + A0 d_xi v + F0 d_eta v + G0 v = B0 d_eta^2 v + s,

with all coefficient matrices frozen from the previous iterate.  The step
never forms the dense 3x3 matrices: FrozenCoeffs holds their 21 nonzero
entries (19 arrays, A's diagonal being u1) from one coeffs.frozen_entries
pass per time level.  The step is first-order IMEX: the eta operators
(F0 d_eta and B0 d_eta^2) are implicit, block tridiagonal per xi column, and
A0 d_xi and G0 are explicit with centered periodic differences, nine products
in all.  The implicit operator is block lower-triangular in the components:
u1 couples only to itself (B is a 1x1 u1 block plus a 2x2 (theta, q) block,
and F's u1 row is (c_vis dq, 0, 0)), while (theta, q) sees u1 only through
F[1:, 0].  So each step makes two pivoted LU solves over all columns at
once: the scalar u1 system, tridiagonal (LAPACK dgtsv), then the 2x2
(theta, q) system, block tridiagonal in band storage (LAPACK dgbsv), with the
u1 couplings moved to its right-hand side.
Explicit advection with centered differences is only weakly stable, so steps
refuse to run when dt exceeds 0.5 * dxi / max spectral radius of A0;
advection-dominated regimes need that bound respected.

Boundary rows are not part of the implicit solve.  The wall values of u1 and
theta are Dirichlet data, the wall q satisfies the one-sided second-order
Neumann closure q0 = (4 q1 - q2) / 3 (wall_q), and the far row carries the
outflow state (U, Theta, H^2/2).  The q closure couples the first interior
row to rows 1 and 2, which is folded into the (theta, q) matrix so the system
stays block tridiagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgbsv, dgtsv

from . import _heap, coeffs
from .errors import CFLError, DegenerateStateError, GridSizingError, LinearSolveError
from .fields import FloatArray, Grid, OutflowData, Params, State
from .stencils import bounded_diff, periodic_diff

_heap.steady()  # every solve runs through this module

#: dt must not exceed CFL_CONSTANT * dxi / (spectral radius of A0).
CFL_CONSTANT = 0.5

#: Weights of q1 and q2 in wall_q, folded into the first interior row.
WALL_Q_WEIGHTS = (4.0 / 3.0, -1.0 / 3.0)


def wall_q(q1: FloatArray, q2: FloatArray) -> FloatArray:
    """Wall value q0 = (4 q1 - q2) / 3 of the second-order one-sided
    zero-Neumann closure, from the first two interior rows."""
    return (4.0 * q1 - q2) / 3.0


def apply_derivative(f: FloatArray, grid: Grid, axis: str, order: int = 1) -> FloatArray:
    """Second-order finite difference of a nodal field.

    axis "xi" wraps periodically; axis "eta" uses centered stencils in the
    interior and one-sided second-order stencils at both ends.  Works on any
    array whose first two axes are (nx, neta); extra trailing axes (for
    state components) ride along.  Exact on polynomials of degree <= 2.
    """
    if axis == "xi":
        return periodic_diff(f, grid.dxi, 0, order)
    if axis == "eta":
        return bounded_diff(f, grid.deta, 1, order)
    raise GridSizingError(f"axis must be 'xi' or 'eta', got {axis!r}")


@dataclass
class BlockTridiag:
    """Batched block-tridiagonal system with k x k blocks.

    lower, diag, upper have shape (nbatch, m, k, k) (lower[.,0] and
    upper[.,-1] are ignored); rhs has shape (nbatch, m, k).  The block size
    k is read from the blocks; a step solves k = 1 (u1) and k = 2
    (theta, q).  solve() makes one LAPACK LU solve with partial pivoting of
    the systems stacked over all xi columns: dgtsv on the tridiagonal matrix
    for k = 1, dgbsv on one band matrix for k >= 2.  It raises
    LinearSolveError on mismatched shapes, on a non-finite entry, or on a
    pivot |u_ii| <= 1e-13 times the largest |entry| of its xi column, that
    scale taken from the three block arrays.
    """

    lower: FloatArray
    diag: FloatArray
    upper: FloatArray

    def solve(self, rhs: FloatArray) -> FloatArray:
        shape = np.shape(self.diag)
        if (len(shape) != 4 or shape[2] != shape[3] or np.shape(rhs) != shape[:3]
                or np.shape(self.lower) != shape or np.shape(self.upper) != shape):
            raise LinearSolveError(
                f"block-tridiagonal shapes do not match: blocks {shape} "
                f"(lower {np.shape(self.lower)}, upper {np.shape(self.upper)}), "
                f"rhs {np.shape(rhs)}; want (nbatch, m, k, k) and (nbatch, m, k)")
        nb, m, k = shape[:3]
        lower, upper = self.lower[:, 1:], self.upper[:, :-1]
        # the pivot guard's scale: the largest |entry| of each xi column's
        # system (lower[:, 0] and upper[:, -1] lie outside it)
        scale = np.max([np.abs(a).max(axis=(1, 2, 3), initial=0.0)
                        for a in (self.diag, lower, upper)], axis=0)
        bad = ~(np.isfinite(scale) & np.isfinite(rhs).all(axis=(1, 2)))
        if bad.any():
            raise LinearSolveError(
                f"non-finite implicit system in xi column {int(np.argmax(bad))}")
        # unknowns in (xi column, eta row, component) order
        if k == 1:
            # zero couplings where two xi columns meet; the wrapper wants dl
            # and du of length max(n - 1, 1)
            n = nb * m
            dl = np.array(self.lower[..., 0, 0])
            du = np.array(self.upper[..., 0, 0])
            dl[:, 0] = du[:, -1] = 0.0
            _, u_diag, _, x, info = dgtsv(
                dl.reshape(-1)[min(n - 1, 1):], self.diag[..., 0, 0].reshape(-1),
                du.reshape(-1)[:max(n - 1, 1)], rhs.reshape(-1))
        else:
            # band storage with kl = ku = w = 2k - 1: A[i, j] is
            # ab[2w + i - j, j]; rows 0..w-1 are LU workspace
            w = 2 * k - 1
            ab = np.zeros((3 * w + 1, nb, m, k))
            for r in range(k):
                for c in range(k):
                    ab[2 * w + r - c, :, :, c] = self.diag[..., r, c]
                    ab[2 * w + k + r - c, :, :-1, c] = lower[..., r, c]
                    ab[2 * w - k + r - c, :, 1:, c] = upper[..., r, c]
            lub, _, x, info = dgbsv(w, w, ab.reshape(3 * w + 1, -1),
                                    rhs.reshape(-1))
            u_diag = lub[2 * w]
        pivot = np.abs(u_diag).reshape(nb, k * m).min(axis=1)
        small = pivot <= 1e-13 * scale
        if info == 0 and not small.any():
            return x.reshape(nb, m, k)
        col = (info - 1) // (k * m) if info > 0 else int(np.argmax(small))
        # pivoting moves a zero pivot away from the row that caused it, so
        # name the row where the column's left null vector is largest
        one = BlockTridiag(self.lower[col:col + 1], self.diag[col:col + 1],
                           self.upper[col:col + 1]).dense()[0]
        row = int(np.argmax(np.abs(np.linalg.svd(one)[0][:, -1]))) // k
        raise LinearSolveError(
            f"singular implicit system at eta row {row}, xi column {col} "
            f"(min |pivot| = {pivot[col]:.3e}, max |entry| = {scale[col]:.3e})")

    def dense(self) -> FloatArray:
        """Assemble the dense (nbatch, k m, k m) matrices; for small-system checks."""
        nb, m, k = self.diag.shape[:3]
        out = np.zeros((nb, m, k, m, k))
        j = np.arange(m)
        # indexing two separated axes by arrays puts the eta row axis first
        out[:, j, :, j] = self.diag.swapaxes(0, 1)
        out[:, j[1:], :, j[:-1]] = self.lower[:, 1:].swapaxes(0, 1)
        out[:, j[:-1], :, j[1:]] = self.upper[:, :-1].swapaxes(0, 1)
        return out.reshape(nb, k * m, k * m)


@dataclass
class FrozenCoeffs:
    """The nonzero entries of A, B, F, G frozen from one previous-iterate
    time level, each a contiguous (nx, neta) array.

    u1 is A's diagonal; a02 is A[..., 0, 2] and so on for the other 18 (see
    coeffs.frozen_entries).  adv_radius is the per-node spectral radius of A
    used for the CFL refusal check.
    """

    u1: FloatArray
    a02: FloatArray
    a10: FloatArray
    a20: FloatArray
    b00: FloatArray
    b11: FloatArray
    b12: FloatArray
    b21: FloatArray
    b22: FloatArray
    f00: FloatArray
    f10: FloatArray
    f11: FloatArray
    f12: FloatArray
    f20: FloatArray
    f21: FloatArray
    f22: FloatArray
    g01: FloatArray
    g11: FloatArray
    g22: FloatArray
    adv_radius: FloatArray

    @staticmethod
    def from_state(v: FloatArray, P_row: FloatArray, P_t_row: FloatArray,
                   P_xi_row: FloatArray, params: Params, grid: Grid,
                   clamp: bool = False) -> "FrozenCoeffs":
        """Evaluate the entries at a previous-iterate level v (nx, neta, 3).

        P_row etc. are the outflow pressure rows (nx,) at the same time
        level.  With clamp=True, theta and q are pushed back inside the
        admissible set before evaluation; this keeps a diverging iteration
        alive for diagnosis but the results are flagged unreliable upstream.
        """
        v = np.asarray(v, dtype=float)
        P = P_row[:, None]
        if clamp:
            d = params.delta
            v = v.copy()
            v[..., 1] = np.maximum(v[..., 1], d)
            v[..., 2] = np.clip(v[..., 2], d, P - d)
        dv = apply_derivative(v, grid, axis="eta", order=1)
        return FrozenCoeffs(**coeffs.frozen_entries(
            v, dv, P, P_t_row[:, None], P_xi_row[:, None], params))


def apply_bcs(v: State, outflow: OutflowData, grid: Grid) -> State:
    """Enforce the boundary rows at the state's own time level.

    Wall (eta = 0): u1 = 0, theta = theta_star, q0 = wall_q(q1, q2) (zero
    Neumann).  Far (eta = eta_max): v = (U, Theta, H^2/2).
    """
    a = _set_boundary_rows(v.as_array(), outflow, outflow.time_index(v.time))
    return State.from_array(a, time=v.time)


def _set_boundary_rows(a: FloatArray, outflow: OutflowData, k: int) -> FloatArray:
    """Overwrite the wall and far rows of a state array (nx, neta, 3) with
    time level k's boundary conditions, as apply_bcs states them; returns a."""
    a[:, 0, 0] = 0.0
    a[:, 0, 1] = outflow.theta_star[k]
    a[:, 0, 2] = wall_q(a[:, 1, 2], a[:, 2, 2])
    a[:, -1] = outflow.vinf(k)
    return a


def _eta_weights(F: FloatArray, B: FloatArray, dt: float, deta: float):
    """Blocks (L, D, U) of the implicit eta operator on the interior rows,
    from one component block of F and B, shape (nx, m, k, k):
    L = -f - b, D = I/dt + 2 b, U = f - b with f = F/(2 deta), b = B/deta^2."""
    f, b = F / (2.0 * deta), B / deta ** 2
    D = 2.0 * b
    for i in range(F.shape[-1]):
        D[..., i, i] += 1.0 / dt
    return -f - b, D, f - b


def _step_arrays(v: FloatArray, time: float, fc: FrozenCoeffs,
                 outflow: OutflowData, params: Params, grid: Grid,
                 source: Optional[FloatArray] = None) -> FloatArray:
    """Advance raw state arrays (nx, neta, 3) one step; returns new arrays."""
    dt, dxi, deta = grid.dt, grid.dxi, grid.deta
    radius = float(np.max(fc.adv_radius))
    if radius > 0.0 and dt > CFL_CONSTANT * dxi / radius:
        raise CFLError(
            f"dt = {dt:g} exceeds the advection bound "
            f"{CFL_CONSTANT * dxi / radius:g} (spectral radius {radius:g})")

    k_new = outflow.time_index(time + dt)
    # explicit A d_xi v + G v from the nine nonzero products, each row summed
    # in column order
    dx = apply_derivative(v, grid, axis="xi", order=1)
    rhs_full = v / dt
    rhs_full[..., 0] -= fc.u1 * dx[..., 0] + fc.a02 * dx[..., 2] + fc.g01 * v[..., 1]
    rhs_full[..., 1] -= fc.a10 * dx[..., 0] + fc.u1 * dx[..., 1] + fc.g11 * v[..., 1]
    rhs_full[..., 2] -= fc.a20 * dx[..., 0] + fc.u1 * dx[..., 2] + fc.g22 * v[..., 2]
    if source is not None:
        rhs_full += source

    # The boundary rows are set first, as the folds and the u1 couplings read
    # them; the wall q follows once the interior is solved.
    sl = slice(1, -1)
    out = _set_boundary_rows(np.zeros_like(v), outflow, k_new)

    # u1: a scalar system; the wall u1 is 0, the far u1 is Dirichlet data
    L, D, U = _eta_weights(fc.f00[:, sl, None, None], fc.b00[:, sl, None, None],
                           dt, deta)
    rhs = rhs_full[:, sl, :1]
    rhs[:, -1] -= U[:, -1, :, 0] * out[:, -1, :1]
    out[:, sl, :1] = BlockTridiag(lower=L, diag=D, upper=U).solve(rhs)

    # (theta, q): u1 enters only through F[1:, 0] (B[1:, 0] = 0), as
    # F[1:, 0] (u1[i+1] - u1[i-1]) / (2 deta), moved to the right-hand side
    shape = (grid.nx, grid.neta - 2, 2, 2)
    L, D, U = _eta_weights(
        np.stack([fc.f11[:, sl], fc.f12[:, sl], fc.f21[:, sl], fc.f22[:, sl]],
                 axis=-1).reshape(shape),
        np.stack([fc.b11[:, sl], fc.b12[:, sl], fc.b21[:, sl], fc.b22[:, sl]],
                 axis=-1).reshape(shape), dt, deta)
    rhs = rhs_full[:, sl, 1:]
    du1 = (out[:, 2:, 0] - out[:, :-2, 0]) / (2.0 * deta)
    rhs[..., 0] -= fc.f10[:, sl] * du1
    rhs[..., 1] -= fc.f20[:, sl] * du1
    # fold the wall row: theta0 = theta_star, q0 = wall_q(q1, q2)
    rhs[:, 0] -= L[:, 0, :, 0] * out[:, 0, 1:2]
    D[:, 0, :, 1] += WALL_Q_WEIGHTS[0] * L[:, 0, :, 1]
    U[:, 0, :, 1] += WALL_Q_WEIGHTS[1] * L[:, 0, :, 1]
    # fold the far row: known Dirichlet data
    rhs[:, -1] -= (U[:, -1] @ out[:, -1, 1:, None])[..., 0]
    out[:, sl, 1:] = BlockTridiag(lower=L, diag=D, upper=U).solve(rhs)
    out[:, 0, 2] = wall_q(out[:, 1, 2], out[:, 2, 2])
    return out


def step_linear(v: State, frozen: FrozenCoeffs, outflow: OutflowData,
                params: Params, grid: Grid,
                source: Optional[FloatArray] = None) -> State:
    """One IMEX step of the frozen-coefficient system.

    source, when given, is the extra right-hand side at the new time level
    with shape (nx, neta, 3).  The map is affine in v for fixed coefficients
    and boundary data.  Raises CFLError instead of running an unstable step.
    """
    new = _step_arrays(v.as_array(), v.time, frozen, outflow, params, grid,
                       source=source)
    return State.from_array(new, time=v.time + grid.dt)


@dataclass(frozen=True)
class Trajectory:
    """A state trajectory sampled at every grid time level.

    data has shape (nsteps+1, nx, neta, 3).
    """

    data: FloatArray
    times: FloatArray

    @property
    def nlevels(self) -> int:
        return self.data.shape[0]

    def state(self, k: int) -> State:
        return State.from_array(self.data[k], time=float(self.times[k]))

    def final(self) -> State:
        return self.state(self.nlevels - 1)


def solve_linear_problem(v_prev: Trajectory, v0: State, outflow: OutflowData,
                         params: Params, grid: Grid,
                         source: Optional[FloatArray] = None,
                         clamp: bool = False) -> Trajectory:
    """March the frozen-coefficient problem over [0, t_end].

    v_prev supplies the coefficient states: the step from level k to k+1
    freezes A, B, F, G at v_prev(level k).  source, when given, has shape
    (nsteps+1, nx, neta, 3) and enters each step at its new time level.
    Every returned level satisfies apply_bcs exactly; level 0 is v0 with the
    boundary rows enforced.  A LinearSolveError, CFLError or
    DegenerateStateError from the step off level k is raised again as the
    same class with "time level k: " before its message.
    """
    nt = grid.nsteps
    if v_prev.nlevels != nt + 1:
        raise GridSizingError(
            f"coefficient trajectory has {v_prev.nlevels} levels, grid wants {nt + 1}")
    data = np.empty((nt + 1, grid.nx, grid.neta, 3))
    data[0] = apply_bcs(v0, outflow, grid).as_array()
    for k in range(nt):
        src = None if source is None else source[k + 1]
        try:
            frozen = FrozenCoeffs.from_state(
                v_prev.data[k], outflow.P[k], outflow.P_t[k], outflow.P_xi[k],
                params, grid, clamp=clamp)
            data[k + 1] = _step_arrays(data[k], float(grid.times[k]), frozen,
                                       outflow, params, grid, source=src)
        except (LinearSolveError, CFLError, DegenerateStateError) as exc:
            raise type(exc)(f"time level {k}: {exc}") from exc
    return Trajectory(data=data, times=grid.times.copy())
