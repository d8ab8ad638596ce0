"""Linearized time stepping for the frozen-coefficient problems.

One Picard stage solves the linear system

    d_tau v + A0 d_xi v + F0 d_eta v + G0 v = B0 d_eta^2 v + s,

with all coefficient matrices frozen from the previous iterate.  The step is
first-order IMEX: the eta operators (F0 d_eta and B0 d_eta^2) are implicit
and solved per xi column by 3x3 block Thomas elimination; the xi advection
A0 d_xi and the zero-order term G0 are explicit with centered periodic
differences.  Explicit advection with centered differences is only weakly
stable, so steps refuse to run when dt exceeds 0.5 * dxi / max spectral
radius of A0; advection-dominated regimes need that bound respected.

Boundary rows are not part of the implicit solve.  The wall values of u1 and
theta are Dirichlet data, the wall q satisfies the one-sided second-order
Neumann closure q0 = (4 q1 - q2) / 3, and the far row carries the outflow
state (U, Theta, H^2/2).  The q closure couples the first interior row to
rows 1 and 2, which is folded into the matrix so the system stays block
tridiagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import coeffs
from .errors import CFLError, GridSizingError, LinearSolveError
from .fields import FloatArray, Grid, OutflowData, Params, State
from .stencils import bounded_diff, periodic_diff

#: dt must not exceed CFL_CONSTANT * dxi / (spectral radius of A0).
CFL_CONSTANT = 0.5


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
    """Batched block-tridiagonal system with 3x3 blocks.

    lower, diag, upper have shape (nbatch, m, 3, 3) (lower[.,0] and
    upper[.,-1] are ignored); rhs has shape (nbatch, m, 3).  solve() runs
    Thomas elimination without pivoting and checks each reduced diagonal
    block for invertibility.
    """

    lower: FloatArray
    diag: FloatArray
    upper: FloatArray

    def solve(self, rhs: FloatArray) -> FloatArray:
        nb, m = rhs.shape[0], rhs.shape[1]
        cp = np.empty_like(self.upper)
        dp = np.empty_like(rhs)
        dcur = self.diag[:, 0]
        _require_invertible(dcur, 0)
        cp[:, 0] = np.linalg.solve(dcur, self.upper[:, 0])
        dp[:, 0] = np.linalg.solve(dcur, rhs[:, 0][..., None])[..., 0]
        for j in range(1, m):
            dred = self.diag[:, j] - self.lower[:, j] @ cp[:, j - 1]
            _require_invertible(dred, j)
            if j < m - 1:
                cp[:, j] = np.linalg.solve(dred, self.upper[:, j])
            r = rhs[:, j] - (self.lower[:, j] @ dp[:, j - 1][..., None])[..., 0]
            dp[:, j] = np.linalg.solve(dred, r[..., None])[..., 0]
        x = np.empty_like(rhs)
        x[:, m - 1] = dp[:, m - 1]
        for j in range(m - 2, -1, -1):
            x[:, j] = dp[:, j] - (cp[:, j] @ x[:, j + 1][..., None])[..., 0]
        return x

    def dense(self) -> FloatArray:
        """Assemble the dense (nbatch, 3m, 3m) matrices; for small-system checks."""
        nb, m = self.diag.shape[0], self.diag.shape[1]
        out = np.zeros((nb, 3 * m, 3 * m))
        for j in range(m):
            out[:, 3 * j:3 * j + 3, 3 * j:3 * j + 3] = self.diag[:, j]
            if j > 0:
                out[:, 3 * j:3 * j + 3, 3 * j - 3:3 * j] = self.lower[:, j]
            if j < m - 1:
                out[:, 3 * j:3 * j + 3, 3 * j + 3:3 * j + 6] = self.upper[:, j]
        return out


def _require_invertible(blocks: FloatArray, row: int) -> None:
    det = np.linalg.det(blocks)
    scale = np.max(np.abs(blocks), axis=(-2, -1))
    bad = np.abs(det) <= 1e-13 * np.maximum(scale, 1e-300) ** 3
    if bad.any():
        col = int(np.argmax(bad))
        raise LinearSolveError(
            f"singular diagonal block at eta row {row}, xi column {col} "
            f"(|det| = {abs(det[col]):.3e})")


@dataclass
class FrozenCoeffs:
    """Coefficient matrices frozen from one previous-iterate time level.

    A, B, F, G have shape (nx, neta, 3, 3).  adv_radius is the per-node
    spectral radius of A used for the CFL refusal check.
    """

    A: FloatArray
    B: FloatArray
    F: FloatArray
    G: FloatArray
    adv_radius: FloatArray

    @staticmethod
    def from_state(v: FloatArray, P_row: FloatArray, P_t_row: FloatArray,
                   P_xi_row: FloatArray, params: Params, grid: Grid,
                   clamp: bool = False) -> "FrozenCoeffs":
        """Evaluate A, B, F, G at a previous-iterate level v (nx, neta, 3).

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
        A = coeffs.eval_advection(v, P, params)
        B = coeffs.eval_diffusion(v, P, params)
        _, F, _, G = coeffs.eval_lower_order(v, dv, P, P_t_row[:, None],
                                             P_xi_row[:, None], params)
        radius = coeffs.advection_radius(v, P, params)
        return FrozenCoeffs(A=A, B=B, F=F, G=G, adv_radius=radius)


def apply_bcs(v: State, outflow: OutflowData, grid: Grid) -> State:
    """Enforce the boundary rows at the state's own time level.

    Wall (eta = 0): u1 = 0, theta = theta_star, q0 = (4 q1 - q2) / 3 (the
    second-order one-sided zero-Neumann closure).  Far (eta = eta_max):
    v = (U, Theta, H^2/2).
    """
    k = outflow.time_index(v.time)
    u1 = np.array(v.u1)
    theta = np.array(v.theta)
    q = np.array(v.q)
    u1[:, 0] = 0.0
    theta[:, 0] = outflow.theta_star[k]
    q[:, 0] = (4.0 * q[:, 1] - q[:, 2]) / 3.0
    vinf = outflow.vinf(k)
    u1[:, -1] = vinf[:, 0]
    theta[:, -1] = vinf[:, 1]
    q[:, -1] = vinf[:, 2]
    return State(u1=u1, theta=theta, q=q, time=v.time)


def _step_arrays(v: FloatArray, time: float, frozen: FrozenCoeffs,
                 outflow: OutflowData, params: Params, grid: Grid,
                 source: Optional[FloatArray] = None) -> FloatArray:
    """Advance raw state arrays (nx, neta, 3) one step; returns new arrays."""
    dt, dxi, deta = grid.dt, grid.dxi, grid.deta
    radius = float(np.max(frozen.adv_radius))
    if radius > 0.0 and dt > CFL_CONSTANT * dxi / radius:
        raise CFLError(
            f"dt = {dt:g} exceeds the advection bound "
            f"{CFL_CONSTANT * dxi / radius:g} (spectral radius {radius:g})")

    k_new = outflow.time_index(time + dt)
    dxv = apply_derivative(v, grid, axis="xi", order=1)
    expl = (np.einsum("xeij,xej->xei", frozen.A, dxv)
            + np.einsum("xeij,xej->xei", frozen.G, v))
    rhs_full = v / dt - expl
    if source is not None:
        rhs_full = rhs_full + source

    # interior rows 1..neta-2
    sl = slice(1, -1)
    eye = np.eye(3)
    L = -frozen.F[:, sl] / (2.0 * deta) - frozen.B[:, sl] / deta ** 2
    D = eye / dt + 2.0 * frozen.B[:, sl] / deta ** 2
    U = frozen.F[:, sl] / (2.0 * deta) - frozen.B[:, sl] / deta ** 2
    rhs = rhs_full[:, sl].copy()

    # fold the wall row: v0 = (0, theta_star, (4 q1 - q2)/3) at the new level
    theta_w = outflow.theta_star[k_new]
    rhs[:, 0] -= L[:, 0, :, 1] * theta_w[:, None]
    D[:, 0, :, 2] += (4.0 / 3.0) * L[:, 0, :, 2]
    U[:, 0, :, 2] += (-1.0 / 3.0) * L[:, 0, :, 2]
    # fold the far row: known Dirichlet data
    vinf = outflow.vinf(k_new)
    rhs[:, -1] -= (U[:, -1] @ vinf[..., None])[..., 0]

    sol = BlockTridiag(lower=L, diag=D, upper=U).solve(rhs)

    out = np.empty_like(v)
    out[:, sl] = sol
    out[:, 0, 0] = 0.0
    out[:, 0, 1] = theta_w
    out[:, 0, 2] = (4.0 * sol[:, 0, 2] - sol[:, 1, 2]) / 3.0
    out[:, -1] = vinf
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
    boundary rows enforced.
    """
    nt = grid.nsteps
    if v_prev.nlevels != nt + 1:
        raise GridSizingError(
            f"coefficient trajectory has {v_prev.nlevels} levels, grid wants {nt + 1}")
    data = np.empty((nt + 1, grid.nx, grid.neta, 3))
    data[0] = apply_bcs(v0, outflow, grid).as_array()
    for k in range(nt):
        frozen = FrozenCoeffs.from_state(
            v_prev.data[k], outflow.P[k], outflow.P_t[k], outflow.P_xi[k],
            params, grid, clamp=clamp)
        src = None if source is None else source[k + 1]
        data[k + 1] = _step_arrays(data[k], float(grid.times[k]), frozen,
                                   outflow, params, grid, source=src)
    return Trajectory(data=data, times=grid.times.copy())
