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
once, each through its own named solver that writes the system once,
straight from the named entries, into the layout its LAPACK routine reads:
solve_u1 puts the scalar u1 system's three diagonals into dgtsv, then
solve_theta_q puts the 2x2 (theta, q) system into dgbsv's band, with the u1
couplings moved to its right-hand side.  Both share one guard
(_guarded_solve): a non-finite system or a pivot too small for its xi
column raises LinearSolveError naming the xi column and eta row.
BlockTridiag is the generic (nbatch, m, k, k) block solver the tests take
as the reference; no solver path builds one, and the error path of each
named solver names a singular row from its own band (_band_dense).
Both routines, and the dgtsv of transform's spline inverse, come from
scipy's f2py LAPACK module, loaded from its file: importing scipy.linalg
instead would load some 330 more modules (its array-API layer, numpy.f2py
and more) for the same two functions.
Explicit advection with centered differences is only weakly stable, so steps
refuse to run when dt exceeds 0.5 * dxi / max spectral radius of A0;
advection-dominated regimes need that bound respected.

The step takes any range of adjacent xi columns (_advance): no coupling
crosses an xi column in the freeze or the implicit solves, and the explicit
xi difference reads one neighbouring column on either side, so a range
comes out bit for bit as the same columns of the whole step.  The march
takes one range, all columns, unless picard_solve forked a helper process
for the solve (_fork_columns: nx * neta * nsteps at least SPLIT_NODES and
_may_fork, two CPUs and one OS thread).  Then each step takes xi columns
[0, h) here and [h, nx) in the helper, h starting at nx // 2 and moving by
one column per step towards the side that finished first, and this
process measures the whole level while the helper takes the next step;
every output keeps its bits.  The spans of a traced run (perfbench
--trace 1) see this process's columns only.

Boundary rows are not part of the implicit solve.  The wall values of u1 and
theta are Dirichlet data, the wall q satisfies the one-sided second-order
Neumann closure q0 = (4 q1 - q2) / 3 (wall_q), and the far row carries the
outflow state (U, Theta, H^2/2).  The q closure couples the first interior
row to rows 1 and 2, which is folded into the (theta, q) matrix so the system
stays block tridiagonal.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np

from . import _heap, coeffs
from .errors import (CFLError, DegenerateStateError, GridSizingError,
                     LinearSolveError, MhblError)
from .fields import FloatArray, Grid, OutflowData, Params, State
from .stencils import bounded_diff, periodic_diff

_heap.steady()  # every solve runs through this module


def _load_flapack():
    """scipy.linalg._flapack, loaded from its file; the functions are the
    very objects scipy.linalg.lapack exports.  find_spec("scipy") imports
    nothing, and an extension module always sits as a file in its package."""
    linalg = Path(importlib.util.find_spec("scipy").origin).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = linalg / f"_flapack{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(
                "scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no scipy LAPACK extension _flapack in {linalg}")


_flapack = _load_flapack()
dgbsv, dgtsv = _flapack.dgbsv, _flapack.dgtsv

#: dt must not exceed CFL_CONSTANT * dxi / (spectral radius of A0).
CFL_CONSTANT = 0.5

#: Weights of q1 and q2 in wall_q, folded into the first interior row.
WALL_Q_WEIGHTS = (4.0 / 3.0, -1.0 / 3.0)

#: nx * neta * nsteps from which a solve's steps are split over two
#: processes.  Measured on a 2-CPU host, BLAS on one thread: the split lost
#: at 5120, 20480 and 26496 (7-17% slower) and won from 40960 up (4-24%
#: faster), so the demo's 32 x 64 x 10 stays in process and simulate_wide's
#: 256 x 32 x 10 splits.
SPLIT_NODES = 1 << 15


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


def _planes(v: FloatArray) -> FloatArray:
    """The three (nx, neta) component planes of a level v (nx, neta, 3), as
    one contiguous (3, nx, neta) copy.  Each level is read this way once by
    the freeze, the step and the measure: arithmetic on the planes gives
    the bits of the same arithmetic on v's strided views, faster."""
    return np.asarray(v, dtype=float).transpose(2, 0, 1).copy()


def _operator_at(v: FloatArray, k: int, outflow: OutflowData, params: Params,
                 grid: Grid) -> FloatArray:
    """coeffs.operator of a level array v (nx, neta, 3) at time level k,
    with the discrete derivatives of apply_derivative and the outflow
    pressure rows of level k."""
    dxv = apply_derivative(v, grid, axis="xi", order=1)
    dev = apply_derivative(v, grid, axis="eta", order=1)
    d2ev = apply_derivative(v, grid, axis="eta", order=2)
    return coeffs.operator(v, dxv, dev, d2ev, outflow.P[k][:, None],
                           outflow.P_t[k][:, None], outflow.P_xi[k][:, None],
                           params)


def _guarded_solve(scale: FloatArray, rhs: FloatArray, k: int,
                   lapack: Callable[[], tuple],
                   column: Callable[[int], FloatArray]) -> FloatArray:
    """One LAPACK solve of nb stacked xi-column systems under the guard every
    implicit solve shares; returns the solution as LAPACK gives it.

    scale (nb,) is the largest |entry| of each xi column's system and rhs
    holds the nb columns' right-hand sides; a non-finite value in either
    raises before the call.  lapack() makes the call and returns
    (x, u_diag, info), u_diag being the diagonal of the LU factor U.  A
    positive info, or a pivot |u_ii| <= 1e-13 * scale of its column, raises
    naming the xi column and eta row; column(col) gives xi column col's
    dense (k m, k m) matrix for that message only.
    """
    nb = len(scale)
    bad = ~(np.isfinite(scale) & np.isfinite(rhs).reshape(nb, -1).all(axis=1))
    if bad.any():
        raise LinearSolveError(
            f"non-finite implicit system in xi column {int(np.argmax(bad))}")
    x, u_diag, info = lapack()
    pivot = np.abs(u_diag).reshape(nb, -1).min(axis=1)
    small = pivot <= 1e-13 * scale
    if info == 0 and not small.any():
        return x
    col = (info - 1) // (u_diag.size // nb) if info > 0 else int(np.argmax(small))
    # pivoting moves a zero pivot away from the row that caused it, so
    # name the row where the column's left null vector is largest
    row = int(np.argmax(np.abs(np.linalg.svd(column(col))[0][:, -1]))) // k
    raise LinearSolveError(
        f"singular implicit system at xi column {col}, eta row {row} "
        f"(min |pivot| = {pivot[col]:.3e}, max |entry| = {scale[col]:.3e})")


def _band_scale(ab: FloatArray) -> FloatArray:
    """The largest |entry| of each xi column's part of a band (nb, ...),
    without an |ab| copy; the band holds zeros, so min <= 0 <= max (and
    the maximum is |entry|'s to the bit, in any order)."""
    axes = tuple(range(1, ab.ndim))
    return np.maximum(-ab.min(axis=axes), ab.max(axis=axes))


def _band_dense(ab: FloatArray, w: int) -> FloatArray:
    """The dense (n, n) matrix of a C-ordered band ab (n, 3 w + 1),
    A[i, j] = ab[j, 2 w + i - j], as _theta_q_band writes it; for the
    error paths of solve_u1 and solve_theta_q."""
    n = len(ab)
    i, j = np.indices((n, n))
    near = np.abs(i - j) <= w
    out = np.zeros((n, n))
    out[near] = ab[j[near], 2 * w + i[near] - j[near]]
    return out


@dataclass
class BlockTridiag:
    """Batched block-tridiagonal system with k x k blocks.

    lower, diag, upper have shape (nbatch, m, k, k) (lower[.,0] and
    upper[.,-1] are ignored); rhs has shape (nbatch, m, k).  The block size
    k is read from the blocks.  solve() writes the systems stacked over all
    xi columns into one band and makes one LAPACK LU solve with partial
    pivoting: dgtsv on the band's three diagonals for k = 1, dgbsv on the
    band itself for k >= 2.  It raises LinearSolveError on mismatched
    shapes, and through _guarded_solve on a non-finite entry or a pivot
    |u_ii| <= 1e-13 times the largest |entry| of its xi column's part of
    the band.  The march solves through solve_u1 and solve_theta_q, which
    write the same band straight from the named entries; this generic
    form is the reference they are tested against.
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
        # band storage with kl = ku = w = 2k - 1, unknowns in (xi column,
        # eta row, component) order: A[i, j] is ab[j, 2w + i - j], so ab.T is
        # LAPACK's Fortran band; band rows 0..w-1 are LU workspace, and the
        # couplings between xi columns are zeros
        w = 2 * k - 1
        ab = np.zeros((nb, m, k, 3 * w + 1))
        r, c = np.indices((k, k))
        ab[:, :, c, 2 * w + r - c] = self.diag
        ab[:, :-1, c, 2 * w + k + r - c] = self.lower[:, 1:]
        ab[:, 1:, c, 2 * w - k + r - c] = self.upper[:, :-1]
        scale = _band_scale(ab)
        ab = ab.reshape(-1, 3 * w + 1)

        def lapack():
            if k == 1:
                # dl, d, du are band rows 3, 2, 1; the wrapper wants dl and
                # du of length max(n - 1, 1)
                n = nb * m
                _, u_diag, _, x, info = dgtsv(
                    ab[:max(n - 1, 1), 3], ab[:, 2], ab[min(n - 1, 1):, 1],
                    rhs.reshape(-1))
                return x, u_diag, info
            lub, _, x, info = dgbsv(w, w, ab.T, rhs.reshape(-1),
                                    overwrite_ab=True)
            return x, lub[2 * w], info

        def column(col):
            return BlockTridiag(self.lower[col:col + 1], self.diag[col:col + 1],
                                self.upper[col:col + 1]).dense()[0]

        return _guarded_solve(scale, rhs, k, lapack, column).reshape(nb, m, k)

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


def _eta_rows(F: FloatArray, B: FloatArray, deta: float) -> FloatArray:
    """The centred eta-row entries of F d_eta - B d_eta^2: L = -f - b,
    D = 2 b and U = f - b with f = F / (2 deta) and b = B / deta^2, as one
    new (3, ...) stack (L, D, U); a diagonal block adds its 1/dt to D."""
    f, b = F / (2.0 * deta), B / deta ** 2
    rows = np.empty((3,) + f.shape)
    np.subtract(-f, b, out=rows[0])
    np.multiply(2.0, b, out=rows[1])
    np.subtract(f, b, out=rows[2])
    return rows


def solve_u1(f00: FloatArray, b00: FloatArray, rhs: FloatArray,
             far: FloatArray, dt: float, deta: float) -> FloatArray:
    """Solve the scalar u1 system of every xi column in one dgtsv call.

    f00, b00 and rhs are (nx, m) on the interior eta rows, nx m >= 2, and
    far (nx,) is the far row's u1 (the wall u1 is 0).  The rows are
    L u[j-1] + D u[j] + U u[j+1] = rhs[j] with L, D, U the _eta_rows of
    f00, b00 and 1/dt added to D; the far row is folded into a contiguous
    copy of rhs, which dgtsv overwrites with the solution.  Returns the
    (nx, m) solution; raises LinearSolveError as _guarded_solve.
    """
    rows = _eta_rows(f00, b00, deta)
    L, D, U = rows
    D += 1.0 / dt
    rhs = rhs.copy()
    rhs[:, -1] -= U[:, -1] * far
    # no coupling crosses an xi column, so with these zeros the flattened L
    # and U are dgtsv's sub- and superdiagonal
    L[:, 0] = 0.0
    U[:, -1] = 0.0
    scale = _band_scale(rows.swapaxes(0, 1))

    def lapack():
        _, u_diag, _, x, info = dgtsv(L.ravel()[1:], D.ravel(),
                                      U.ravel()[:-1], rhs.ravel(),
                                      overwrite_b=True)
        return x, u_diag, info

    def column(col):
        ab = np.zeros((len(D[col]), 4))
        ab[1:, 1] = U[col, :-1]
        ab[:, 2] = D[col]
        ab[:-1, 3] = L[col, 1:]
        return _band_dense(ab, 1)

    return _guarded_solve(scale, rhs, 1, lapack, column).reshape(D.shape)


def _theta_q_band(F, B, dt: float, deta: float):
    """The (theta, q) system's band, with the wall q closure folded in.

    F and B are the entries ((x11, x12), (x21, x22)), each (nx, m) on the
    interior eta rows.  Block entry (i, j) of the rows is L, D, U, the
    _eta_rows of F[i][j], B[i][j], with 1/dt added to D for i = j.  Returns the C-ordered band ab (nx, m, 2, 10)
    with kl = ku = 3 and unknowns in (xi column, eta row, component) order:
    A[I, J] is ab[J, 6 + I - J], so its transpose is LAPACK's Fortran band,
    slots 0..2 are LU workspace and the couplings between xi columns are
    zeros.  Also returns the wall row's theta couplings L[:, 0, :, 0]
    (nx, 2) and the far row's blocks U[:, -1] (nx, 2, 2), for the folds
    of the right-hand side.
    """
    nx, m = F[0][0].shape
    ab = np.zeros((nx, m, 2, 10))
    wall = np.empty((nx, 2))
    far = np.empty((nx, 2, 2))
    for i, j in np.ndindex(2, 2):
        L, D, U = _eta_rows(F[i][j], B[i][j], deta)
        if i == j:
            D += 1.0 / dt
        if j == 0:
            wall[:, i] = L[:, 0]
        else:
            # q0 = wall_q(q1, q2) couples the first row to rows 1 and 2
            D[:, 0] += WALL_Q_WEIGHTS[0] * L[:, 0]
            U[:, 0] += WALL_Q_WEIGHTS[1] * L[:, 0]
        far[:, i, j] = U[:, -1]
        ab[:, 1:, j, 4 + i - j] = U[:, :-1]
        ab[:, :, j, 6 + i - j] = D
        ab[:, :-1, j, 8 + i - j] = L[:, 1:]
    return ab, wall, far


def solve_theta_q(F, B, rhs: FloatArray, wall: FloatArray, far: FloatArray,
                  dt: float, deta: float) -> FloatArray:
    """Solve the 2x2 (theta, q) system of every xi column in one dgbsv call.

    F, B are as for _theta_q_band, rhs is (nx, m, 2) on the interior eta
    rows, wall (nx,) the wall theta and far (nx, 2) the far (theta, q).
    The wall theta and the far row are folded into a contiguous copy of
    rhs, which dgbsv overwrites with the solution, and the wall q closure
    into the band, which dgbsv factors in place.  Returns the (nx, m, 2)
    solution; raises LinearSolveError as _guarded_solve.
    """
    ab, wall_L, far_U = _theta_q_band(F, B, dt, deta)
    rhs = rhs.copy()
    rhs[:, 0] -= wall_L * wall[:, None]
    rhs[:, -1] -= (far_U @ far[:, :, None])[..., 0]
    scale = _band_scale(ab)

    def lapack():
        lub, _, x, info = dgbsv(3, 3, ab.reshape(-1, 10).T, rhs.reshape(-1),
                                overwrite_ab=True, overwrite_b=True)
        return x, lub[6], info

    def column(col):
        # the band is factored by now: write xi column col's again
        one = _theta_q_band([[e[col:col + 1] for e in row] for row in F],
                            [[e[col:col + 1] for e in row] for row in B],
                            dt, deta)[0]
        return _band_dense(one.reshape(-1, 10), 3)

    return _guarded_solve(scale, rhs, 2, lapack, column).reshape(rhs.shape)


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
                   P_xi_row: FloatArray, params: Params,
                   grid: Grid) -> "FrozenCoeffs":
        """Evaluate the entries at a previous-iterate level v (nx, neta, 3).

        P_row etc. are the outflow pressure rows (nx,) at the same time
        level.
        """
        # v as a view of its planes: the derivative keeps that layout, and
        # frozen_entries reads both without a copy
        v = _planes(v).transpose(1, 2, 0)
        dv = apply_derivative(v, grid, axis="eta", order=1)
        return FrozenCoeffs(**coeffs.frozen_entries(
            v, dv, P_row[:, None], P_t_row[:, None], P_xi_row[:, None], params))


def _set_boundary_rows(a: FloatArray, theta_wall: FloatArray,
                       far: FloatArray) -> FloatArray:
    """Write the boundary rows into a (nx, neta, 3) state array a, in place,
    for wall temperature theta_wall (nx,) and far state far (nx, 3).

    Wall (eta = 0): u1 = 0, theta = theta_wall, q0 = wall_q(q1, q2) (zero
    Neumann).  Far (eta = eta_max): v = far, the outflow (U, Theta, H^2/2).
    """
    a[:, 0, 0] = 0.0
    a[:, 0, 1] = theta_wall
    a[:, 0, 2] = wall_q(a[:, 1, 2], a[:, 2, 2])
    a[:, -1] = far
    return a


def _step_arrays(v: FloatArray, k: int, fc: FrozenCoeffs,
                 outflow: OutflowData, params: Params, grid: Grid,
                 source: Optional[FloatArray] = None,
                 cols: Optional[Tuple[int, int]] = None) -> FloatArray:
    """One IMEX step of the frozen-coefficient system: advance a state
    array v (nx, neta, 3) to time level k; returns a new array.

    source, when given, is the extra right-hand side at level k, shaped
    like v.  cols = (a, b), when given, steps xi columns a..b-1 of v only:
    fc is then frozen on those columns, and the result holds them.  The map
    is affine in v for fixed coefficients and boundary data.  Raises
    CFLError instead of running an unstable step.
    """
    v = np.asarray(v, dtype=float)
    nx = len(v)
    a, b = (0, nx) if cols is None else cols
    dt, dxi, deta = grid.dt, grid.dxi, grid.deta
    radius = float(np.max(fc.adv_radius))
    if radius > 0.0 and dt > CFL_CONSTANT * dxi / radius:
        i, j = np.unravel_index(np.argmax(fc.adv_radius), fc.adv_radius.shape)
        raise CFLError(
            f"dt = {dt:g} exceeds the advection bound "
            f"{CFL_CONSTANT * dxi / radius:g} (spectral radius {radius:g} "
            f"at xi column {i}, eta row {j})")

    # The right-hand side v / dt - (A d_xi v + G v) is built in place on one
    # copy of v's component planes from the nine nonzero products, each row
    # summed in column order; a row reads only planes not yet divided.  The
    # copy holds xi columns a - 1 .. b, periodically, so that the xi
    # difference of every column a..b-1 is an interior one, with the bits of
    # the whole level's.
    ext = np.empty((3, b - a + 2, v.shape[1]))
    ext[:, 1:-1] = v[a:b].transpose(2, 0, 1)
    ext[:, 0], ext[:, -1] = v[a - 1].T, v[b % nx].T
    dx = apply_derivative(ext.transpose(1, 2, 0), grid,
                          axis="xi").transpose(2, 0, 1)[:, 1:-1]
    rhs = ext[:, 1:-1]
    r0, r1, r2 = rhs
    row = fc.u1 * dx[0] + fc.a02 * dx[2] + fc.g01 * r1
    r0 /= dt
    r0 -= row
    row = fc.a10 * dx[0] + fc.u1 * dx[1] + fc.g11 * r1
    r1 /= dt
    r1 -= row
    row = fc.a20 * dx[0] + fc.u1 * dx[2] + fc.g22 * r2
    r2 /= dt
    r2 -= row
    del dx, row
    if source is not None:
        rhs += source[a:b].transpose(2, 0, 1)

    # The solves read the Dirichlet data from the outflow, and the u1
    # couplings read u1's two boundary rows, so those are written first;
    # _set_boundary_rows writes every boundary row once the interior is
    # solved, so each entry of out is written before it is read.
    sl = slice(1, -1)
    theta_wall, far = outflow.theta_star[k][a:b], outflow.far[k][a:b]
    out = np.empty((b - a,) + v.shape[1:])
    u1 = out[:, :, 0]
    u1[:, 0], u1[:, -1] = 0.0, far[:, 0]

    # u1: a scalar system; the wall u1 is 0, the far u1 is Dirichlet data
    u1[:, sl] = solve_u1(fc.f00[:, sl], fc.b00[:, sl], rhs[0, :, sl],
                         far[:, 0], dt, deta)

    # (theta, q): u1 enters only through F[1:, 0] (B[1:, 0] = 0), as
    # F[1:, 0] (u1[i+1] - u1[i-1]) / (2 deta), moved to the right-hand side
    du1 = (u1[:, 2:] - u1[:, :-2]) / (2.0 * deta)
    rhs[1, :, sl] -= fc.f10[:, sl] * du1
    rhs[2, :, sl] -= fc.f20[:, sl] * du1
    out[:, sl, 1:] = solve_theta_q(
        [[fc.f11[:, sl], fc.f12[:, sl]], [fc.f21[:, sl], fc.f22[:, sl]]],
        [[fc.b11[:, sl], fc.b12[:, sl]], [fc.b21[:, sl], fc.b22[:, sl]]],
        rhs[1:, :, sl].transpose(1, 2, 0), theta_wall, far[:, 1:], dt, deta)
    return _set_boundary_rows(out, theta_wall, far)


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


def _advance(level: FloatArray, old: FloatArray, k: int,
             cols: Tuple[int, int], outflow: OutflowData, params: Params,
             grid: Grid, source: Optional[FloatArray]) -> FloatArray:
    """The step off time level k on xi columns cols = (a, b): freeze the
    previous iterate's level k on those columns, old (b - a, neta, 3), and
    step them from the whole new level k, level (nx, neta, 3); returns the
    new level k + 1 on those columns."""
    a, b = cols
    frozen = FrozenCoeffs.from_state(old, outflow.P[k][a:b],
                                     outflow.P_t[k][a:b], outflow.P_xi[k][a:b],
                                     params, grid)
    return _step_arrays(level, k + 1, frozen, outflow, params, grid,
                        source=None if source is None else source[k + 1],
                        cols=cols)


def solve_linear_problem(v_prev: Trajectory, v0: State, outflow: OutflowData,
                         params: Params, grid: Grid,
                         source: Optional[FloatArray] = None,
                         measure: Optional[
                             Callable[[int, FloatArray, FloatArray], None]] = None,
                         *, _columns: Optional["_Columns"] = None,
                         ) -> Trajectory:
    """March the frozen-coefficient problem over [0, t_end], in place.

    v_prev supplies the coefficient states: the step from level k to k+1
    freezes A, B, F, G at v_prev(level k).  source, when given, has shape
    (nsteps+1, nx, neta, 3) and enters each step at its new time level.
    Every returned level satisfies the boundary rows of its own outflow
    level exactly (_set_boundary_rows); level 0 is v0 with outflow level 0's
    rows enforced.  A LinearSolveError, CFLError or
    DegenerateStateError from the step off level k is raised again as the
    same class with "time level k: " before its message.

    v_prev is consumed: once the step off level k is taken, the new level k
    overwrites slot k of v_prev.data, and the returned Trajectory wraps
    v_prev.data itself.  Only the new level k and k+1 are held outside it.
    When a step raises part-way, v_prev.data is left with the new levels
    below k and the old levels from k on.  measure, when given, is called
    as measure(k, new, old) for k = 0..nsteps in order, with the new and
    the old level k, just before slot k is overwritten.

    _columns is picard_solve's helper process, forked for these outflow,
    params, grid and source; the steps are then split with it
    (_Columns.step).  picard_solve closes it.
    """
    nt, nx = grid.nsteps, grid.nx
    if v_prev.nlevels != nt + 1:
        raise GridSizingError(
            f"coefficient trajectory has {v_prev.nlevels} levels, grid wants {nt + 1}")
    data = v_prev.data
    level = _set_boundary_rows(v0.as_array(), outflow.theta_star[0],
                               outflow.far[0])
    if _columns is None:
        def step(level, k):
            return _advance(level, data[k], k, (0, nx), outflow, params, grid,
                            source)
    else:
        level = _columns.start(level, data)

        def step(level, k):
            return _columns.step(level, k, data)
    for k in range(nt + 1):
        new = None
        if k < nt:
            try:
                new = step(level, k)
            except (LinearSolveError, CFLError, DegenerateStateError) as exc:
                raise type(exc)(f"time level {k}: {exc}") from exc
        if measure is not None:
            measure(k, level, data[k])
        data[k] = level
        level = new
    return Trajectory(data=data, times=grid.times.copy())


def _may_fork() -> bool:
    """Whether this process may hand work to a forked child: it may run on
    two CPUs or more, and it has one OS thread, as a fork copies just the
    calling thread (and Python 3.12 warns).  Both splits ask it: the
    march's (_fork_columns) and simulate's output stage's."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2):
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _fork_columns(outflow: OutflowData, params: Params, grid: Grid,
                  source: Optional[FloatArray]) -> Optional["_Columns"]:
    """The one place where a solve's march is split: a helper process for
    picard_solve to pass to every march, or None to march in process.  It
    forks only when nx * neta * nsteps is at least SPLIT_NODES and
    _may_fork(); if the fork itself fails, the march stays in process."""
    if grid.nx * grid.neta * grid.nsteps < SPLIT_NODES or not _may_fork():
        return None
    try:
        return _Columns(outflow, params, grid, source)
    except OSError:
        return None


class _Columns:
    """A helper process that takes xi columns [h, nx) of every step of a
    solve's marches, while the march takes [0, h) and measures.

    h starts at nx // 2 and moves by one column per step towards the side
    that finished first, within [1, nx - 1]: once its own columns are
    stepped, the march looks at the reply pipe without waiting, and gives
    the helper one more column if its reply is already there and one fewer
    otherwise.  A step's columns do not depend on the range that steps
    them, so any h gives the same bits.

    It is forked before the solve makes its level stack, so that it holds
    only what it reads: outflow, params, grid and source, shared
    copy-on-write and never written, and one anonymous shared mapping.  The
    mapping holds three level buffers, level k of a march in buffer k % 3,
    and a slot for the previous iterate's level k, whose columns [h, nx)
    the march copies there before it hands over the step off level k.  Per
    step the march writes (k, h) to the command pipe, and the helper
    answers one byte on the reply pipe once its columns of level k + 1 are
    in their buffer: 0, or 1 if its step raised.  The helper leaves by
    os._exit at the command pipe's end of file or on a broken reply pipe,
    and ignores SIGINT, so that the march that forked it decides when it
    ends.
    """

    def __init__(self, outflow: OutflowData, params: Params, grid: Grid,
                 source: Optional[FloatArray]) -> None:
        import mmap  # here, and signal below: only a split solve needs them
        import signal

        nx, neta = grid.nx, grid.neta
        self.inputs = (outflow, params, grid, source)
        self.h = nx // 2
        shared = np.frombuffer(mmap.mmap(-1, 4 * nx * neta * 3 * 8))
        self.levels = shared[:3 * nx * neta * 3].reshape(3, nx, neta, 3)
        self.old = shared[3 * nx * neta * 3:].reshape(nx, neta, 3)
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        cmd_r, self.cmd, self.reply, reply_w = fds
        if self.pid == 0:
            try:
                os.close(self.cmd)
                os.close(self.reply)
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                self._serve(cmd_r, reply_w)
            finally:
                os._exit(0)
        os.close(cmd_r)
        os.close(reply_w)

    def _serve(self, cmd: int, reply: int) -> None:
        outflow, params, grid, source = self.inputs
        while True:
            msg = os.read(cmd, 16)
            if not msg:
                return
            k, h = (int.from_bytes(msg[i:i + 8], "little") for i in (0, 8))
            try:
                self.levels[(k + 1) % 3, h:] = _advance(
                    self.levels[k % 3], self.old[h:], k, (h, grid.nx),
                    outflow, params, grid, source)
            except Exception:  # the march takes the step again, and raises
                os.write(reply, b"\1")
            else:
                os.write(reply, b"\0")

    def _gone(self, k: int) -> MhblError:
        return MhblError(
            f"time level {k}: the process stepping xi columns {self.h}.."
            f"{self.inputs[2].nx - 1} (pid {self.pid}) exited")

    def _send(self, k: int, data: FloatArray) -> None:
        """Hand over the step off level k on columns [h, nx), with the
        previous iterate's level k from data."""
        self.old[self.h:] = data[k, self.h:]
        try:
            os.write(self.cmd, k.to_bytes(8, "little")
                     + self.h.to_bytes(8, "little"))
        except BrokenPipeError:
            raise self._gone(k) from None

    def _done(self, k: int) -> bool:
        """Wait for the helper's step off level k; True if it succeeded."""
        reply = os.read(self.reply, 1)
        if not reply:
            raise self._gone(k)
        return reply == b"\0"

    def start(self, level: FloatArray, data: FloatArray) -> FloatArray:
        """Put a march's level 0 in its buffer and hand over the first step;
        returns the buffer."""
        self.levels[0] = level
        if len(data) > 1:
            self._send(0, data)
        return self.levels[0]

    def step(self, level: FloatArray, k: int, data: FloatArray) -> FloatArray:
        """The step off level k, whose buffer is level: columns [0, h) here
        while the helper takes the others; then h moves, and the step off
        level k + 1 is handed over, so that the helper takes it while level
        k is measured.  Returns the buffer of level k + 1.  If either side
        raised, the whole step is taken again here, over all columns, so
        that it raises exactly as in process."""
        import select

        outflow, params, grid, source = self.inputs
        h = self.h
        new = self.levels[(k + 1) % 3]
        try:
            new[:h] = _advance(level, data[k, :h], k, (0, h), outflow, params,
                               grid, source)
            ok = True
        except Exception:  # raised again below, as the whole step raises it
            ok = False
        helper_first = bool(select.select([self.reply], [], [], 0)[0])
        if not (self._done(k) and ok):
            new[...] = _advance(level, data[k], k, (0, grid.nx), outflow,
                                params, grid, source)
        self.h = min(max(h - 1 if helper_first else h + 1, 1), grid.nx - 1)
        if k + 1 < grid.nsteps:
            self._send(k + 1, data)
        return new

    def close(self) -> None:
        """End the helper and reap it."""
        os.close(self.cmd)
        os.close(self.reply)
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:  # reaped already, as under SIGCHLD ignored
            pass
