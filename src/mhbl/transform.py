"""Coordinate change between physical (x, y) and stream-function (xi, eta)
variables, and residual checks of the original boundary-layer system.

The stream function psi solves d_y psi = h1 with psi = 0 on the wall, so
eta = psi(t, x, y) is a valid normal coordinate as long as h1 >= delta > 0.
At t = 0 the map is eta(x, y) = integral_0^y h10(x, s) ds.  Going back, the
physical height of a level set is y = integral_0^eta d eta' / h1_hat, and
the hatted fields pull back by composition with psi.  All xi rows are
inverted together: their not-a-knot spline systems stack into one banded
solve, a row whose spline inverse is not monotone is refitted with pchip,
and the compositions with psi share one search of the eta grid.  The
normal velocity and magnetic components are recovered from psi rather than
evolved:

    u2 = -(d_t psi + u1 d_x psi - nu d_y^2 psi) / h1,     h2 = -d_x psi,

where d_t psi and d_x psi use the closed-form integrals of d_t h1_hat /
h1_hat^2 and d_xi h1_hat / h1_hat^2, and d_y^2 psi = (h1_hat d_eta h1_hat)
evaluated at psi.  The stored h1 is the discrete d_y of the reconstructed
psi and h2 the discrete -d_x, with the same stencils used by the residual
checks, so the divergence d_x h1 + d_y h2 vanishes to rounding by
construction.  The density follows from the total-pressure constraint:
rho = (2 P - h1^2) / (2 R theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .diagnostics import TRANSFORMED_EQUATIONS, ResidualReport
from .errors import (GridSizingError, LinearSolveError, MissingTimeLevelError,
                     NondegeneracyError)
from .fields import (FloatArray, Grid, OutflowData, Params, State, _frozen,
                     pressure_factors)
from .stencils import bounded_diff, periodic_diff
from .stepper import apply_derivative, dgtsv


#: xi rows per block: stream_from_h1, pullback_physical, residual_original
#: and check_physical_constraints do their row-local work one block of rows
#: at a time, so that only their results are held at the size of a whole
#: physical level
BLOCK_ROWS = 64


def _blocks(nx: int):
    """The row slices of consecutive blocks of BLOCK_ROWS rows covering
    range(nx); the last one may be shorter."""
    return (slice(start, min(start + BLOCK_ROWS, nx))
            for start in range(0, nx, BLOCK_ROWS))


def _ddx_rows(f: FloatArray, rows: slice, h: float) -> FloatArray:
    """periodic_diff of f along axis 0 (spacing h) on the given rows, from
    those rows and one wrap row on each side: the same bits as the rows of
    periodic_diff(f, h, 0, 1)."""
    halo = np.take(f, np.arange(rows.start - 1, rows.stop + 1), axis=0,
                   mode="wrap")
    return periodic_diff(halo, h, 0, 1)[1:-1]


@dataclass(frozen=True)
class PhysicalState:
    """Physical fields on the (x, y) grid at one time.

    rho and theta are positive and h1 >= delta on states produced by the
    pullback of admissible solver output; u2 and h2 are derived from the
    stream function, not evolved.  The fields are read-only: the ones
    pullback_physical makes are adopted without a copy, anything else is
    copied (fields._frozen).  The six fields share one 2-d shape (nx, ny)
    and y_nodes holds ny entries, or GridSizingError is raised.
    """

    rho: FloatArray
    u1: FloatArray
    u2: FloatArray
    theta: FloatArray
    h1: FloatArray
    h2: FloatArray
    y_nodes: FloatArray
    time: float = 0.0

    def __post_init__(self) -> None:
        names = ("rho", "u1", "u2", "theta", "h1", "h2", "y_nodes")
        for name in names:
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        shape, shapes = self.u1.shape, [getattr(self, n).shape for n in names]
        if len(shape) != 2 or shapes != [shape] * 6 + [shape[1:]]:
            raise GridSizingError(
                "physical fields must share one 2-d shape (nx, ny), and y_nodes"
                f" hold ny entries; got {dict(zip(names, shapes))}")


def _check_uniform(y_nodes: FloatArray) -> None:
    dy = np.diff(y_nodes)
    if y_nodes.size < 4 or dy.size == 0:
        raise GridSizingError("y grid needs at least 4 nodes")
    if abs(y_nodes[0]) > 1e-14 * max(1.0, abs(y_nodes[-1])):
        raise GridSizingError("y grid must start at the wall y = 0")
    if np.max(np.abs(dy - dy[0])) > 1e-9 * dy[0]:
        raise GridSizingError("y grid must be uniform")


def _cumtrapz(f: FloatArray, x: FloatArray) -> FloatArray:
    """Cumulative trapezoid of each row of f over the nodes x, starting from
    0 at x[0].  The arithmetic is that of scipy's cumulative_trapezoid(f, x,
    axis=1, initial=0.0), in the same order, so the results are equal bit
    for bit.
    """
    out = np.zeros(f.shape)
    d = np.diff(x)
    np.cumsum(d * (f[:, 1:] + f[:, :-1]) / 2.0, axis=1, out=out[:, 1:])
    return out


def initial_eta_map(u10: FloatArray, theta0: FloatArray, h10: FloatArray,
                    y_nodes: FloatArray, grid: Grid,
                    delta: float) -> Tuple[State, FloatArray]:
    """Transform initial physical profiles to the (xi, eta) grid.

    eta(x, y) = cumulative trapezoid of h10 in y, strictly increasing since
    h10 >= delta is required.  The hatted fields are the physical profiles
    reinterpolated at the uniform eta nodes (monotone piecewise-linear
    inversion); beyond eta(x, y_max) they extend with the last value.
    Returns the initial transformed state (with q = h1^2/2) and the eta
    table of shape (nx, ny).
    """
    u10, theta0, h10 = (np.asarray(a, dtype=float) for a in (u10, theta0, h10))
    y_nodes = np.asarray(y_nodes, dtype=float)
    _check_uniform(y_nodes)
    if not h10.min() >= delta:  # also rejects NaN
        raise NondegeneracyError(
            f"initial h1 must stay >= delta = {delta}; min = {h10.min():.6g}")
    if u10.shape != (grid.nx, y_nodes.size) or h10.shape != u10.shape \
            or theta0.shape != u10.shape:
        raise GridSizingError("initial fields must have shape (nx, ny)")
    eta_table = _cumtrapz(h10, y_nodes)
    eta_nodes = grid.eta
    u1_hat = np.empty((grid.nx, grid.neta))
    theta_hat = np.empty_like(u1_hat)
    h1_hat = np.empty_like(u1_hat)
    for i in range(grid.nx):
        u1_hat[i] = np.interp(eta_nodes, eta_table[i], u10[i])
        theta_hat[i] = np.interp(eta_nodes, eta_table[i], theta0[i])
        h1_hat[i] = np.interp(eta_nodes, eta_table[i], h10[i])
    v0 = State(u1=u1_hat, theta=theta_hat, q=0.5 * h1_hat ** 2, time=0.0)
    return v0, eta_table


def stream_from_h1(h1_hat: FloatArray, grid: Grid, y_nodes: FloatArray,
                   delta: float) -> FloatArray:
    """Reconstruct psi[i, j] = psi(x_i, y_j) on the physical grid from the
    hatted field h1(t, xi, eta); returns an (nx, ny) array.

    The level height y(eta) = cumulative trapezoid of 1/h1_hat is strictly
    increasing, so psi(y) is its inverse; psi vanishes at the wall and values
    of y beyond y(eta_max) clamp to eta_max.  The inverse tables of all xi
    rows are fitted with cubic splines from one banded solve; their smooth
    fourth-order error keeps the discrete derivatives of psi (h1, h2) at full
    second order.  Each row where the spline overshoots monotonicity
    (possible for rough h1_hat) falls back to the shape-preserving pchip
    inverse.  Both fits reproduce linear tables exactly, so constant h1_hat
    rows round-trip to rounding.  The rows are inverted one block of
    BLOCK_ROWS at a time, straight into psi.
    """
    h1_hat = np.asarray(h1_hat, dtype=float)
    y_nodes = np.asarray(y_nodes, dtype=float)
    _check_uniform(y_nodes)
    if h1_hat.shape != (grid.nx, grid.neta):
        raise GridSizingError("h1_hat must have shape (nx, neta)")
    lo, hi = h1_hat.min(), h1_hat.max()
    if not delta <= lo <= hi < np.inf:  # NaN fails every comparison
        raise NondegeneracyError(
            f"h1 must stay finite and >= delta = {delta}; "
            f"min = {lo:.6g}, max = {hi:.6g}")
    y_of_eta = _cumtrapz(1.0 / h1_hat, grid.eta)
    psi = np.empty((grid.nx, y_nodes.size))
    for rows in _blocks(grid.nx):
        block, table = psi[rows], y_of_eta[rows]
        _spline_inverse(table, grid.eta, y_nodes, out=block)
        np.copyto(block, grid.eta_max, where=np.isnan(block))  # beyond y(eta_max)
        for i in np.flatnonzero(np.any(np.diff(block, axis=1) < 0.0, axis=1)):
            row = _pchip_row(table[i], grid.eta, y_nodes)
            block[i] = np.where(np.isnan(row), grid.eta_max, row)
    return psi


def _pchip_row(table_row: FloatArray, eta: FloatArray,
               y: FloatArray) -> FloatArray:
    """Evaluate at y the shape-preserving pchip inverse of one row, through
    the points (table_row[k], eta[k]); NaN outside [table_row[0],
    table_row[-1]].  Only rough rows need it, so scipy.interpolate is
    imported here, once, by the first run that meets one.
    """
    from scipy.interpolate import PchipInterpolator

    return PchipInterpolator(table_row, eta, extrapolate=False)(y)


def _spline_inverse(table: FloatArray, eta: FloatArray, y: FloatArray,
                    out: Optional[FloatArray] = None) -> FloatArray:
    """Evaluate at y the not-a-knot cubic spline through the points
    (table[i, k], eta[k]) of every row i; NaN beyond table[i, -1], and
    queries below table[i, 0] extend the first piece.  The values go into
    out, of shape (rows, y.size), when it is given.

    Rows need at least 4 strictly increasing knots.  The arithmetic is that
    of scipy's CubicSpline (n >= 4) and PPoly evaluation, in the same order,
    so each row equals CubicSpline(table[i], eta, bc_type="not-a-knot",
    extrapolate=False)(y) on y >= table[i, 0].
    """
    nx, n = table.shape
    dx = np.diff(table, axis=1)
    slope = np.diff(eta) / dx
    # knot slopes s: row k of block i reads
    #   dx[k] s[k-1] + 2 (dx[k-1] + dx[k]) s[k] + dx[k-1] s[k+1]
    #     = 3 (dx[k] slope[k-1] + dx[k-1] slope[k])
    # with not-a-knot closures in rows 0 and n-1.  The blocks do not couple,
    # so one stacked tridiagonal solve performs the nx row solves exactly.
    band = np.zeros((3, nx, n))  # super-, main and sub-diagonal
    rhs = np.empty((nx, n))
    band[0, :, 2:] = dx[:, :-1]
    band[1, :, 1:-1] = 2.0 * (dx[:, :-1] + dx[:, 1:])
    band[2, :, :-2] = dx[:, 1:]
    rhs[:, 1:-1] = 3.0 * (dx[:, 1:] * slope[:, :-1] + dx[:, :-1] * slope[:, 1:])
    # scipy squares these end widths as scalars, with pow()
    sq0, sq1 = np.float_power(dx[:, 0], 2), np.float_power(dx[:, -1], 2)
    d = table[:, 2] - table[:, 0]
    band[0, :, 1] = d
    band[1, :, 0] = dx[:, 1]
    rhs[:, 0] = ((dx[:, 0] + 2.0 * d) * dx[:, 1] * slope[:, 0]
                 + sq0 * slope[:, 1]) / d
    d = table[:, -1] - table[:, -3]
    band[2, :, -2] = d
    band[1, :, -1] = dx[:, -2]
    rhs[:, -1] = (sq1 * slope[:, -2]
                  + (2.0 * d + dx[:, -1]) * dx[:, -2] * slope[:, -1]) / d
    # the LAPACK call of scipy's solve_banded((1, 1), ...), in place
    ab = band.reshape(3, nx * n)
    _, _, _, s, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs.reshape(nx * n),
                             True, True, True, True)
    if info != 0:
        raise LinearSolveError(f"spline inverse: dgtsv returned info = {info}")
    s = s.reshape(nx, n)

    # Hermite power-basis coefficients of each piece, highest power first
    t = (s[:, :-1] + s[:, 1:] - 2.0 * slope) / dx
    c0 = t / dx
    c1 = (slope - s[:, :-1]) / dx - t
    c2 = s[:, :-1]

    # piece j(i, q) holds table[i, j] <= y[q] < table[i, j + 1] (the last
    # piece is closed): j counts the interior knots at or below y[q], from
    # the index of the first query that reaches each knot
    ny = y.size
    rows = np.arange(nx)[:, None]
    reached = np.searchsorted(y, table[:, 1:-1]) + (ny + 1) * rows
    reached_at = np.bincount(reached.ravel(), minlength=nx * (ny + 1))
    j = np.cumsum(reached_at.reshape(nx, ny + 1)[:, :ny], axis=1)
    del reached_at
    piece = j + (n - 1) * rows  # flat index into (nx, n - 1) arrays
    h = y - np.take(table[:, :-1], piece)
    # ((eta_j + c2 h) + c1 h^2) + c0 h^3, summed in out term by term
    out = np.add(np.take(eta, j), np.take(c2, piece) * h, out=out)
    del j
    out += np.take(c1, piece) * (h * h)
    out += np.take(c0, piece) * (h * h * h)
    np.copyto(out, np.nan, where=y > table[:, -1:])
    return out


def _locate_in_eta(eta: FloatArray,
                   psi: FloatArray) -> Tuple[np.ndarray, FloatArray]:
    """Where each psi entry falls on the eta grid, for _interp_at_psi.

    Returns the flat index i * neta + j of the node below psi[i, q] in an
    (nx, neta) field and the offset psi[i, q] - eta[j].  Entries at or
    outside the ends get the end node and offset 0, so they take the end
    value, as np.interp does.
    """
    n = eta.size
    j = np.clip(np.searchsorted(eta, psi, side="right") - 1, 0, n - 1)
    offset = np.where((psi > eta[0]) & (psi < eta[-1]), psi - eta[j], 0.0)
    return j + n * np.arange(psi.shape[0])[:, None], offset


def _interp_at_psi(field_hat: FloatArray, eta: FloatArray,
                   located: Tuple[np.ndarray, FloatArray],
                   out: Optional[FloatArray] = None) -> FloatArray:
    """Row i of the result is np.interp(psi[i], eta, field_hat[i]), with psi
    located once by _locate_in_eta for every field; written into out when
    it is given."""
    flat, offset = located
    slope = np.zeros(field_hat.shape)  # zero at the last node: offset is 0 there
    np.divide(np.diff(field_hat, axis=1), np.diff(eta), out=slope[:, :-1])
    return np.add(np.take(slope, flat) * offset, np.take(field_hat, flat),
                  out=out)


def pullback_physical(v_hat: State, outflow: OutflowData, params: Params,
                      grid: Grid, y_nodes: FloatArray,
                      v_hat_prev: State) -> PhysicalState:
    """Recover the physical fields from one transformed state.

    v_hat_prev must be the state at an adjacent time level; the time
    derivative of h1_hat uses the difference quotient between the two levels
    (pass the level above for t = 0, the level below otherwise).  For
    genuinely steady data, pass a state with the same fields at a different
    time.  Raises MissingTimeLevelError when the two share a time.
    """
    dt_pair = v_hat.time - v_hat_prev.time
    if abs(dt_pair) < 1e-300:
        raise MissingTimeLevelError("adjacent level must differ in time")
    y_nodes = np.asarray(y_nodes, dtype=float)
    h1_hat = np.sqrt(2.0 * v_hat.q)
    h1_prev = np.sqrt(2.0 * v_hat_prev.q)
    psi = stream_from_h1(h1_hat, grid, y_nodes, params.delta)
    eta_nodes = grid.eta
    dy = y_nodes[1] - y_nodes[0]

    # closed-form stream-function derivatives, evaluated on the eta grid and
    # composed with psi
    dth1 = (h1_hat - h1_prev) / dt_pair
    I_t = _cumtrapz(dth1 / h1_hat ** 2, eta_nodes)
    dxh1 = apply_derivative(h1_hat, grid, axis="xi", order=1)
    I_x = _cumtrapz(dxh1 / h1_hat ** 2, eta_nodes)
    deta_h1 = apply_derivative(h1_hat, grid, axis="eta", order=1)
    h1_deta_h1 = h1_hat * deta_h1

    k = outflow.time_index(v_hat.time)
    P = outflow.P[k][:, None]
    # h2 = -d_x psi first, as it reads the neighbours of a block; then each
    # block of psi is read only by itself, so psi's rows turn into h1's once
    # located.  Each block's last operation writes into its rows of the
    # outputs.
    made = {"h2": np.empty_like(psi)}
    for rows in _blocks(grid.nx):
        np.negative(_ddx_rows(psi, rows, grid.dxi), out=made["h2"][rows])
    made.update((name, np.empty_like(psi)) for name in ("u1", "u2", "theta"))
    for rows in _blocks(grid.nx):
        u1, u2, theta = (made[name][rows] for name in ("u1", "u2", "theta"))
        at_psi = _locate_in_eta(eta_nodes, psi[rows])
        psi[rows] = bounded_diff(psi[rows], dy, 1, 1)  # h1
        _interp_at_psi(v_hat.u1[rows], eta_nodes, at_psi, out=u1)
        _interp_at_psi(v_hat.theta[rows], eta_nodes, at_psi, out=theta)
        h1_at_psi = _interp_at_psi(h1_hat[rows], eta_nodes, at_psi)

        # u2 = -(dt_psi + u1 dx_psi - nu dyy_psi) / h1_at_psi, formed in its
        # output; each product and sum has the operands of that expression,
        # in swapped order where commutative, so the result is the same bit
        # for bit
        _interp_at_psi(I_x[rows], eta_nodes, at_psi, out=u2)
        u2 *= h1_at_psi  # dx_psi
        u2 *= u1
        dt_psi = _interp_at_psi(I_t[rows], eta_nodes, at_psi)
        dt_psi *= h1_at_psi
        u2 += dt_psi
        del dt_psi
        dyy_psi = _interp_at_psi(h1_deta_h1[rows], eta_nodes, at_psi)
        del at_psi
        dyy_psi *= params.nu
        u2 -= dyy_psi
        del dyy_psi
        np.negative(u2, out=u2)
        u2 /= h1_at_psi
        del h1_at_psi

    made["h1"] = psi
    del psi
    # rho = (2 P - h1^2) / (2 R theta)
    made["rho"] = np.empty_like(made["h1"])
    for rows in _blocks(grid.nx):
        rho = made["rho"][rows]
        np.square(made["h1"][rows], out=rho)
        np.subtract(2.0 * P[rows], rho, out=rho)
        rho /= 2.0 * params.R * made["theta"][rows]
    for a in made.values():  # fresh arrays: PhysicalState adopts them
        a.setflags(write=False)
    return PhysicalState(**made, y_nodes=y_nodes, time=v_hat.time)


def check_physical_constraints(ps: PhysicalState, outflow: OutflowData,
                               params: Params) -> Tuple[float, float]:
    """Max-norm residuals of the two built-in constraints on a physical state:
    divergence d_x h1 + d_y h2 and total pressure R rho theta + h1^2/2 - P.

    Both run one block of BLOCK_ROWS xi rows at a time; the block maxima
    are reduced with np.max, so a NaN in any block gives NaN."""
    nx = ps.h1.shape[0]
    dx, dy = 2.0 * np.pi / nx, ps.y_nodes[1] - ps.y_nodes[0]
    k = outflow.time_index(ps.time)
    P = outflow.P[k][:, None]
    div_max, press_max = [], []
    for rows in _blocks(nx):
        div = _ddx_rows(ps.h1, rows, dx)
        div += bounded_diff(ps.h2[rows], dy, 1, 1)
        div_max.append(np.max(np.abs(div, out=div)))
        del div
        # ((R rho) theta + 0.5 h1^2) - P, formed in place
        press = params.R * ps.rho[rows]
        press *= ps.theta[rows]
        h1_sq = np.square(ps.h1[rows])
        h1_sq *= 0.5
        press += h1_sq
        del h1_sq
        press -= P[rows]
        press_max.append(np.max(np.abs(press, out=press)))
    return float(np.max(div_max)), float(np.max(press_max))


#: the attributes time_differences reads of the outer states of a residual
#: triple, and residual_original of the middle one
RESIDUAL_OUTER = ("time", "u1", "theta", "h1")
RESIDUAL_MIDDLE = RESIDUAL_OUTER + ("u2", "h2", "y_nodes")
#: the equations of the original system, the transformed system's three
#: evolution equations first
PHYSICAL_EQUATIONS = TRANSFORMED_EQUATIONS + ("velocity divergence",
                                              "magnetic divergence")


def time_differences(sm: PhysicalState, sp: PhysicalState,
                     t0: float) -> Dict[str, Any]:
    """Centred time differences at t0 of u1, theta and h1, from the states
    one step before (sm) and after (sp) it, for residual_original.

    Returns {"time": t0, "u1": d_t u1, "theta": d_t theta, "h1": d_t h1},
    each (sp.f - sm.f) / (2 dt) with dt = t0 - sm.time: bounded_diff's
    interior stencil along t, in its order of operations, so equal to it
    bit for bit.  Of sm and sp only the attributes RESIDUAL_OUTER lists are
    read.  Raises MissingTimeLevelError unless sm.time < t0 < sp.time are
    equispaced (within 1e-9 relative).
    """
    dt1 = t0 - sm.time
    dt2 = sp.time - t0
    if abs(dt1 - dt2) > 1e-9 * max(dt1, dt2, 1e-30) or dt1 <= 0:
        raise MissingTimeLevelError("states must be equispaced in time")
    return {"time": t0, **{name: (getattr(sp, name) - getattr(sm, name))
                           / (2.0 * dt1) for name in RESIDUAL_OUTER[1:]}}


def residual_original(s0: PhysicalState, ddt: Dict[str, Any],
                      outflow: OutflowData,
                      params: Params) -> ResidualReport:
    """Discrete residuals of the original system at the state s0.

    ddt is time_differences(sm, sp, t0) of the states one step either side
    of s0, and s0.time must be t0, or MissingTimeLevelError is raised.  All
    derivatives are second order (centered in t and x, one-sided at the y
    ends) and the residuals are evaluated on interior y rows.  Returns the
    ResidualReport of the five evolution/constraint equations:

      0: tangential momentum      1: temperature      2: tangential field
      3: velocity divergence      4: magnetic divergence

    Of s0 only the attributes RESIDUAL_MIDDLE lists are read, so any object
    with those will do; rho is never read.  ddt is consumed: each difference
    becomes its equation's residual, in place, and is then taken out of it,
    so that only "time" is left.  The work runs one block of BLOCK_ROWS
    rows at a time.
    """
    if s0.time != ddt["time"]:
        raise MissingTimeLevelError(
            f"time differences are at t={ddt['time']}, the state at "
            f"t={s0.time}")
    y = np.asarray(s0.y_nodes)
    nx, ny = s0.u1.shape
    dx = 2.0 * np.pi / nx
    dy = y[1] - y[0]

    def ddx(f: FloatArray, rows: slice) -> FloatArray:
        return _ddx_rows(f, rows, dx)

    def ddy(f: FloatArray) -> FloatArray:
        return bounded_diff(f, dy, 1, 1)

    def ddy2(f: FloatArray) -> FloatArray:
        return bounded_diff(f, dy, 1, 2)

    max_norm, l2_norm = np.empty(5), np.empty(5)

    def reduce(i: int, r: FloatArray) -> None:
        inner = r[:, 1:-1]
        max_norm[i] = np.max(np.abs(inner))
        l2_norm[i] = np.sqrt(np.sum(inner ** 2) * dx * dy)

    u1, u2, th, h1, h2 = s0.u1, s0.u2, s0.theta, s0.h1, s0.h2
    k = outflow.time_index(s0.time)
    P = outflow.P[k][:, None]
    P_t = outflow.P_t[k][:, None]
    P_x = outflow.P_xi[k][:, None]
    a, R = params.a, params.R
    mu, kappa, nu = params.mu, params.kappa, params.nu

    def shared(r: slice):
        """q, P - q, Q and the terms equations 1-3 share, on the rows r."""
        q = 0.5 * h1[r] ** 2
        Pmq, Q = pressure_factors(P[r], q, a)
        tang_u = h1[r] * ddx(u1, r) + h2[r] * ddy(u1[r])
        mat_P = P_t[r] + P_x[r] * u1[r]
        dissip = (kappa * ddy2(th[r]) + mu * ddy(u1[r]) ** 2
                  + nu * ddy(h1[r]) ** 2)
        return q, Pmq, Q, tang_u, mat_P, dissip

    # Each (nx, ny) residual is summed up one block of rows at a time, term
    # by term in the order of its expression, and then reduced whole (a
    # blocked L2 sum would change its bits).  Equations 0-2 are summed into
    # the time difference each starts from, which is dropped once reduced.
    # The terms equations 1-3 share are formed per block, once for 1-2 and
    # again for 3, so that no whole-level copy of them is held; each block's
    # temporaries go when its function returns.
    def momentum(r: slice) -> None:
        Pmq = pressure_factors(P[r], 0.5 * h1[r] ** 2, a)[0]
        acc = ddt["u1"][r]
        acc += u1[r] * ddx(u1, r) + u2[r] * ddy(u1[r])  # mat_u
        acc -= R * th[r] / Pmq * (h1[r] * ddx(h1, r)
                                  + h2[r] * ddy(h1[r]))  # tang_h
        acc += R * P_x[r] * th[r] / Pmq
        acc -= mu * R * th[r] / Pmq * ddy2(u1[r])

    def temperature_and_field(r: slice) -> None:
        q, Pmq, Q, tang_u, mat_P, dissip = shared(r)
        c_dissip = a * th[r] * (P[r] + q)  # / (Q (P - q))
        del q
        with np.errstate(over="ignore"):  # Q (P - q) = inf only divides
            QPmq = Q * Pmq
        c_dissip /= QPmq
        del QPmq
        acc = ddt["theta"][r]
        acc += u1[r] * ddx(th, r) + u2[r] * ddy(th[r])  # mat_th
        acc += a * th[r] * h1[r] / Q * tang_u
        acc -= a * mat_P * th[r] / Q
        acc -= c_dissip * dissip
        del c_dissip
        acc += a * nu * th[r] * h1[r] / Q * ddy2(h1[r])
        acc = ddt["h1"][r]
        acc += u1[r] * ddx(h1, r) + u2[r] * ddy(h1[r])  # mat_h
        acc -= Pmq / Q * tang_u
        acc -= (1.0 - a) * mat_P * h1[r] / Q
        acc -= nu * Pmq / Q * ddy2(h1[r])
        acc += a * h1[r] / Q * dissip

    def velocity_divergence(r: slice, acc: FloatArray) -> None:
        _, _, Q, tang_u, mat_P, dissip = shared(r)
        np.add(ddx(u1, r), ddy(u2[r]), out=acc)
        acc -= (1.0 - a) * h1[r] / Q * (tang_u + nu * ddy2(h1[r]))
        acc += (1.0 - a) * mat_P / Q
        acc -= a / Q * dissip

    for r in _blocks(nx):
        momentum(r)
    reduce(0, ddt.pop("u1"))
    for r in _blocks(nx):
        temperature_and_field(r)
    reduce(1, ddt.pop("theta"))
    reduce(2, ddt.pop("h1"))
    res = np.empty((nx, ny))  # equation 3, then equation 4
    for r in _blocks(nx):
        velocity_divergence(r, res[r])
    reduce(3, res)
    for r in _blocks(nx):
        np.add(ddx(h1, r), ddy(h2[r]), out=res[r])
    reduce(4, res)
    return ResidualReport(equations=PHYSICAL_EQUATIONS, max_norm=max_norm,
                          l2_norm=l2_norm)

