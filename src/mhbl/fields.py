"""Core value types: physical parameters, grids, outflow traces, states, and
pressure_factors, the one formula for P - q and Q = P + (1 - 2a) q.

The solver works on a rectangle (xi, eta) in T x [0, eta_max], xi periodic
with period 2*pi, eta the stream-function coordinate normal to the wall.
The evolved unknown is v = (u1, theta, q) with q = h1^2 / 2, where h1 is the
tangential magnetic field.  All containers here are immutable value objects:
their arrays are read-only (copied on construction unless already frozen and
owned, see _frozen), and mutation happens only by constructing new
instances.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import GridSizingError, MissingTimeLevelError, PositivityError
from .stencils import FloatArray, bounded_diff, periodic_diff, usable_spacing

#: Hard floor used by coefficient evaluations before dividing.
DENOM_GUARD = 1e-12


def _frozen(a: object, dtype=np.float64) -> FloatArray:
    """A read-only, C-contiguous array of dtype holding the values of a.

    An ndarray that already is all of that and owns its data (base is None)
    is adopted as it is: whoever made it read-only hands it over, as the
    pullback and the snapshot reader do with the arrays they made.  Every
    other input, a writable array or a view included, is copied, so later
    writes to the caller's array do not reach the container.
    """
    if (type(a) is np.ndarray and a.dtype == dtype and a.base is None
            and not a.flags.writeable and a.flags.c_contiguous):
        return a
    out = np.array(a, dtype=dtype, order="C", copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Params:
    """Physical constants.

    mu, kappa, nu are the viscosity, heat-conduction and magnetic-diffusion
    coefficients; R is the gas constant and cV the specific heat.  The derived
    ratio a = R / (cV + R) lies in (0, 1).  delta is the admissibility margin:
    states must keep theta >= delta and delta <= q <= P - delta.
    """

    mu: float = 1.0
    kappa: float = 1.0
    nu: float = 1.0
    R: float = 1.0
    cV: float = 1.0
    delta: float = 0.05
    a: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("mu", "kappa", "nu", "R", "cV", "delta"):
            val = getattr(self, name)
            if not np.isfinite(val) or val <= 0.0:
                raise PositivityError(f"parameter {name} must be positive, got {val}")
        object.__setattr__(self, "a", self.R / (self.cV + self.R))


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on T x [0, eta_max] with fixed time step.

    nx nodes in xi (periodic, spacing 2*pi/nx, no duplicated endpoint) and
    neta nodes in eta including both boundaries (spacing eta_max/(neta-1)).
    eta_max, dt and t_end must be finite and positive, the eta spacing
    usable by the stencils (stencils.usable_spacing), and t_end a whole
    number of steps (t_end/dt within 1e-9 relative of an integer); time
    levels are k*dt for k = 0..nsteps with nsteps = round(t_end/dt).
    """

    nx: int
    neta: int
    eta_max: float
    dt: float
    t_end: float

    def __post_init__(self) -> None:
        if self.nx < 4:
            raise GridSizingError(f"nx must be >= 4, got {self.nx}")
        if self.neta < 8:
            raise GridSizingError(f"neta must be >= 8, got {self.neta}")
        for name in ("eta_max", "dt", "t_end"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val > 0.0):
                raise GridSizingError(
                    f"{name} must be finite and positive, got {val}")
        if not usable_spacing(self.deta):
            raise GridSizingError(
                f"eta_max must give an eta spacing h with h*h and 1/(h*h) "
                f"finite and nonzero, got eta_max={self.eta_max}, "
                f"h={self.deta:.3g}")
        if self.t_end < self.dt:
            raise GridSizingError(
                f"t_end must be at least one step: t_end={self.t_end}, dt={self.dt}"
            )
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise GridSizingError(
                f"t_end must be a whole number of steps: t_end={self.t_end}, "
                f"dt={self.dt} give {steps:.12g} steps")
        w = np.full(self.neta, self.deta)
        w[0] = 0.5 * self.deta
        w[-1] = 0.5 * self.deta
        object.__setattr__(self, "_eta_weights", _frozen(w))

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / self.nx

    @property
    def deta(self) -> float:
        return self.eta_max / (self.neta - 1)

    @property
    def nsteps(self) -> int:
        return int(round(self.t_end / self.dt))

    @property
    def xi(self) -> FloatArray:
        return np.arange(self.nx) * self.dxi

    @property
    def eta(self) -> FloatArray:
        return np.arange(self.neta) * self.deta

    @property
    def times(self) -> FloatArray:
        return np.arange(self.nsteps + 1) * self.dt

    def eta_weights(self) -> FloatArray:
        """Trapezoid quadrature weights in eta (the xi weight is just dxi),
        made once per grid and read-only."""
        return self._eta_weights


def make_grid(nx: int, neta: int, eta_max: float, dt: float, t_end: float) -> Grid:
    """Validate sizes and build a Grid; rejects degenerate requests."""
    return Grid(nx=int(nx), neta=int(neta), eta_max=float(eta_max),
                dt=float(dt), t_end=float(t_end))


TraceFn = Callable[[float, FloatArray], Union[float, FloatArray]]


@dataclass(frozen=True)
class OutflowSpec:
    """Recipe for the far-field traces U, Theta, H, total pressure P and the
    wall temperature theta_star, each a function of (t, xi).

    Each trace is a real number, constant in t and xi, or a callable
    f(t, xi_array) -> array, periodic in xi; the two kinds mix freely.
    Anything else raises PositivityError.
    """

    U: Union[float, TraceFn]
    Theta: Union[float, TraceFn]
    Hfield: Union[float, TraceFn]
    P: Union[float, TraceFn]
    theta_star: Union[float, TraceFn]

    def __post_init__(self) -> None:
        for name, val in vars(self).items():
            if not (callable(val) or isinstance(val, numbers.Real)):
                raise PositivityError(f"outflow trace {name} must be a real "
                                      f"number or a callable, got {val!r}")

    @staticmethod
    def constant(U: float = 0.0, Theta: float = 1.0, Hfield: float = 1.0,
                 P: float = 1.0, theta_star: float = 1.0) -> "OutflowSpec":
        return OutflowSpec(float(U), float(Theta), float(Hfield), float(P),
                           float(theta_star))


@dataclass(frozen=True)
class OutflowData:
    """Outflow traces sampled on the (time level, xi node) grid.

    All arrays have shape (nsteps+1, nx).  The seven traces are finite, and
    Theta, Hfield, P and theta_star are strictly positive everywhere sampled.
    P_t and P_xi hold the pressure derivatives used by the zero-order
    coefficients.  far is the far-field state (U, Theta, H^2/2) on every
    level, shape (nsteps+1, nx, 3): the one place H^2/2 is formed.
    """

    U: FloatArray
    Theta: FloatArray
    Hfield: FloatArray
    P: FloatArray
    theta_star: FloatArray
    P_t: FloatArray
    P_xi: FloatArray
    times: FloatArray
    xi: FloatArray
    far: FloatArray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("U", "Theta", "Hfield", "P", "theta_star", "P_t", "P_xi",
                     "times", "xi"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        for name in ("U", "Theta", "Hfield", "P", "theta_star", "P_t", "P_xi"):
            arr = getattr(self, name)
            if arr.shape != self.U.shape:
                raise PositivityError(f"outflow field {name} has shape "
                                      f"{arr.shape}, expected {self.U.shape}")
            bad = ~np.isfinite(arr)
            if bad.any():
                at = tuple(int(j) for j in np.argwhere(bad)[0])
                raise PositivityError(
                    f"outflow trace {name} is not finite: {arr[bad][0]} at "
                    f"(time level, xi node) = {at}")
            if name not in ("U", "P_t", "P_xi") and not np.all(arr > 0.0):
                raise PositivityError(f"outflow trace {name} must be positive "
                                      f"everywhere; min = {arr.min()}")
        far = np.stack([self.U, self.Theta, 0.5 * self.Hfield ** 2], axis=-1)
        far.setflags(write=False)
        object.__setattr__(self, "far", far)

    def time_index(self, t: float) -> int:
        """Index of the sampled time level matching t (must be on the grid)."""
        dt = self.times[1] - self.times[0] if self.times.size > 1 else 1.0
        k = int(round(t / dt))
        if k < 0 or k >= self.times.size or abs(self.times[k] - t) > 1e-9 * max(1.0, abs(t)):
            raise MissingTimeLevelError(
                f"time {t} is not a sampled level (have [{self.times[0]}.."
                f"{self.times[-1]}], step {dt})")
        return k


def _sample_trace(fn: Union[float, TraceFn], times: FloatArray,
                  xi: FloatArray) -> FloatArray:
    out = np.empty((times.size, xi.size))
    if callable(fn):
        for k, t in enumerate(times):
            out[k] = np.broadcast_to(np.asarray(fn(float(t), xi), dtype=float),
                                     xi.shape)
    else:
        out[:] = float(fn)
    return out


def sample_outflow(spec: OutflowSpec, grid: Grid) -> OutflowData:
    """Sample the outflow recipe on the space-time grid.

    The pressure derivatives P_t, P_xi follow P: exact zeros when P is a
    number, otherwise finite differences of the sampled P (centered periodic
    in xi; centered in t with one-sided ends).
    """
    times, xi = grid.times, grid.xi
    traces = {n: _sample_trace(fn, times, xi) for n, fn in vars(spec).items()}
    P = traces["P"]
    if callable(spec.P):
        P_t = bounded_diff(P, grid.dt, 0, 1)
        P_xi = periodic_diff(P, grid.dxi, 1, 1)
    else:
        P_t, P_xi = np.zeros_like(P), np.zeros_like(P)
    return OutflowData(**traces, P_t=P_t, P_xi=P_xi, times=times, xi=xi)


@dataclass(frozen=True)
class State:
    """Transformed state v = (u1, theta, q) on the (xi, eta) grid at one time.

    Arrays have shape (nx, neta), eta index fastest in memory.
    """

    u1: FloatArray
    theta: FloatArray
    q: FloatArray
    time: float = 0.0

    def __post_init__(self) -> None:
        for name in ("u1", "theta", "q"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        if not (self.u1.shape == self.theta.shape == self.q.shape):
            raise GridSizingError("state components must share one shape")
        if self.u1.ndim != 2:
            raise GridSizingError("state components must be 2-d (nx, neta)")

    @property
    def shape(self) -> tuple:
        return self.u1.shape

    def as_array(self) -> FloatArray:
        """Stack components into (nx, neta, 3)."""
        return np.stack([self.u1, self.theta, self.q], axis=-1)

    @staticmethod
    def from_array(v: FloatArray, time: float = 0.0) -> "State":
        return State(u1=v[..., 0], theta=v[..., 1], q=v[..., 2], time=time)

    @staticmethod
    def constant(grid: Grid, u1: float, theta: float, q: float,
                 time: float = 0.0) -> "State":
        shape = (grid.nx, grid.neta)
        return State(u1=np.full(shape, float(u1)),
                     theta=np.full(shape, float(theta)),
                     q=np.full(shape, float(q)), time=time)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Result of checking theta >= m, m <= q <= P - m for a margin m.

    min_Q reports the minimum of Q = P + (1 - 2a) q, which stays positive on
    admissible states.  first_violation is the index of the first failing
    node in row-major order ((xi index, eta index) for one state), or None.
    NaN values count as violations.
    """

    ok: bool
    min_theta: float
    min_q: float
    min_P_minus_q: float
    min_Q: float
    first_violation: Optional[tuple] = None


def pressure_factors(P, q, a: float):
    """(P - q, Q = P + (1 - 2a) q): the two factors through which the total
    pressure P enters the system, positive on admissible states."""
    return P - q, P + (1.0 - 2.0 * a) * q


def admissibility(theta: FloatArray, q: FloatArray, P: FloatArray,
                  params: Params, margin: float) -> AdmissibilityReport:
    """Check theta >= margin, q >= margin and P - q >= margin nodewise.

    theta and q share any shape and P broadcasts against them.  This is the
    one place the admissible-set inequalities are evaluated; the report
    carries the minima actually attained so callers can see the margin, not
    just a flag.
    """
    P_minus_q, Q = pressure_factors(P, q, params.a)
    good = (theta >= margin) & (q >= margin) & (P_minus_q >= margin)
    ok = bool(good.all())
    first = None
    if not ok:
        idx = np.unravel_index(int(np.argmin(good)), good.shape)
        first = tuple(int(i) for i in idx)
    return AdmissibilityReport(
        ok=ok,
        min_theta=float(theta.min()),
        min_q=float(q.min()),
        min_P_minus_q=float(P_minus_q.min()),
        min_Q=float(Q.min()),
        first_violation=first,
    )
