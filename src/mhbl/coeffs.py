"""Pointwise coefficient matrices of the reduced quasilinear system.

The evolved unknown is v = (u1, theta, q), q = h1^2/2, and the system reads

    d_tau v + A(v) d_xi v + f(v, d_eta v) + g(v) = B(v) d_eta^2 v,

with total pressure P(t, xi) entering through the denominators

    P - q > 0   and   Q = P + (1 - 2a) q > 0,      a = R/(cV + R).

The lower-order terms factor as f = F(v, d_eta v) d_eta v and g = G(v) v,
which is what the frozen-coefficient iteration solves with.  A symmetrizer
S(v) makes S A symmetric and S B = diag(2 mu theta^2 q, 2 kappa theta q,
nu theta^2) positive definite.

Only 21 of the 36 entries of A, B, F and G are nonzero: A 6 (its diagonal is
u1), B 5, F 7 and G 3.  Each is written once, in the per-matrix entry
functions below, keyed by its slot ("a02" is A[..., 0, 2]), and f and g have
one closed form each.  frozen_entries returns the entries from one
denominator pass for the time stepper, and operator builds the spatial
operator from them in one pass as well.  matrices is the one dense view:
from one denominator pass it places the same entries, and the closed forms
of S, S A, S B and S F, into (..., 3, 3) matrices, for the identity checks,
the energy functional and the test oracles; no solver path uses it.

All functions broadcast: v has shape (..., 3), P broadcasts against
v[..., 0], and matrices come back with shape (..., 3, 3).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateStateError
from .fields import DENOM_GUARD, FloatArray, Params, pressure_factors


def _components(v: FloatArray) -> FloatArray:
    """v (..., 3) with its component axis moved to the front, as a view."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise DegenerateStateError(f"state vector must have last axis 3, got {v.shape}")
    return v.transpose(v.ndim - 1, *range(v.ndim - 1))


def _split(v: FloatArray):
    """The three component planes of v (..., 3), each contiguous: views when
    the component axis of v is its slowest in memory (a level taken as
    planes.transpose(1, 2, 0)), else from one component-major copy, as
    arithmetic on the strided views is slower."""
    return tuple(np.ascontiguousarray(_components(v)))


def _at(bad: FloatArray) -> str:
    """' at xi column i, eta row j' for the first True of an (nx, neta) mask;
    other shapes are not a grid level, and name no node."""
    if np.ndim(bad) != 2:
        return ""
    i, j = np.unravel_index(int(np.argmax(bad)), np.shape(bad))
    return f" at xi column {i}, eta row {j}"


def _denominators(theta: FloatArray, q: FloatArray, P, params: Params):
    """The pressure factors (P + q, P - q, Q, Q (P - q)), each formed once
    (P enters the entries only through them); raises if theta, q, P - q
    or Q falls below the guard."""
    P = np.asarray(P, dtype=float)
    Pmq, Q = pressure_factors(P, q, params.a)
    for name, arr in (("theta", theta), ("q", q), ("P - q", Pmq), ("Q", Q)):
        if not (np.min(arr) >= DENOM_GUARD):  # also catches NaN
            raise DegenerateStateError(
                f"{name} = {float(np.min(arr)):.3e} fell below the "
                f"{DENOM_GUARD:g} degeneracy guard{_at(~(arr >= DENOM_GUARD))}")
    with np.errstate(over="ignore"):  # Q (P - q) = inf only divides
        QPmq = Q * Pmq
    return P + q, Pmq, Q, QPmq


def _dense(shape, entries: dict) -> FloatArray:
    """Zero (..., 3, 3) matrices with the named entries in their slots, a
    name ending in its row and column ("a02" and "sa02" fill [..., 0, 2])."""
    M = np.zeros(shape + (3, 3))
    for name, value in entries.items():
        M[..., int(name[-2]), int(name[-1])] = value
    return M


def _advection_entries(theta, q, Pmq, Q, params: Params) -> dict:
    """Off-diagonal nonzeros of A(v); A's diagonal is u1."""
    a, R = params.a, params.R
    return {"a02": -R * theta / Pmq,
            "a10": 2.0 * a * theta * q / Q,
            "a20": -2.0 * Pmq * q / Q}


def _radius(u1, theta, q, Q, params: Params) -> FloatArray:
    return np.abs(u1) + np.sqrt(2.0 * params.R * theta * q / Q)


def _diffusion_entries(theta, q, Ppq, Pmq, Q, QPmq, params: Params) -> dict:
    """Nonzeros of B(v): a 1x1 u1 block and a 2x2 (theta, q) block."""
    a = params.a
    mu, kappa, nu, R = params.mu, params.kappa, params.nu, params.R
    tq = 2.0 * q
    return {"b00": tq * mu * R * theta / Pmq,
            "b11": tq * kappa * a * theta * Ppq / QPmq,
            "b12": tq * (-nu * a * theta / Q),
            "b21": tq * (-2.0 * kappa * a * q / Q),
            "b22": tq * nu * Pmq / Q}


def _gradient_entries(theta, q, du1, dtheta, dq, Ppq, Pmq, Q, QPmq,
                      params: Params) -> dict:
    """Nonzeros of F(v, d_eta v); F's u1 row is (c_vis dq, 0, 0)."""
    a = params.a
    mu, kappa, nu, R = params.mu, params.kappa, params.nu, params.R
    c_vis = nu - mu * R * theta / Pmq
    return {"f00": c_vis * dq,
            "f10": -2.0 * mu * a * theta * q * Ppq / QPmq * du1,
            "f11": -kappa * a * theta * Ppq / QPmq * dq,
            "f12": nu * dtheta - nu * a * theta * Ppq / QPmq * dq,
            "f20": 4.0 * mu * a * q ** 2 / Q * du1,
            "f21": 2.0 * kappa * a * q / Q * dq,
            "f22": nu * Ppq / Q * dq}


def _pressure_entries(u1, Pmq, Q, P_t, P_xi, params: Params) -> dict:
    """Nonzeros of G(v); material_P = P_t + u1 P_xi is the material
    derivative of the pressure."""
    a, R = params.a, params.R
    material_P = P_t + P_xi * u1
    return {"g01": R * P_xi / Pmq,
            "g11": -a * material_P / Q,
            "g22": -2.0 * (1.0 - a) * material_P / Q}


def _lower_order_terms(u1, theta, q, du1, dtheta, dq, Ppq, Pmq, Q, QPmq, P_t,
                       P_xi, params: Params):
    """Closed forms of f(v, d_eta v) and g(v), three components each; they
    equal F d_eta v and G v to rounding (check-identities verifies it)."""
    a = params.a
    mu, kappa, nu, R = params.mu, params.kappa, params.nu, params.R
    c_vis = nu - mu * R * theta / Pmq
    c_mid = a * theta * Ppq / QPmq               # theta row prefactor
    quad = (2.0 * mu * q * du1 ** 2 + kappa * dq * dtheta + nu * dq ** 2)
    f = (c_vis * dq * du1,
         nu * dq * dtheta - c_mid * quad,
         (a / Q) * (4.0 * mu * q ** 2 * du1 ** 2
                    + 2.0 * kappa * q * dq * dtheta
                    + (nu * Ppq / a) * dq ** 2))
    material_P = P_t + P_xi * u1
    g = (R * P_xi * theta / Pmq,
         -a * material_P * theta / Q,
         -2.0 * (1.0 - a) * material_P * q / Q)
    return f, g


def frozen_entries(v: FloatArray, dv: FloatArray, P, P_t, P_xi,
                   params: Params) -> dict:
    """The nonzero entries of A, B, F and G at v, plus the spectral radius.

    Keys are u1 (A's diagonal), a02 a10 a20, b00 b11 b12 b21 b22, f00 f10
    f11 f12 f20 f21 f22, g01 g11 g22 and adv_radius; each value has v's
    shape without the last axis.  dv is d_eta v.  Besides the denominator
    guard, raises DegenerateStateError where u1 is not finite.
    """
    u1, theta, q = _split(v)
    du1, dtheta, dq = _split(dv)
    Ppq, Pmq, Q, QPmq = _denominators(theta, q, P, params)
    bad = ~np.isfinite(u1)
    if bad.any():
        raise DegenerateStateError(
            f"u1 = {float(u1[bad][0])} is not finite{_at(bad)}")
    # u1 may be a view of v's planes: its own copy frees theta and q
    return {"u1": u1.copy(),
            **_advection_entries(theta, q, Pmq, Q, params),
            **_diffusion_entries(theta, q, Ppq, Pmq, Q, QPmq, params),
            **_gradient_entries(theta, q, du1, dtheta, dq, Ppq, Pmq, Q, QPmq,
                                params),
            **_pressure_entries(u1, Pmq, Q, P_t, P_xi, params),
            "adv_radius": _radius(u1, theta, q, Q, params)}


def operator(v: FloatArray, dxv: FloatArray, dev: FloatArray,
             d2ev: FloatArray, P, P_t, P_xi, params: Params) -> FloatArray:
    """The spatial operator of the system, A(v) d_xi v + f(v, d_eta v) + g(v)
    - B(v) d_eta^2 v, so that the equation reads d_tau v + operator = 0.

    dxv, dev and d2ev are d_xi v, d_eta v and d_eta^2 v in v's (..., 3)
    layout; P, P_t and P_xi broadcast against v[..., 0] as elsewhere here.
    The products run over the nonzero entries only, in the column order of
    the dense matrix-vector products, so they round as those do.  The four
    inputs are broadcast into one component-major copy, whose contiguous
    planes the products read.
    """
    parts = [_components(a) for a in (v, dxv, dev, d2ev)]
    planes = np.empty((4, 3) + np.broadcast_shapes(*(p.shape[1:] for p in parts)))
    for dst, src in zip(planes, parts):
        dst[...] = src
    (u1, theta, q), (x0, x1, x2), (du1, dtheta, dq), (d0, d1, d2) = planes
    Ppq, Pmq, Q, QPmq = _denominators(theta, q, P, params)
    A = _advection_entries(theta, q, Pmq, Q, params)
    B = _diffusion_entries(theta, q, Ppq, Pmq, Q, QPmq, params)
    f, g = _lower_order_terms(u1, theta, q, du1, dtheta, dq, Ppq, Pmq, Q,
                              QPmq, P_t, P_xi, params)
    adv = (u1 * x0 + A["a02"] * x2, A["a10"] * x0 + u1 * x1,
           A["a20"] * x0 + u1 * x2)
    dif = (B["b00"] * d0, B["b11"] * d1 + B["b12"] * d2,
           B["b21"] * d1 + B["b22"] * d2)
    return np.stack([((adv[i] + f[i]) + g[i]) - dif[i] for i in range(3)],
                    axis=-1)


def matrices(v: FloatArray, dv: FloatArray, P, P_t, P_xi,
             params: Params) -> dict:
    """The coefficient algebra at v as dense matrices, from one denominator
    pass: a view for the identity checks, the energy functional and the
    test oracles, which no solver path uses.

    Returns a dict of A, B, F, G and the symmetrizer S with the closed
    forms SA, SB and SF of the products S A, S B and S F, each (..., 3, 3),
    and the closed forms f and g, each (..., 3); dv is d_eta v in v's
    layout.  A, B, F and G hold frozen_entries' values in their slots.
    SA, SB and SF are written directly, not by multiplying, so checks of
    S @ A == SA and the like compare independent codings.  S is symmetric
    positive definite on admissible states, and SB = diag(2 mu theta^2 q,
    2 kappa theta q, nu theta^2).
    """
    u1, theta, q = _split(v)
    du1, dtheta, dq = _split(dv)
    Ppq, Pmq, Q, QPmq = _denominators(theta, q, P, params)
    shape = np.broadcast_shapes(u1.shape, du1.shape, Ppq.shape)
    a = params.a
    mu, kappa, nu, R = params.mu, params.kappa, params.nu, params.R
    slots = {
        "A": {"a00": u1, "a11": u1, "a22": u1,
              **_advection_entries(theta, q, Pmq, Q, params)},
        "B": _diffusion_entries(theta, q, Ppq, Pmq, Q, QPmq, params),
        "F": _gradient_entries(theta, q, du1, dtheta, dq, Ppq, Pmq, Q, QPmq,
                               params),
        "G": _pressure_entries(u1, Pmq, Q, P_t, P_xi, params),
        "S": {"s00": theta * Pmq / R,
              "s11": Pmq / a,
              "s12": theta,
              "s21": theta,
              "s22": theta ** 2 * Ppq / (2.0 * q * Pmq)},
        "SA": {"sa00": theta * Pmq * u1 / R,
               "sa02": -(theta ** 2),
               "sa11": Pmq * u1 / a,
               "sa12": theta * u1,
               "sa20": -(theta ** 2),
               "sa21": theta * u1,
               "sa22": theta ** 2 * Ppq * u1 / (2.0 * q * Pmq)},
        "SB": {"sb00": 2.0 * mu * theta ** 2 * q,
               "sb11": 2.0 * kappa * theta * q,
               "sb22": nu * theta ** 2},
        "SF": {"sf00": (nu * Pmq / R - mu * theta) * theta * dq,
               "sf10": -2.0 * mu * theta * q * du1,
               "sf11": -kappa * theta * dq,
               "sf12": (nu * Pmq / a) * dtheta,
               "sf22": nu * theta * (dtheta + theta * Ppq / (2.0 * q * Pmq)
                                     * dq)}}
    out = {name: _dense(shape, entries) for name, entries in slots.items()}
    f, g = _lower_order_terms(u1, theta, q, du1, dtheta, dq, Ppq, Pmq, Q,
                              QPmq, P_t, P_xi, params)
    for name, parts in (("f", f), ("g", g)):
        out[name] = np.stack([np.broadcast_to(c, shape) for c in parts],
                             axis=-1)
    return out
