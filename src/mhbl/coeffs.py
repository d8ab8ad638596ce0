"""Pointwise coefficient matrices of the reduced quasilinear system.

The evolved unknown is v = (u1, theta, q), q = h1^2/2, and the system reads

    d_tau v + A(v) d_xi v + f(v, d_eta v) + g(v) = B(v) d_eta^2 v,

with total pressure P(t, xi) entering through the denominators

    P - q > 0   and   Q = P + (1 - 2a) q > 0,      a = R/(cV + R).

The lower-order terms factor as f = F(v, d_eta v) d_eta v and g = G(v) v,
which is what the frozen-coefficient iteration solves with.  A symmetrizer
S(v) makes S A symmetric and S B = diag(2 mu theta^2 q, 2 kappa theta q,
nu theta^2) positive definite; eval_symmetrizer returns the closed forms of
S, S A, S B and S F so tests can verify the products independently.

Only 21 of the 36 entries of A, B, F and G are nonzero: A 6 (its diagonal is
u1), B 5, F 7 and G 3.  Each is written once, in the per-matrix entry
functions below, keyed by its slot ("a02" is A[..., 0, 2]), and f and g have
one closed form each.  frozen_entries returns the entries from one
denominator pass for the time stepper, and operator builds the spatial
operator from them in one pass as well.  eval_advection, eval_diffusion and
eval_lower_order place the same entries into dense matrices: a view for the
identity checks and the test oracles, which no solver path uses.

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
    """' at eta row j, xi column i' for the first True of an (nx, neta) mask;
    other shapes are not a grid level, and name no node."""
    if np.ndim(bad) != 2:
        return ""
    i, j = np.unravel_index(int(np.argmax(bad)), np.shape(bad))
    return f" at eta row {j}, xi column {i}"


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
    return P + q, Pmq, Q, Q * Pmq


def _alloc(shape) -> FloatArray:
    return np.zeros(shape + (3, 3))


def _dense(shape, entries: dict) -> FloatArray:
    """Zero (..., 3, 3) matrices with the named entries in their slots."""
    M = _alloc(shape)
    for name, value in entries.items():
        M[..., int(name[1]), int(name[2])] = value
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


def eval_advection(v: FloatArray, P, params: Params) -> FloatArray:
    """Advection matrix A(v); eigenvalues are u1 and u1 +- sqrt(2 R theta q / Q)."""
    u1, theta, q = _split(v)
    Ppq, Pmq, Q, _ = _denominators(theta, q, P, params)
    shape = np.broadcast_shapes(u1.shape, Ppq.shape)
    return _dense(shape, {"a00": u1, "a11": u1, "a22": u1,
                          **_advection_entries(theta, q, Pmq, Q, params)})


def advection_radius(v: FloatArray, P, params: Params) -> FloatArray:
    """Spectral radius |u1| + sqrt(2 R theta q / Q) of A(v), elementwise."""
    u1, theta, q = _split(v)
    Q = _denominators(theta, q, P, params)[2]
    return _radius(u1, theta, q, Q, params)


def eval_diffusion(v: FloatArray, P, params: Params) -> FloatArray:
    """Diffusion matrix B(v): 1x1 block for u1 plus a 2x2 block in (theta, q)."""
    u1, theta, q = _split(v)
    Ppq, Pmq, Q, QPmq = _denominators(theta, q, P, params)
    shape = np.broadcast_shapes(u1.shape, Ppq.shape)
    return _dense(shape, _diffusion_entries(theta, q, Ppq, Pmq, Q, QPmq, params))


def eval_lower_order(v: FloatArray, dv: FloatArray, P, P_t, P_xi,
                     params: Params):
    """Lower-order terms: returns (f, F, g, G).

    f(v, d_eta v) collects the quadratic gradient terms and g(v) the pressure
    forcing; F and G are the factorizations with f = F d_eta v and g = G v
    (entrywise products of the returned matrices with the vectors).  dv is
    d_eta v with the same (..., 3) layout.
    """
    u1, theta, q = _split(v)
    du1, dtheta, dq = _split(dv)
    Ppq, Pmq, Q, QPmq = _denominators(theta, q, P, params)
    shape = np.broadcast_shapes(u1.shape, du1.shape, Ppq.shape)
    fc, gc = _lower_order_terms(u1, theta, q, du1, dtheta, dq, Ppq, Pmq, Q,
                                QPmq, P_t, P_xi, params)
    f, g = np.zeros(shape + (3,)), np.zeros(shape + (3,))
    for i in range(3):
        f[..., i], g[..., i] = fc[i], gc[i]
    F = _gradient_entries(theta, q, du1, dtheta, dq, Ppq, Pmq, Q, QPmq, params)
    G = _pressure_entries(u1, Pmq, Q, P_t, P_xi, params)
    return f, _dense(shape, F), g, _dense(shape, G)


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


def eval_symmetrizer(v: FloatArray, dv: FloatArray, P, params: Params):
    """Symmetrizer closed forms: returns (S, SA, SB, SF).

    S is symmetric positive definite on admissible states.  SA, SB and SF are
    the closed forms of the products S A, S B and S F; they are computed
    directly (not by multiplying), so tests can check S @ A == SA etc.
    SB = diag(2 mu theta^2 q, 2 kappa theta q, nu theta^2).
    """
    u1, theta, q = _split(v)
    du1, dtheta, dq = _split(dv)
    Ppq, Pmq, Q, _ = _denominators(theta, q, P, params)
    a = params.a
    mu, kappa, nu, R = params.mu, params.kappa, params.nu, params.R
    shape = np.broadcast_shapes(u1.shape, du1.shape, Ppq.shape)

    S = _alloc(shape)
    S[..., 0, 0] = theta * Pmq / R
    S[..., 1, 1] = Pmq / a
    S[..., 1, 2] = theta
    S[..., 2, 1] = theta
    S[..., 2, 2] = theta ** 2 * Ppq / (2.0 * q * Pmq)

    SA = _alloc(shape)
    SA[..., 0, 0] = theta * Pmq * u1 / R
    SA[..., 0, 2] = -(theta ** 2)
    SA[..., 1, 1] = Pmq * u1 / a
    SA[..., 1, 2] = theta * u1
    SA[..., 2, 0] = -(theta ** 2)
    SA[..., 2, 1] = theta * u1
    SA[..., 2, 2] = theta ** 2 * Ppq * u1 / (2.0 * q * Pmq)

    SB = _alloc(shape)
    SB[..., 0, 0] = 2.0 * mu * theta ** 2 * q
    SB[..., 1, 1] = 2.0 * kappa * theta * q
    SB[..., 2, 2] = nu * theta ** 2

    SF = _alloc(shape)
    SF[..., 0, 0] = (nu * Pmq / R - mu * theta) * theta * dq
    SF[..., 1, 0] = -2.0 * mu * theta * q * du1
    SF[..., 1, 1] = -kappa * theta * dq
    SF[..., 1, 2] = (nu * Pmq / a) * dtheta
    SF[..., 2, 2] = nu * theta * (dtheta + theta * Ppq / (2.0 * q * Pmq) * dq)

    return S, SA, SB, SF
