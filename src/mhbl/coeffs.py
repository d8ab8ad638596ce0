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

All functions broadcast: v has shape (..., 3), P broadcasts against
v[..., 0], and matrices come back with shape (..., 3, 3).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateStateError
from .fields import DENOM_GUARD, FloatArray, Params


def _split(v: FloatArray):
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != 3:
        raise DegenerateStateError(f"state vector must have last axis 3, got {v.shape}")
    return v[..., 0], v[..., 1], v[..., 2]


def _denominators(theta: FloatArray, q: FloatArray, P, params: Params):
    """Common strictly-positive factors; raises if any falls below the guard."""
    P = np.asarray(P, dtype=float)
    Pmq = P - q
    Q = P + (1.0 - 2.0 * params.a) * q
    for name, arr in (("theta", theta), ("q", q), ("P - q", Pmq), ("Q", Q)):
        if not (np.min(arr) >= DENOM_GUARD):  # also catches NaN
            raise DegenerateStateError(
                f"{name} = {float(np.min(arr)):.3e} fell below the "
                f"{DENOM_GUARD:g} degeneracy guard")
    return P, Pmq, Q


def _alloc(shape) -> FloatArray:
    return np.zeros(shape + (3, 3))


def eval_advection(v: FloatArray, P, params: Params) -> FloatArray:
    """Advection matrix A(v); eigenvalues are u1 and u1 +- sqrt(2 R theta q / Q)."""
    u1, theta, q = _split(v)
    P, Pmq, Q = _denominators(theta, q, P, params)
    a, R = params.a, params.R
    shape = np.broadcast_shapes(u1.shape, P.shape)
    A = _alloc(shape)
    A[..., 0, 0] = u1
    A[..., 0, 2] = -R * theta / Pmq
    A[..., 1, 0] = 2.0 * a * theta * q / Q
    A[..., 1, 1] = u1
    A[..., 2, 0] = -2.0 * Pmq * q / Q
    A[..., 2, 2] = u1
    return A


def advection_radius(v: FloatArray, P, params: Params) -> FloatArray:
    """Spectral radius |u1| + sqrt(2 R theta q / Q) of A(v), elementwise."""
    u1, theta, q = _split(v)
    P, Pmq, Q = _denominators(theta, q, P, params)
    return np.abs(u1) + np.sqrt(2.0 * params.R * theta * q / Q)


def eval_diffusion(v: FloatArray, P, params: Params) -> FloatArray:
    """Diffusion matrix B(v): 1x1 block for u1 plus a 2x2 block in (theta, q)."""
    u1, theta, q = _split(v)
    P, Pmq, Q = _denominators(theta, q, P, params)
    a = params.a
    mu, kappa, nu, R = params.mu, params.kappa, params.nu, params.R
    shape = np.broadcast_shapes(u1.shape, P.shape)
    B = _alloc(shape)
    tq = 2.0 * q
    B[..., 0, 0] = tq * mu * R * theta / Pmq
    B[..., 1, 1] = tq * kappa * a * theta * (P + q) / (Q * Pmq)
    B[..., 1, 2] = tq * (-nu * a * theta / Q)
    B[..., 2, 1] = tq * (-2.0 * kappa * a * q / Q)
    B[..., 2, 2] = tq * nu * Pmq / Q
    return B


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
    P, Pmq, Q = _denominators(theta, q, P, params)
    P_t = np.asarray(P_t, dtype=float)
    P_xi = np.asarray(P_xi, dtype=float)
    a = params.a
    mu, kappa, nu, R = params.mu, params.kappa, params.nu, params.R
    shape = np.broadcast_shapes(u1.shape, du1.shape, P.shape)

    # common composite factors
    c_vis = nu - mu * R * theta / Pmq            # u1 row prefactor
    c_mid = a * theta * (P + q) / (Q * Pmq)      # theta row prefactor
    quad = (2.0 * mu * q * du1 ** 2 + kappa * dq * dtheta + nu * dq ** 2)

    f = np.zeros(shape + (3,))
    f[..., 0] = c_vis * dq * du1
    f[..., 1] = nu * dq * dtheta - c_mid * quad
    f[..., 2] = (a / Q) * (4.0 * mu * q ** 2 * du1 ** 2
                           + 2.0 * kappa * q * dq * dtheta
                           + (nu * (P + q) / a) * dq ** 2)

    F = _alloc(shape)
    F[..., 0, 0] = c_vis * dq
    F[..., 1, 0] = -2.0 * mu * a * theta * q * (P + q) / (Q * Pmq) * du1
    F[..., 1, 1] = -kappa * a * theta * (P + q) / (Q * Pmq) * dq
    F[..., 1, 2] = nu * dtheta - nu * a * theta * (P + q) / (Q * Pmq) * dq
    F[..., 2, 0] = 4.0 * mu * a * q ** 2 / Q * du1
    F[..., 2, 1] = 2.0 * kappa * a * q / Q * dq
    F[..., 2, 2] = nu * (P + q) / Q * dq

    material_P = P_t + P_xi * u1
    g = np.zeros(shape + (3,))
    g[..., 0] = R * P_xi * theta / Pmq
    g[..., 1] = -a * material_P * theta / Q
    g[..., 2] = -2.0 * (1.0 - a) * material_P * q / Q

    G = _alloc(shape)
    G[..., 0, 1] = R * P_xi / Pmq
    G[..., 1, 1] = -a * material_P / Q
    G[..., 2, 2] = -2.0 * (1.0 - a) * material_P / Q

    return f, F, g, G


def operator(v: FloatArray, dxv: FloatArray, dev: FloatArray,
             d2ev: FloatArray, P, P_t, P_xi, params: Params) -> FloatArray:
    """The spatial operator of the system, A(v) d_xi v + f(v, d_eta v) + g(v)
    - B(v) d_eta^2 v, so that the equation reads d_tau v + operator = 0.

    dxv, dev and d2ev are d_xi v, d_eta v and d_eta^2 v in v's (..., 3)
    layout; P, P_t and P_xi broadcast against v[..., 0] as elsewhere here.
    """
    A = eval_advection(v, P, params)
    B = eval_diffusion(v, P, params)
    f, _, g, _ = eval_lower_order(v, dev, P, P_t, P_xi, params)
    return (np.einsum("...ij,...j->...i", A, dxv) + f + g
            - np.einsum("...ij,...j->...i", B, d2ev))


def eval_symmetrizer(v: FloatArray, dv: FloatArray, P, params: Params):
    """Symmetrizer closed forms: returns (S, SA, SB, SF).

    S is symmetric positive definite on admissible states.  SA, SB and SF are
    the closed forms of the products S A, S B and S F; they are computed
    directly (not by multiplying), so tests can check S @ A == SA etc.
    SB = diag(2 mu theta^2 q, 2 kappa theta q, nu theta^2).
    """
    u1, theta, q = _split(v)
    du1, dtheta, dq = _split(np.asarray(dv, dtype=float))
    P, Pmq, Q = _denominators(theta, q, P, params)
    a = params.a
    mu, kappa, nu, R = params.mu, params.kappa, params.nu, params.R
    shape = np.broadcast_shapes(u1.shape, du1.shape, P.shape)

    S = _alloc(shape)
    S[..., 0, 0] = theta * Pmq / R
    S[..., 1, 1] = Pmq / a
    S[..., 1, 2] = theta
    S[..., 2, 1] = theta
    S[..., 2, 2] = theta ** 2 * (P + q) / (2.0 * q * Pmq)

    SA = _alloc(shape)
    SA[..., 0, 0] = theta * Pmq * u1 / R
    SA[..., 0, 2] = -(theta ** 2)
    SA[..., 1, 1] = Pmq * u1 / a
    SA[..., 1, 2] = theta * u1
    SA[..., 2, 0] = -(theta ** 2)
    SA[..., 2, 1] = theta * u1
    SA[..., 2, 2] = theta ** 2 * (P + q) * u1 / (2.0 * q * Pmq)

    SB = _alloc(shape)
    SB[..., 0, 0] = 2.0 * mu * theta ** 2 * q
    SB[..., 1, 1] = 2.0 * kappa * theta * q
    SB[..., 2, 2] = nu * theta ** 2

    SF = _alloc(shape)
    SF[..., 0, 0] = (nu * Pmq / R - mu * theta) * theta * dq
    SF[..., 1, 0] = -2.0 * mu * theta * q * du1
    SF[..., 1, 1] = -kappa * theta * dq
    SF[..., 1, 2] = (nu * Pmq / a) * dtheta
    SF[..., 2, 2] = nu * theta * (dtheta + theta * (P + q) / (2.0 * q * Pmq) * dq)

    return S, SA, SB, SF
