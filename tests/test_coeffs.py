"""Coefficient matrices: frozen hand values, algebraic identities, guards.

The closed forms of S, S A, S B and S F are coded independently of A, B, F,
so multiplying and comparing is a real cross-check of the algebra, not a
tautology.  The dense matrices are in turn pinned, bit for bit, to the
named nonzero entries that the time stepper reads.
"""

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from mhbl import DegenerateStateError, Params
from mhbl.coeffs import frozen_entries, matrices, operator
from mhbl.fields import make_grid, sample_outflow
from mhbl.mms import case_library

# reference point used throughout: v = (0, 1, 1/2), P = 1, all physical
# constants 1, so a = 1/2, P - q = 1/2, Q = 1.
V0 = np.array([0.0, 1.0, 0.5])
P0 = 1.0
PARAMS1 = Params(mu=1.0, kappa=1.0, nu=1.0, R=1.0, cV=1.0, delta=0.05)


def dense(v, P, params, dv=(0.0, 0.0, 0.0), P_t=0.0, P_xi=0.0):
    """matrices at v; the pressure derivatives and d_eta v default to zero,
    which A, B and S do not read."""
    return matrices(v, dv, P, P_t, P_xi, params)


# ---------------------------------------------------------------------------
# frozen hand values

def test_advection_matrix_hand_value():
    A = dense(V0, P0, PARAMS1)["A"]
    expected = np.array([
        [0.0, 0.0, -2.0],
        [0.5, 0.0, 0.0],
        [-0.5, 0.0, 0.0],
    ])
    np.testing.assert_allclose(A, expected, rtol=0, atol=1e-15)


def test_advection_eigenvalues_hand_value():
    # eigenvalues u1 and u1 +- sqrt(2 R theta q / Q) = 0, +-1 at V0
    lam = np.sort(np.linalg.eigvals(dense(V0, P0, PARAMS1)["A"]).real)
    np.testing.assert_allclose(lam, [-1.0, 0.0, 1.0], atol=1e-14)
    radius = frozen_entries(V0, np.zeros(3), P0, 0.0, 0.0, PARAMS1)["adv_radius"]
    assert radius == pytest.approx(1.0, abs=1e-15)


def test_diffusion_matrix_hand_value():
    B = dense(V0, P0, PARAMS1)["B"]
    expected = np.array([
        [2.0, 0.0, 0.0],
        [0.0, 1.5, -0.5],
        [0.0, -0.5, 0.5],
    ])
    np.testing.assert_allclose(B, expected, rtol=0, atol=1e-15)


def test_symmetrizer_hand_value():
    m = dense(V0, P0, PARAMS1)
    S, SB = m["S"], m["SB"]
    expected = np.array([
        [0.5, 0.0, 0.0],
        [0.0, 1.0, 1.0],
        [0.0, 1.0, 3.0],   # theta^2 (P + q) / (2 q (P - q)) = 1.5 / 0.5
    ])
    np.testing.assert_allclose(S, expected, rtol=0, atol=1e-15)
    # S B collapses to the diagonal dissipation weights (all ones here)
    np.testing.assert_allclose(SB, np.eye(3), rtol=0, atol=1e-15)


def test_symmetrizer_product_oracle_at_reference_point():
    # multiply the independently coded factors and compare entry by entry
    dv = np.array([0.3, -0.2, 0.1])
    m = dense(V0, P0, PARAMS1, dv)
    A, B, f, F, g, G = (m[k] for k in ("A", "B", "f", "F", "g", "G"))
    S, SA, SB, SF = (m[k] for k in ("S", "SA", "SB", "SF"))
    np.testing.assert_allclose(S @ A, SA, atol=1e-14)
    np.testing.assert_allclose(S @ B, SB, atol=1e-14)
    np.testing.assert_allclose(S @ F, SF, atol=1e-14)
    np.testing.assert_allclose(F @ dv, f, atol=1e-14)
    np.testing.assert_allclose(G @ V0, g, atol=1e-14)


# ---------------------------------------------------------------------------
# randomized identity suite

def random_admissible(rng, n, delta=0.05):
    """Random states, pressures, gradients and parameters on the admissible set."""
    P = rng.uniform(0.5, 5.0, size=n)
    theta = rng.uniform(delta, 5.0, size=n)
    q = rng.uniform(delta, P - delta)
    u1 = rng.uniform(-2.0, 2.0, size=n)
    v = np.stack([u1, theta, q], axis=-1)
    dv = rng.normal(size=(n, 3))
    P_t = rng.normal(size=n)
    P_xi = rng.normal(size=n)
    params = Params(mu=rng.uniform(0.1, 10.0), kappa=rng.uniform(0.1, 10.0),
                    nu=rng.uniform(0.1, 10.0), R=rng.uniform(0.1, 10.0),
                    cV=rng.uniform(0.1, 10.0), delta=delta)
    return v, dv, P, P_t, P_xi, params


def rel_err(got, want):
    scale = max(np.max(np.abs(want)), 1.0)
    return np.max(np.abs(got - want)) / scale


def test_identity_suite_random_samples():
    rng = np.random.default_rng(2024)
    for _ in range(8):   # 8 parameter draws x 250 states = 2000 samples
        v, dv, P, P_t, P_xi, params = random_admissible(rng, 250)
        m = matrices(v, dv, P, P_t, P_xi, params)
        A, B, f, F, g, G = (m[k] for k in ("A", "B", "f", "F", "g", "G"))
        S, SA, SB, SF = (m[k] for k in ("S", "SA", "SB", "SF"))

        assert rel_err(S, np.swapaxes(S, -1, -2)) == 0.0
        np.linalg.cholesky(S)   # positive definite on the admissible set
        SAm = S @ A
        assert rel_err(SAm, np.swapaxes(SAm, -1, -2)) < 1e-12
        assert rel_err(SAm, SA) < 1e-12
        assert rel_err(S @ B, SB) < 1e-12
        # SB is the diagonal dissipation form
        theta, q = v[..., 1], v[..., 2]
        want = np.zeros_like(SB)
        want[..., 0, 0] = 2.0 * params.mu * theta ** 2 * q
        want[..., 1, 1] = 2.0 * params.kappa * theta * q
        want[..., 2, 2] = params.nu * theta ** 2
        assert rel_err(SB, want) < 1e-12
        assert rel_err(S @ F, SF) < 1e-12
        assert rel_err(np.einsum("nij,nj->ni", F, dv), f) < 1e-12
        assert rel_err(np.einsum("nij,nj->ni", G, v), g) < 1e-12


@st.composite
def admissible_grids(draw, delta=0.05):
    """An (nx, neta) admissible level against (nx, 1) pressure rows, as the
    stepper evaluates it, with its eta gradient and parameters."""
    nx, neta = draw(st.integers(1, 4)), draw(st.integers(1, 5))

    def arr(shape, lo, hi):
        return draw(hnp.arrays(np.float64, shape, elements=st.floats(lo, hi)))

    P = arr((nx, 1), 0.5, 5.0)
    q = delta + arr((nx, neta), 0.0, 1.0) * (P - 2.0 * delta)
    v = np.stack([arr((nx, neta), -2.0, 2.0), arr((nx, neta), delta, 5.0), q],
                 axis=-1)
    dv = arr((nx, neta, 3), -3.0, 3.0)
    P_t, P_xi = arr((nx, 1), -3.0, 3.0), arr((nx, 1), -3.0, 3.0)
    params = Params(*(draw(st.floats(0.1, 10.0)) for _ in range(5)),
                    delta=delta)
    return v, dv, P, P_t, P_xi, params


#: nonzero slots of A, B, F, G; A's diagonal is the u1 entry
NONZERO = {"A": ("u1", "a02", "a10", "a20"),
           "B": ("b00", "b11", "b12", "b21", "b22"),
           "F": ("f00", "f10", "f11", "f12", "f20", "f21", "f22"),
           "G": ("g01", "g11", "g22")}


@settings(derandomize=True, database=None, deadline=None)
@given(admissible_grids())
def test_dense_matrices_are_the_named_entries_in_their_slots(case):
    v, dv, P, P_t, P_xi, params = case
    entries = frozen_entries(v, dv, P, P_t, P_xi, params)
    assert set(entries) == {n for names in NONZERO.values() for n in names} | {
        "adv_radius"}
    m = matrices(v, dv, P, P_t, P_xi, params)
    slots = 0
    for matrix, names in NONZERO.items():
        M = m[matrix].copy()
        for name in names:
            at = [(i, i) for i in range(3)] if name == "u1" else [
                (int(name[1]), int(name[2]))]
            for i, j in at:
                assert np.array_equal(M[..., i, j], entries[name])
                M[..., i, j] = 0.0
                slots += 1
        assert np.all(M == 0.0)   # the structural zeros are exact
    assert slots == 21
    for value in entries.values():
        assert value.shape == v.shape[:-1] and value.flags.c_contiguous


def dense_operator(v, dxv, dev, d2ev, P, P_t, P_xi, params):
    """A d_xi v + f + g - B d_eta^2 v through the dense matrices."""
    m = matrices(v, dev, P, P_t, P_xi, params)
    return (np.einsum("...ij,...j->...i", m["A"], dxv) + m["f"] + m["g"]
            - np.einsum("...ij,...j->...i", m["B"], d2ev))


@pytest.mark.parametrize("nx,neta", [(8, 33), (64, 128)])
@pytest.mark.parametrize("name", sorted(case_library()))
def test_operator_matches_dense_formulation_bit_for_bit(name, nx, neta):
    # operator reads the named entries; it must round exactly as the dense
    # products did, so manufactured sources and residuals stay bit-identical
    case = case_library()[name]
    grid = make_grid(nx, neta, case.eta_max, case.base_dt, case.t_end)
    outflow = sample_outflow(case.outflow_spec, grid)
    xi, eta = grid.xi[:, None], grid.eta[None, :]
    for k in sorted({0, grid.nsteps // 2, grid.nsteps}):
        t = float(grid.times[k])
        args = (case.v(t, xi, eta), case.v_xi(t, xi, eta),
                case.v_eta(t, xi, eta), case.v_etaeta(t, xi, eta),
                outflow.P[k][:, None], outflow.P_t[k][:, None],
                outflow.P_xi[k][:, None], case.params)
        np.testing.assert_array_equal(operator(*args), dense_operator(*args))


def test_operator_matches_dense_formulation_on_random_samples():
    rng = np.random.default_rng(5)
    for _ in range(4):
        v, dv, P, P_t, P_xi, params = random_admissible(rng, 500)
        dxv, d2v = rng.normal(size=(2, 500, 3))
        for P_arg in (P, 5.5):   # (n,) and scalar; q < 5 - delta always
            args = (v, dxv, dv, d2v, P_arg, P_t, P_xi, params)
            got = operator(*args)
            assert got.shape == (500, 3)
            np.testing.assert_array_equal(got, dense_operator(*args))


@settings(derandomize=True, database=None, deadline=None)
@given(admissible_grids())
def test_symmetrizer_identities_property(case):
    v, dv, P, P_t, P_xi, params = case
    m = matrices(v, dv, P, P_t, P_xi, params)
    A, B, F = m["A"], m["B"], m["F"]
    S, SA, SB, SF = (m[k] for k in ("S", "SA", "SB", "SF"))
    assert rel_err(S @ A, SA) < 1e-12
    assert rel_err(S @ B, SB) < 1e-12
    assert rel_err(S @ F, SF) < 1e-12


def test_u1_is_decoupled_in_the_implicit_eta_operator():
    # the stepper solves u1 first and then (theta, q): B is a 1x1 u1 block
    # plus a 2x2 (theta, q) block, and F's u1 row is (c_vis dq, 0, 0)
    rng = np.random.default_rng(7)
    for _ in range(4):
        v, dv, P, P_t, P_xi, params = random_admissible(rng, 250)
        assert np.all(P_t != 0.0) and np.all(P_xi != 0.0)
        m = matrices(v, dv, P, P_t, P_xi, params)
        B, F = m["B"], m["F"]
        assert np.all(B[..., 0, 1:] == 0.0)
        assert np.all(B[..., 1:, 0] == 0.0)
        assert np.all(F[..., 0, 1:] == 0.0)
        assert np.all(F[..., 1:, 0] != 0.0)


def test_adv_radius_matches_eigenvalue_oracle():
    rng = np.random.default_rng(11)
    v, dv, P, P_t, P_xi, params = random_admissible(rng, 300)
    A = matrices(v, dv, P, P_t, P_xi, params)["A"]
    lam = np.max(np.abs(np.linalg.eigvals(A)), axis=-1)
    closed = frozen_entries(v, dv, P, P_t, P_xi, params)["adv_radius"]
    np.testing.assert_allclose(closed, lam, rtol=1e-12, atol=1e-12)


def test_broadcasting_over_grids():
    # (nx, neta) states against an (nx, 1) pressure row
    rng = np.random.default_rng(3)
    v = np.stack([rng.uniform(-1, 1, (4, 6)),
                  rng.uniform(0.5, 1.5, (4, 6)),
                  rng.uniform(0.2, 0.4, (4, 6))], axis=-1)
    P = rng.uniform(1.0, 2.0, (4, 1))
    A = dense(v, P, PARAMS1)["A"]
    assert A.shape == (4, 6, 3, 3)
    for i in range(4):
        for j in range(6):
            np.testing.assert_allclose(
                A[i, j], dense(v[i, j], P[i, 0], PARAMS1)["A"], atol=1e-15)


# ---------------------------------------------------------------------------
# degeneracy guards

@pytest.mark.parametrize("v,P", [
    (np.array([0.0, 0.0, 0.5]), 1.0),     # theta at zero
    (np.array([0.0, 1.0, 0.0]), 1.0),     # q at zero
    (np.array([0.0, 1.0, 1.0]), 1.0),     # P - q at zero
    (np.array([0.0, np.nan, 0.5]), 1.0),  # NaN theta fails every comparison
    (np.array([0.0, 1.0, np.nan]), 1.0),  # NaN q
    (np.array([0.0, 1.0, 0.5]), np.nan),  # NaN pressure
])
def test_degenerate_states_raise(v, P):
    with pytest.raises(DegenerateStateError):
        dense(v, P, PARAMS1)
    with pytest.raises(DegenerateStateError):
        operator(v, np.zeros(3), np.zeros(3), np.zeros(3), P, 0.0, 0.0, PARAMS1)


def test_degeneracy_error_names_the_first_node():
    v = np.stack([np.zeros((4, 6)), np.ones((4, 6)), np.full((4, 6), 0.5)],
                 axis=-1)
    v[2, 3, 1] = 0.0
    v[3, 1, 1] = -1.0
    with pytest.raises(DegenerateStateError,
                       match=r"^theta = -1\.000e\+00 fell below .* guard at "
                             r"eta row 3, xi column 2$"):
        dense(v, np.full((4, 1), 1.0), PARAMS1)


def test_degenerate_Q_raises():
    # a > 1/2 makes Q = P + (1 - 2a) q vanish when q = P / (2a - 1)
    params = Params(mu=1, kappa=1, nu=1, R=3.0, cV=1.0)   # a = 0.75
    v = np.array([0.0, 1.0, 2.0])
    with pytest.raises(DegenerateStateError):
        dense(v, 2.0 + 1e-15, params)


def test_bad_state_shape_raises():
    with pytest.raises(DegenerateStateError):
        dense(np.zeros(4), 1.0, PARAMS1)
