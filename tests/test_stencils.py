"""The difference stencils: exactness along any axis, and one home for them.

Oracles: quadratics, on which every stencil (one-sided ends included) is
exact; the two-shift np.roll formula, which the periodic stencils reproduce
bit for bit; the same array in every memory layout, which must give the
same bits (the solver differentiates contiguous component planes where it
once differentiated interleaved levels); and a source scan that keeps
periodic shifts inside the stencil module.
"""

import itertools
import pathlib

import numpy as np
import pytest

import mhbl
from mhbl import GridSizingError
from mhbl.stencils import bounded_diff, periodic_diff

SRC = pathlib.Path(mhbl.__file__).parent


def test_bounded_diff_exact_on_quadratics_along_axis_0_of_3d():
    # the tau use: levels along axis 0 of a (levels, nx, neta) block
    h = 0.05
    t = (np.arange(7) * h)[:, None, None]
    c = np.random.default_rng(3).normal(size=(3, 4, 5))
    f = c[0] + c[1] * t + c[2] * t ** 2
    d1 = bounded_diff(f, h, 0, 1)
    d2 = bounded_diff(f, h, 0, 2)
    np.testing.assert_allclose(d1, c[1] + 2.0 * c[2] * t + 0.0 * f,
                               rtol=0, atol=1e-11)
    np.testing.assert_allclose(d2, 2.0 * c[2] + 0.0 * f, rtol=0, atol=1e-9)


def test_periodic_diff_exact_on_quadratic_symbols_along_axis_0_of_3d():
    # on a periodic axis a quadratic is not periodic, but the centred
    # differences of x^2 at interior nodes are still exact: 2x and 2
    h = 0.1
    x = (np.arange(9) * h)[:, None, None]
    f = np.broadcast_to(x ** 2, (9, 2, 3))
    d1 = periodic_diff(f, h, 0, 1)[1:-1]
    d2 = periodic_diff(f, h, 0, 2)[1:-1]
    np.testing.assert_allclose(d1, np.broadcast_to(2.0 * x[1:-1], d1.shape),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(d2, 2.0, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_periodic_diff_bit_equal_to_the_shift_formula(n):
    # the slice form keeps the operation order of the two-shift formula, so
    # its output is the same to the bit; an axis of two nodes gives zeros
    f = np.random.default_rng(n).normal(size=(n, 3)) * [1e-3, 1.0, 1e3]
    h = 0.37
    up, down = np.roll(f, -1, axis=0), np.roll(f, 1, axis=0)
    want = {1: (up - down) / (2.0 * h), 2: (up - 2.0 * f + down) / h ** 2}
    for order in (1, 2):
        got = periodic_diff(f, h, 0, order)
        assert got.tobytes() == want[order].tobytes()
    if n == 2:
        assert np.all(periodic_diff(f, h, 0, 1) == 0.0)


@pytest.mark.parametrize("shape", [(6, 5), (4, 7, 5), (5, 4, 6, 4)])
def test_stencils_give_the_same_bits_in_every_memory_layout(shape):
    # the C-ordered array against copies whose axes lie in memory in every
    # other order (the last axis slowest among them, as component planes
    # viewed as a level), along every axis, negative ones too
    rng = np.random.default_rng(len(shape))
    f = rng.normal(size=shape) * np.geomspace(1e-3, 1e3, shape[-1])
    h = 0.37
    for perm in itertools.permutations(range(f.ndim)):
        laid = np.ascontiguousarray(f.transpose(perm)).transpose(np.argsort(perm))
        assert laid.shape == f.shape and np.array_equal(laid, f)
        for axis in range(-f.ndim, f.ndim):
            for fn, order in itertools.product((periodic_diff, bounded_diff),
                                               (1, 2)):
                np.testing.assert_array_equal(fn(laid, h, axis, order),
                                              fn(f, h, axis, order))


def test_bounded_diff_two_levels_is_the_two_point_difference():
    f = np.array([[1.0, 2.0], [4.0, -1.0]])
    np.testing.assert_array_equal(bounded_diff(f, 0.5, 0, 1),
                                  [[6.0, -6.0], [6.0, -6.0]])


def test_stencils_validate_order_and_length():
    f = np.zeros((3, 5))
    for fn in (bounded_diff, periodic_diff):
        with pytest.raises(GridSizingError):
            fn(f, 1.0, 1, 3)
    with pytest.raises(GridSizingError):
        bounded_diff(f, 1.0, 0, 2)        # four nodes needed
    with pytest.raises(GridSizingError):
        bounded_diff(f[:1], 1.0, 0, 1)    # two nodes needed


def test_periodic_shifts_live_only_in_the_stencil_module():
    offenders = [p.name for p in sorted(SRC.glob("*.py"))
                 if p.name != "stencils.py" and "np.roll(" in p.read_text()]
    assert offenders == []
