"""Second-order difference stencils on uniform grids.

Every derivative the package takes on a grid goes through one of two
primitives:

- periodic_diff: centred differences on a periodic axis (xi, x);
- bounded_diff: centred differences in the interior with second-order
  one-sided ends on a bounded axis (eta, y, tau).

Both act along any axis of any array, so trailing axes (state components)
and leading axes (time levels) ride along, and both are exact on
polynomials of degree <= 2.  Each formula is written out once with a fixed
order of operations, which keeps results reproducible bit for bit.  Every
output entry is computed on its own, into an array with f's memory layout,
so the bits do not depend on that layout: a derivative of contiguous
component planes equals the same derivative of the interleaved level.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import GridSizingError

FloatArray = NDArray[np.float64]


def _check_order(order: int) -> None:
    if order not in (1, 2):
        raise GridSizingError(f"derivative order must be 1 or 2, got {order}")


def periodic_diff(f: FloatArray, h: float, axis: int, order: int) -> FloatArray:
    """Centred difference of order 1 or 2 along a periodic axis of spacing h
    (at least two nodes; two give zeros for order 1)."""
    _check_order(order)
    f = np.asarray(f, dtype=float)
    out = np.empty_like(f)
    # swapaxes, not moveaxis: the same elementwise operations at a tenth of
    # the call cost; the order of the other axes does not matter to them
    g, o = f.swapaxes(axis, 0), out.swapaxes(axis, 0)
    # the interior through slices, then the two wrap rows; the operations
    # run in the order of (f[i+1] - f[i-1]) / (2h) and
    # ((f[i+1] - 2 f[i]) + f[i-1]) / h^2
    if order == 1:
        np.subtract(g[2:], g[:-2], out=o[1:-1])
        o[0] = g[1] - g[-1]
        o[-1] = g[0] - g[-2]
        out /= 2.0 * h
        return out
    np.subtract(g[2:], 2.0 * g[1:-1], out=o[1:-1])
    o[1:-1] += g[:-2]
    o[0] = g[1] - 2.0 * g[0] + g[-1]
    o[-1] = g[0] - 2.0 * g[-1] + g[-2]
    out /= h ** 2
    return out


def bounded_diff(f: FloatArray, h: float, axis: int, order: int) -> FloatArray:
    """Difference of order 1 or 2 along a bounded axis of spacing h.

    Interior nodes use the centred stencils, the two end nodes the
    second-order one-sided ones.  An axis of two nodes gets the first-order
    two-point difference at both (order 1 only); order 1 needs at least two
    nodes and order 2 at least four.
    """
    _check_order(order)
    f = np.asarray(f, dtype=float)
    n = f.shape[axis]
    if n < 2 * order:
        raise GridSizingError(
            f"order-{order} difference needs at least {2 * order} nodes, got {n}")
    out = np.empty_like(f)
    g, o = f.swapaxes(axis, 0), out.swapaxes(axis, 0)
    if order == 1:
        if n == 2:
            o[0] = o[1] = (g[1] - g[0]) / h
            return out
        o[1:-1] = (g[2:] - g[:-2]) / (2.0 * h)
        o[0] = (-3.0 * g[0] + 4.0 * g[1] - g[2]) / (2.0 * h)
        o[-1] = (3.0 * g[-1] - 4.0 * g[-2] + g[-3]) / (2.0 * h)
        return out
    o[1:-1] = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / h ** 2
    o[0] = (2.0 * g[0] - 5.0 * g[1] + 4.0 * g[2] - g[3]) / h ** 2
    o[-1] = (2.0 * g[-1] - 5.0 * g[-2] + 4.0 * g[-3] - g[-4]) / h ** 2
    return out
