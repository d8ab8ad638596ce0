"""Round-trip the stream-function coordinate change on analytic wall fields.

Forward: physical profiles (u1, theta, h1)(x, y) map to hatted fields on
the uniform (xi, eta) grid through eta(x, y) = integral_0^y h1(x, s) ds.
Backward: the stream function psi is rebuilt by inverting the level-height
table y(eta) = integral_0^eta d eta' / h1_hat, and the physical fields are
recovered by composition, with h1 = d_y psi and h2 = -d_x psi.

For constant magnetic profiles the loop is exact; for genuinely curved
profiles each leg contributes an O(dy^2) interpolation or quadrature
error, and the refinement table below shows the expected second-order
decay of the worst reconstruction error over u1, theta and h1.  The
verdict line reads PASS when the constant rows are exact to 1e-12 and the
fitted orders of the curved rows lie in [1.7, 2.3], acceptance criterion
04's band; otherwise FAIL, and the script exits 1.

Usage: python 02_transform_roundtrip.py [output_dir]
The error plot, if matplotlib is available, goes to output_dir, by default
demos/output/ next to this script.
"""

import os
import sys

import numpy as np

from mhbl import (
    OutflowSpec,
    Params,
    State,
    initial_eta_map,
    make_grid,
    pullback_physical,
    sample_outflow,
)

PROFILES = {
    "h1 = 1": lambda y: np.ones_like(y),
    "h1 = 2": lambda y: 2.0 * np.ones_like(y),
    "h1 = 1 + y": lambda y: 1.0 + y,
    "h1 = 1 + tanh(y)/2": lambda y: 1.0 + 0.5 * np.tanh(y),
}


def round_trip_error(h1_fn, ny):
    """Max reconstruction error over (u1, theta, h1) for one resolution."""
    y = np.linspace(0.0, 6.0, ny)
    nx = 8
    h10_1d = h1_fn(y)
    eta_top = np.trapezoid(h10_1d, y)            # exact height of eta(y_max)
    grid = make_grid(nx, ny, eta_top, 0.01, 0.02)
    params = Params(mu=1.0, kappa=1.0, nu=1.0, R=1.0, cV=1.0, delta=0.05)

    u10 = 0.3 * np.sin(grid.xi)[:, None] * (y * np.exp(-y))[None, :]
    th0 = 1.0 + 0.2 * np.exp(-y)[None, :] * np.ones((nx, 1))
    h10 = np.broadcast_to(h10_1d, (nx, ny)).copy()

    outflow = sample_outflow(OutflowSpec.constant(P=4.0), grid)
    v0, _ = initial_eta_map(u10, th0, h10, y, grid, params.delta)
    frozen = State(u1=v0.u1, theta=v0.theta, q=v0.q, time=grid.dt)
    ps = pullback_physical(v0, outflow, params, grid, y, v_hat_prev=frozen)
    return max(np.max(np.abs(ps.u1 - u10)),
               np.max(np.abs(ps.theta - th0)),
               np.max(np.abs(ps.h1 - h10)))


CONSTANT = ("h1 = 1", "h1 = 2")
ORDER_BAND = (1.7, 2.3)


def main(out_dir=None):
    nys = (65, 129, 257)
    dys = [6.0 / (ny - 1) for ny in nys]
    print("physical -> hatted -> stream function -> physical, L_inf errors\n")
    header = f"{'profile':<20s}" + "".join(f"{f'ny={n}':>12s}" for n in nys)
    print(header + f"{'order':>8s}")
    print("-" * len(header + "        "))

    table = {}
    ok = True
    for name, fn in PROFILES.items():
        errs = np.array([round_trip_error(fn, ny) for ny in nys])
        table[name] = errs
        if np.all(errs <= 1e-12):
            order, passed = "exact", name in CONSTANT
        else:
            fitted = np.polyfit(np.log(dys), np.log(errs), 1)[0]
            order = f"{fitted:.2f}"
            passed = (name not in CONSTANT
                      and ORDER_BAND[0] <= fitted <= ORDER_BAND[1])
        ok = ok and passed
        row = f"{name:<20s}" + "".join(f"{e:>12.2e}" for e in errs)
        print(row + f"{order:>8s}")

    print(f"\n{'PASS' if ok else 'FAIL'}  constant profiles round-trip "
          f"exactly; curved profiles decay at second order")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return 0 if ok else 1
    fig, ax = plt.subplots(figsize=(5, 4))
    for name, errs in table.items():
        if np.all(errs <= 1e-12):
            continue
        ax.loglog(dys, errs, "o-", label=name)
    ax.loglog(dys, [3.0 * d ** 2 for d in dys], "k--", label="slope 2")
    ax.set_xlabel("dy")
    ax.set_ylabel("round-trip error (L_inf)")
    ax.legend()
    fig.tight_layout()
    if out_dir is None:
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "output")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "transform_roundtrip.png")
    fig.savefig(path, dpi=120)
    print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:2]))
