"""Watch the frozen-coefficient iteration contract on a short horizon.

Each Picard sweep freezes the coefficients at the previous trajectory and
solves one linear advection-diffusion problem; on a small enough time
interval the map is a contraction in the weighted energy norm, so the
distances d_n between successive iterates should fall geometrically with
ratios well below 1/2, and shrinking the horizon should shrink the ratios
further.  Admissibility (theta >= delta, delta <= q <= P - delta) must
hold for every iterate along the way.

The run below uses the shipped demonstration configuration:
32 x 64 grid, dt = 0.005, t_end = 0.05.
"""

import os
import time
from pathlib import Path

import numpy as np

from mhbl import initial_eta_map, make_grid, picard_solve, sample_outflow
from mhbl.config import parse_config

HERE = os.path.dirname(os.path.abspath(__file__))
DEMO_INI = os.path.join(HERE, "..", "configs", "demo.ini")


def setup(cfg):
    params = cfg.make_params()
    grid = cfg.make_grid()
    outflow = sample_outflow(cfg.outflow_spec(), grid)
    u1f, thf, h1f = cfg.initial_profiles()
    y = np.linspace(0.0, cfg.getfloat("initial", "y_max"),
                    cfg.getint("initial", "ny"))
    X, Y = np.meshgrid(grid.xi, y, indexing="ij")
    v0, _ = initial_eta_map(np.asarray(u1f(X, Y), float),
                            np.asarray(thf(X, Y), float),
                            np.asarray(h1f(X, Y), float),
                            y, grid, params.delta)
    return params, grid, outflow, v0


def report(label, rep, elapsed):
    print(f"{label}: converged={rep.converged} after {rep.iterations} "
          f"sweeps ({elapsed:.2f} s)")
    print(f"  {'n':>3s} {'distance d_n':>14s} {'ratio d_n/d_n-1':>16s} "
          f"{'admissible':>11s}")
    # d_n is the distance from sweep n + 1 to sweep n
    for n, (prev, rec) in enumerate(zip(rep.iterates, rep.iterates[1:])):
        ratio = (f"{rec.distance / prev.distance:16.4f}"
                 if n and prev.distance > 0.0 else "")
        print(f"  {n:>3d} {rec.distance:>14.3e} {ratio:>16s} "
              f"{str(rec.admissible):>11s}")


def main():
    cfg = parse_config(Path(DEMO_INI).read_text())
    params, grid, outflow, v0 = setup(cfg)

    margin = min(float(v0.theta.min()), float(v0.q.min()),
                 float((outflow.P[0][:, None] - v0.q).min()))
    print(f"initial admissibility margin: {margin:.3f} "
          f"(needs >= 2 delta = {2 * params.delta})\n")

    t0 = time.perf_counter()
    _, rep = picard_solve(v0, outflow, params, grid, tol=1e-10)
    report(f"t_end = {grid.t_end}", rep, time.perf_counter() - t0)

    half = make_grid(grid.nx, grid.neta, grid.eta_max, grid.dt,
                     grid.t_end / 2.0)
    t0 = time.perf_counter()
    _, rep_half = picard_solve(v0, sample_outflow(cfg.outflow_spec(), half),
                               params, half, tol=1e-10)
    print()
    report(f"t_end = {half.t_end}", rep_half, time.perf_counter() - t0)

    worst, worst_half = max(rep.ratios), max(rep_half.ratios)
    print(f"\nworst ratio {worst:.4f} at the full horizon, "
          f"{worst_half:.4f} at the halved one -- shrinking the window "
          f"tightens the contraction")


if __name__ == "__main__":
    main()
