"""Command-line entry points.

Subcommands:

    simulate <config>          full pipeline from an INI configuration
    mms <case> <levels>        convergence study for a manufactured case
    check-identities           random-sample verification of the coefficient
                               algebra (symmetry, products, definiteness)
    check-outflow <config>     residuals of the outflow trace equations
    info <snapshot>            print a snapshot header

Exit codes: 0 success, 2 configuration error, 3 precondition violation,
4 solver error (admissibility loss, degenerate state, failed linear solve),
5 non-convergence.  The environment variable MHBL_THREADS caps the worker
threads of the numerical backend; it must be set before heavy work starts,
so main() applies it before importing the numerics.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_SOLVER = 4
EXIT_NO_CONVERGENCE = 5


def _apply_thread_cap() -> None:
    cap = os.environ.get("MHBL_THREADS")
    if not cap:
        return
    try:
        n = max(1, int(cap))
    except ValueError:
        print(f"warning: ignoring non-integer MHBL_THREADS={cap!r}",
              file=sys.stderr)
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, str(n))


def run_simulate(config_text: str) -> int:
    """Execute the full pipeline for one configuration; returns an exit code.

    Steps: parse and validate, sample the outflow, evaluate the initial
    profiles, check the positivity preconditions (theta_star, theta0, h10
    all >= 2 delta and h10^2/2 <= P(0, x) - 2 delta), transform the initial
    data, run the Picard solve, pull snapshots back to physical variables,
    and write snapshots, reports and optional plot data.
    """
    import numpy as np

    from .config import parse_config, serialize_config
    from .diagnostics import residual_transformed
    from .errors import (ConfigError, MhblError, PositivityError,
                         PreconditionError)
    from .fields import sample_outflow
    from .picard import picard_solve
    from .snapshots import emit_plot_data, write_snapshot
    from .transform import initial_eta_map, pullback_physical, residual_original

    try:
        cfg = parse_config(config_text)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    params = cfg.make_params()
    grid = cfg.make_grid()
    try:
        outflow = sample_outflow(cfg.outflow_spec(), grid)
    except PositivityError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION

    u1_fn, theta_fn, h1_fn = cfg.initial_profiles()
    ny = cfg.getint("initial", "ny")
    y = np.linspace(0.0, cfg.getfloat("initial", "y_max"), ny)
    x = grid.xi
    X, Y = np.meshgrid(x, y, indexing="ij")
    u10 = np.asarray(u1_fn(X, Y), dtype=float)
    theta0 = np.asarray(theta_fn(X, Y), dtype=float)
    h10 = np.asarray(h1_fn(X, Y), dtype=float)

    d = params.delta
    checks = [
        ("theta_star >= 2 delta", float(outflow.theta_star.min()) >= 2 * d),
        ("theta0 >= 2 delta", float(theta0.min()) >= 2 * d),
        ("h1_0 >= 2 delta", float(h10.min()) >= 2 * d),
        ("h1_0^2/2 <= P(0, x) - 2 delta",
         float((outflow.P[0][:, None] - 0.5 * h10 ** 2).min()) >= 2 * d),
    ]
    for name, ok in checks:
        if not ok:
            print(f"precondition violated: {name}", file=sys.stderr)
            return EXIT_PRECONDITION

    out_dir = cfg.get("output", "dir")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.ini"), "w") as fh:
        fh.write(serialize_config(cfg))

    try:
        v0, _ = initial_eta_map(u10, theta0, h10, y, grid, d)
        traj, report = picard_solve(
            v0, outflow, params, grid,
            tol=cfg.getfloat("picard", "tol"),
            max_iter=cfg.getint("picard", "max_iter"),
            compat_order=cfg.getint("picard", "compat_order"),
            on_admissibility_loss=cfg.get("picard", "on_admissibility_loss"))
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MhblError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    emit_plot_data(report, out_dir)
    if report.aborted:
        print(f"solver error: {report.message}", file=sys.stderr)
        return EXIT_SOLVER
    if not report.converged:
        print(f"non-convergence: {report.message}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    every = cfg.getint("output", "snapshot_every")
    nt = grid.nsteps
    levels = sorted(set(list(range(0, nt + 1, every)) + [nt]))
    mid = nt // 2
    triple = (mid - 1, mid, mid + 1) if nt >= 2 else ()
    physical = {}
    try:
        for k in sorted(set(levels) | set(triple)):
            # d_t h1 pairs each level with an adjacent one: level 1 for
            # level 0, the level below otherwise
            prev = traj.state(1) if k == 0 else traj.state(k - 1)
            physical[k] = pullback_physical(traj.state(k), outflow, params,
                                            grid, y, v_hat_prev=prev)
            if k in levels:
                write_snapshot(traj.state(k),
                               os.path.join(out_dir, f"state_{k:05d}.mhbl"))
                write_snapshot(physical[k],
                               os.path.join(out_dir, f"physical_{k:05d}.mhbl"))
    except MhblError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    res_t = residual_transformed(traj, outflow, params, grid)
    emit_plot_data(res_t, out_dir)
    if triple:
        res_o = residual_original([physical[j] for j in triple], outflow, params)
        emit_plot_data(res_o, os.path.join(out_dir, "physical_residuals"))
    if cfg.getbool("output", "emit_plots"):
        emit_plot_data(traj, out_dir, grid=grid)

    print(f"converged in {report.iterations} iterations; "
          f"wrote {len(levels)} snapshot levels to {out_dir}")
    return EXIT_OK


def run_check_identities(n_samples: int = 10000, seed: int = 0) -> int:
    """Verify the coefficient algebra on random admissible samples.

    Checks, at every sample: S A symmetric and equal to the closed form,
    S B equal to the diagonal closed form, S F equal to its closed form,
    f = F d_eta v, g = G v, and positive definiteness of S and S B via
    Cholesky.  Prints the worst relative mismatch per identity.
    """
    import numpy as np

    from . import coeffs
    from .fields import Params

    rng = np.random.default_rng(seed)
    delta = 0.05
    mu, kappa, nu, R, cV = rng.uniform(0.1, 10.0, size=5)
    params = Params(mu=mu, kappa=kappa, nu=nu, R=R, cV=cV, delta=delta)
    P = rng.uniform(0.5, 5.0, size=n_samples)
    theta = rng.uniform(delta, 5.0, size=n_samples)
    q = rng.uniform(delta, P - delta)
    u1 = rng.uniform(-2.0, 2.0, size=n_samples)
    v = np.stack([u1, theta, q], axis=-1)
    dv = rng.uniform(-2.0, 2.0, size=(n_samples, 3))

    A = coeffs.eval_advection(v, P, params)
    B = coeffs.eval_diffusion(v, P, params)
    f, F, g, G = coeffs.eval_lower_order(v, dv, P, 0.3, -0.7, params)
    S, SA, SB, SF = coeffs.eval_symmetrizer(v, dv, P, params)

    def rel(err, ref):
        scale = np.maximum(np.max(np.abs(ref)), 1e-30)
        return float(np.max(np.abs(err)) / scale)

    results = [
        ("S A == (S A) closed form", rel(S @ A - SA, SA)),
        ("S A symmetric", rel(SA - np.swapaxes(SA, -1, -2), SA)),
        ("S B == diagonal closed form", rel(S @ B - SB, SB)),
        ("S F == (S F) closed form", rel(S @ F - SF, np.maximum(np.abs(SF), np.abs(S @ F)))),
        ("f == F d_eta v", rel(f - (F @ dv[..., None])[..., 0], f)),
        ("g == G v", rel(g - (G @ v[..., None])[..., 0], np.maximum(np.abs(g), 1e-30))),
    ]
    ok = True
    for name, err in results:
        good = err <= 1e-12
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'}  {name}: max relative error {err:.3e}")
    for name, M in (("S", S), ("S B", SB)):
        try:
            np.linalg.cholesky(M)
            print(f"PASS  {name} positive definite on all {n_samples} samples")
        except np.linalg.LinAlgError:
            ok = False
            print(f"FAIL  {name} not positive definite somewhere")
    return EXIT_OK if ok else EXIT_SOLVER


def run_check_outflow(config_text: str) -> int:
    from .config import parse_config
    from .diagnostics import outflow_consistency
    from .errors import ConfigError, MhblError
    from .fields import sample_outflow

    try:
        cfg = parse_config(config_text)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        outflow = sample_outflow(cfg.outflow_spec(), cfg.make_grid())
        report = outflow_consistency(outflow, cfg.make_params())
    except MhblError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    names = ("tangential velocity", "temperature", "tangential field")
    for name, err in zip(names, report.max_norm):
        print(f"{name} trace equation: max residual {err:.6e}")
    return EXIT_OK


def run_mms(case_name: str, levels: int, mode: str, out: Optional[str]) -> int:
    from .errors import MhblError
    from .mms import case_library, convergence_study, write_study_csv

    lib = case_library()
    if case_name not in lib:
        print(f"configuration error: unknown case {case_name!r} "
              f"(have {', '.join(sorted(lib))})", file=sys.stderr)
        return EXIT_CONFIG
    if levels < 3:
        print("configuration error: need at least 3 levels", file=sys.stderr)
        return EXIT_CONFIG
    case = lib[case_name]
    resolutions = [(16 * 2 ** i, 32 * 2 ** i) for i in range(levels)]
    try:
        result = convergence_study(case, resolutions, mode=mode)
    except MhblError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    for row in result.rows:
        errs = ", ".join(f"{e:.4e}" for e in row.errors)
        print(f"{case_name} {row.nx}x{row.neta} dt={row.dt:.5g}: errors {errs}")
    if result.exact:
        print("errors at rounding level; order flagged exact")
    else:
        print("observed orders: " + ", ".join(f"{o:.3f}" for o in result.orders))
    if out:
        write_study_csv(result, out)
        print(f"wrote {out}")
    return EXIT_OK


def run_info(path: str) -> int:
    from .errors import SnapshotFormatError
    from .snapshots import read_snapshot

    try:
        snap = read_snapshot(path)
    except (OSError, SnapshotFormatError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"kind: {snap.kind}")
    print(f"grid: nx={snap.nx}, n2={snap.n2}")
    print(f"time: {snap.time:.12g}")
    print(f"fields: {', '.join(snap.fields)}")
    return EXIT_OK


def _read_text(path: str) -> Optional[str]:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return None


def main(argv: Optional[List[str]] = None) -> int:
    _apply_thread_cap()
    parser = argparse.ArgumentParser(
        prog="mhbl",
        description="magnetohydrodynamic boundary-layer solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the full pipeline")
    p_sim.add_argument("config", help="INI configuration file")

    p_mms = sub.add_parser("mms", help="convergence study")
    p_mms.add_argument("case", help="manufactured case name")
    p_mms.add_argument("levels", type=int, help="number of refinement levels")
    p_mms.add_argument("--mode", choices=("spatial", "temporal"),
                       default="spatial")
    p_mms.add_argument("--out", help="CSV output path")

    sub.add_parser("check-identities", help="verify the coefficient algebra")

    p_out = sub.add_parser("check-outflow", help="outflow trace residuals")
    p_out.add_argument("config", help="INI configuration file")

    p_info = sub.add_parser("info", help="print a snapshot header")
    p_info.add_argument("snapshot", help="snapshot file")

    args = parser.parse_args(argv)
    if args.command == "simulate":
        text = _read_text(args.config)
        return EXIT_CONFIG if text is None else run_simulate(text)
    if args.command == "mms":
        return run_mms(args.case, args.levels, args.mode, args.out)
    if args.command == "check-identities":
        return run_check_identities()
    if args.command == "check-outflow":
        text = _read_text(args.config)
        return EXIT_CONFIG if text is None else run_check_outflow(text)
    if args.command == "info":
        return run_info(args.snapshot)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
