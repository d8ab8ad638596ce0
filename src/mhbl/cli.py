"""Command-line entry points.

Subcommands:

    simulate <config>          full pipeline from an INI configuration
    mms <case> <levels>        convergence study for a manufactured case
    check-identities           random-sample verification of the coefficient
                               algebra (symmetry, products, definiteness)
    check-outflow <config>     residuals of the outflow trace equations
    info <snapshot>            print a snapshot header

Exit codes, the same for every subcommand (mms included): 0 success,
2 configuration error (a malformed configuration, an expression that fails
to evaluate, an unreadable config or snapshot, an unwritable output
directory, an mms level whose grid is refused), 3 precondition violation,
4 solver error (admissibility loss, degenerate state, failed linear
solve), 5 non-convergence.  Subcommands raise; one wrapper maps the error
through EXIT_TABLE to its exit code and stderr prefix.  main() runs the
numerical backend on one thread unless OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS, MKL_NUM_THREADS or NUMEXPR_NUM_THREADS says
otherwise; the cap must be set before the backend loads, so main() applies
it before importing the numerics.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, List, Optional

from .errors import (ConfigError, DegenerateStateError, MhblError,
                     NonConvergenceError, PositivityError, PreconditionError,
                     SnapshotFormatError)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_SOLVER = 4
EXIT_NO_CONVERGENCE = 5

#: (error classes, exit code, stderr prefix); the first matching row wins.
EXIT_TABLE = (
    ((ConfigError, SnapshotFormatError, OSError), EXIT_CONFIG,
     "configuration error"),
    ((PositivityError, PreconditionError), EXIT_PRECONDITION,
     "precondition violated"),
    ((NonConvergenceError,), EXIT_NO_CONVERGENCE, "non-convergence"),
    ((MhblError,), EXIT_SOLVER, "solver error"),
)


def _apply_thread_cap() -> None:
    """Run the numerical backend on one thread unless the environment sets
    its thread count: the systems solved are small, and a second BLAS
    thread does not shorten them."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def _exit_code(command: Callable[..., int], *args) -> int:
    """Run a subcommand; an error it raises is printed under its EXIT_TABLE
    prefix and turned into that row's exit code.

    The subcommand runs under np.errstate(all="ignore"): a floating-point
    overflow or invalid operation makes inf or NaN without a warning, and
    the checks where values are made refuse it as a named error."""
    import numpy as np

    try:
        with np.errstate(all="ignore"):
            return command(*args)
    except (MhblError, OSError) as exc:
        code, prefix = next((code, prefix) for classes, code, prefix
                            in EXIT_TABLE if isinstance(exc, classes))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


def run_simulate(config_text: str) -> int:
    """Execute the full pipeline for one configuration; returns an exit code.

    Steps: parse and validate, set up the problem with RunConfig.problem
    (the outflow, the initial data on the (xi, eta) grid and their
    preconditions), run the Picard solve, pull snapshots back to physical
    variables, and write snapshots, reports and plot data.  An
    error is printed and mapped to its exit code, as under main().
    """
    return _exit_code(_simulate, config_text)


def _refuse_non_finite(report, kind: str) -> None:
    """Raise DegenerateStateError, naming the kind of the system and the
    equation, unless every max and L2 norm of a ResidualReport is finite."""
    for i, name in enumerate(report.equations):
        norms = float(report.max_norm[i]), float(report.l2_norm[i])
        if not all(map(math.isfinite, norms)):
            raise DegenerateStateError(
                f"{kind} residual of equation {i} ({name}) is not finite: "
                f"max norm {norms[0]:.6g}, L2 norm {norms[1]:.6g}")


def _simulate(config_text: str) -> int:
    from .config import parse_config, serialize_config
    from .diagnostics import residual_transformed
    from .picard import picard_solve
    from .snapshots import emit_plot_data, write_snapshot
    from .transform import (RESIDUAL_MIDDLE, RESIDUAL_OUTER, pullback_physical,
                            residual_original, time_differences)

    cfg = parse_config(config_text)
    params, grid, outflow, v0, y = cfg.problem()

    out_dir = cfg.get("output", "dir")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.ini"), "w") as fh:
        fh.write(serialize_config(cfg))

    traj, report = picard_solve(
        v0, outflow, params, grid,
        tol=cfg.getfloat("picard", "tol"),
        max_iter=cfg.getint("picard", "max_iter"))

    emit_plot_data(report, out_dir)
    error = report.error()
    if error is not None:
        raise error

    every = cfg.getint("output", "snapshot_every")
    nt = grid.nsteps
    levels = sorted(set(list(range(0, nt + 1, every)) + [nt]))
    mid = nt // 2
    triple = (mid - 1, mid, mid + 1) if nt >= 2 else ()
    # one level at a time: pull back, write, and keep of a triple level only
    # the fields time_differences or residual_original reads.  The triple
    # comes in the order mid - 1, mid + 1, mid, so its outer levels are
    # reduced to their time differences before the middle one is pulled back
    order = sorted(set(levels) | set(triple))
    if triple:
        i = order.index(mid)
        order[i:i + 2] = [mid + 1, mid]
    held, ddt, res_o = {}, None, None
    for k in order:
        # d_t h1 pairs each level with an adjacent one: level 1 for level 0,
        # the level below otherwise
        prev = traj.state(1) if k == 0 else traj.state(k - 1)
        phys = pullback_physical(traj.state(k), outflow, params, grid, y,
                                 v_hat_prev=prev)
        if k in levels:
            write_snapshot(traj.state(k),
                           os.path.join(out_dir, f"state_{k:05d}.mhbl"))
            write_snapshot(phys, os.path.join(out_dir, f"physical_{k:05d}.mhbl"))
        if k in triple:
            reads = RESIDUAL_MIDDLE if k == mid else RESIDUAL_OUTER
            held[k] = SimpleNamespace(**{n: getattr(phys, n) for n in reads})
        del phys
        if k in triple and k == mid + 1:
            ddt = time_differences(held.pop(mid - 1), held.pop(k),
                                   traj.state(mid).time)
        elif k in triple and k == mid:
            res_o = residual_original(held.pop(k), ddt, outflow, params)
            _refuse_non_finite(res_o, "physical")

    res_t = residual_transformed(traj, outflow, params, grid)
    _refuse_non_finite(res_t, "transformed")
    emit_plot_data(res_t, out_dir)
    if res_o is not None:
        emit_plot_data(res_o, os.path.join(out_dir, "physical_residuals"))
    emit_plot_data(traj, out_dir, grid=grid)

    print(f"converged in {report.iterations} iterations; "
          f"wrote {len(levels)} snapshot levels to {out_dir}")
    return EXIT_OK


def run_check_identities() -> int:
    """Verify the coefficient algebra on random admissible samples.

    Draws 5 parameter sets of 2000 states each.  Checks, at every sample:
    S A symmetric and equal to the closed form, S B equal to its closed form
    and to diag(2 mu theta^2 q, 2 kappa theta q, nu theta^2), S F equal to
    its closed form, f = F d_eta v, g = G v, and positive definiteness of S
    and S B via Cholesky.  Prints the worst relative mismatch per identity.
    """
    import numpy as np

    from . import coeffs
    from .fields import Params

    def rel(err, ref):
        scale = np.maximum(np.max(np.abs(ref)), 1e-30)
        return float(np.max(np.abs(err)) / scale)

    rng = np.random.default_rng(0)
    delta, n_sets, n = 0.05, 5, 2000
    errors, definite = {}, {"S": True, "S B": True}
    for _ in range(n_sets):
        mu, kappa, nu, R, cV = rng.uniform(0.1, 10.0, size=5)
        params = Params(mu=mu, kappa=kappa, nu=nu, R=R, cV=cV, delta=delta)
        P = rng.uniform(0.5, 5.0, size=n)
        theta = rng.uniform(delta, 5.0, size=n)
        q = rng.uniform(delta, P - delta)
        v = np.stack([rng.uniform(-2.0, 2.0, size=n), theta, q], axis=-1)
        dv = rng.uniform(-2.0, 2.0, size=(n, 3))
        P_t, P_xi = rng.uniform(-1.0, 1.0, size=2)
        m = coeffs.matrices(v, dv, P, P_t, P_xi, params)
        A, B, F, G, f, g = (m[k] for k in ("A", "B", "F", "G", "f", "g"))
        S, SA, SB, SF = (m[k] for k in ("S", "SA", "SB", "SF"))
        # written out here, independently of the closed form SB
        diag = np.stack([2.0 * mu * theta ** 2 * q, 2.0 * kappa * theta * q,
                         nu * theta ** 2], axis=-1)[..., None] * np.eye(3)

        for name, err in (
                ("S A == (S A) closed form", rel(S @ A - SA, SA)),
                ("S A symmetric", rel(SA - np.swapaxes(SA, -1, -2), SA)),
                ("S B == diagonal closed form",
                 max(rel(S @ B - SB, SB), rel(SB - diag, diag))),
                ("S F == (S F) closed form",
                 rel(S @ F - SF, np.maximum(np.abs(SF), np.abs(S @ F)))),
                ("f == F d_eta v", rel(f - (F @ dv[..., None])[..., 0], f)),
                ("g == G v", rel(g - (G @ v[..., None])[..., 0],
                                 np.maximum(np.abs(g), 1e-30)))):
            errors.setdefault(name, []).append(err)
        for name, M in (("S", S), ("S B", SB)):
            try:
                np.linalg.cholesky(M)
            except np.linalg.LinAlgError:
                definite[name] = False
    ok = True
    for name, errs in errors.items():
        err = float(np.max(errs))    # NaN-propagating, unlike max()
        good = err <= 1e-12
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'}  {name}: max relative error {err:.3e}")
    for name, good in definite.items():
        ok = ok and good
        if good:
            print(f"PASS  {name} positive definite on all {n_sets * n} samples")
        else:
            print(f"FAIL  {name} not positive definite somewhere")
    return EXIT_OK if ok else EXIT_SOLVER


def run_check_outflow(config_text: str) -> int:
    from .config import parse_config
    from .diagnostics import outflow_consistency
    from .fields import sample_outflow

    cfg = parse_config(config_text)
    outflow = sample_outflow(cfg.outflow_spec(), cfg.make_grid())
    report = outflow_consistency(outflow, cfg.make_params())
    names = ("tangential velocity", "temperature", "tangential field")
    for name, err in zip(names, report.max_norm):
        print(f"{name} trace equation: max residual {err:.6e}")
    return EXIT_OK


def run_mms(case_name: str, levels: int, mode: str, out: Optional[str]) -> int:
    from .mms import case_library, convergence_study, write_study_csv

    lib = case_library()
    if case_name not in lib:
        raise ConfigError(f"unknown case {case_name!r} "
                          f"(have {', '.join(sorted(lib))})")
    if levels < 3:
        raise ConfigError("need at least 3 levels")
    # read lazily: the study stops at the first level whose grid is refused
    resolutions = ((16 * 2 ** i, 32 * 2 ** i) for i in range(levels))
    result = convergence_study(lib[case_name], resolutions, mode=mode)
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
    from .snapshots import read_snapshot

    snap = read_snapshot(path)
    print(f"kind: {snap.kind}")
    print(f"grid: nx={snap.nx}, n2={snap.n2}")
    print(f"time: {snap.time:.12g}")
    print(f"fields: {', '.join(snap.fields)}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    _apply_thread_cap()
    parser = argparse.ArgumentParser(
        prog="mhbl",
        description="magnetohydrodynamic boundary-layer solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the full pipeline")
    p_sim.add_argument("config", help="INI configuration file")
    p_sim.set_defaults(run=lambda a: run_simulate(Path(a.config).read_text()))

    p_mms = sub.add_parser("mms", help="convergence study")
    p_mms.add_argument("case", help="manufactured case name")
    p_mms.add_argument("levels", type=int, help="number of refinement levels")
    p_mms.add_argument("--mode", choices=("spatial", "temporal"),
                       default="spatial")
    p_mms.add_argument("--out", help="CSV output path")
    p_mms.set_defaults(run=lambda a: run_mms(a.case, a.levels, a.mode, a.out))

    sub.add_parser("check-identities", help="verify the coefficient algebra"
                   ).set_defaults(run=lambda a: run_check_identities())

    p_out = sub.add_parser("check-outflow", help="outflow trace residuals")
    p_out.add_argument("config", help="INI configuration file")
    p_out.set_defaults(
        run=lambda a: run_check_outflow(Path(a.config).read_text()))

    p_info = sub.add_parser("info", help="print a snapshot header")
    p_info.add_argument("snapshot", help="snapshot file")
    p_info.set_defaults(run=lambda a: run_info(a.snapshot))

    args = parser.parse_args(argv)
    return _exit_code(args.run, args)


if __name__ == "__main__":
    sys.exit(main())
