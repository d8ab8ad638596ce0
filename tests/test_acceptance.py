"""Acceptance gate: ten end-to-end criteria, one test per criterion.

Run with `pytest -v tests/test_acceptance.py`; the verbose PASSED/FAILED
listing is the per-criterion report, and each test also prints a one-line
summary with the measured numbers (shown with -s or on failure).

Pinned tolerances:

  1  coefficient identities        1e-12 relative, >= 10^4 samples, < 5 s
  2  transform round trip          observed order >= 1.8 over two halvings, < 10 s
  3  exact-constant fixed point    <= 1e-12 everywhere
  4  manufactured convergence      spatial 2.0 +/- 0.3, temporal 1.0 +/- 0.2, < 5 min
  5  contraction at small time     ratios <= 0.5, stable under t_end halving, < 60 s
  6  admissibility persistence     theta >= delta, delta <= q <= P - delta
  7  physical constraints          <= 1e-12 on every snapshot
  8  wall trace inequality         eps_grid <= 0.05 at neta = 256
  9  outflow consistency           exact zeros / defect match to 1e-10
  10 I/O determinism               bit-identical files and round trips
"""

import json
import multiprocessing
import os
import resource
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import reference_outputs
from mhbl import (
    OutflowSpec,
    Params,
    State,
    make_grid,
    sample_outflow,
)
from mhbl import coeffs
from mhbl.cli import EXIT_OK, run_simulate
from mhbl.config import parse_config
from mhbl.diagnostics import (
    outflow_consistency,
    residual_transformed,
    trace_check,
)
from mhbl.mms import case_library, convergence_study
from mhbl.picard import picard_solve
from mhbl.snapshots import read_snapshot, write_snapshot
from mhbl.transform import (
    check_physical_constraints,
    initial_eta_map,
    pullback_physical,
    residual_original,
    time_differences,
)

HERE = os.path.dirname(os.path.abspath(__file__))
DEMO_INI = os.path.join(HERE, "..", "configs", "demo.ini")


def report(n, ok, detail):
    print(f"criterion {n:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. algebraic identity suite

def test_criterion_01_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    delta = 0.05
    worst = 0.0
    total = 0

    def rel(diff, ref):
        return float(np.max(np.abs(diff)) / max(float(np.max(np.abs(ref))), 1e-30))

    for _ in range(10):
        mu, kappa, nu, R, cV = rng.uniform(0.1, 10.0, size=5)
        params = Params(mu=mu, kappa=kappa, nu=nu, R=R, cV=cV, delta=delta)
        n = 1000
        total += n
        P = rng.uniform(0.5, 5.0, size=n)
        theta = rng.uniform(delta, 5.0, size=n)
        q = rng.uniform(delta, P - delta)
        u1 = rng.uniform(-2.0, 2.0, size=n)
        v = np.stack([u1, theta, q], axis=-1)
        dv = rng.uniform(-2.0, 2.0, size=(n, 3))
        P_t, P_xi = rng.uniform(-1.0, 1.0, size=2)

        m = coeffs.matrices(v, dv, P, P_t, P_xi, params)
        A, B, f, F, g, G = (m[k] for k in ("A", "B", "f", "F", "g", "G"))
        S, SA, SB, SF = (m[k] for k in ("S", "SA", "SB", "SF"))

        np.linalg.cholesky(S)                     # S SPD at every sample
        diag_closed = np.zeros_like(SB)
        diag_closed[..., 0, 0] = 2.0 * mu * theta ** 2 * q
        diag_closed[..., 1, 1] = 2.0 * kappa * theta * q
        diag_closed[..., 2, 2] = nu * theta ** 2
        worst = max(
            worst,
            rel(S @ A - SA, SA),
            rel(SA - np.swapaxes(SA, -1, -2), SA),
            rel(S @ B - SB, SB),
            rel(SB - diag_closed, diag_closed),
            rel(S @ F - SF, np.maximum(np.abs(SF), np.abs(S @ F))),
            rel(f - (F @ dv[..., None])[..., 0], f),
            rel(g - (G @ v[..., None])[..., 0], np.maximum(np.abs(g), 1e-30)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and total >= 10_000 and elapsed < 5.0
    report(1, ok, f"{total} samples, worst relative error {worst:.3e}, "
                  f"{elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 2. transform round trip

def _round_trip_error(h10_fn, ny):
    y = np.linspace(0.0, 6.0, ny)
    nx = 8
    h10_1d = h10_fn(y)
    eta_top = np.trapezoid(h10_1d, y)
    grid = make_grid(nx, ny, eta_top, 0.01, 0.02)
    params = Params(mu=1.0, kappa=1.0, nu=1.0, R=1.0, cV=1.0, delta=0.05)
    u10 = 0.3 * np.sin(grid.xi)[:, None] * (y * np.exp(-y))[None, :]
    th0 = 1.0 + 0.2 * np.exp(-y)[None, :] * np.ones((nx, 1))
    h10 = np.broadcast_to(h10_1d, (nx, ny)).copy()
    data = sample_outflow(OutflowSpec.constant(P=4.0), grid)
    v0, _ = initial_eta_map(u10, th0, h10, y, grid, delta=0.05)
    v_next = State(u1=v0.u1, theta=v0.theta, q=v0.q, time=grid.dt)
    ps = pullback_physical(v0, data, params, grid, y, v_hat_prev=v_next)
    return max(np.max(np.abs(ps.u1 - u10)), np.max(np.abs(ps.theta - th0)),
               np.max(np.abs(ps.h1 - h10)))


def test_criterion_02_transform_round_trip():
    t0 = time.perf_counter()
    profiles = {
        "1": lambda y: np.ones_like(y),
        "2": lambda y: 2.0 * np.ones_like(y),
        "1+y": lambda y: 1.0 + y,
        "1+0.5tanh(y)": lambda y: 1.0 + 0.5 * np.tanh(y),
    }
    nys = (65, 129, 257)
    details = []
    ok = True
    for name, fn in profiles.items():
        errs = np.array([_round_trip_error(fn, ny) for ny in nys])
        if np.all(errs <= 1e-12):
            details.append(f"{name}: exact")
            continue
        dys = np.log([6.0 / (ny - 1) for ny in nys])
        order = float(np.polyfit(dys, np.log(errs), 1)[0])
        ok = ok and order >= 1.8 and bool(np.all(np.diff(errs) < 0.0))
        details.append(f"{name}: order {order:.2f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(2, ok, "; ".join(details) + f"; {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 3. exact-constant fixed point

def test_criterion_03_exact_constant_fixed_point():
    grid = make_grid(16, 32, 6.0, 0.005, 0.05)
    params = Params(mu=1.0, kappa=1.0, nu=1.0, R=1.0, cV=1.0, delta=0.05)
    data = sample_outflow(OutflowSpec.constant(
        U=0.0, Theta=1.0, Hfield=1.0, P=1.5, theta_star=1.0), grid)
    v0 = State.constant(grid, 0.0, 1.0, 0.5)
    traj, rep = picard_solve(v0, data, params, grid, tol=1e-13)

    d1 = rep.distances[0]
    res_t = float(np.max(residual_transformed(traj, data, params, grid).max_norm))

    y = np.linspace(0.0, 4.0, 33)
    states = []
    for k in (1, 2, 3):
        states.append(pullback_physical(traj.state(k), data, params, grid, y,
                                        v_hat_prev=traj.state(k - 1)))
    ddt = time_differences(states[0], states[2], states[1].time)
    res_o = float(np.max(residual_original(states[1], ddt, data,
                                           params).max_norm))
    ps = states[1]
    const_dev = max(
        float(np.max(np.abs(ps.u1))), float(np.max(np.abs(ps.u2))),
        float(np.max(np.abs(ps.h2))), float(np.max(np.abs(ps.theta - 1.0))),
        float(np.max(np.abs(ps.h1 - 1.0))), float(np.max(np.abs(ps.rho - 1.0))))

    worst = max(d1, res_t, res_o, const_dev)
    ok = worst <= 1e-12
    report(3, ok, f"d1 {d1:.2e}, transformed residual {res_t:.2e}, "
                  f"original residual {res_o:.2e}, pullback deviation "
                  f"{const_dev:.2e}")


# ---------------------------------------------------------------------------
# 4. manufactured convergence

CRITERION_04_RESOLUTIONS = [(16, 32), (32, 64), (64, 128)]
#: criterion 04's studies, (case name, mode), with their order bands
CRITERION_04_STUDIES = [
    (("advection", "spatial"), (1.7, 2.3)),
    (("shear", "spatial"), (1.7, 2.3)),
    (("diffusion", "spatial"), (1.7, 2.3)),
    (("diffusion", "temporal"), (0.8, 1.2)),
]


def criterion_04_study(case_and_mode):
    """Run one study of criterion 04 in a worker process, with warnings as
    errors as in the test session.  The case is looked up by name, as a
    ManufacturedCase holds closures and does not pickle.  Returns the
    StudyResult, the worker's pid and its own peak RSS in KiB (the parent's
    RUSAGE_CHILDREN does not see a forkserver's workers)."""
    name, mode = case_and_mode
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = convergence_study(case_library()[name], CRITERION_04_RESOLUTIONS,
                                mode=mode)
    return (res, os.getpid(),
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def test_criterion_04_mms_convergence():
    t0 = time.perf_counter()
    # the studies share nothing: one worker process each, up to the CPUs
    # this process may run on
    workers = min(4, len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("forkserver")
    ) as pool:
        results = list(pool.map(criterion_04_study,
                                [study for study, _ in CRITERION_04_STUDIES]))
    details = []
    ok = True
    peaks = {}
    for ((name, mode), (low, high)), (res, pid, peak) in zip(
            CRITERION_04_STUDIES, results, strict=True):
        orders = res.orders
        good = all(low <= o <= high for o in orders)
        ok = ok and good
        details.append(f"{name} {mode} {min(orders):.2f}..{max(orders):.2f}")
        peaks[pid] = peak
        if name == "advection":
            advection = res
    # the advection study is tools/reference_outputs.py's mms_advection.txt:
    # where this host's fingerprint is pinned, its bits are too
    pinned = json.loads(reference_outputs.DIGESTS.read_text()).get(
        reference_outputs.fingerprint())
    if pinned is not None:
        assert reference_outputs.mms_lines(advection) == pinned["mms_advection"]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report(4, ok, "; ".join(details) + f"; {elapsed:.0f} s in {workers} "
                  f"workers, peak RSS "
                  + ", ".join(f"{p / 1024:.0f}" for p in peaks.values())
                  + " MiB")


# ---------------------------------------------------------------------------
# 5 + 6. contraction and admissibility on the demo configuration

@pytest.fixture(scope="module")
def demo_run():
    cfg = parse_config(Path(DEMO_INI).read_text())
    params, grid, outflow, v0, y = cfg.problem()
    t0 = time.perf_counter()
    traj, rep = picard_solve(v0, outflow, params, grid,
                             tol=cfg.getfloat("picard", "tol"),
                             max_iter=cfg.getint("picard", "max_iter"))
    elapsed = time.perf_counter() - t0
    return dict(cfg=cfg, params=params, grid=grid, outflow=outflow, v0=v0,
                y=y, traj=traj, rep=rep, elapsed=elapsed)


def test_criterion_05_contraction_at_small_time(demo_run):
    t0 = time.perf_counter()
    rep = demo_run["rep"]
    ratios = rep.ratios
    worst = max(ratios) if ratios else 0.0

    grid = demo_run["grid"]
    half_grid = make_grid(grid.nx, grid.neta, grid.eta_max, grid.dt,
                          grid.t_end / 2.0)
    half_outflow = sample_outflow(demo_run["cfg"].outflow_spec(), half_grid)
    _, rep_half = picard_solve(demo_run["v0"], half_outflow,
                               demo_run["params"], half_grid, tol=1e-8)
    worst_half = max(rep_half.ratios) if rep_half.ratios else 0.0
    elapsed = demo_run["elapsed"] + (time.perf_counter() - t0)

    ok = (rep.converged and all(r <= 0.5 for r in ratios)
          and worst_half <= worst + 1e-12 and elapsed < 60.0)
    report(5, ok, f"converged in {rep.iterations} iterations, worst ratio "
                  f"{worst:.4f}, halved-horizon worst {worst_half:.4f}, "
                  f"{elapsed:.1f} s")


def test_criterion_06_admissibility_persistence(demo_run):
    params, outflow = demo_run["params"], demo_run["outflow"]
    traj, rep = demo_run["traj"], demo_run["rep"]
    d = params.delta
    v0 = demo_run["v0"]
    margin0 = min(float(v0.theta.min()), float(v0.q.min()),
                  float((outflow.P[0][:, None] - v0.q).min()))
    theta, q = traj.data[..., 1], traj.data[..., 2]
    P = outflow.P[:, :, None]
    final_ok = bool((theta >= d).all() and (q >= d).all()
                    and ((P - q) >= d).all())
    ok = margin0 >= 2.0 * d and all(rep.admissible) and final_ok
    report(6, ok, f"initial margin {margin0:.3f} >= {2*d}, "
                  f"{len(rep.admissible)} iterates admissible, final "
                  f"trajectory min theta {theta.min():.3f}, min q {q.min():.3f}, "
                  f"min P-q {(P - q).min():.3f}")


# ---------------------------------------------------------------------------
# 7. structural constraints of every physical snapshot

def test_criterion_07_physical_constraints(demo_run):
    grid, params, outflow = demo_run["grid"], demo_run["params"], demo_run["outflow"]
    traj, y = demo_run["traj"], demo_run["y"]
    worst_div = worst_press = 0.0
    for k in range(traj.nlevels):
        prev = traj.state(1) if k == 0 else traj.state(k - 1)
        ps = pullback_physical(traj.state(k), outflow, params, grid, y,
                               v_hat_prev=prev)
        div, press = check_physical_constraints(ps, outflow, params)
        worst_div = max(worst_div, div)
        worst_press = max(worst_press, press)
    ok = worst_div <= 1e-12 and worst_press <= 1e-12
    report(7, ok, f"{traj.nlevels} snapshots, max divergence {worst_div:.2e}, "
                  f"max pressure residual {worst_press:.2e}")


# ---------------------------------------------------------------------------
# 8. wall trace inequality

def test_criterion_08_trace_inequality():
    grid = make_grid(16, 256, 16.0, 0.1, 0.5)
    eta = grid.eta[None, :]
    xi = grid.xi[:, None]
    fields = {
        "exp(-eta)": np.exp(-eta) * np.ones((16, 1)),
        "(1+0.3cos xi)exp(-eta)": (1.0 + 0.3 * np.cos(xi)) * np.exp(-eta),
        "eta exp(-2eta)": eta * np.exp(-2.0 * eta) * np.ones((16, 1)),
        "exp(-2eta)+0.5exp(-eta)":
            (np.exp(-2.0 * eta) + 0.5 * np.exp(-eta)) * np.ones((16, 1)),
    }
    worst = -1.0
    for name, f in fields.items():
        lhs, rhs = trace_check(f, grid)
        eps = lhs / rhs - 1.0 if rhs > 0.0 else -1.0
        worst = max(worst, eps)
    ok = worst <= 0.05
    report(8, ok, f"{len(fields)} fields at neta=256, worst eps_grid "
                  f"{worst:+.5f} (bound 0.05)")


# ---------------------------------------------------------------------------
# 9. outflow consistency

def test_criterion_09_outflow_consistency():
    grid = make_grid(16, 32, 6.0, 0.005, 0.05)
    params = Params(mu=0.1, kappa=0.1, nu=0.1, R=1.0, cV=1.0, delta=0.05)
    const = sample_outflow(OutflowSpec.constant(
        U=0.3, Theta=1.2, Hfield=1.1, P=2.0, theta_star=0.9), grid)
    rep_c = outflow_consistency(const, params)
    exact_zero = bool(np.all(rep_c.fields == 0.0))

    defect = 0.3
    spec = OutflowSpec(U=0.0,
                       Theta=lambda t, xi: 1.2 + defect * t + 0.0 * xi,
                       Hfield=1.1, P=2.0, theta_star=0.9)
    rep_d = outflow_consistency(sample_outflow(spec, grid), params)
    mismatch = max(float(np.max(np.abs(rep_d.fields[1] - defect))),
                   float(np.max(np.abs(rep_d.fields[0]))),
                   float(np.max(np.abs(rep_d.fields[2]))))
    ok = exact_zero and mismatch <= 1e-10
    report(9, ok, f"constant residuals identically zero: {exact_zero}; "
                  f"injected-defect mismatch {mismatch:.2e}")


# ---------------------------------------------------------------------------
# 10. I/O determinism

def test_criterion_10_io_determinism(tmp_path):
    text = Path(DEMO_INI).read_text()
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = run_simulate(text.replace("dir = out_demo", f"dir = {d1}"))
    rc2 = run_simulate(text.replace("dir = out_demo", f"dir = {d2}"))
    identical = rc1 == EXIT_OK and rc2 == EXIT_OK
    n_files = 0
    for name in sorted(os.listdir(d1)):
        if not name.endswith(".mhbl"):
            continue
        n_files += 1
        identical = identical and (
            (d1 / name).read_bytes() == (d2 / name).read_bytes())

    rng = np.random.default_rng(99)
    st = State(u1=rng.standard_normal((8, 16)),
               theta=1.0 + rng.random((8, 16)),
               q=0.5 + rng.random((8, 16)), time=0.125)
    p1, p2 = tmp_path / "a.mhbl", tmp_path / "b.mhbl"
    write_snapshot(st, str(p1))
    snap = read_snapshot(str(p1))
    st2 = State(u1=snap.fields["u1"], theta=snap.fields["theta"],
                q=snap.fields["q"], time=snap.time)
    write_snapshot(st2, str(p2))
    round_trip = p1.read_bytes() == p2.read_bytes()

    ok = identical and round_trip and n_files > 0
    report(10, ok, f"{n_files} snapshot files bit-identical across runs: "
                   f"{identical}; write-read-write round trip bit-exact: "
                   f"{round_trip}")
