"""End-to-end command-line behavior: subcommands, exit codes, artifacts.

Exit code contract: 0 success, 2 configuration error, 3 precondition
violation, 4 solver error, 5 non-convergence.
"""

import ast
import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import traced_peak

from mhbl import cli, coeffs, config, diagnostics, errors, mms, snapshots
from mhbl.cli import (
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_SOLVER,
    _apply_thread_cap,
    main,
)
from mhbl.config import parse_config
from mhbl.snapshots import emit_plot_data, read_snapshot, write_snapshot
from mhbl import stepper, transform
from mhbl.transform import (pullback_physical, residual_original,
                            time_differences)
from mhbl import (DegenerateStateError, LinearSolveError, State, make_grid,
                  sample_outflow)


def config_text(out_dir, **overrides):
    base = {
        "mu": "0.1", "kappa": "0.1", "nu": "0.1",
        "nx": "8", "neta": "24", "eta_max": "4.0",
        "dt": "0.01", "t_end": "0.03",
        "U": "0.2", "Theta": "1.2", "H": "1.1",
        "P": "2.0", "theta_star": "0.8",
        "u1_0": "0.2*(1 - exp(-y*y)) + 0.04*sin(x)*y*y*exp(-y)",
        "theta0": "0.8 + 0.4*(1 - exp(-y*y)) + 0.04*sin(x)*y*y*exp(-y)",
        "h1_0": "1.1 + 0.0*y",
        "y_max": "6.0", "ny": "49",
        "tol": "1e-9", "max_iter": "25",
        "snapshot_every": "1", "emit_plots": "false",
    }
    base.update(overrides)
    return f"""\
[physics]
mu = {base['mu']}
kappa = {base['kappa']}
nu = {base['nu']}
R = 1.0
cV = 1.0
delta = 0.05

[grid]
nx = {base['nx']}
neta = {base['neta']}
eta_max = {base['eta_max']}
dt = {base['dt']}
t_end = {base['t_end']}

[outflow]
U = {base['U']}
Theta = {base['Theta']}
H = {base['H']}
P = {base['P']}
theta_star = {base['theta_star']}

[initial]
u1_0 = {base['u1_0']}
theta0 = {base['theta0']}
h1_0 = {base['h1_0']}
y_max = {base['y_max']}
ny = {base['ny']}

[picard]
tol = {base['tol']}
max_iter = {base['max_iter']}

[output]
dir = {out_dir}
snapshot_every = {base['snapshot_every']}
emit_plots = {base['emit_plots']}
"""


def write_config(tmp_path, name="run.ini", **overrides):
    out_dir = tmp_path / (name.replace(".ini", "") + "_out")
    path = tmp_path / name
    path.write_text(config_text(str(out_dir), **overrides))
    return path, out_dir


def test_simulate_writes_all_artifacts(tmp_path, capsys):
    path, out_dir = write_config(tmp_path)
    assert main(["simulate", str(path)]) == EXIT_OK
    assert "converged" in capsys.readouterr().out
    names = sorted(os.listdir(out_dir))
    assert "config.ini" in names
    assert "iterations.csv" in names
    assert "residuals.csv" in names
    for k in range(4):
        assert f"state_{k:05d}.mhbl" in names
        assert f"physical_{k:05d}.mhbl" in names
    snap = read_snapshot(str(out_dir / "state_00003.mhbl"))
    assert snap.kind == "transformed" and snap.time == pytest.approx(0.03)
    phys = read_snapshot(str(out_dir / "physical_00000.mhbl"))
    assert phys.kind == "physical" and set(phys.fields) == {
        "rho", "u1", "u2", "theta", "h1", "h2"}


def test_simulate_is_bit_deterministic(tmp_path):
    p1, d1 = write_config(tmp_path, name="one.ini")
    p2, d2 = write_config(tmp_path, name="two.ini")
    assert main(["simulate", str(p1)]) == EXIT_OK
    assert main(["simulate", str(p2)]) == EXIT_OK
    for name in sorted(os.listdir(d1)):
        if name.endswith(".mhbl"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_simulate_snapshot_every_and_plots(tmp_path):
    path, out_dir = write_config(tmp_path, snapshot_every="2",
                                 emit_plots="true")
    assert main(["simulate", str(path)]) == EXIT_OK
    names = sorted(os.listdir(out_dir))
    # levels 0, 2 and the forced final level 3
    assert [n for n in names if n.startswith("state_")] == [
        "state_00000.mhbl", "state_00002.mhbl", "state_00003.mhbl"]
    assert "profile_theta.csv" in names and "plots.gp" in names


def test_simulate_residual_triple_pairs_adjacent_levels(tmp_path, monkeypatch):
    # t_end = 3 dt puts the residual triple at levels 0, 1, 2.  Every level
    # is pulled back once, against an adjacent level (level 1 for level 0),
    # and the triple reuses those pullbacks.  The pairs are recorded because
    # residual_original reads no u2 off its first state, so a wrong partner
    # for level 0 would not show in the CSV.
    pairs = []

    def recording(v_hat, *args, v_hat_prev=None, **kwargs):
        pairs.append((v_hat.time, v_hat_prev.time))
        return pullback_physical(v_hat, *args, v_hat_prev=v_hat_prev, **kwargs)

    monkeypatch.setattr(transform, "pullback_physical", recording)
    path, out_dir = write_config(tmp_path, h1_0="1.1 - 0.2*exp(-y*y)")
    assert main(["simulate", str(path)]) == EXIT_OK
    cfg = parse_config(path.read_text())
    params, grid = cfg.make_params(), cfg.make_grid()
    assert grid.nsteps == 3
    assert sorted(round(t / grid.dt) for t, _ in pairs) == [0, 1, 2, 3]
    for t, t_prev in pairs:
        assert abs(t - t_prev) == pytest.approx(grid.dt)

    outflow = sample_outflow(cfg.outflow_spec(), grid)
    y = np.linspace(0.0, cfg.getfloat("initial", "y_max"),
                    cfg.getint("initial", "ny"))
    states = []
    for k in range(3):
        snap = read_snapshot(str(out_dir / f"state_{k:05d}.mhbl"))
        states.append(State(time=snap.time, **snap.fields))
    triple = [pullback_physical(s, outflow, params, grid, y,
                                v_hat_prev=states[1 if k == 0 else k - 1])
              for k, s in enumerate(states)]
    expected_dir = tmp_path / "expected"
    ddt = time_differences(triple[0], triple[2], triple[1].time)
    emit_plot_data(residual_original(triple[1], ddt, outflow, params),
                   str(expected_dir))
    assert ((out_dir / "physical_residuals" / "residuals.csv").read_text()
            == (expected_dir / "residuals.csv").read_text())


def test_simulate_residual_triple_off_the_snapshot_levels(tmp_path,
                                                          monkeypatch):
    # nt = 6 with snapshot_every = 4 writes levels 0, 4 and 6, while the
    # residual triple is (2, 3, 4): levels 2 and 3 are pulled back only for
    # the triple, once each, against the level below, and never written
    calls = {}

    def recording(v_hat, *args, v_hat_prev=None, **kwargs):
        k = round(v_hat.time / 0.01)  # the configured dt
        assert k not in calls
        calls[k] = (v_hat, v_hat_prev)
        return pullback_physical(v_hat, *args, v_hat_prev=v_hat_prev, **kwargs)

    monkeypatch.setattr(transform, "pullback_physical", recording)
    path, out_dir = write_config(tmp_path, t_end="0.06", snapshot_every="4",
                                 h1_0="1.1 - 0.2*exp(-y*y)")
    assert main(["simulate", str(path)]) == EXIT_OK
    cfg = parse_config(path.read_text())
    params, grid = cfg.make_params(), cfg.make_grid()
    assert grid.nsteps == 6
    assert {k: round(prev.time / grid.dt) for k, (_, prev) in calls.items()} \
        == {0: 1, 2: 1, 3: 2, 4: 3, 6: 5}
    assert sorted(n for n in os.listdir(out_dir) if n.endswith(".mhbl")) == [
        f"{kind}_{k:05d}.mhbl" for kind in ("physical", "state")
        for k in (0, 4, 6)]
    snap = read_snapshot(str(out_dir / "state_00004.mhbl"))
    assert all(np.array_equal(snap.fields[name], getattr(calls[4][0], name))
               for name in ("u1", "theta", "q"))

    outflow = sample_outflow(cfg.outflow_spec(), grid)
    y = np.linspace(0.0, cfg.getfloat("initial", "y_max"),
                    cfg.getint("initial", "ny"))
    hats = {k: v_hat for k, (v_hat, _) in calls.items()}
    hats[1] = calls[2][1]  # level 1 is only ever a partner
    triple = [pullback_physical(hats[k], outflow, params, grid, y,
                                v_hat_prev=hats[k - 1]) for k in (2, 3, 4)]
    expected_dir = tmp_path / "expected"
    ddt = time_differences(triple[0], triple[2], triple[1].time)
    emit_plot_data(residual_original(triple[1], ddt, outflow, params),
                   str(expected_dir))
    assert ((out_dir / "physical_residuals" / "residuals.csv").read_text()
            == (expected_dir / "residuals.csv").read_text())


def test_simulate_peak_memory_does_not_grow_with_levels(tmp_path):
    # a wide physical grid: one physical level (6 fields of nx x ny) is 32
    # times a transformed one.  The output stage holds at most the residual
    # triple and the level being pulled back, so 20 time levels peak within
    # one physical level of 5; only the trajectory itself grows with them.
    nx, ny = 64, 256
    runs = [write_config(tmp_path, name=f"levels_{t_end}.ini", nx=str(nx),
                         neta="16", ny=str(ny), t_end=t_end)[0].read_text()
            for t_end in ("0.04", "0.19")]
    assert cli.run_simulate(runs[0]) == EXIT_OK  # every lazy import done
    peaks = []
    for text in runs:
        code, peak = traced_peak(cli.run_simulate, text)
        assert code == EXIT_OK
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) < 6 * nx * ny * 8


def test_simulate_peak_stays_below_3_5_physical_levels(tmp_path):
    # the grid above at 5 time levels.  The pullback hands its fresh arrays
    # to PhysicalState without a copy, the residual triple keeps only the
    # fields time_differences and residual_original read (3 of each outer
    # level, 5 of the middle one), the outer levels are reduced to their 3
    # time differences before the middle one is pulled back, and the
    # residual drops each term after its last use: 3.22 levels, against
    # 4.14 when the whole triple was held through the residual and 6.08
    # when every field was copied and all residual terms lived at once.
    # Its 64 xi rows make one block of the output stage: 3.14 levels since
    # the pullback and the residual run in blocks
    nx, ny = 64, 256
    text = write_config(tmp_path, nx=str(nx), neta="16", ny=str(ny),
                        t_end="0.04")[0].read_text()
    assert cli.run_simulate(text) == EXIT_OK  # every lazy import done
    code, peak = traced_peak(cli.run_simulate, text)
    assert code == EXIT_OK
    assert peak / (6 * nx * ny * 8) < 3.5


def test_simulate_peak_in_xi_row_blocks_stays_below_3_physical_levels(
        tmp_path):
    # the grid above at twice the xi rows: two blocks of the output stage,
    # so that only the results of the pullback and the residual are held at
    # the size of a whole level, and their temporaries at the size of a
    # block: 2.28 levels, against 3.15 when each ran on whole levels
    nx, ny = 128, 256
    assert nx >= 2 * transform.BLOCK_ROWS
    text = write_config(tmp_path, nx=str(nx), neta="16", ny=str(ny),
                        t_end="0.04")[0].read_text()
    assert cli.run_simulate(text) == EXIT_OK  # every lazy import done
    code, peak = traced_peak(cli.run_simulate, text)
    assert code == EXIT_OK
    assert peak / (6 * nx * ny * 8) < 3.0


def test_simulate_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[lattice]\nnx = 8\n")
    assert main(["simulate", str(bad)]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert main(["simulate", str(tmp_path / "missing.ini")]) == EXIT_CONFIG


@pytest.mark.parametrize("key,value", [
    ("max_iter", "0"), ("max_iter", "-3"), ("tol", "nan"), ("tol", "inf"),
    ("tol", "-1e-9"), ("snapshot_every", "0"),
])
def test_simulate_rejects_bad_picard_and_output_values(tmp_path, capsys, key,
                                                       value):
    path, out_dir = write_config(tmp_path, **{key: value})
    assert main(["simulate", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err
    assert not out_dir.exists()


def test_simulate_precondition_exit_3(tmp_path, capsys):
    path, _ = write_config(tmp_path, h1_0="0.01 + 0.0*y")
    assert main(["simulate", str(path)]) == EXIT_PRECONDITION
    assert "precondition" in capsys.readouterr().err
    # q = h1^2/2 too close to P
    path, _ = write_config(tmp_path, name="close.ini", h1_0="1.98 + 0.0*y")
    assert main(["simulate", str(path)]) == EXIT_PRECONDITION
    assert "h1_0^2/2 <= P(0, x) - 2 delta" in capsys.readouterr().err
    # q = h1^2/2 overflows: refused by the same check, with no RuntimeWarning
    path, _ = write_config(tmp_path, name="huge.ini", h1_0="1e200 + 0.0*y")
    assert main(["simulate", str(path)]) == EXIT_PRECONDITION
    assert "h1_0^2/2 <= P(0, x) - 2 delta" in capsys.readouterr().err


@pytest.mark.parametrize("profile,value", [
    ("u1_0", "sqrt(y - 1.0)"), ("u1_0", "1.0/y"),
    ("theta0", "sqrt(y - 1.0)"), ("theta0", "1.0 + 1/y"),
    ("h1_0", "sqrt(y - 1.0)"), ("h1_0", "1.0 + 1/y"),
], ids=["nan", "inf", "theta0-nan", "theta0-inf", "h1_0-nan", "h1_0-inf"])
def test_simulate_non_finite_u1_0_exit_3(tmp_path, capsys, profile, value):
    # +inf passes every ">= 2 delta" check, so each profile is checked for
    # finiteness first and the error names it; numpy's own warnings as it
    # evaluates the expression stay silent (RuntimeWarning is an error here)
    path, out_dir = write_config(tmp_path, **{profile: value})
    assert main(["simulate", str(path)]) == EXIT_PRECONDITION
    assert f"precondition violated: {profile} finite" in capsys.readouterr().err
    assert not out_dir.exists()


def test_simulate_nonconvergence_exit_5(tmp_path, capsys):
    path, _ = write_config(tmp_path, tol="1e-15", max_iter="1")
    assert main(["simulate", str(path)]) == EXIT_NO_CONVERGENCE
    assert "non-convergence" in capsys.readouterr().err


DECLINING_PRESSURE = dict(
    U="0.0 + 0.0*xi", Theta="1.0 + 0.0*xi",
    H="sqrt(1.1) + 0.0*xi", P="1.0 - 6.0*t + 0.0*xi",
    theta_star="1.0 + 0.0*xi", u1_0="0.0*y", theta0="1.0 + 0.0*y",
    h1_0="sqrt(1.1) + 0.0*y", t_end="0.08")


def test_simulate_admissibility_loss_exit_4(tmp_path, capsys):
    # declining pressure pushes P - q below delta inside the horizon
    path, _ = write_config(tmp_path, **DECLINING_PRESSURE)
    assert main(["simulate", str(path)]) == EXIT_SOLVER
    assert "solver error" in capsys.readouterr().err


def add_line(path, section, line):
    """Write line into the config at path, first in its [section]."""
    text = path.read_text()
    path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))


def test_simulate_refuses_to_continue_past_admissibility_loss(tmp_path,
                                                              capsys):
    # under "continue" this config used to print "converged in 6
    # iterations" and exit 0 with every iterate outside the admissible set;
    # that policy is gone, and so is the key that asked for it
    path, out_dir = write_config(tmp_path, **DECLINING_PRESSURE)
    add_line(path, "picard", "on_admissibility_loss = continue")
    assert main(["simulate", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "converged" not in captured.out
    assert ("configuration error: unknown key 'on_admissibility_loss' in "
            "section [picard]" in captured.err)
    assert not out_dir.exists()


@pytest.mark.parametrize("section,line", [
    ("outflow", "mode = constant"),
    ("picard", "on_admissibility_loss = abort"),
    ("picard", "compat_order = 1"),
], ids=["mode", "on_admissibility_loss", "compat_order"])
def test_config_holding_a_removed_key_exit_2(tmp_path, capsys, section, line):
    # every outflow trace is an expression, abort the one policy and the
    # first-order Taylor start the one zeroth iterate, so no key has a value
    # left to choose
    path, out_dir = write_config(tmp_path)
    add_line(path, section, line)
    assert main(["simulate", str(path)]) == EXIT_CONFIG
    key = line.split(" = ")[0]
    assert capsys.readouterr().err == (f"configuration error: unknown key "
                                       f"{key!r} in section [{section}]\n")
    assert not out_dir.exists()


def test_non_finite_outflow_number_exit_2(tmp_path, capsys):
    # nan is no number of the expression grammar: refused as it is parsed,
    # naming its key, not at sampling, where it exited 3
    path, out_dir = write_config(tmp_path, P="nan")
    assert main(["simulate", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: expression 'nan' uses unknown name 'nan' "
        "(in [outflow] P)\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("text", ["1e400", "1e300*1e300"])
def test_overflowing_outflow_number_exit_2(tmp_path, capsys, text):
    # a literal past the float range, or a product that overflows, is an
    # exact inf: refused as its key's error, not at sampling, where it
    # exited 3 without naming the key
    path, out_dir = write_config(tmp_path, P=text)
    assert main(["simulate", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"configuration error: expression {text!r} is not finite: inf "
        "(in [outflow] P)\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("error", [LinearSolveError, DegenerateStateError])
def test_simulate_solver_failure_mid_march_exit_4(tmp_path, capsys,
                                                  monkeypatch, error):
    # a failed step solve is a solver error, not a non-convergence
    def failing(*args):
        raise error("injected")

    monkeypatch.setattr(stepper, "solve_theta_q", failing)
    path, _ = write_config(tmp_path)
    assert main(["simulate", str(path)]) == EXIT_SOLVER
    assert ("solver error: Picard iterate 1: time level 0: injected"
            in capsys.readouterr().err)


def test_check_identities_prints_pass_table(capsys):
    assert main(["check-identities"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 8
    assert "FAIL" not in out
    assert "positive definite" in out


def test_check_outflow_constant_reports_zero(tmp_path, capsys):
    path, _ = write_config(tmp_path)
    assert main(["check-outflow", str(path)]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3
    for line in out:
        assert "max residual 0.000000e+00" in line


def test_check_outflow_degenerate_exit_4(tmp_path, capsys):
    path, _ = write_config(tmp_path, H="1.9", P="1.0",
                           h1_0="1.0 + 0.0*y")
    assert main(["check-outflow", str(path)]) == EXIT_SOLVER
    assert "solver error" in capsys.readouterr().err


def test_nonpositive_pressure_is_a_precondition_for_both_commands(tmp_path,
                                                                  capsys):
    path, _ = write_config(tmp_path, P="-1.0")
    assert main(["simulate", str(path)]) == EXIT_PRECONDITION
    assert main(["check-outflow", str(path)]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.count("precondition violated: outflow trace P") == 2


def test_mms_subcommand_constant_case(tmp_path, capsys):
    out = tmp_path / "study.csv"
    assert main(["mms", "constant", "3", "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "flagged exact" in text
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header.startswith("case,nx,neta,dt,err_u1")


def test_mms_rejects_unknown_case_and_few_levels(capsys):
    assert main(["mms", "vortex", "3"]) == EXIT_CONFIG
    assert "unknown case" in capsys.readouterr().err
    assert main(["mms", "constant", "2"]) == EXIT_CONFIG


def test_info_prints_header_and_rejects_garbage(tmp_path, capsys):
    grid = make_grid(6, 9, 4.0, 0.1, 0.3)
    st = State.constant(grid, 0.0, 1.0, 0.5, time=0.125)
    snap_path = tmp_path / "s.mhbl"
    write_snapshot(st, str(snap_path))
    assert main(["info", str(snap_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "kind: transformed" in out
    assert "nx=6, n2=9" in out
    assert "time: 0.125" in out
    garbage = tmp_path / "g.mhbl"
    garbage.write_bytes(b"not a snapshot")
    assert main(["info", str(garbage)]) == EXIT_CONFIG
    assert main(["info", str(tmp_path / "missing.mhbl")]) == EXIT_CONFIG


def test_thread_cap_env(monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("MHBL_THREADS", "2")
    _apply_thread_cap()
    assert os.environ["OMP_NUM_THREADS"] == "2"
    monkeypatch.setenv("MHBL_THREADS", "lots")
    _apply_thread_cap()   # warns, does not raise


# --------------------------------------------------------------------------
# one exit-code policy for every subcommand

@pytest.mark.parametrize("command,overrides", [
    ("simulate", {"theta0": "1/0"}),
    ("simulate", {"theta0": "2.0**10000"}),
    ("simulate", {"P": "1.5 + 0*(1/0)"}),
    ("check-outflow", {"P": "1.5 + 0*(1/0)"}),
    # Python takes (-1.0)**0.5 as complex: an array result, then a scalar one
    ("simulate", {"P": "2.0 + (-1.0)**0.5 + 0*xi"}),
    ("simulate", {"P": "2.0 + (-1.0)**0.5"}),
], ids=["divide", "overflow", "outflow-simulate", "outflow-check",
        "complex-array", "complex-scalar"])
def test_expression_that_fails_to_evaluate_exit_2(tmp_path, capsys, command,
                                                  overrides):
    path, out_dir = write_config(tmp_path, **overrides)
    assert main([command, str(path)]) == EXIT_CONFIG
    expr = overrides.get("theta0", overrides.get("P"))
    assert f"configuration error: expression {expr!r} failed" in (
        capsys.readouterr().err)
    assert not out_dir.exists()


def test_unusable_output_dir_exit_2(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    out_dir = tmp_path / "afile" / "sub"
    path = tmp_path / "run.ini"
    path.write_text(config_text(str(out_dir)))
    assert main(["simulate", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and str(out_dir) in err
    # the same through python -m mhbl and its sys.exit
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1])]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "mhbl", "simulate", str(path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_CONFIG
    assert "Traceback" not in done.stderr and str(out_dir) in done.stderr


@pytest.mark.parametrize("command", ["simulate", "check-outflow"])
@pytest.mark.parametrize("key,value,message", [
    ("nx", "2", "nx must be >= 4, got 2"),
    ("mu", "-1", "parameter mu must be positive, got -1.0"),
], ids=["nx", "mu"])
def test_bad_grid_or_physics_value_exit_2(tmp_path, capsys, command, key,
                                          value, message):
    # the grid and parameter checks raise GridSizingError and
    # PositivityError; read from a config, the value is a configuration error
    path, out_dir = write_config(tmp_path, **{key: value})
    assert main([command, str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"configuration error: {message}\n"
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("overrides,message", [
    ({"dt": "nan"}, "dt must be finite and positive, got nan"),
    ({"t_end": "inf"}, "t_end must be finite and positive, got inf"),
    ({"eta_max": "nan"}, "eta_max must be finite and positive, got nan"),
    ({"eta_max": "inf"}, "eta_max must be finite and positive, got inf"),
    ({"y_max": "nan"}, "[initial] y_max must be finite and positive, got nan"),
    ({"y_max": "inf"}, "[initial] y_max must be finite and positive, got inf"),
    ({"dt": "0.02", "t_end": "0.05"}, "t_end must be a whole number of "
                                      "steps: t_end=0.05, dt=0.02 give 2.5 "
                                      "steps"),
    ({"eta_max": "1e300"}, "eta_max must give an eta spacing h with h*h and "
                           "1/(h*h) finite and nonzero, got eta_max=1e+300, "
                           "h=4.35e+298"),
    ({"eta_max": "1e-300"}, "eta_max must give an eta spacing h with h*h and "
                            "1/(h*h) finite and nonzero, got eta_max=1e-300, "
                            "h=4.35e-302"),
    ({"y_max": "1e-300"}, "[initial] y_max must give a y spacing h with h*h "
                          "and 1/(h*h) finite and nonzero, got y_max=1e-300, "
                          "h=2.08e-302"),
    ({"dt": "1e-300"}, "nx, neta, dt and t_end must give a level stack "
                       "(nsteps + 1) * nx * neta * 3 of at most 2147483648 "
                       "doubles, got 1.73e+301"),
    ({"t_end": "1e300"}, "nx, neta, dt and t_end must give a level stack "
                         "(nsteps + 1) * nx * neta * 3 of at most 2147483648 "
                         "doubles, got 5.76e+304"),
    ({"nx": "100000000"}, "nx, neta, dt and t_end must give a level stack "
                          "(nsteps + 1) * nx * neta * 3 of at most "
                          "2147483648 doubles, got 2.88e+10"),
    ({"ny": "1000000000"}, "[grid] nx and [initial] ny must give a physical "
                           "field nx * ny of at most 2147483648 doubles, got "
                           "8e+09"),
], ids=["dt-nan", "t_end-inf", "eta_max-nan", "eta_max-inf", "y_max-nan",
        "y_max-inf", "t_end-partial-step", "eta_max-huge", "eta_max-tiny",
        "y_max-tiny", "dt-tiny", "t_end-huge", "nx-huge", "ny-huge"])
@pytest.mark.filterwarnings("error")
def test_non_finite_or_partial_step_grid_exit_2(tmp_path, capsys, overrides,
                                                message):
    # NaN passes a `<= 0` check and inf overflows the step count; a t_end
    # between two steps would silently end the run at the nearer one; a
    # spacing whose square overflows or underflows breaks the second
    # differences (a traceback, numpy warnings or NaN residuals before); a
    # level stack or physical field above the cap is refused before it is
    # allocated (a traceback from np.arange or a GiB-sized allocation before)
    path, out_dir = write_config(tmp_path, **overrides)
    code, peak = traced_peak(main, ["simulate", str(path)])
    assert code == EXIT_CONFIG
    assert peak < 2 ** 24
    err = capsys.readouterr().err
    assert err == f"configuration error: {message}\n"
    assert not out_dir.exists()


def demo_config(tmp_path, **keys):
    """configs/demo.ini at nx = 8, neta = 16, ny = 24 with the given keys
    changed, writing under tmp_path; returns (config path, output dir)."""
    out_dir = tmp_path / "demo_out"
    text = (Path(__file__).resolve().parent.parent / "configs"
            / "demo.ini").read_text()
    keys = {"nx": "8", "neta": "16", "ny": "24", "dir": str(out_dir), **keys}
    for key, value in keys.items():
        text, n = re.subn(rf"^{key}\s*=.*$", f"{key} = {value}", text,
                          flags=re.MULTILINE)
        assert n == 1, key
    path = tmp_path / "demo.ini"
    path.write_text(text)
    return path, out_dir


LEFT_THE_SET = ("zeroth approximation left the admissible set (shorten t_end "
                "or fix the data) at time level 1, xi column 0, eta row 0")


@pytest.mark.parametrize("key,value,message", [
    ("mu", "1e300", LEFT_THE_SET),
    ("kappa", "1e300", LEFT_THE_SET),
    ("U", "1e200", "Picard iterate 1: time level 1: dt = 0.005 exceeds the "
                   "advection bound 4.62096e-185 (spectral radius "
                   "8.49821e+183 at xi column 0, eta row 2)"),
], ids=["mu", "kappa", "U"])
@pytest.mark.filterwarnings("error")
def test_overflowing_picard_measure_exits_4_without_a_warning(
        tmp_path, capsys, key, value, message):
    # the measure's H^1 norm (and for U its distance) overflows to inf, as a
    # NaN would be NaN: it raised an overflow RuntimeWarning before the
    # exit-4 line
    path, _ = demo_config(tmp_path, **{key: value})
    assert main(["simulate", str(path)]) == EXIT_SOLVER
    assert capsys.readouterr().err == f"solver error: {message}\n"


@pytest.mark.parametrize("P", ["1e200", "1e305"])
@pytest.mark.filterwarnings("error")
def test_huge_outflow_pressure_runs_silently_to_finite_outputs(tmp_path,
                                                               capsys, P):
    # Q (P - q) overflows to inf in the coefficients and in the residual of
    # the temperature equation, where it only divides: the term goes to 0,
    # its limit.  It raised an overflow RuntimeWarning before
    path, out_dir = demo_config(tmp_path, P=P)
    assert main(["simulate", str(path)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    numbers = 0
    for name in sorted(out_dir.rglob("*")):
        if name.suffix == ".mhbl":
            snap = read_snapshot(str(name))
            assert np.isfinite(snap.time), name
            for field, values in snap.fields.items():
                assert np.all(np.isfinite(values)), (name, field)
        elif name.suffix == ".csv":
            for word in re.split(r"[,\n]", name.read_text()):
                try:
                    value = float(word)
                except ValueError:  # a header, an empty ratio, True
                    continue
                assert np.isfinite(value), (name, word)
                numbers += 1
    assert numbers > 100


LEFT_AT_LEVEL_0 = LEFT_THE_SET.replace("time level 1", "time level 0")


@pytest.mark.parametrize("key,value,message", [
    ("R", "1e308", "Picard iterate 1: time level 0: u1 = nan is not finite "
                   "at eta row 2, xi column 0"),
    ("theta_star", "1e308", LEFT_AT_LEVEL_0),
    ("u1_0", "1e200*y", LEFT_AT_LEVEL_0),
], ids=["R", "theta_star", "u1_0"])
@pytest.mark.filterwarnings("error")
def test_overflow_in_the_numerics_exits_4_without_a_warning(tmp_path, capsys,
                                                            key, value,
                                                            message):
    # the freeze and the stencils overflow to inf and NaN, which the checks
    # where values are made refuse; they printed numpy RuntimeWarnings
    # before the exit-4 line until the command line ran under np.errstate
    path, _ = demo_config(tmp_path, **{key: value})
    assert main(["simulate", str(path)]) == EXIT_SOLVER
    assert capsys.readouterr().err == f"solver error: {message}\n"


@pytest.mark.parametrize("key,value", [
    ("Theta", "0.01"), ("H", "0.1"), ("H", "1e200"),
], ids=["Theta", "H", "H-overflow"])
@pytest.mark.filterwarnings("error")
def test_outflow_rows_outside_the_set_exit_3(tmp_path, capsys, key, value):
    # the far row of the level every iterate marches from is the outflow's
    # (U, Theta, H^2/2): theta or q below delta there, or q = inf, is a fault
    # of the data, refused before the solve, not a solver error (exit 4)
    path, _ = demo_config(tmp_path, **{key: value})
    assert main(["simulate", str(path)]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == (
        "precondition violated: initial data with the outflow's wall and far "
        "rows at t = 0 must satisfy theta >= delta and delta <= q <= P - "
        "delta (delta = 0.05); it fails at xi column 0, eta row 15\n")


def test_outflow_rows_just_inside_the_set_exit_0(tmp_path, capsys):
    # H = 1.7 leaves P - q = 0.055 at the far row, inside the margin delta
    path, _ = demo_config(tmp_path, H="1.7")
    assert main(["simulate", str(path)]) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("module,name,kind,row,written", [
    (transform, "residual_original", "physical", 3,
     "physical_residuals/residuals.csv"),
    (diagnostics, "residual_transformed", "transformed", 1, "residuals.csv"),
], ids=["physical", "transformed"])
def test_simulate_refuses_a_non_finite_residual(tmp_path, capsys, monkeypatch,
                                                module, name, kind, row,
                                                written):
    # a residual norm that is not finite is a solver error naming its
    # equation, not a nan or inf in residuals.csv
    real, l2 = getattr(module, name), []
    bad = np.nan if kind == "physical" else np.inf

    def spoiled(*args, **kwargs):
        report = real(*args, **kwargs)
        max_norm = np.array(report.max_norm)
        max_norm[row] = bad
        l2.append(float(report.l2_norm[row]))
        return dataclasses.replace(report, max_norm=max_norm)

    monkeypatch.setattr(module, name, spoiled)
    path, out_dir = write_config(tmp_path)
    assert main(["simulate", str(path)]) == EXIT_SOLVER
    equation = cli.RESIDUAL_EQUATIONS[kind][row]
    assert capsys.readouterr().err == (
        f"solver error: {kind} residual of equation {row} ({equation}) is not "
        f"finite: max norm {bad}, L2 norm {l2[0]:.6g}\n")
    assert not (out_dir / written).exists()


def test_mms_case_leaving_the_admissible_set_exit_3(monkeypatch, capsys):
    real = mms.manufacture_source

    def tampered(case, *args):
        # theta and q of -v are negative everywhere
        flipped = dataclasses.replace(case, v=lambda t, xi, eta: -case.v(
            t, xi, eta))
        return real(flipped, *args)

    monkeypatch.setattr(mms, "manufacture_source", tampered)
    assert main(["mms", "constant", "3"]) == EXIT_PRECONDITION
    assert capsys.readouterr().err.startswith(
        "precondition violated: case 'constant' leaves the admissible set")


@pytest.mark.parametrize("case,change,code,prefix", [
    ("advection", {"max_iter": 1}, EXIT_NO_CONVERGENCE,
     "non-convergence: case 'advection' at 16x32"),
    ("constant", {"aborted": True}, EXIT_SOLVER,
     "solver error: case 'constant' at 16x32: left"),
], ids=["non-convergence", "aborted"])
def test_mms_resolution_that_fails_exits_with_its_code(monkeypatch, capsys,
                                                       case, change, code,
                                                       prefix):
    real = mms.solve_case
    if "max_iter" in change:
        monkeypatch.setattr(mms, "PICARD_MAX_ITER", change["max_iter"])

    def solve(*args, **kwargs):
        traj, report, errors = real(*args, **kwargs)
        if change.get("aborted"):
            report = dataclasses.replace(report, converged=False, aborted=True,
                                         message="left")
        return traj, report, errors

    monkeypatch.setattr(mms, "solve_case", solve)
    assert main(["mms", case, "3"]) == code
    assert capsys.readouterr().err.startswith(prefix)


#: the documented codes; any MhblError not named here is a solver error
DOCUMENTED = {
    errors.ConfigError: (EXIT_CONFIG, "configuration error"),
    errors.SnapshotFormatError: (EXIT_CONFIG, "configuration error"),
    OSError: (EXIT_CONFIG, "configuration error"),
    errors.PositivityError: (EXIT_PRECONDITION, "precondition violated"),
    errors.PreconditionError: (EXIT_PRECONDITION, "precondition violated"),
    errors.NonConvergenceError: (EXIT_NO_CONVERGENCE, "non-convergence"),
}
RAISED = [OSError] + [c for _, c in inspect.getmembers(errors, inspect.isclass)
                      if issubclass(c, errors.MhblError)]
ENTRY_POINTS = {
    "simulate": (config, "parse_config"),
    "check-outflow": (config, "parse_config"),
    "mms": (mms, "convergence_study"),
    "check-identities": (coeffs, "matrices"),
    "info": (snapshots, "read_snapshot"),
}


@pytest.mark.parametrize("error", RAISED, ids=lambda c: c.__name__)
@pytest.mark.parametrize("command", sorted(ENTRY_POINTS))
def test_every_error_class_exits_with_its_documented_code(tmp_path, capsys,
                                                         monkeypatch, command,
                                                         error):
    def failing(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(*ENTRY_POINTS[command], failing)
    path, _ = write_config(tmp_path)
    argv = {"simulate": [str(path)], "check-outflow": [str(path)],
            "mms": ["constant", "3"], "info": ["s.mhbl"]}.get(command, [])
    code, prefix = DOCUMENTED.get(error, (EXIT_SOLVER, "solver error"))
    assert main([command] + argv) == code
    assert capsys.readouterr().err == f"{prefix}: injected\n"


def test_one_wrapper_maps_errors_to_exit_codes():
    mapped = {"OSError"} | {name for name, c in inspect.getmembers(errors)
                            if inspect.isclass(c)
                            and issubclass(c, errors.MhblError)}
    tree = ast.parse(Path(cli.__file__).read_text())
    wrapper = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "_exit_code")
    inside = {id(node) for node in ast.walk(wrapper)}
    mapping = [node for node in ast.walk(tree)
               if isinstance(node, ast.ExceptHandler) and node.type is not None
               and mapped & {getattr(n, "id", getattr(n, "attr", None))
                             for n in ast.walk(node.type)}]
    assert mapping and all(id(node) in inside for node in mapping)
