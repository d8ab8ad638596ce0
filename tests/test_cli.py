"""End-to-end command-line behavior: subcommands, exit codes, artifacts.

Exit code contract: 0 success, 2 configuration error, 3 precondition
violation, 4 solver error, 5 non-convergence.
"""

import os

import numpy as np
import pytest

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
from mhbl.transform import pullback_physical, residual_original
from mhbl import (DegenerateStateError, LinearSolveError, State, make_grid,
                  sample_outflow)


def config_text(out_dir, **overrides):
    base = {
        "mu": "0.1", "kappa": "0.1", "nu": "0.1",
        "nx": "8", "neta": "24", "eta_max": "4.0",
        "dt": "0.01", "t_end": "0.03",
        "mode": "constant", "U": "0.2", "Theta": "1.2", "H": "1.1",
        "P": "2.0", "theta_star": "0.8",
        "u1_0": "0.2*(1 - exp(-y*y)) + 0.04*sin(x)*y*y*exp(-y)",
        "theta0": "0.8 + 0.4*(1 - exp(-y*y)) + 0.04*sin(x)*y*y*exp(-y)",
        "h1_0": "1.1 + 0.0*y",
        "y_max": "6.0", "ny": "49",
        "tol": "1e-9", "max_iter": "25", "compat_order": "1",
        "loss": "abort",
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
mode = {base['mode']}
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
compat_order = {base['compat_order']}
on_admissibility_loss = {base['loss']}

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
    emit_plot_data(residual_original(triple, outflow, params), str(expected_dir))
    assert ((out_dir / "physical_residuals" / "residuals.csv").read_text()
            == (expected_dir / "residuals.csv").read_text())


def test_simulate_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[lattice]\nnx = 8\n")
    assert main(["simulate", str(bad)]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert main(["simulate", str(tmp_path / "missing.ini")]) == EXIT_CONFIG


@pytest.mark.parametrize("key,value", [
    ("max_iter", "0"), ("max_iter", "-3"), ("compat_order", "2"),
    ("tol", "nan"), ("tol", "inf"), ("tol", "-1e-9"), ("snapshot_every", "0"),
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


# the expressions themselves warn as numpy evaluates them
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("u1_0", ["sqrt(y - 1.0)", "1.0/y"],
                         ids=["nan", "inf"])
def test_simulate_non_finite_u1_0_exit_3(tmp_path, capsys, u1_0):
    path, out_dir = write_config(tmp_path, u1_0=u1_0)
    assert main(["simulate", str(path)]) == EXIT_PRECONDITION
    assert "precondition violated: u1_0 finite" in capsys.readouterr().err
    assert not out_dir.exists()


def test_simulate_nonconvergence_exit_5(tmp_path, capsys):
    path, _ = write_config(tmp_path, tol="1e-15", max_iter="1")
    assert main(["simulate", str(path)]) == EXIT_NO_CONVERGENCE
    assert "non-convergence" in capsys.readouterr().err


def test_simulate_admissibility_loss_exit_4(tmp_path, capsys):
    # declining pressure pushes P - q below delta inside the horizon
    path, _ = write_config(
        tmp_path, mode="expressions",
        U="0.0 + 0.0*xi", Theta="1.0 + 0.0*xi", H="sqrt(1.1) + 0.0*xi",
        P="1.0 - 6.0*t + 0.0*xi", theta_star="1.0 + 0.0*xi",
        u1_0="0.0*y", theta0="1.0 + 0.0*y", h1_0="sqrt(1.1) + 0.0*y",
        t_end="0.08", compat_order="0")
    assert main(["simulate", str(path)]) == EXIT_SOLVER
    assert "solver error" in capsys.readouterr().err


@pytest.mark.parametrize("error", [LinearSolveError, DegenerateStateError])
def test_simulate_solver_failure_mid_march_exit_4(tmp_path, capsys,
                                                  monkeypatch, error):
    # a failed step solve is a solver error, not a non-convergence
    def failing(self, rhs):
        raise error("injected")

    monkeypatch.setattr(stepper.BlockTridiag, "solve", failing)
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
