"""The splits over two processes, of the march (stepper._fork_columns) and
of simulate's output stage (cli._output_stage): the same bits, the same
errors, and no child process left behind.

A fork is refused in a process with more than one OS thread, and this one
has loaded numpy's threaded BLAS, so the split runs are made in a fresh
interpreter with the BLAS capped at one thread (_split_runs, through
conftest.run_capped); each is compared with an in-process run made there
too.  SPLIT_NODES and OUTPUT_SPLIT_NODES are set to 0 there, so that tiny
grids split.
"""

import contextlib
import io
import os
import pickle
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

import mhbl
from conftest import run_capped
from mhbl import cli, stepper

DEMO = Path(__file__).resolve().parents[1] / "configs" / "demo.ini"
#: (name, nx): an MMS case with a source, odd nx too, and the demo's physics
CASES = (("mms", 8), ("mms_odd_nx", 9), ("demo", 8))
#: (xi column, time level) of a NaN put in the 8-column MMS source: on the
#: helper's side and on this process's side, wherever the split point moves
FAULTS = ((7, 4), (0, 4))
#: the demo's physics on 8 x 16 nodes, 24 y nodes and 11 time levels: the
#: output stage's child takes levels 0-3 and 7-10
SMALL = {"nx": "8", "neta": "16", "ny": "24"}
#: a level of the output child's where the simulate runs below fail
CHILD_LEVEL = 2


def _children_left() -> bool:
    """Whether this process has a child, running or not yet reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def _small_demo() -> str:
    text = DEMO.read_text()
    for key, value in SMALL.items():
        text = re.sub(rf"^{key}\s*=.*$", f"{key} = {value}", text, flags=re.M)
    return text


def _split_runs(out: str) -> None:
    """Every run the tests below read, in process and split, pickled to out
    as {key: (in-process, split)}; each side is (result, forks, children
    left after the run), result being the run's output or (error class
    name, message)."""
    import signal

    from mhbl import diagnostics, mms, picard, transform
    from mhbl.config import parse_config
    from mhbl.fields import sample_outflow

    warnings.simplefilter("error")  # as in the test session
    forks = []  # the pids this process forked
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    os.fork = counted
    case = mms.case_library()["advection"]

    def mms_problem(nx):
        grid = mms._case_grid(case, nx, 12, 0.02)
        outflow = sample_outflow(case.outflow_spec, grid)
        source = mms.manufacture_source(case, outflow, case.params, grid)
        return (mms.exact_state(case, grid, 0.0), outflow, case.params, grid,
                source)

    def mms_solve(nx, fault=None):
        v0, outflow, params, grid, source = mms_problem(nx)
        if fault is not None:
            col, k = fault
            source[k, col, 5, 0] = np.nan
        traj, report = picard.picard_solve(
            v0, outflow, params, grid, tol=mms.PICARD_TOL,
            max_iter=mms.PICARD_MAX_ITER, source=source)
        return traj.data, report

    def demo_solve():
        cfg = parse_config(_small_demo())
        params, grid, outflow, v0, _ = cfg.problem()
        traj, report = picard.picard_solve(
            v0, outflow, params, grid, tol=float(cfg.get("picard", "tol")),
            max_iter=int(cfg.get("picard", "max_iter")))
        return traj.data, report

    measure = picard._Measure.__call__

    def interrupted(nx):
        def at_level_3(self, k, v, old):
            if old is not None and k == 3:
                raise KeyboardInterrupt
            measure(self, k, v, old)
        picard._Measure.__call__ = at_level_3
        try:
            mms_solve(nx)
        except KeyboardInterrupt:
            return "KeyboardInterrupt"
        finally:
            picard._Measure.__call__ = measure

    def helper_killed(nx):
        def at_level_2(self, k, v, old):
            if old is not None and k == 2 and forks:
                os.kill(forks[-1], signal.SIGKILL)
            measure(self, k, v, old)
        picard._Measure.__call__ = at_level_2
        try:
            return mms_solve(nx)
        finally:
            picard._Measure.__call__ = measure

    sim_dir = os.path.join(os.path.dirname(out), "simulate")
    text = re.sub(r"^dir\s*=.*$", f"dir = {sim_dir}", _small_demo(),
                  flags=re.M)
    child_time = parse_config(text).make_grid().times[CHILD_LEVEL]
    harness = os.getpid()

    def simulate():
        """run_simulate of text into a fresh directory; (exit code, stdout,
        stderr, {path: bytes} of the directory)."""
        shutil.rmtree(sim_dir, ignore_errors=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.run_simulate(text)
        files = {path.relative_to(sim_dir).as_posix(): path.read_bytes()
                 for path in sorted(Path(sim_dir).rglob("*")) if path.is_file()}
        return code, stdout.getvalue(), stderr.getvalue(), files

    def simulate_with(module, name, make):
        """simulate() with module's function name replaced by make(it)."""
        real = getattr(module, name)
        setattr(module, name, make(real))
        try:
            return simulate()
        except KeyboardInterrupt:
            return "KeyboardInterrupt"
        finally:
            setattr(module, name, real)

    def at_child_level(act):
        def make(real):
            def pullback(v_hat, *args, **kwargs):
                if v_hat.time == child_time:
                    act()
                return real(v_hat, *args, **kwargs)
            return pullback
        return make

    def fail():
        raise mhbl.DegenerateStateError(f"pullback of level {CHILD_LEVEL}")

    def die():
        if os.getpid() != harness:
            os.kill(os.getpid(), signal.SIGKILL)

    def interrupt(real):
        def residual(*args, **kwargs):
            raise KeyboardInterrupt
        return residual

    runs = {name: (lambda nx=nx: mms_solve(nx)) for name, nx in CASES[:2]}
    runs["demo"] = demo_solve
    runs.update({f"fault_{col}": (lambda f=(col, k): mms_solve(8, f))
                 for col, k in FAULTS})
    runs["interrupted"] = lambda: interrupted(8)
    runs["helper_killed"] = lambda: helper_killed(8)
    runs["simulate"] = simulate
    runs["simulate_fault"] = lambda: simulate_with(
        transform, "pullback_physical", at_child_level(fail))
    runs["simulate_child_killed"] = lambda: simulate_with(
        transform, "pullback_physical", at_child_level(die))
    runs["simulate_interrupted"] = lambda: simulate_with(
        diagnostics, "residual_transformed", interrupt)
    results = {}
    gates = stepper.SPLIT_NODES, cli.OUTPUT_SPLIT_NODES
    for key, run in runs.items():
        sides = []
        for side_gates in (gates, (0, 0)):
            stepper.SPLIT_NODES, cli.OUTPUT_SPLIT_NODES = side_gates
            forks.clear()
            try:
                got = run()
            except Exception as exc:
                got = (type(exc).__name__, str(exc))
            sides.append((got, len(forks), _children_left()))
        results[key] = tuple(sides)
    stepper.SPLIT_NODES, cli.OUTPUT_SPLIT_NODES = gates
    with open(out, "wb") as fh:
        pickle.dump(results, fh)


@pytest.fixture(scope="module")
def split_runs(tmp_path_factory):
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and os.path.isdir("/proc/self/task")):
        pytest.skip("the split needs fork, sched_getaffinity and /proc")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the split needs two CPUs")
    out = tmp_path_factory.mktemp("split") / "runs.pkl"
    done = run_capped(
        f"import test_column_split as t; t._split_runs({str(out)!r})")
    assert done.returncode == 0, done.stderr
    with open(out, "rb") as fh:
        return pickle.load(fh)


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_split_march_keeps_every_bit(split_runs, name):
    (alone, forks_alone, _), (split, forks_split, _) = split_runs[name]
    assert (forks_alone, forks_split) == (0, 1)
    (data, report), (data_split, report_split) = alone, split
    assert report.converged
    np.testing.assert_array_equal(data_split, data)
    assert report_split == report


@pytest.mark.parametrize("col,k", FAULTS, ids=["helper_side", "own_side"])
def test_split_fault_raises_as_in_process(split_runs, col, k):
    (alone, _, _), (split, forks, _) = split_runs[f"fault_{col}"]
    assert forks == 1
    assert split == alone == (
        "LinearSolveError", f"Picard iterate 1: time level {k - 1}: "
        f"non-finite implicit system in xi column {col}")


def test_split_helper_death_raises(split_runs):
    (alone, _, _), (split, forks, _) = split_runs["helper_killed"]
    assert alone[1].converged  # in process, there is no helper to kill
    assert forks == 1
    name, message = split
    assert name == "MhblError"
    assert re.fullmatch(r"time level \d+: the process stepping xi columns "
                        r"\d+\.\.7 \(pid \d+\) exited", message)


def test_split_leaves_no_helper(split_runs):
    assert split_runs["interrupted"][1][0] == "KeyboardInterrupt"
    for key, sides in split_runs.items():
        for got, forks, left in sides:
            assert not left, key


@pytest.mark.parametrize("key", ["simulate", "simulate_child_killed"])
def test_split_output_stage_writes_the_same_files(split_runs, key):
    (alone, forks_alone, _), (split, forks_split, _) = split_runs[key]
    # the split side forks the march's helper and the output stage's child
    assert (forks_alone, forks_split) == (0, 2)
    assert split == alone == split_runs["simulate"][0][0]
    code, stdout, stderr, files = alone
    assert (code, stderr) == (0, "")
    assert stdout.startswith("converged in ")
    assert {f"{kind}_{k:05d}.mhbl" for kind in ("state", "physical")
            for k in range(11)} <= set(files)


def test_split_output_child_fault_exits_as_in_process(split_runs):
    (alone, _, _), (split, forks, _) = split_runs["simulate_fault"]
    assert forks == 2
    assert split == alone
    code, stdout, stderr, files = alone
    assert (code, stdout) == (4, "")
    assert stderr == f"solver error: pullback of level {CHILD_LEVEL}\n"
    # in process, the stage stops at that level: levels 0 and 1 are written
    assert sorted(n for n in files if n.endswith(".mhbl")) == [
        "physical_00000.mhbl", "physical_00001.mhbl", "state_00000.mhbl",
        "state_00001.mhbl"]


def test_split_output_interrupt_leaves_no_child(split_runs):
    for got, forks, left in split_runs["simulate_interrupted"]:
        assert got == "KeyboardInterrupt"
        assert not left
    assert split_runs["simulate_interrupted"][1][1] == 2


def test_split_is_decided_by_size_cpus_and_threads(monkeypatch):
    # the gates alone, with the fork replaced: no process is started here
    made = []
    monkeypatch.setattr(stepper, "_Columns", lambda *args: made.append(args))
    monkeypatch.setattr(stepper, "SPLIT_NODES", 16 * 32 * 10)
    grid = mhbl.make_grid(16, 32, 8.0, 0.005, 0.05)  # 10 steps: at the size
    small = mhbl.make_grid(16, 31, 8.0, 0.005, 0.05)  # one node row below
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(os, "listdir", lambda path: ["1"])
    assert stepper._fork_columns(None, None, small, None) is None
    assert made == []
    monkeypatch.setattr(os, "listdir", lambda path: ["1", "2"])
    assert stepper._fork_columns(None, None, grid, None) is None
    monkeypatch.setattr(os, "listdir", lambda path: ["1"])
    stepper._fork_columns(None, None, grid, None)
    assert made == [(None, None, grid, None)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    made.clear()
    assert stepper._fork_columns(None, None, grid, None) is None
    assert made == []


def test_output_split_is_decided_by_size_cpus_and_threads(monkeypatch):
    # the gates alone: _forks_output starts no process
    monkeypatch.setattr(cli, "OUTPUT_SPLIT_NODES", 8 * 32 * 96)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(os, "listdir", lambda path: ["1"])
    assert cli._forks_output(8, 32, 96)  # at the size
    assert not cli._forks_output(7, 32, 96)  # one level below
    assert not cli._forks_output(8, 32, 95)  # one y node below
    monkeypatch.setattr(os, "listdir", lambda path: ["1", "2"])
    assert not cli._forks_output(8, 32, 96)
    monkeypatch.setattr(os, "listdir", lambda path: ["1"])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not cli._forks_output(8, 32, 96)


def test_split_marches_in_process_when_the_fork_fails(monkeypatch):
    from mhbl import mms

    case = mms.case_library()["advection"]
    traj, report, _ = mms.solve_case(case, 8, 12, 0.02)
    listdir = os.listdir
    fds = len(listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(stepper, "SPLIT_NODES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(os, "listdir", lambda path: (
        ["1"] if path == "/proc/self/task" else listdir(path)))
    monkeypatch.setattr(os, "fork", no_fork)
    again, report_again, _ = mms.solve_case(case, 8, 12, 0.02)
    np.testing.assert_array_equal(again.data, traj.data)
    assert report_again == report
    if fds:
        assert len(listdir("/proc/self/fd")) == fds  # the pipes are closed
