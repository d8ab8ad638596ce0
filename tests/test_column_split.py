"""The march split over two processes (stepper._fork_columns): the same
bits, the same errors, and no helper process left behind.

A fork is refused in a process with more than one OS thread, and this one
has loaded numpy's threaded BLAS, so the split runs are made in a fresh
interpreter with the BLAS capped at one thread (_split_runs); each is
compared with an in-process run made there too.  SPLIT_NODES is set to 0
there, so that tiny grids split.
"""

import os
import pickle
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mhbl
from mhbl import stepper

SRC = Path(mhbl.__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
DEMO = HERE.parent / "configs" / "demo.ini"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
#: (name, nx): an MMS case with a source, odd nx too, and the demo's physics
CASES = (("mms", 8), ("mms_odd_nx", 9), ("demo", 8))
#: (xi column, time level) of a NaN put in the 8-column MMS source: on the
#: helper's side and on this process's side
FAULTS = ((6, 4), (1, 4))


def _children_left() -> bool:
    """Whether this process has a child, running or not yet reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def _split_runs(out: str) -> None:
    """Every run the tests below read, in process and split, pickled to out
    as {key: (in-process, split)}; each side is (result, forks, children
    left after the run), result being the run's output or (error class
    name, message)."""
    import signal

    from mhbl import mms, picard
    from mhbl.config import parse_config
    from mhbl.fields import sample_outflow

    warnings.simplefilter("error")  # as in the test session
    forks = []
    fork = stepper._Columns.__init__

    def counted(self, *args):
        fork(self, *args)  # the helper never returns from it
        forks.append(self)

    stepper._Columns.__init__ = counted
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
        text = DEMO.read_text()
        for key, value in (("nx", "8"), ("neta", "16"), ("ny", "24")):
            text = re.sub(rf"^{key}\s*=.*$", f"{key} = {value}", text,
                          flags=re.M)
        cfg = parse_config(text)
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
                os.kill(forks[-1].pid, signal.SIGKILL)
            measure(self, k, v, old)
        picard._Measure.__call__ = at_level_2
        try:
            return mms_solve(nx)
        finally:
            picard._Measure.__call__ = measure

    runs = {name: (lambda nx=nx: mms_solve(nx)) for name, nx in CASES[:2]}
    runs["demo"] = demo_solve
    runs.update({f"fault_{col}": (lambda f=(col, k): mms_solve(8, f))
                 for col, k in FAULTS})
    runs["interrupted"] = lambda: interrupted(8)
    runs["helper_killed"] = lambda: helper_killed(8)
    results = {}
    nodes = stepper.SPLIT_NODES
    for key, run in runs.items():
        sides = []
        for split_nodes in (nodes, 0):
            stepper.SPLIT_NODES = split_nodes
            forks.clear()
            try:
                got = run()
            except Exception as exc:
                got = (type(exc).__name__, str(exc))
            sides.append((got, len(forks), _children_left()))
        results[key] = tuple(sides)
    stepper.SPLIT_NODES = nodes
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
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-c",
         f"import test_column_split as t; t._split_runs({str(out)!r})"],
        env=env, capture_output=True, text=True, timeout=300)
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
                        r"4\.\.7 \(pid \d+\) exited", message)


def test_split_leaves_no_helper(split_runs):
    assert split_runs["interrupted"][1][0] == "KeyboardInterrupt"
    for key, sides in split_runs.items():
        for got, forks, left in sides:
            assert not left, key


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
