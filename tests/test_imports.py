"""What a process loads: the command line loads no numerics before it caps
the backend's threads, and of scipy the package loads only its f2py LAPACK
module, from its file.

Each check runs in a fresh interpreter, since this one has long loaded
numpy and scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mhbl

SRC = Path(mhbl.__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def run_fresh(code, **env):
    full = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    full["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    full.update(env)
    done = subprocess.run([sys.executable, "-c", code], env=full,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_command_line_import_loads_no_numerics():
    assert run_fresh("import sys, mhbl.cli; print('numpy' in sys.modules)") \
        == ["False"]


def test_submodules_leave_unused_scipy_unloaded():
    loaded = run_fresh(
        "import pkgutil, importlib, sys, mhbl\n"
        "for m in pkgutil.iter_modules(mhbl.__path__):\n"
        "    if m.name != '__main__':\n"
        "        importlib.import_module('mhbl.' + m.name)\n"
        "print(*sorted(n for n in ('scipy.integrate', 'scipy.interpolate',\n"
        "      'scipy.optimize', 'scipy.linalg', 'numpy.f2py')\n"
        "      if n in sys.modules))")
    assert loaded == []


def test_stepper_lapack_routines_are_scipys_own():
    same = run_fresh(
        "import mhbl.stepper as stepper\n"
        "from scipy.linalg import lapack\n"
        "print(stepper.dgbsv is lapack.dgbsv, stepper.dgtsv is lapack.dgtsv)")
    assert same == ["True", "True"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads through /proc")
@pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": "2"}],
                         ids=["unset", "user_sets_2"])
def test_thread_cap_reaches_the_backend_from_the_command_line(env):
    if env and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts no second thread on one CPU")
    threads = run_fresh(
        "import os\n"
        "from mhbl.cli import main\n"
        "main(['info', 'missing.mhbl'])\n"
        "import mhbl.stepper, mhbl.transform\n"
        "print(len(os.listdir('/proc/self/task')))", **env)
    if env:
        assert int(threads[0]) > 1
    else:
        assert threads == ["1"]


def test_package_names_resolve_to_the_submodules():
    from mhbl import picard, transform

    assert mhbl.picard_solve is picard.picard_solve
    assert mhbl.transform is transform
    assert set(mhbl.__all__) <= set(dir(mhbl))
    namespace = {}
    exec("from mhbl import *", namespace)
    assert namespace["stream_from_h1"] is transform.stream_from_h1
    with pytest.raises(AttributeError):
        mhbl.no_such_name
