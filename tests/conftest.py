"""Helpers shared by the test modules."""

import importlib.util
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mhbl

#: tools/reference_outputs.py, loaded as a module: the reference runs, the
#: host fingerprint and the golden digests it pins
_TOOL = Path(__file__).resolve().parents[1] / "tools" / "reference_outputs.py"
_spec = importlib.util.spec_from_file_location("reference_outputs", _TOOL)
reference_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference_outputs)

#: what sets the numerical backend's thread count
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def run_capped(code: str, cwd=None) -> subprocess.CompletedProcess:
    """Run python -c code in a fresh interpreter with the numerical backend
    on one thread, as the command line runs it, and the package and the
    test modules on the import path.  A process that has loaded numpy's
    threaded BLAS has more than one OS thread, and then neither split
    forks (stepper._may_fork), so the split paths run only there."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update({var: "1" for var in THREAD_VARS})
    here = Path(__file__).resolve().parent
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(mhbl.__file__).resolve().parents[1]), str(here)]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def traced_peak(fn, *args, **kw):
    """Call fn(*args, **kw) under tracemalloc; return its result and the
    peak of traced memory during the call, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args, **kw)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
