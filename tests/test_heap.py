"""The solver fixes glibc's malloc thresholds (mhbl._heap): a freed level
stack goes back to the system instead of staying in the heap, where the
placement of later small blocks decided whether the next one fit.

Checked in a fresh interpreter, whose allocator has not yet been tuned.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import mhbl

SRC = Path(mhbl.__file__).resolve().parents[1]

# resident MiB left after three 24 MiB arrays are made and freed; glibc's
# default raises its mmap threshold on the first free and then keeps the
# next ones in the heap
LEFT_RESIDENT = """
import os, sys
import numpy as np
if sys.argv[1] == "solver":
    import mhbl.stepper
page = os.sysconf("SC_PAGE_SIZE")
def rss():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * page
base = rss()
for _ in range(3):
    a = np.ones(3 << 20)
    del a
print((rss() - base) / 2 ** 20)
"""


def left_resident(mode):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", LEFT_RESIDENT, mode],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return float(done.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc"
                    or not os.path.exists("/proc/self/statm"),
                    reason="glibc's malloc, resident size from /proc")
def test_freed_level_stacks_leave_the_heap():
    assert left_resident("plain") > 16.0  # the default keeps one
    assert left_resident("solver") < 4.0


def test_steady_defers_to_thresholds_set_in_the_environment(monkeypatch):
    from mhbl import _heap

    monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "131072")
    assert _heap.steady() is False
