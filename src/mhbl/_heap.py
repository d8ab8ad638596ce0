"""Fixed malloc thresholds, so that a solve's peak memory is its live data.

The largest arrays of a solve are its level stacks, one (nx, neta, 3) state
per time level: the manufactured source and the zeroth approximation,
each made once per solve; every Picard iterate then overwrites the one
trajectory in place, level by level.  glibc serves a block from a mapping
of its own when it is at least the mmap threshold, which starts at
128 KiB and rises to the size of every mapped block that is freed, up to
32 MiB; the trim threshold, the free space kept at the top of the heap,
follows at twice that.  A stack under 32 MiB (the 64 x 128 advection
case's is 31.7 MiB) therefore moves into the heap once the first one is
freed.  There a small block that lands between two freed stacks keeps the
next one from fitting, and the heap grows by a whole stack.  Whether that
happens depends on when unrelated small blocks are allocated, so in some
runs the same solve peaked about 26 MB higher.

steady() fixes both thresholds instead: blocks of 4 MiB and more always get
their own mapping, returned whole when freed, and smaller ones come from
the heap, whose free top is kept up to 32 MiB so that the march's per-step
temporaries (about 1 MB each) are reused rather than returned and faulted
back in on every step.  It changes nothing on other C libraries, or when
the environment already sets either threshold.
"""

from __future__ import annotations

import ctypes
import os
import sys

#: blocks of at least this many bytes get a mapping of their own
MMAP_THRESHOLD = 4 << 20
#: free space kept at the top of the heap before it is returned
TRIM_THRESHOLD = 32 << 20

# mallopt parameter numbers, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def steady() -> bool:
    """Fix glibc's mmap and trim thresholds; True if both were set."""
    env = os.environ
    if (not sys.platform.startswith("linux")
            or "MALLOC_MMAP_THRESHOLD_" in env or "MALLOC_TRIM_THRESHOLD_" in env
            or "_threshold" in env.get("GLIBC_TUNABLES", "")):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)) \
        and bool(mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))
