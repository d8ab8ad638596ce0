"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(fn, *args, **kw):
    """Call fn(*args, **kw) under tracemalloc; return its result and the
    peak of traced memory during the call, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args, **kw)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
