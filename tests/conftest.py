"""Helpers shared by the test modules."""

import importlib.util
import tracemalloc
from pathlib import Path

#: tools/reference_outputs.py, loaded as a module: the reference runs, the
#: host fingerprint and the golden digests it pins
_TOOL = Path(__file__).resolve().parents[1] / "tools" / "reference_outputs.py"
_spec = importlib.util.spec_from_file_location("reference_outputs", _TOOL)
reference_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference_outputs)


def traced_peak(fn, *args, **kw):
    """Call fn(*args, **kw) under tracemalloc; return its result and the
    peak of traced memory during the call, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args, **kw)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
