"""Binary snapshots and CSV plot data.

Snapshot layout (little endian throughout):

    bytes 0..3   magic "MHBL"
    bytes 4..7   format version, u32 (currently 1)
    bytes 8..11  nx, u32
    bytes 12..15 second grid size, u32 (neta for transformed states, ny for
                 physical ones)
    bytes 16..23 time, f64
    byte  24     field-set tag, u8: 1 = transformed (u1, theta, q),
                 2 = physical (rho, u1, u2, theta, h1, h2)
    then the fields in that order, f64, eta (or y) index fastest.

Writing the same state twice produces byte-identical files; reading returns
exactly the written arrays, read-only.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass
from typing import Dict, List, Union

import numpy as np

from .diagnostics import ResidualReport
from .errors import SnapshotFormatError
from .fields import FloatArray, State
from .picard import IterationReport
from .stepper import Trajectory
from .transform import PhysicalState

MAGIC = b"MHBL"
VERSION = 1
TAG_TRANSFORMED = 1
TAG_PHYSICAL = 2
_TRANSFORMED_FIELDS = ("u1", "theta", "q")
_PHYSICAL_FIELDS = ("rho", "u1", "u2", "theta", "h1", "h2")
_HEADER = struct.Struct("<4sIIIdB")


@dataclass(frozen=True)
class Snapshot:
    """Decoded snapshot: a tag, the grid sizes, the time and the fields."""

    tag: int
    nx: int
    n2: int
    time: float
    fields: Dict[str, FloatArray]

    @property
    def kind(self) -> str:
        return "transformed" if self.tag == TAG_TRANSFORMED else "physical"


def write_snapshot(state: Union[State, PhysicalState], path: str) -> None:
    """Serialize a transformed or physical state; fields that do not share
    one 2-d shape raise SnapshotFormatError before path is opened."""
    if isinstance(state, State):
        tag, names = TAG_TRANSFORMED, _TRANSFORMED_FIELDS
    elif isinstance(state, PhysicalState):
        tag, names = TAG_PHYSICAL, _PHYSICAL_FIELDS
    else:
        raise SnapshotFormatError(f"cannot snapshot a {type(state).__name__}")
    arrays = [np.ascontiguousarray(getattr(state, n), dtype="<f8") for n in names]
    shapes = {n: arr.shape for n, arr in zip(names, arrays)}
    if len(set(shapes.values())) != 1 or arrays[0].ndim != 2:
        raise SnapshotFormatError(f"cannot snapshot fields of shapes {shapes}:"
                                  " the header holds one 2-d shape (nx, n2)")
    nx, n2 = arrays[0].shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, nx, n2, float(state.time), tag))
        for arr in arrays:
            fh.write(arr)  # through the buffer: no copy of the field


def read_snapshot(path: str) -> Snapshot:
    """Decode a snapshot; malformed input raises SnapshotFormatError.

    The file size is checked against the header before any field is read,
    and each field is read straight into its own array, which is returned
    read-only, so State(**snap.fields) and PhysicalState(**snap.fields)
    adopt the arrays without a copy.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise SnapshotFormatError(
                f"truncated header: {size} bytes < {_HEADER.size}")
        magic, version, nx, n2, time, tag = _HEADER.unpack(
            fh.read(_HEADER.size))
        if magic != MAGIC:
            raise SnapshotFormatError(f"bad magic {magic!r} at offset 0")
        if version != VERSION:
            raise SnapshotFormatError(
                f"unsupported snapshot version {version} (expected {VERSION})")
        if tag == TAG_TRANSFORMED:
            names = _TRANSFORMED_FIELDS
        elif tag == TAG_PHYSICAL:
            names = _PHYSICAL_FIELDS
        else:
            raise SnapshotFormatError(f"unknown field-set tag {tag} at offset 24")
        per_field = 8 * nx * n2
        expected = _HEADER.size + per_field * len(names)
        if size != expected:
            raise SnapshotFormatError(
                f"payload length {size} != expected {expected} "
                f"(truncation at offset {min(size, expected)})")
        fields: Dict[str, FloatArray] = {}
        for i, name in enumerate(names):
            arr = np.empty((nx, n2), dtype="<f8")
            got = fh.readinto(arr)
            if got != per_field:  # the file shrank while being read
                raise SnapshotFormatError(
                    f"truncation at offset {_HEADER.size + i * per_field + got}"
                    f" (expected {expected} bytes)")
            arr.setflags(write=False)
            fields[name] = arr
    return Snapshot(tag=tag, nx=nx, n2=n2, time=time, fields=fields)


def _write_csv(path: str, header: List[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)


def emit_plot_data(obj, out_dir: str, grid=None) -> List[str]:
    """Write plain CSV plot data for a Trajectory, an IterationReport or a
    ResidualReport.

    Trajectories produce one profile file per component (eta against the
    field at the first xi node, one column per stored time level) and a
    gnuplot script referencing them.  Iteration reports produce the
    contraction history, with each iterate's norm, margin and min_Q.
    Residual reports produce residuals.csv, one row per equation, numbered
    in the order of ResidualReport.equations.  Returns the list of files
    written.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []
    if isinstance(obj, Trajectory):
        if obj.nlevels == 0 or obj.data.size == 0:
            raise SnapshotFormatError("cannot plot an empty trajectory")
        if grid is None:
            raise SnapshotFormatError("trajectory plots need the grid")
        eta = grid.eta
        names = ("u1", "theta", "q")
        for c, name in enumerate(names):
            path = os.path.join(out_dir, f"profile_{name}.csv")
            header = ["eta"] + [f"t={t:.6g}" for t in obj.times]
            cols = [eta] + [obj.data[k, 0, :, c] for k in range(obj.nlevels)]
            rows = list(zip(*[np.asarray(col) for col in cols]))
            _write_csv(path, header, rows)
            written.append(path)
        gp = os.path.join(out_dir, "plots.gp")
        with open(gp, "w") as fh:
            fh.write("set datafile separator ','\nset key autotitle columnhead\n")
            for name in names:
                fh.write(f"plot for [c=2:*] 'profile_{name}.csv' "
                         f"using 1:c with lines title columnhead\npause -1\n")
        written.append(gp)
        return written
    if isinstance(obj, IterationReport):
        path = os.path.join(out_dir, "iterations.csv")
        rows = []
        for n, (prev, rec) in enumerate(zip(obj.iterates, obj.iterates[1:]), 1):
            ratio = (rec.distance / prev.distance
                     if n >= 2 and prev.distance > 0.0 else "")
            rows.append([n, f"{rec.distance:.12e}", ratio, rec.admissible,
                         f"{rec.norm:.12e}", f"{rec.margin:.12e}",
                         f"{rec.min_Q:.12e}"])
        _write_csv(path, ["iteration", "distance", "ratio", "admissible",
                          "norm", "margin", "min_Q"], rows)
        written.append(path)
        return written
    if isinstance(obj, ResidualReport):
        path = os.path.join(out_dir, "residuals.csv")
        rows = [[i, f"{m:.12e}", f"{l:.12e}"]
                for i, (m, l) in enumerate(zip(obj.max_norm, obj.l2_norm))]
        _write_csv(path, ["equation", "max_norm", "l2_norm"], rows)
        written.append(path)
        return written
    raise SnapshotFormatError(f"do not know how to plot {type(obj).__name__}")
