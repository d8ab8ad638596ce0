"""Write the outputs whose bits a change that keeps the numbers must keep.

    python tools/reference_outputs.py <out_dir>
    python tools/reference_outputs.py --pin

Runs the code of the checkout this script sits in (its src/ goes first on
the import path) and writes into out_dir:

    demo/                 mhbl simulate of configs/demo.ini
    report_demo.txt       that run's IterationReport: every list, one per
                          line, as float.hex (admissible as True/False),
                          then its scalar fields
    wide/                 the same physics at nx=256, neta=32, ny=512
    travelling/           the demo under the travelling outflow traces below,
                          at nx=100, neta=24, ny=300: a pressure row that
                          changes along xi and with t, and a last block of
                          xi rows shorter than the others
    audit.txt             per physical snapshot of demo/, wide/ and
                          travelling/, its path and the divergence and
                          total-pressure maxima of check_physical_constraints,
                          as float.hex
    mms_advection.txt     criterion 04's advection study: per resolution
                          the errors, then the fitted orders, as float.hex
    report_mms.txt        that study's IterationReports: per resolution a
                          line "resolution nx neta", then the report as in
                          report_demo.txt
    outflow_demo.npy      outflow_consistency(...).fields of the demo's
                          outflow, and of travelling traces in
    outflow_travelling.npy  U, Theta, H, P and theta_star
    identities.txt        the stdout of mhbl check-identities, then per
                          order k = 0, 1, 2 its energy_functional as
                          float.hex, on the demo's last transformed
                          level (vbar = 0, frozen at that level, its
                          outflow pressure row)

Run it once in each of two checkouts, then compare with

    diff -r <out_dir of one> <out_dir of the other>

No output means the two compute the same bits.  Each simulate run writes
into a directory named relative to out_dir, so config.ini's dir line is the
same in both.  Against a checkout from before [outflow] mode and [picard]
on_admissibility_loss were removed, demo/config.ini and wide/config.ini
differ by exactly those two lines.  Against one from before [picard]
compat_order was removed, the config.ini of demo/, wide/ and travelling/
also differ by its line "compat_order = 1", and each iterations.csv by the
norm, margin and min_Q columns appended to its first four; every other file
is the same.  Against one from before [output] emit_plots was removed,
the config.ini of demo/, wide/ and travelling/ differ by its line
"emit_plots = true" and no other file differs.

--pin runs demo/, travelling/ and wide/ in a temporary directory and the
advection study of mms_advection.txt, and writes into
tests/golden/digests.json, under the fingerprint of the running host
(numpy and scipy versions, machine, and the OpenBLAS core scipy's LAPACK
runs on), the sha256 of every file the runs write and, as mms_advection,
the lines of mms_advection.txt.  tests/test_golden.py reruns the three
runs and compares; criterion 04 of tests/test_acceptance.py compares its
advection study with the lines.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from mhbl import cli, mms, picard  # noqa: E402
from mhbl.snapshots import read_snapshot  # noqa: E402
from mhbl.transform import (  # noqa: E402
    PhysicalState,
    check_physical_constraints,
)
from mhbl.config import parse_config  # noqa: E402
from mhbl.diagnostics import (  # noqa: E402
    energy_functional,
    outflow_consistency,
)

DEMO = ROOT / "configs" / "demo.ini"
#: the simulate runs pinned in DIGESTS, by their directory names
PINNED_RUNS = ("demo", "travelling", "wide")
DIGESTS = ROOT / "tests" / "golden" / "digests.json"
#: the grid of the benchmark's simulate_wide workload
WIDE = {"nx": 256, "neta": 32, "ny": 512}
#: criterion 04's resolutions
MMS_RESOLUTIONS = ((16, 32), (32, 64), (64, 128))
REPORT_LISTS = ("distances", "ratios", "admissible", "norm_history", "margins",
                "min_Q")
#: the grid of the travelling simulate run
TRAVELLING_GRID = {"nx": 100, "neta": 24, "ny": 300}
TRAVELLING = {"U": "0.1*sin(xi - t)", "Theta": "1.0 + 0.1*cos(xi - t)",
              "H": "1.5 + 0.05*sin(xi - t)", "P": "1.5 + 0.1*cos(xi - t)",
              "theta_star": "1.0"}


def _set_key(text: str, key: str, value: str) -> str:
    """Replace the single ``key = ...`` line of an INI text."""
    new, n = re.subn(rf"^{re.escape(key)}\s*=.*$", f"{key} = {value}", text,
                     flags=re.MULTILINE)
    if n != 1:
        raise ValueError(f"expected one '{key} =' line in the config, found {n}")
    return new


def _with(text: str, values: Dict[str, object]) -> str:
    for key, value in values.items():
        text = _set_key(text, key, str(value))
    return text


def simulate_configs() -> Dict[str, str]:
    """The configuration text of each simulate run, by its directory
    name: demo, wide and travelling."""
    demo = DEMO.read_text()
    return {"demo": demo, "wide": _with(demo, WIDE),
            "travelling": _with(_with(demo, TRAVELLING), TRAVELLING_GRID)}


def fingerprint() -> str:
    """What the bits of a run depend on besides the code: the numpy and
    scipy versions, the machine, and the core that scipy's bundled
    OpenBLAS picked at load time ("unknown" without one), since dgbsv's
    update runs that core's fused multiply-adds."""
    core = "unknown"
    libs = Path(scipy.__file__).parent.parent / "scipy.libs"
    lib = next(libs.glob("libscipy_openblas*.so"), None)
    if lib is not None:
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return (f"numpy {np.__version__}, scipy {scipy.__version__}, "
            f"{platform.machine()}, {core}")


def run_digests() -> Dict[str, str]:
    """Run PINNED_RUNS into the current directory; the sha256 of every
    file they write, by its path relative to it."""
    configs = simulate_configs()
    for name in PINNED_RUNS:
        _simulate(configs[name], name)
    return {path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for name in PINNED_RUNS for path in sorted(Path(name).rglob("*"))
            if path.is_file()}


def mms_lines(result) -> List[str]:
    """The lines of mms_advection.txt for a StudyResult: per resolution
    nx, neta, dt and the errors, then the fitted orders, as float.hex."""
    return [f"{row.nx} {row.neta} {row.dt.hex()} "
            + " ".join(e.hex() for e in row.errors) for row in result.rows] \
        + ["orders " + " ".join(o.hex() for o in result.orders)]


def _mms_study():
    return mms.convergence_study(mms.case_library()["advection"],
                                 MMS_RESOLUTIONS, mode="spatial")


def _pin() -> None:
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            entry = run_digests()
        finally:
            os.chdir(cwd)
    entry["mms_advection"] = mms_lines(_mms_study())
    pinned[fingerprint()] = entry
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


def _simulate(text: str, name: str) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run_simulate(_set_key(text, "dir", name))
    if code != 0:
        raise SystemExit(f"simulate {name} exited {code}")


@contextlib.contextmanager
def _recording_runs(module):
    """Collect the (Trajectory, IterationReport) of every picard_solve that
    module runs through its attribute picard_solve."""
    runs, real = [], module.picard_solve

    def recording(*args, **kwargs):
        run = real(*args, **kwargs)
        runs.append(run)
        return run

    module.picard_solve = recording
    try:
        yield runs
    finally:
        module.picard_solve = real


def _write_report(report, fh) -> None:
    for name in REPORT_LISTS:
        values = getattr(report, name)
        words = (str(v) if name == "admissible" else float(v).hex()
                 for v in values)
        fh.write(" ".join([name, *words]) + "\n")
    for name in ("converged", "iterations", "aborted", "message"):
        fh.write(f"{name} {getattr(report, name)!r}\n")


def _outflow_fields(text: str, path: str) -> None:
    params, _, outflow, _, _ = parse_config(text).problem()
    np.save(path, outflow_consistency(outflow, params).fields)


def _audit(run_dirs, path: str) -> None:
    """Write check_physical_constraints of every physical snapshot in the
    run directories, under the outflow and y grid that each run's
    config.ini sets up."""
    with open(path, "w") as fh:
        for run_dir in run_dirs:
            params, _, outflow, _, y = parse_config(
                Path(run_dir, "config.ini").read_text()).problem()
            for snap_path in sorted(Path(run_dir).glob("physical_*.mhbl")):
                snap = read_snapshot(str(snap_path))
                ps = PhysicalState(y_nodes=y, time=snap.time, **snap.fields)
                maxima = check_physical_constraints(ps, outflow, params)
                fh.write(" ".join([snap_path.as_posix(),
                                   *(m.hex() for m in maxima)]) + "\n")


def _identities(text: str, traj, path: str) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run_check_identities()
    if code != 0:
        raise SystemExit(f"check-identities exited {code}")
    params, grid, outflow, _, _ = parse_config(text).problem()
    level = traj.state(traj.nlevels - 1)
    with open(path, "w") as fh:
        fh.write(out.getvalue())
        for k in range(3):
            energy = energy_functional(level, 0.0, level, k, grid, params,
                                       outflow.P[-1])
            fh.write(f"energy_functional {k} {float(energy).hex()}\n")


def main(argv) -> int:
    if argv == ["--pin"]:
        _pin()
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print("\n".join(__doc__.strip().splitlines()[2:4]), file=sys.stderr)
        return 2
    configs = simulate_configs()
    demo = configs["demo"]
    os.makedirs(argv[0], exist_ok=True)
    os.chdir(argv[0])

    with _recording_runs(picard) as runs:
        _simulate(demo, "demo")
    [(traj, report)] = runs
    with open("report_demo.txt", "w") as fh:
        _write_report(report, fh)
    _simulate(configs["wide"], "wide")
    _simulate(configs["travelling"], "travelling")
    _audit(("demo", "wide", "travelling"), "audit.txt")

    with _recording_runs(mms) as runs:
        result = _mms_study()
    with open("report_mms.txt", "w") as fh:
        for (nx, neta), (_, report) in zip(MMS_RESOLUTIONS, runs, strict=True):
            fh.write(f"resolution {nx} {neta}\n")
            _write_report(report, fh)
    with open("mms_advection.txt", "w") as fh:
        fh.write("".join(line + "\n" for line in mms_lines(result)))

    _outflow_fields(demo, "outflow_demo.npy")
    _outflow_fields(_with(demo, TRAVELLING), "outflow_travelling.npy")
    _identities(demo, traj, "identities.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
