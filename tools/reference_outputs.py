"""Write the outputs whose bits a change that keeps the numbers must keep.

    python tools/reference_outputs.py <out_dir>

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
                          k = 0, 1, 2 the energy_functional of NormSpec(k)
                          as float.hex, on the demo's last transformed
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
is the same.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from mhbl import cli, mms, picard  # noqa: E402
from mhbl.snapshots import read_snapshot  # noqa: E402
from mhbl.transform import (  # noqa: E402
    PhysicalState,
    check_physical_constraints,
)
from mhbl.config import parse_config  # noqa: E402
from mhbl.diagnostics import (  # noqa: E402
    NormSpec,
    energy_functional,
    outflow_consistency,
)
from mhbl.fields import sample_outflow  # noqa: E402

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
    cfg = parse_config(text)
    outflow = sample_outflow(cfg.outflow_spec(), cfg.make_grid())
    np.save(path, outflow_consistency(outflow, cfg.make_params()).fields)


def _audit(run_dirs, path: str) -> None:
    """Write check_physical_constraints of every physical snapshot in the
    run directories, under the outflow and y grid of each run's config.ini."""
    with open(path, "w") as fh:
        for run_dir in run_dirs:
            cfg = parse_config(Path(run_dir, "config.ini").read_text())
            outflow = sample_outflow(cfg.outflow_spec(), cfg.make_grid())
            y = np.linspace(0.0, cfg.getfloat("initial", "y_max"),
                            cfg.getint("initial", "ny"))
            for snap_path in sorted(Path(run_dir).glob("physical_*.mhbl")):
                snap = read_snapshot(str(snap_path))
                ps = PhysicalState(y_nodes=y, time=snap.time, **snap.fields)
                maxima = check_physical_constraints(ps, outflow,
                                                    cfg.make_params())
                fh.write(" ".join([snap_path.as_posix(),
                                   *(m.hex() for m in maxima)]) + "\n")


def _identities(text: str, traj, path: str) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run_check_identities()
    if code != 0:
        raise SystemExit(f"check-identities exited {code}")
    cfg = parse_config(text)
    grid = cfg.make_grid()
    outflow = sample_outflow(cfg.outflow_spec(), grid)
    level = traj.state(traj.nlevels - 1)
    with open(path, "w") as fh:
        fh.write(out.getvalue())
        for k in range(3):
            energy = energy_functional(level, 0.0, level, NormSpec(k), grid,
                                       cfg.make_params(), outflow.P[-1])
            fh.write(f"energy_functional {k} {float(energy).hex()}\n")


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    demo = (ROOT / "configs" / "demo.ini").read_text()
    os.makedirs(argv[0], exist_ok=True)
    os.chdir(argv[0])

    with _recording_runs(picard) as runs:
        _simulate(demo, "demo")
    [(traj, report)] = runs
    with open("report_demo.txt", "w") as fh:
        _write_report(report, fh)
    wide = demo
    for key, value in WIDE.items():
        wide = _set_key(wide, key, str(value))
    _simulate(wide, "wide")
    travelling = demo
    for key, value in TRAVELLING.items():
        travelling = _set_key(travelling, key, value)
    travelling_run = travelling
    for key, value in TRAVELLING_GRID.items():
        travelling_run = _set_key(travelling_run, key, str(value))
    _simulate(travelling_run, "travelling")
    _audit(("demo", "wide", "travelling"), "audit.txt")

    with _recording_runs(mms) as runs:
        result = mms.convergence_study(mms.case_library()["advection"],
                                       MMS_RESOLUTIONS, mode="spatial")
    with open("report_mms.txt", "w") as fh:
        for (nx, neta), (_, report) in zip(MMS_RESOLUTIONS, runs, strict=True):
            fh.write(f"resolution {nx} {neta}\n")
            _write_report(report, fh)
    with open("mms_advection.txt", "w") as fh:
        for row in result.rows:
            fh.write(f"{row.nx} {row.neta} {row.dt.hex()} "
                     + " ".join(e.hex() for e in row.errors) + "\n")
        fh.write("orders " + " ".join(o.hex() for o in result.orders) + "\n")

    _outflow_fields(demo, "outflow_demo.npy")
    _outflow_fields(travelling, "outflow_travelling.npy")
    _identities(demo, traj, "identities.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
