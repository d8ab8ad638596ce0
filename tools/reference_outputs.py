"""Write the outputs whose bits a change that keeps the numbers must keep.

    python tools/reference_outputs.py <out_dir>

Runs the code of the checkout this script sits in (its src/ goes first on
the import path) and writes into out_dir:

    demo/                 mhbl simulate of configs/demo.ini
    report_demo.txt       that run's IterationReport: every list, one per
                          line, as float.hex (admissible as True/False),
                          then its scalar fields
    wide/                 the same physics at nx=256, neta=32, ny=512
    mms_advection.txt     criterion 04's advection study: per resolution
                          the errors, then the fitted orders, as float.hex
    report_mms.txt        that study's IterationReports: per resolution a
                          line "resolution nx neta", then the report as in
                          report_demo.txt
    outflow_demo.npy      outflow_consistency(...).fields of the demo's
                          outflow, and of travelling traces in
    outflow_travelling.npy  U, Theta, H, P and theta_star

Run it once in each of two checkouts, then compare with

    diff -r <out_dir of one> <out_dir of the other>

No output means the two compute the same bits.  Each simulate run writes
into a directory named relative to out_dir, so config.ini's dir line is the
same in both.  Against a checkout from before [outflow] mode and [picard]
on_admissibility_loss were removed, demo/config.ini and wide/config.ini
differ by exactly those two lines, and every other file is the same.
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
from mhbl.config import parse_config  # noqa: E402
from mhbl.diagnostics import outflow_consistency  # noqa: E402
from mhbl.fields import sample_outflow  # noqa: E402

#: the grid of the benchmark's simulate_wide workload
WIDE = {"nx": 256, "neta": 32, "ny": 512}
#: criterion 04's resolutions
MMS_RESOLUTIONS = ((16, 32), (32, 64), (64, 128))
REPORT_LISTS = ("distances", "ratios", "admissible", "norm_history", "margins",
                "min_Q")
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
def _recording_reports(module):
    """Collect the IterationReport of every picard_solve that module runs
    through its attribute picard_solve."""
    reports, real = [], module.picard_solve

    def recording(*args, **kwargs):
        traj, report = real(*args, **kwargs)
        reports.append(report)
        return traj, report

    module.picard_solve = recording
    try:
        yield reports
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


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    demo = (ROOT / "configs" / "demo.ini").read_text()
    os.makedirs(argv[0], exist_ok=True)
    os.chdir(argv[0])

    with _recording_reports(picard) as reports:
        _simulate(demo, "demo")
    with open("report_demo.txt", "w") as fh:
        _write_report(reports[0], fh)
    wide = demo
    for key, value in WIDE.items():
        wide = _set_key(wide, key, str(value))
    _simulate(wide, "wide")

    with _recording_reports(mms) as reports:
        result = mms.convergence_study(mms.case_library()["advection"],
                                       MMS_RESOLUTIONS, mode="spatial")
    with open("report_mms.txt", "w") as fh:
        for (nx, neta), report in zip(MMS_RESOLUTIONS, reports, strict=True):
            fh.write(f"resolution {nx} {neta}\n")
            _write_report(report, fh)
    with open("mms_advection.txt", "w") as fh:
        for row in result.rows:
            fh.write(f"{row.nx} {row.neta} {row.dt.hex()} "
                     + " ".join(e.hex() for e in row.errors) + "\n")
        fh.write("orders " + " ".join(o.hex() for o in result.orders) + "\n")

    _outflow_fields(demo, "outflow_demo.npy")
    travelling = demo
    for key, value in TRAVELLING.items():
        travelling = _set_key(travelling, key, value)
    _outflow_fields(travelling, "outflow_travelling.npy")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
