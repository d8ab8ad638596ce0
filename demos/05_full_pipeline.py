"""Run the complete pipeline and audit every artifact it leaves behind.

One call to the simulation driver covers the whole chain: parse a config,
sample the outflow traces, transform the initial profiles to stream
coordinates, iterate the frozen-coefficient solve, pull the trajectory
back to physical variables, and write binary snapshots plus CSV
summaries.  This script then replays the audits a cautious user would do:

  * re-read every snapshot and check the magnetic divergence and
    total-pressure constraints on the physical fields,
  * confirm the outflow traces satisfy the boundary restriction of the
    system (exactly, for constant traces),
  * evaluate the wall trace inequality on the final temperature,
  * re-run the driver and confirm the snapshot bytes are identical.
"""

import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from mhbl import (
    outflow_consistency,
    read_snapshot,
    sample_outflow,
    trace_check,
)
from mhbl.cli import run_simulate
from mhbl.config import parse_config
from mhbl.transform import PhysicalState, check_physical_constraints

HERE = os.path.dirname(os.path.abspath(__file__))
DEMO_INI = os.path.join(HERE, "..", "configs", "demo.ini")


def physical_state(snap, y_max):
    y = np.linspace(0.0, y_max, snap.fields["rho"].shape[1])
    return PhysicalState(rho=snap.fields["rho"], u1=snap.fields["u1"],
                         u2=snap.fields["u2"], theta=snap.fields["theta"],
                         h1=snap.fields["h1"], h2=snap.fields["h2"],
                         y_nodes=y, time=snap.time)


def main():
    text = Path(DEMO_INI).read_text()
    cfg = parse_config(text)
    workdir = tempfile.mkdtemp(prefix="pipeline_demo_")
    out1, out2 = os.path.join(workdir, "run1"), os.path.join(workdir, "run2")

    print(f"simulating into {out1}")
    rc = run_simulate(text.replace("dir = out_demo", f"dir = {out1}"))
    print(f"driver exit code {rc}\n")

    names = sorted(n for n in os.listdir(out1) if n.endswith(".mhbl"))
    phys = [n for n in names if "physical" in n]
    print(f"{len(names)} snapshots written, {len(phys)} physical")

    grid = cfg.make_grid()
    outflow = sample_outflow(cfg.outflow_spec(), grid)
    y_max = cfg.getfloat("initial", "y_max")
    params = cfg.make_params()
    worst_div = worst_press = 0.0
    for name in phys:
        snap = read_snapshot(os.path.join(out1, name))
        div, press = check_physical_constraints(physical_state(snap, y_max),
                                                outflow, params)
        worst_div, worst_press = max(worst_div, div), max(worst_press, press)
    print(f"worst magnetic divergence        {worst_div:.3e}")
    print(f"worst total-pressure residual    {worst_press:.3e}")

    rep = outflow_consistency(outflow, params)
    print(f"outflow boundary residual        {rep.max_norm.max():.3e} "
          f"(constant traces: exact zeros)")

    trans = [n for n in names if "physical" not in n]
    final = read_snapshot(os.path.join(out1, trans[-1]))
    q_inf = outflow.far[grid.nsteps][:, 2, None]
    lhs, rhs = trace_check(np.abs(final.fields["q"] - q_inf), grid)
    print(f"wall trace inequality            {lhs:.4f} <= {rhs:.4f} "
          f"on the final magnetic-pressure defect")

    rc2 = run_simulate(text.replace("dir = out_demo", f"dir = {out2}"))
    same = all(Path(out1, n).read_bytes() == Path(out2, n).read_bytes()
               for n in names)
    print(f"re-run bit-identical             {same} (exit code {rc2})")

    shutil.rmtree(workdir)
    print("\npipeline artifacts verified; work directory removed")


if __name__ == "__main__":
    main()
