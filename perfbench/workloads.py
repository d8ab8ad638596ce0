"""The benchmark's workloads: inputs made from a seed, one timed operation,
and the checks of its outputs.

mms_advection   ``convergence_study`` of the library's advection case at
                (16,32), (32,64), (64,128), mode "spatial"; the seed shifts
                the travelling wave's phase in xi.  Tall implicit columns
                (up to 126 eta rows), no pullback and no file output.
simulate_demo   ``run_simulate`` on the shipped configs/demo.ini; the seed
                perturbs the amplitudes and xi phase of the initial u1 and
                theta profiles (h1, and so the 2 delta margin, is unchanged).
simulate_wide   the same physics and seeding at nx=256, neta=32, ny=512:
                short columns batched wide and a fine physical grid, so the
                pullback and the snapshots carry most of the work.

Each workload object is built once per process (set-up), then ``prepare``,
``run`` and ``check`` are called once per operation; only ``run`` is timed.
Entry points are called through their modules (``cli.run_simulate``), so
that the span probes, which rebind module attributes, see the calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import platform
import re
import shutil
from typing import Dict, List, Tuple

import numpy as np
import scipy

import mhbl
from mhbl import cli, mms, snapshots
from mhbl.config import parse_config
from mhbl.fields import sample_outflow
from mhbl.transform import PhysicalState, check_physical_constraints

#: criterion 04 of the acceptance suite: resolutions and order band
MMS_RESOLUTIONS = ((16, 32), (32, 64), (64, 128))
MMS_ORDER_BAND = (1.7, 2.3)
#: criterion 07: divergence and total-pressure residual bound
CONSTRAINT_TOL = 1e-12


def _set_key(text: str, key: str, value: str) -> str:
    """Replace the single ``key = ...`` line of an INI text."""
    new, n = re.subn(rf"^{re.escape(key)}\s*=.*$", f"{key} = {value}", text,
                     flags=re.MULTILINE)
    if n != 1:
        raise ValueError(f"expected one '{key} =' line in the config, found {n}")
    return new


class MmsAdvection:
    def __init__(self, root: str, seed: int) -> None:
        phase = float(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi))
        base = mms.case_library()["advection"]

        def shifted(fn):
            return lambda t, xi, eta: fn(t, xi + phase, eta)

        self.case = dataclasses.replace(
            base, v=shifted(base.v), v_t=shifted(base.v_t),
            v_xi=shifted(base.v_xi), v_eta=shifted(base.v_eta),
            v_etaeta=shifted(base.v_etaeta))
        self.record = {"resolutions": [list(r) for r in MMS_RESOLUTIONS],
                       "mode": "spatial", "phase": phase}

    def prepare(self) -> None:
        pass

    def run(self):
        return mms.convergence_study(self.case, MMS_RESOLUTIONS, mode="spatial")

    def check(self, result, full: bool) -> Tuple[List[str], object, Dict]:
        """Problems found, a fingerprint of the output, and its summary."""
        problems = []
        lo, hi = MMS_ORDER_BAND
        if result.exact or not all(lo <= o <= hi for o in result.orders):
            problems.append(f"orders {result.orders} outside [{lo}, {hi}]")
        if not result.monotone:
            problems.append("errors do not decrease under refinement")
        errors = [list(r.errors) for r in result.rows]
        return problems, (errors, list(result.orders)), {"errors": errors}

    def cleanup(self) -> None:
        pass


class Simulate:
    """run_simulate on demo.ini, optionally on a different grid."""

    def __init__(self, root: str, seed: int, grid: Dict[str, int]) -> None:
        with open(os.path.join(root, "configs", "demo.ini")) as fh:
            text = fh.read()
        rng = np.random.default_rng(seed)
        au, ath = (float(a) for a in rng.uniform(0.08, 0.12, size=2))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        text = _set_key(text, "u1_0",
                        f"{au!r}*(1 + 0.3*cos(x + {phase!r}))*y*exp(-y*y)")
        text = _set_key(text, "theta0", f"1.0 + {ath!r}*(1 + 0.3*sin(x + "
                                        f"{phase!r}))*y*y*exp(-y*y)")
        for key, value in grid.items():
            text = _set_key(text, key, str(value))
        self.out_dir = "out"  # relative to the worker's private directory
        self.text = _set_key(text, "dir", self.out_dir)
        sizes = {k: int(re.search(rf"^{k}\s*=\s*(\d+)", text, re.M).group(1))
                 for k in ("nx", "neta", "ny")}
        self.record = {**sizes, "u1_amplitude": au, "theta_amplitude": ath,
                       "phase": phase}
        self._verify = None

    def _verify_inputs(self):
        if self._verify is None:
            cfg = parse_config(self.text)
            outflow = sample_outflow(cfg.outflow_spec(), cfg.make_grid())
            y = np.linspace(0.0, cfg.getfloat("initial", "y_max"),
                            cfg.getint("initial", "ny"))
            self._verify = (outflow, cfg.make_params(), y)
        return self._verify

    def prepare(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_simulate(self.text)
        return code, out.getvalue(), err.getvalue()

    def check(self, result, full: bool) -> Tuple[List[str], object, Dict]:
        code, out, err = result
        if code != 0:
            return [f"exit code {code}: {err.strip()}"], None, {}
        names = sorted(n for n in os.listdir(self.out_dir)
                       if n.endswith(".mhbl"))
        hashes = {}
        for n in names:
            with open(os.path.join(self.out_dir, n), "rb") as fh:
                hashes[n] = hashlib.sha256(fh.read()).hexdigest()
        problems = []
        if not any(n.startswith("physical_") for n in names):
            problems.append("no physical snapshots written")
        summary: Dict = {}
        match = re.search(r"converged in (\d+) iterations", out)
        if match is None:
            problems.append(f"no convergence line in the output: {out!r}")
        else:
            summary["iterations"] = int(match.group(1))
        if full:
            problems += self._read_back(names, summary)
        return problems, hashes, summary

    def _read_back(self, names: List[str], summary: Dict) -> List[str]:
        """Read every snapshot back; physical ones must meet the
        divergence and total-pressure constraints."""
        outflow, params, y = self._verify_inputs()
        problems = []
        last = None
        for n in names:
            snap = snapshots.read_snapshot(os.path.join(self.out_dir, n))
            if not n.startswith("physical_"):
                continue
            ps = PhysicalState(y_nodes=y, time=snap.time, **snap.fields)
            div, press = check_physical_constraints(ps, outflow, params)
            if not (div <= CONSTRAINT_TOL and press <= CONSTRAINT_TOL):
                problems.append(f"{n}: divergence {div:.3e}, "
                                f"pressure residual {press:.3e}")
            last = snap
        if last is not None:
            summary["last_physical_norms"] = {
                k: float(np.linalg.norm(v)) for k, v in last.fields.items()}
        return problems

    def cleanup(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


def make_workload(name: str, root: str, seed: int):
    if name == "mms_advection":
        return MmsAdvection(root, seed)
    if name == "simulate_demo":
        return Simulate(root, seed, {})
    if name == "simulate_wide":
        return Simulate(root, seed, {"nx": 256, "neta": 32, "ny": 512})
    raise KeyError(name)


WORKLOADS = ("mms_advection", "simulate_demo", "simulate_wide")


def compare_summary(got: Dict, want: Dict, rtol: float) -> List[str]:
    """Differences between a summary and its recorded reference: integers
    must match exactly, floats within ``rtol`` relative."""
    problems = []

    def walk(path, a, b):
        if isinstance(b, dict):
            if not isinstance(a, dict) or set(a) != set(b):
                problems.append(f"{path}: keys {a!r} != {sorted(b)}")
                return
            for k in b:
                walk(f"{path}.{k}", a[k], b[k])
        elif isinstance(b, list):
            if not isinstance(a, list) or len(a) != len(b):
                problems.append(f"{path}: {a!r} != {b!r}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                walk(f"{path}[{i}]", x, y)
        elif isinstance(b, int):
            if a != b:
                problems.append(f"{path}: {a!r} != {b!r}")
        elif not (isinstance(a, float) and abs(a - b) <= rtol * abs(b)):
            problems.append(f"{path}: {a!r} differs from {b!r} by more "
                            f"than {rtol:g} relative")

    walk("summary", got, want)
    return problems


def environment() -> Dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"cpu_count": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "mhbl": mhbl.__version__}
