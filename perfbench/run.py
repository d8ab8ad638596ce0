"""Benchmark of the mhbl solver; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
./src, nothing needs installing.  Each run starts the workload in child
processes of its own (worker.py): one that sets up and measures, and
SETUP_SAMPLES - 1 around it that only set up, for the set-up time.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it describe the run and
the environment.

    --trace 0   end-to-end metrics: wall_s, setup_s, peak_rss_mb; the
                times are scaled to a reference host speed (hostspeed.py)
    --trace 1   per-layer metrics from spans around each mhbl module's
                entry points, plus trace.overhead_frac

--record-reference stores the output summary of one operation at the
given seed in reference.json, which later runs at that seed must match.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("mms_advection", "simulate_demo", "simulate_wide")
#: end-to-end metrics (all lower is better) and their units
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 7
#: the whole run must end within this many seconds
RUN_LIMIT_S = 175.0
#: relative tolerance of reference summaries: above the rounding-level
#: change of a reordered linear solve, below any change of the scheme
REFERENCE_RTOL = 1e-6


def worker_env() -> dict:
    """The parent's environment with ./src on PYTHONPATH and the BLAS and
    OpenMP thread pools capped at one thread.  The systems solved are small;
    a single thread keeps machines of different sizes comparable, and keeps
    the run from measuring how a shared host schedules a second CPU, which
    the host-speed kernel does not sample."""
    cap = "1"
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "MHBL_THREADS"):
        env[var] = cap
    return env


def spawn(argv, env, cwd, timeout):
    """Run one worker; returns (spawn time, decoded last line)."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                           *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(argv)} exited with "
                           f"{proc.returncode}:\n{proc.stderr.strip()}")
    return start, json.loads(lines[-1])


def setup_time(base, env, cwd) -> float:
    start, got = spawn(base + ["--setup-only"], env, cwd, 10.0)
    return got["ready"] - start


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()

    for need in (("src", "mhbl", "__init__.py"), ("configs", "demo.ini")):
        if not os.path.isfile(os.path.join(ROOT, *need)):
            print(f"error: {os.path.join(*need)} not found; run from the root "
                  "of a source checkout", file=sys.stderr)
            return 2

    env = worker_env()
    base = ["--root", ROOT, "--workload", args.workload, "--seed",
            str(args.seed)]
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    began = time.monotonic()
    try:
        # set-up only: half of the samples before the measuring worker and
        # half after, so that they span the run's whole time on the machine
        probes = (0 if args.trace or args.record_reference
                  else SETUP_SAMPLES - 1)
        setups = [setup_time(base, env, work) for _ in range(probes // 2)]
        argv = base + ["--seconds", str(0.0 if args.record_reference
                                         else args.seconds),
                       "--trace", str(args.trace)]
        if not args.record_reference:
            argv += ["--reference", REFERENCE]
        left = RUN_LIMIT_S - 10.0 * probes - (time.monotonic() - began)
        start, res = spawn(argv, env, work, left)
        setups.append(res["ready"] - start)
        setups += [setup_time(base, env, work)
                   for _ in range(probes - probes // 2)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run still uses it
            pass

    if args.record_reference:
        return record_reference(args, res)

    print("env " + json.dumps(res["env"], sort_keys=True))
    for problem in res["problems"]:
        print("problem: " + problem.strip().replace("\n", "\n    "))
    attempted, failed = res["attempted"], res["failed"]
    ok_times = res["traced_s"] if args.trace else res["untraced_s"]
    if not ok_times:
        print(f"error: all {attempted} operations failed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {}
        units = {n: u for n, (u, _, _) in layer_metric_specs().items()}
        for name, unit in units.items():
            if name in res["absent"]:
                print(f"absent: {name}: {res['absent'][name]}")
            metrics[name] = {"value": res["layers"].get(name, 0.0), "unit": unit}
        print(f"traced operations: {len(res['traced_s'])}, untraced: "
              f"{len(res['untraced_s'])}")
    else:
        # a set-up lasts about a second, too short to sample the host's
        # speed during it; the mean speed over the measuring worker's run,
        # which the set-ups surround, scales them
        values = {"wall_s": statistics.median(res["scaled_s"]),
                  "setup_s": statistics.median(setups) * res["run_factor"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {n: {"value": values[n], "unit": u}
                   for n, u in END_TO_END.items()}
        print(f"operations: {len(ok_times)}; failed_frac = "
              f"{failed / attempted:g} ({failed} of {attempted}); wall_s "
              f"quartiles {quartiles(res['scaled_s'])}")
        print(f"as measured: median {statistics.median(ok_times):.4f} s per "
              f"operation, quartiles {quartiles(ok_times)}; set-up samples "
              f"{[round(s, 4) for s in setups]} s; host speed factor "
              f"{res['run_factor']:.4f} (the kernel took "
              f"{hostspeed.REFERENCE_S / res['run_factor'] * 1e3:.3f} ms, "
              f"{hostspeed.REFERENCE_S * 1e3:g} ms on the reference host)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metric_specs() -> dict:
    """Per-layer metric name -> (unit, better, rule), the trace overhead last."""
    from spans import LAYER_METRICS
    return {**LAYER_METRICS, "trace.overhead_frac": ("frac", "lower", None)}


def quartiles(values):
    if len(values) < 2:
        return [round(v, 4) for v in values]
    return [round(q, 4) for q in statistics.quantiles(values, n=4)]


def record_reference(args, res) -> int:
    if res["failed"] or res["summary"] is None:
        print("error: the operation failed; nothing recorded", file=sys.stderr)
        return 1
    recorded = {"seed": args.seed, "rtol": REFERENCE_RTOL, "workloads": {}}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            recorded = json.load(fh)
        if recorded["seed"] != args.seed:
            print(f"error: {REFERENCE} holds seed {recorded['seed']}",
                  file=sys.stderr)
            return 1
    recorded["workloads"][args.workload] = res["summary"]
    with open(REFERENCE, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {args.workload} at seed {args.seed} in {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
