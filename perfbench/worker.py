"""One workload in its own process; started by run.py, never by hand.

The process imports mhbl, builds the seeded inputs and reports the moment
it is ready, which is the end of set-up.  With --setup-only it stops there.
Otherwise it runs operations one at a time (a closed loop) until the next
one would end after --seconds, checks each output outside the timed region
and prints one JSON object as its last line of standard output.  Untraced
runs sample the host's speed throughout (hostspeed.py) and report each
operation's time both as measured and scaled to the reference host.

With --trace 1 it alternates untraced and traced operations.  The traced
ones run with the span probes of spans.py installed; their outputs must be
identical to the untraced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference", default=None,
                    help="JSON file of recorded output summaries")
    args = ap.parse_args()

    import mhbl
    src = os.path.join(os.path.realpath(args.root), "src") + os.sep
    if not os.path.realpath(mhbl.__file__).startswith(src):
        print(f"mhbl imported from {mhbl.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import hostspeed
    import spans
    import workloads

    wl = workloads.make_workload(args.workload, args.root, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    reference = rtol = None
    if args.reference:
        with open(args.reference) as fh:
            recorded = json.load(fh)
        if recorded["seed"] == args.seed:
            reference = recorded["workloads"][args.workload]
            rtol = recorded["rtol"]

    untraced_s, traced_s, scaled_s = [], [], []
    tries = {False: 0, True: 0}  # attempts, untraced and traced
    failed = 0
    problems = []
    first = None  # fingerprint of the first checked output
    summary = None
    tracer = spans.Tracer()
    absent = {}
    deadline = ready + args.seconds
    # the calibration kernel would fall inside spans, so traced runs go without
    sampler = None if args.trace else hostspeed.Sampler()
    if sampler:  # so that even the shortest first operation has a sample
        sampler.samples.append((time.perf_counter(), hostspeed.kernel_time()))
    with sampler or contextlib.nullcontext():
        while True:
            traced = bool(args.trace) and tries[False] > tries[True]
            tries[traced] += 1
            t_iter = time.monotonic()
            wl.prepare()
            probes = spans.Probes(tracer) if traced else contextlib.nullcontext()
            try:
                with probes:
                    spent = sampler.spent if sampler else 0.0
                    t0 = time.perf_counter()
                    result = wl.run()
                    t1 = time.perf_counter()
                    elapsed = t1 - t0 - ((sampler.spent - spent) if sampler else 0.0)
                    # the first output, and every traced one, is read back in full
                    found, fingerprint, got = wl.check(result,
                                                       full=first is None or traced)
            except Exception:  # a failed operation is counted, not fatal
                found, fingerprint = [traceback.format_exc(limit=3)], None
            if traced:
                absent = probes.absent
            if not found:
                if first is None:
                    first, summary = fingerprint, got
                    if reference is not None:
                        found = workloads.compare_summary(got, reference, rtol)
                elif fingerprint != first:
                    found = ["output differs from the first operation with the "
                             "same seed" + (" (traced)" if traced else "")]
            if found:
                failed += 1
                problems.extend(found)
            elif traced:
                traced_s.append(elapsed)
            else:
                untraced_s.append(elapsed)
                if sampler:
                    scaled_s.append(elapsed * sampler.factor(t0, t1))
            wl.cleanup()
            now = time.monotonic()
            if tries[True] >= args.trace and now + (now - t_iter) > deadline:
                break

    attempted = tries[False] + tries[True]
    out = {"ready": ready, "attempted": attempted,
           "failed": failed, "problems": problems[:20],
           "untraced_s": untraced_s, "traced_s": traced_s, "scaled_s": scaled_s,
           "run_factor": (sampler.factor(float("-inf"), float("inf"))
                          if sampler else None),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "env": {**workloads.environment(),
                   "workload": args.workload, "seed": args.seed,
                   "inputs": wl.record},
           "summary": summary}
    if args.trace:
        values, missing = spans.layer_values(tracer, absent, max(1, len(traced_s)))
        if untraced_s and traced_s:
            values["trace.overhead_frac"] = (statistics.median(traced_s)
                                             / statistics.median(untraced_s) - 1.0)
        else:
            missing["trace.overhead_frac"] = "no successful traced and untraced pair"
        out["layers"], out["absent"] = values, missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
