"""Checks of the benchmark harness itself (not of mhbl).

    PYTHONPATH=src python3 -m pytest -q perfbench/harness_checks.py

The file name keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import mhbl  # noqa: E402
import mhbl.mms  # noqa: E402
import mhbl.picard  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mhbl.fields import make_grid, sample_outflow  # noqa: E402
from mhbl.stepper import BlockTridiag, FrozenCoeffs  # noqa: E402


def _constant_problem():
    case = mhbl.mms.case_library()["constant"]
    grid = make_grid(8, 8, case.eta_max, 0.05, 0.1)
    outflow = sample_outflow(case.outflow_spec, grid)
    return mhbl.mms.exact_state(case, grid, 0.0), outflow, case.params, grid


def test_call_through_mms_alias_lands_in_picard_span():
    v0, outflow, params, grid = _constant_problem()
    original = mhbl.mms.picard_solve
    raw_from_state = vars(FrozenCoeffs)["from_state"]
    tracer = spans.Tracer()
    with spans.Probes(tracer) as probes:
        assert probes.absent == {}
        assert mhbl.mms.picard_solve is not original
        assert mhbl.picard_solve is mhbl.mms.picard_solve
        mhbl.mms.picard_solve(v0, outflow, params, grid)
    assert mhbl.mms.picard_solve is original
    assert mhbl.picard.picard_solve is original
    assert vars(FrozenCoeffs)["from_state"] is raw_from_state

    names = [s[0] for s in tracer.spans]
    top = names.index("picard.picard_solve")
    assert tracer.spans[top][3] == -1
    march = [s for s in tracer.spans if s[0] == "stepper.solve_linear_problem"]
    assert march and all(s[3] == top for s in march)
    for inner in ("stepper.FrozenCoeffs.from_state", "stepper.BlockTridiag.solve",
                  "stepper._step_arrays", "coeffs.eval_advection",
                  "stepper.apply_derivative", "diagnostics.discrete_norm"):
        assert inner in names
    assert tracer.counters["picard.picard_solve:iterates"] >= 1
    assert not tracer.stack


def test_missing_target_is_reported_absent():
    tracer = spans.Tracer()
    targets = (spans.Target("mhbl.stepper", "BlockTridiag.no_such_solve"),
               spans.Target("mhbl.no_such_module", "f"),
               spans.Target("mhbl.stepper", "no_such_function"))
    with spans.Probes(tracer, targets) as probes:
        pass
    assert set(probes.absent) == {"stepper.BlockTridiag.no_such_solve",
                                  "no_such_module.f",
                                  "stepper.no_such_function"}

    absent = {"stepper.BlockTridiag.solve": "mhbl.stepper.BlockTridiag.solve not found"}
    values, missing = spans.layer_values(spans.Tracer(), absent, ops=1)
    assert set(missing) == {"stepper.block_solve_s", "stepper.block_rows_per_s"}
    assert "not found" in missing["stepper.block_solve_s"]
    assert set(values) | set(missing) == set(spans.LAYER_METRICS)


def test_self_time_is_duration_minus_children():
    tree = [["a", 0.0, 10.0, -1],
            ["b", 1.0, 4.0, 0],
            ["c", 2.0, 3.0, 1],
            ["b", 5.0, 9.0, 0],
            ["a", 20.0, 21.0, -1]]
    totals = spans.aggregate(tree)
    assert totals.self_s == pytest.approx({"a": 10.0 - 3.0 - 4.0 + 1.0,
                                           "b": 3.0 - 1.0 + 4.0, "c": 1.0})
    assert totals.total_s == pytest.approx({"a": 11.0, "b": 7.0, "c": 1.0})
    assert totals.calls == {"a": 2, "b": 2, "c": 1}


def test_span_closes_when_the_call_raises():
    tracer = spans.Tracer()
    with spans.Probes(tracer, (spans.Target("mhbl.stepper", "BlockTridiag.solve"),)):
        bad = BlockTridiag(lower=None, diag=None, upper=None)
        with pytest.raises(Exception):
            bad.solve(None)
    assert not tracer.stack
    assert tracer.spans[0][0] == "stepper.BlockTridiag.solve"
    assert tracer.spans[0][2] is not None


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    assert e2e == {n: (u, "lower") for n, u in run.END_TO_END.items()}
    layers = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert layers == {n: (u, b) for n, (u, b, _) in run.layer_metric_specs().items()}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_reference_summary_tolerance():
    want = {"iterations": 4, "norms": {"h1": 61.745146509639, "u2": 0.375}}
    rounding = {"iterations": 4, "norms": {"h1": 61.745146509639 * (1 + 1e-12),
                                           "u2": 0.375 * (1 - 3e-11)}}
    assert workloads.compare_summary(rounding, want, 1e-6) == []
    changed = {"iterations": 4, "norms": {"h1": 61.745146509639 * (1 + 1e-5),
                                          "u2": 0.375}}
    assert len(workloads.compare_summary(changed, want, 1e-6)) == 1
    more_iterations = {"iterations": 5, "norms": want["norms"]}
    assert len(workloads.compare_summary(more_iterations, want, 1e-6)) == 1


def test_host_speed_factor_averages_the_samples_of_the_interval():
    ref = hostspeed.REFERENCE_S
    sampler = hostspeed.Sampler()
    sampler.samples = [(0.0, 2 * ref), (1.0, ref), (2.0, ref / 2), (3.0, ref)]
    assert sampler.factor(0.5, 3.5) == pytest.approx((1.0 + 2.0 + 1.0) / 3)
    # fewer than MIN_SAMPLES inside: the last three before the end
    assert sampler.factor(2.5, 2.6) == pytest.approx((0.5 + 1.0 + 2.0) / 3)


def test_sampler_runs_the_kernel_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(interval=0.02) as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(sampler.samples) >= 3
    assert 0.0 < sampler.spent < 0.2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
