"""Tests of the benchmark's own machinery: spans, percentiles, referee.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import hostspeed  # noqa: E402
from layers import METRICS, TARGETS, layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Item, Raised, bit_reversal_order, canon  # noqa: E402

from repro import compilejit  # noqa: E402
from repro.devices.parameters import MODERN_STT  # noqa: E402
from repro.energy.model import InstructionCostModel  # noqa: E402
from repro.harvest import HarvestingConfig, ProfileRun  # noqa: E402
from repro.ml.benchmarks import SVM_ADULT  # noqa: E402


def _assert_well_formed(tracer: Tracer) -> None:
    spans = tracer.arrays()
    assert len(spans["start"]) > 0
    assert np.all(spans["end"] >= spans["start"])
    for index, parent in enumerate(spans["parent"]):
        if parent >= 0:
            assert parent < index
            assert spans["start"][parent] <= spans["start"][index]
            assert spans["end"][index] <= spans["end"][parent]
    assert np.all(tracer.self_ns() >= 0)


def test_nested_spans_nest_and_self_time_is_never_negative():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda n: sum(range(n)))
    outer = tracer.wrap("outer", lambda: [inner(2000) for _ in range(3)])
    for _ in range(4):
        outer()
    _assert_well_formed(tracer)
    totals = tracer.totals()
    assert totals["outer"][0] == 4 and totals["inner"][0] == 12
    spans = tracer.arrays()
    duration = spans["end"] - spans["start"]
    # Self times partition the root spans' wall time exactly.
    roots = spans["parent"] < 0
    assert tracer.self_ns().sum() == duration[roots].sum()


def test_wrapped_public_calls_nest_and_uninstall_restores():
    from repro.array import tile
    from repro.core.controller import MemoryController
    from repro.faults.campaign import svm_workload
    from repro.logic import gates

    original_step = MemoryController.step
    original_write_energy = gates.write_energy
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        # Imported-by-name call sites are rebound too.
        assert tile.write_energy is gates.write_energy is not original_write_energy
        mouse = svm_workload().build()
        mouse.run(compiled=False)
    finally:
        tracer.uninstall()
    assert MemoryController.step is original_step
    assert tile.write_energy is original_write_energy
    _assert_well_formed(tracer)
    totals = tracer.totals()
    assert totals["core.step"][0] > 0
    spans = tracer.arrays()
    step = tracer.names.index("core.step")
    run = tracer.names.index("core.run")
    parents = spans["parent"][spans["name"] == step]
    assert np.all(spans["name"][parents] == run)


def test_layer_metrics_cover_every_metric():
    metrics = layer_metrics({}, {}, {
        name: 0.0 for name in METRICS
        if not name.endswith((".calls", ".self_s", ".samples"))
    })
    assert list(metrics) == list(METRICS)
    with pytest.raises(KeyError):
        layer_metrics({}, {}, {})


def test_percentiles_reported_with_sample_counts():
    items = [Item("x", str(v), lambda: 0, lambda: 0) for v in range(100)]
    run = harness.Pass(call_s={i: [float(i + 1)] for i in range(100)}, items=100)
    summary = harness.mix_summary(items, run)
    assert summary["n"] == 100
    # The mean over the 48-52 % and 88-92 % bands of the distribution.
    assert summary["p50"] == pytest.approx(50.5)
    assert summary["p90"] == pytest.approx(90.5)
    assert summary["beyond_p90"] == 10
    assert summary["items_per_s"] == pytest.approx(100 / sum(range(1, 101)))


def test_mix_weights_undo_window_truncation():
    # Item 0 (1 s) ran four times, item 1 (3 s, a batch of 3) once: the
    # mix is one of each, i.e. 4 samples per 4 s of round time.
    items = [Item("a", "fast", lambda: 0, lambda: 0),
             Item("b", "slow", lambda: 0, lambda: 0, samples=3)]
    run = harness.Pass(call_s={0: [1.0] * 4, 1: [3.0]}, items=7)
    summary = harness.mix_summary(items, run)
    assert summary["items_per_s"] == pytest.approx(1.0)
    assert summary["p50"] == pytest.approx(3.0)  # 3 of the round's 4 samples take 3 s
    assert summary["n"] == 5 and summary["beyond_p90"] == 0


def test_tail_is_counted_in_calls_not_samples():
    # One batch-64 call is one latency measurement, not 64.
    items = [Item("a", "single", lambda: 0, lambda: 0),
             Item("b", "batch", lambda: 0, lambda: 0, samples=64)]
    run = harness.Pass(call_s={0: [1.0] * 20, 1: [5.0, 6.0]}, items=148)
    summary = harness.mix_summary(items, run)
    assert summary["n"] == 22
    assert summary["p90"] == pytest.approx(5.5)  # 64 of the round's 65 samples: the batch's median
    assert summary["beyond_p90"] == 1  # one call, not 64 samples


def test_item_median_drops_a_burst():
    # One of five calls of item 0 ran through a host stall.
    items = [Item("x", str(v), lambda: 0, lambda: 0) for v in range(2)]
    run = harness.Pass(call_s={0: [1.0, 1.0, 9.0, 1.0, 1.0], 1: [1.0] * 5})
    assert harness.mix_summary(items, run)["items_per_s"] == pytest.approx(1.0)


def test_calls_are_normalised_by_nearby_probes():
    # The host runs at half speed from t = 100 s on: the probe takes twice
    # its nominal time there, and so does the same item.
    items = [Item("x", "a", lambda: 0, lambda: 0)]
    nominal = hostspeed.NOMINAL_S
    run = harness.Pass(
        call_s={0: [1.0, 2.0, 2.0]},
        call_at={0: [10.0, 110.0, 120.0]},
        probes=[(9.0, nominal), (11.5, nominal), (109.0, 2 * nominal), (122.5, 2 * nominal)],
    )
    assert harness.mix_summary(items, run)["p50"] == pytest.approx(1.0)
    assert harness.mix_summary(items, run, normalise=False)["p50"] == pytest.approx(2.0)


def test_probe_never_runs_inside_an_item_timer():
    calls = []
    items = [Item("x", "a", lambda: calls.append(1) or 0, lambda: 0)]
    run = harness.run_pass(items, [0], count=3)
    assert len(run.probes) >= 2  # before the first item and after the last
    starts = sorted(t for t in run.call_at[0])
    for t, _ in run.probes:
        for start, took in zip(starts, run.call_s[0]):
            assert not start < t < start + took


def test_percentile_on_a_gap_averages_both_sides():
    # Ten items at 100 ms and ten at 160 ms: p50 sits on the gap.  One
    # order statistic would read 100 or 160 depending on which side a
    # run's noise puts the median item; the band average reads between.
    items = [Item("x", str(v), lambda: 0, lambda: 0) for v in range(20)]
    times = [0.100] * 10 + [0.160] * 10
    run = harness.Pass(call_s={i: [t] for i, t in enumerate(times)})
    assert harness.mix_summary(items, run)["p50"] == pytest.approx(0.130)


def test_bit_reversal_order_is_a_stratified_permutation():
    order = bit_reversal_order(12)
    assert sorted(order) == list(range(12))
    # The first half of the visit order takes every other position.
    assert sorted(order[:6]) == list(range(0, 12, 2))


def _profile_item(referee=None) -> Item:
    cost = InstructionCostModel(MODERN_STT)
    profile = SVM_ADULT.profile(cost)

    def run():
        return ProfileRun(profile, cost, HarvestingConfig.paper(MODERN_STT, 1e-4)).run()

    return Item("constant", "svm-adult", run, referee or run)


def test_planted_wrong_breakdown_is_counted_as_failed():
    good = _profile_item()
    right = good.run()
    planted = dataclasses.replace(
        right, compute_energy=np.nextafter(right.compute_energy, np.inf)
    )
    bad = _profile_item(referee=lambda: planted)
    items = [good, bad]
    run = harness.run_pass(items, [0, 1], count=6)
    assert run.items == 6 and not run.mismatched
    mismatches = harness.referee_check(items, run, [0, 1])
    assert mismatches == {1}
    assert harness.failed_items(items, run, mismatches) == 3
    assert canon(planted) != canon(right)


def test_repeat_disagreement_and_untyped_errors_fail():
    outputs = iter([1, 2, 2])
    flaky = Item("x", "flaky", lambda: next(outputs), lambda: 1)

    def boom():
        raise ValueError("boom")

    def typed():
        raise RuntimeError("budget")

    raises = Item("x", "raises", boom, lambda: 0)
    same_error = Item("x", "typed", typed, typed)
    items = [flaky, raises, same_error]
    run = harness.run_pass(items, [0, 1, 2], count=9)
    assert run.mismatched == {0}
    subset = harness.referee_subset(items, run, seed=1, per_kind=0)
    assert subset == [1, 2]  # every raised outcome is refereed
    mismatches = harness.referee_check(items, run, subset)
    assert mismatches == {1}
    assert run.first[2] == Raised("RuntimeError", "budget")
    assert harness.failed_items(items, run, mismatches) == 6


def test_timed_pass_refuses_to_time_the_interpreter():
    item = Item("x", "x", lambda: 0, lambda: 0)
    was = compilejit.ENABLED
    compilejit.set_enabled(False)
    try:
        with pytest.raises(RuntimeError, match="interpreter"):
            harness.run_pass([item], [0], count=1)
    finally:
        compilejit.set_enabled(was)
    leaky = Item("x", "x", lambda: compilejit.set_enabled(False), lambda: 0)
    try:
        with pytest.raises(RuntimeError, match="switched off"):
            harness.run_pass([leaky], [0], count=1)
    finally:
        compilejit.set_enabled(was)
