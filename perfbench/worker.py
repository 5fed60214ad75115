"""One benchmark process: set up one workload, then optionally measure it.

Started by ``run.py`` as a fresh interpreter per workload, so module-level
caches (kernel LUTs, the decode memo, per-program plan caches) never carry
over from another workload.  Prints one JSON object as its last line.

Modes:

``setup``   set up and report when set-up finished (``ready``, on the
            system-wide monotonic clock the parent also reads) and the
            host's speed during set-up (``probe_s``, see ``hostspeed.py``).
``measure`` set up, run the untraced timed window for ``--seconds``,
            then replay a seeded subset of items on the scalar referee.
``trace``   set up with spans recorded, run one round of items untraced
            and the same round traced, and report the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Referee replays per item kind (plus every item that raised).
REFEREE_PER_KIND = {
    "fault-campaign": 1,
    "harvest-sweep": 2,
    "observed-sweep": 1,
    "batch-inference": 1,
}


def _import_program():
    sys.path[:0] = [str(HERE), str(SRC)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, not from {SRC}")


def _stats_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def _snapshot():
    from repro import compilejit
    from repro.perf.kernels import cache_stats

    return compilejit.stats_snapshot(), cache_stats()


def _fractions(deltas: list[tuple[dict, dict]]) -> dict[str, float]:
    """compilejit.fused_frac and perf.kernel_hit_frac over summed deltas."""
    compiled = sum(d[0]["compiled_runs"] for d in deltas)
    fallback = sum(d[0]["fallback_runs"] for d in deltas)
    hits = sum(d[1]["kernel.hits"] for d in deltas)
    misses = sum(d[1]["kernel.misses"] for d in deltas)
    return {
        "compilejit.fused_frac": compiled / (compiled + fallback) if compiled + fallback else 0.0,
        "perf.kernel_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
    }


def _report(items, bad: set[int]) -> None:
    for index in sorted(bad):
        print(f"output mismatch: {items[index].label}", file=sys.stderr)


class SetupClock:
    """Host speed during set-up, for ``setup_s``.

    A block of probes runs after the imports, after the inputs are built
    and after the warm-ups; their median times are averaged into
    ``probe_s``.  The blocks' own time is taken out of ``ready``, so it
    never counts as set-up."""

    BLOCK = 10

    def __init__(self) -> None:
        self.medians: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        import hostspeed

        start = time.perf_counter()
        self.medians.append(statistics.median(hostspeed.probe() for _ in range(self.BLOCK)))
        self.spent += time.perf_counter() - start

    def report(self) -> dict:
        return {
            "ready": time.monotonic() - self.spent,
            "probe_s": statistics.fmean(self.medians),
        }


def _setup(workload: str, seed: int, scratch: Path, clock: Optional[SetupClock] = None):
    from workloads import WORKLOADS

    suite = WORKLOADS[workload](seed, scratch)
    if clock is not None:
        clock.sample()
    for warm in suite.warmups:
        warm()
    if clock is not None:
        clock.sample()
    return suite


def measure(args, scratch: Path, clock: SetupClock) -> dict:
    import harness
    from workloads import bit_reversal_order

    suite = _setup(args.workload, args.seed, scratch, clock)
    ready = clock.report()
    items = suite.items
    before = _snapshot()
    run = harness.run_pass(items, bit_reversal_order(len(items)), seconds=args.seconds)
    after = _snapshot()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    subset = harness.referee_subset(items, run, args.seed, REFEREE_PER_KIND[args.workload])
    bad = harness.referee_check(items, run, subset)
    _report(items, bad | run.mismatched)
    return {
        **ready,
        "attempted": run.items,
        "failed": harness.failed_items(items, run, bad),
        "mix": harness.mix_summary(items, run),
        "raw_mix": harness.mix_summary(items, run, normalise=False),
        "host_probe_s": statistics.median(d for _, d in run.probes),
        "peak_rss_mb": peak_rss_mb,
        "refereed": len(subset),
        "distinct": len(run.first),
        "fused_frac": _fractions([tuple(map(_stats_delta, before, after))])["compilejit.fused_frac"],
    }


def trace(args, scratch: Path) -> dict:
    import harness
    from layers import TARGETS, BoundsRepeats, layer_metrics
    from spans import Tracer
    from workloads import bit_reversal_order

    bounds = BoundsRepeats()
    targets = tuple(
        replace(t, count=bounds) if t.span == "lint.program_bounds" else t for t in TARGETS
    )
    tracer = Tracer()
    deltas = []

    start = _snapshot()
    tracer.install(targets)
    suite = _setup(args.workload, args.seed, scratch)
    tracer.uninstall()
    deltas.append(tuple(map(_stats_delta, start, _snapshot())))

    items = suite.items
    order = bit_reversal_order(len(items))
    # The same round of items, untraced then traced: a fixed amount of
    # work, so span counts repeat exactly for a given seed.
    plain = harness.run_pass(items, order, count=len(items))
    start = _snapshot()
    tracer.install(targets)
    traced = harness.run_pass(items, order, count=len(items))
    tracer.uninstall()
    deltas.append(tuple(map(_stats_delta, start, _snapshot())))

    subset = harness.referee_subset(items, traced, args.seed, REFEREE_PER_KIND[args.workload])
    bad = harness.referee_check(items, traced, subset)
    _report(items, bad | plain.mismatched | traced.mismatched)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}-s{args.seed}.npz")
    derived = _fractions(deltas)
    derived.update({
        "faults.retries": traced.retries,
        "harvest.outages": traced.outages,
        "lint.program_bounds.repeat_frac": bounds.repeats / bounds.calls if bounds.calls else 0.0,
        # Round times at the reference host speed, so host drift between
        # the two passes does not read as tracing cost.
        "bench.trace_overhead": (
            harness.mix_summary(items, plain)["items_per_s"]
            / harness.mix_summary(items, traced)["items_per_s"]
        ),
    })
    return {
        "attempted": plain.items + traced.items,
        "failed": harness.failed_items(items, plain, bad) + harness.failed_items(items, traced, bad),
        "layers": layer_metrics(tracer.totals(), tracer.counts, derived),
        "refereed": len(subset),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    _import_program()
    clock = SetupClock()
    if args.mode != "trace":
        clock.sample()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="ckpt-", dir=OUT))
    try:
        if args.mode == "setup":
            _setup(args.workload, args.seed, scratch, clock)
            result = clock.report()
        elif args.mode == "measure":
            result = measure(args, scratch, clock)
        else:
            result = trace(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
