"""Timed closed loop, percentiles and the referee check.

One client, one item at a time (``jobs=1``): the next item starts only
after the previous one returned.  Each item's output is reduced to its
canonical text (:func:`workloads.canon`) outside the timed call.
Between items, outside their timers, the loop probes the host's speed
(:mod:`hostspeed`), and the summary reports call times at the
reference host speed.

The set-up heap is frozen (``gc.freeze()``) and every item is followed
by an untimed ``gc.collect()``, so each item starts from the same
collector state and no item pays for, or holds memory of, an earlier
one.  Collections the interpreter triggers during an item stay inside
its time, as they would in the program.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import hostspeed
from workloads import Item, Raised, canon

from repro import compilejit
from repro.energy.metrics import Breakdown
from repro.faults.report import CampaignReport


@dataclass
class Pass:
    """What one pass over the items measured.

    ``call_s`` holds every call time, per item index, and ``call_at``
    the matching start times; ``probes`` holds the host-speed probes as
    ``(time, duration)`` pairs.  ``first`` keeps
    the first output of every item executed, for the referee check;
    ``mismatched`` holds the items whose later executions disagreed
    with the first.
    """

    call_s: dict[int, list[float]] = field(default_factory=dict)
    call_at: dict[int, list[float]] = field(default_factory=dict)
    probes: list[tuple[float, float]] = field(default_factory=list)
    items: int = 0
    calls: int = 0
    mismatched: set[int] = field(default_factory=set)
    first: dict[int, object] = field(default_factory=dict)
    digests: dict[int, str] = field(default_factory=dict)
    outages: int = 0
    retries: int = 0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(fn):
    """Call ``fn``; a raised error becomes a :class:`Raised` outcome."""
    try:
        return fn()
    except Exception as exc:  # typed outcomes are compared with the referee
        return Raised(type(exc).__name__, str(exc))


def run_pass(
    items: list[Item],
    order: list[int],
    seconds: Optional[float] = None,
    count: Optional[int] = None,
) -> Pass:
    """Run items in ``order`` (cycling) for ``count`` calls, or for
    ``seconds`` but at least one full round, so every item has a time.
    A host-speed probe runs before the first item, after every
    ``hostspeed.PROBE_EVERY_S`` of item time, and after the last."""
    if not compilejit.ENABLED:
        raise RuntimeError("compilejit is disabled: would time the interpreter")
    result = Pass()
    gc.collect()
    gc.freeze()
    clock = time.perf_counter
    deadline = None if seconds is None else clock() + seconds
    position = 0
    since_probe = 0.0

    def probe():
        result.probes.append((clock(), hostspeed.probe()))

    probe()
    while True:
        index = order[position % len(order)]
        item = items[index]
        start = clock()
        out = outcome(item.run)
        elapsed = clock() - start
        gc.collect()
        position += 1
        result.calls += 1
        result.items += item.samples
        result.call_s.setdefault(index, []).append(elapsed)
        result.call_at.setdefault(index, []).append(start)
        digest = _digest(canon(out))
        if index not in result.digests:
            result.digests[index] = digest
            result.first[index] = out if isinstance(out, Raised) else item.view(out)
        elif result.digests[index] != digest:
            result.mismatched.add(index)
        result.outages += _outages(out)
        result.retries += _retries(out)
        since_probe += elapsed
        if since_probe >= hostspeed.PROBE_EVERY_S:
            since_probe = 0.0
            probe()
        if count is not None and position >= count:
            break
        if deadline is not None and clock() >= deadline and position >= len(order):
            break
    probe()
    if not compilejit.ENABLED:
        raise RuntimeError("compilejit was switched off during a timed pass")
    return result


def _outages(out) -> int:
    if isinstance(out, tuple) and out and isinstance(out[0], Breakdown):
        out = out[0]
    return out.restarts if isinstance(out, Breakdown) else 0


def _retries(out) -> int:
    if isinstance(out, CampaignReport):
        return int(out.totals.get("retries", 0))
    return 0


def referee_subset(items: list[Item], run: Pass, seed: int, per_kind: int) -> list[int]:
    """Seeded subset of the executed items to replay on the referee:
    ``per_kind`` items of every kind, plus every item that raised (a
    typed outcome only passes when the referee raises it too)."""
    rng = np.random.default_rng([seed, 99])
    by_kind: dict[str, list[int]] = {}
    for index in sorted(run.first):
        by_kind.setdefault(items[index].kind, []).append(index)
    chosen = set()
    for kind in sorted(by_kind):
        pool = by_kind[kind]
        take = min(per_kind, len(pool))
        chosen.update(int(i) for i in rng.choice(pool, size=take, replace=False))
    chosen.update(i for i, out in run.first.items() if isinstance(out, Raised))
    return sorted(chosen)


def referee_check(items: list[Item], run: Pass, subset: list[int]) -> set[int]:
    """Replay ``subset`` on the scalar referee; returns the mismatches."""
    return {
        index for index in subset
        if canon(outcome(items[index].referee)) != canon(run.first[index])
    }


def failed_items(items: list[Item], run: Pass, bad: set[int]) -> int:
    """Benchmark items failed: every execution of a mismatching item."""
    return sum(len(run.call_s[i]) * items[i].samples for i in bad | run.mismatched)


#: Half-width of the quantile band that p50 and p90 average over.
BAND = 0.02


def mix_summary(items: list[Item], run: Pass, normalise: bool = True) -> dict:
    """Throughput and latency percentiles of the workload's item mix.

    With ``normalise`` every call time is first divided by the host's
    slowness around that call (:func:`hostspeed.scales`), giving times
    at the reference host speed; without it the times are raw.  Each
    item is represented by the median of its call times in the window:
    the host stalls in bursts, and an item's median over its repeats
    drops the calls a burst hit, where a mean keeps them.  A window
    rarely ends on a round boundary, so each item is weighted as one
    round holds it, by its ``samples``, however often the window
    happened to repeat it.  ``items_per_s`` is a
    round's samples over a round's time (the sum of per-item medians).
    p50 and p90 are band-smoothed weighted quantiles of the per-item
    medians: the mean latency over the quantile band ``q ± BAND``.  A
    single order statistic jumps from run to run wherever the item mix
    leaves a gap in call times at ``q`` (an item at 100 ms next to one
    at 160 ms); the band average moves continuously as call times move.
    ``n`` counts the timed calls and ``beyond_p90`` how many of those
    calls took longer than p90: a batched call is one latency
    measurement, however many samples it completes.
    """
    times, weights, calls = [], [], []
    for index, repeats in run.call_s.items():
        if normalise and run.probes:
            spans = [(t, t + d) for t, d in zip(run.call_at[index], repeats)]
            repeats = list(np.asarray(repeats) / hostspeed.scales(run.probes, spans))
        times.append(float(np.median(repeats)))
        weights.append(items[index].samples)
        calls.extend(repeats)
    round_s = sum(times)
    order = np.argsort(times, kind="stable")
    times = np.asarray(times)[order]
    cumulative = np.cumsum(np.asarray(weights)[order])
    cumulative = np.concatenate(([0.0], cumulative / cumulative[-1]))

    def weighted(q: float) -> float:
        covered = np.diff(np.clip(cumulative, q - BAND, q + BAND))
        return float(np.dot(covered, times) / (2 * BAND))

    p90 = weighted(0.9)
    return {
        "items_per_s": sum(items[i].samples for i in run.call_s) / round_s,
        "n": len(calls),
        "p50": weighted(0.5),
        "p90": p90,
        "beyond_p90": int(np.count_nonzero(np.asarray(calls) > p90)),
    }
