"""Benchmark entry point: one workload (or ``all``) in fresh processes.

    python3 perfbench/run.py --workload harvest-sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics: ``setup_s`` is the
median over four fresh set-up processes (three set-up-only probes plus
the measuring process), timed from process spawn to the first timed
item; the measuring process then runs the closed loop for ``--seconds``
and the referee check.  Item and set-up times are reported at the
reference host speed (``hostspeed.py``); the raw figures are printed as
notes.  With ``--trace 1`` one process records spans
and prints the per-layer metrics.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Exits non-zero without a result when any process fails, times out, or
the program's sources (``src/repro``) are missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("fault-campaign", "harvest-sweep", "observed-sweep", "batch-inference")

#: Set-up-only probe processes started before the measuring one.
SETUP_PROBES = 3

#: Wall-clock budget for one invocation (s); children get what is left.
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


def _child(args, mode: str, deadline: float) -> tuple[float, dict]:
    """Run one worker process to completion; returns (spawn time, result)."""
    command = [
        sys.executable, str(WORKER), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise ChildFailed(f"{mode} process exceeded its time budget") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{mode} process printed no result")
    return spawned, json.loads(lines[-1])


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    from hostspeed import NOMINAL_S

    setups, raw_setups = [], []
    for mode in ("setup",) * SETUP_PROBES + ("measure",):
        spawned, result = _child(args, mode, deadline)
        raw_setups.append(result["ready"] - spawned)
        setups.append(raw_setups[-1] * NOMINAL_S / result["probe_s"])
    mix, raw = result["mix"], result["raw_mix"]
    metrics = {
        "items_per_s": mix["items_per_s"],
        "item_ms_p50": mix["p50"] * 1e3,
        "item_ms_p90": mix["p90"] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "calls": mix["n"],
        "calls_beyond_p90": mix["beyond_p90"],
        "distinct_items": result["distinct"],
        "refereed_items": result["refereed"],
        "failed_frac": result["failed"] / result["attempted"],
        "compilejit.fused_frac": result["fused_frac"],
        "setup_runs_s": setups,
        "host_speed": NOMINAL_S / result["host_probe_s"],
        "raw_items_per_s": raw["items_per_s"],
        "raw_item_ms_p50": raw["p50"] * 1e3,
        "raw_item_ms_p90": raw["p90"] * 1e3,
        "raw_setup_runs_s": raw_setups,
    }
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }
    return out, notes


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    from layers import METRICS

    _, result = _child(args, "trace", deadline)
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            k: {"value": v, "unit": METRICS[k]} for k, v in result["layers"].items()
        },
    }
    return out, {"refereed_items": result["refereed"]}


def run_one(args) -> dict:
    deadline = time.monotonic() + BUDGET_S
    out, notes = (per_layer if args.trace else end_to_end)(args, deadline)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, metric in out["metrics"].items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    for name, value in notes.items():
        print(f"  ({name} = {value})")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        if args.workload != "all":
            out = run_one(args)
        else:
            out = {}
            for workload in WORKLOADS:
                out[workload] = run_one(argparse.Namespace(**{**vars(args), "workload": workload}))
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
