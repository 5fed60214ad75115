"""Layer -> wrapped public call table, and the per-layer metrics.

Each :class:`~spans.Target` names one public function or method of the
program; its spans are recorded under the layer's span name.  Self
times subtract child spans, so e.g. ``harvest.intermittent_run`` is the
referee loop's own time with any fused ``compilejit`` child removed,
and ``perf.batched`` is ``BatchedMouse.run`` minus ``run_batched_fused``.
"""

from __future__ import annotations

from spans import Target

TARGETS: tuple[Target, ...] = (
    Target("core.step", "repro.core.controller:MemoryController.step"),
    Target("core.run", "repro.core.accelerator:Mouse.run"),
    Target("core.load", "repro.core.accelerator:Mouse.load"),
    Target("compilejit.compile", "repro.compilejit.plan:compile_program"),
    Target("compilejit.fused", "repro.compilejit.exec:try_run_continuous"),
    Target("compilejit.fused", "repro.compilejit.exec:run_intermittent_fused"),
    Target("compilejit.fused", "repro.compilejit.profile:run_profile_fused"),
    Target("compilejit.fused", "repro.compilejit.batched:run_batched_fused"),
    Target("logic.write_energy", "repro.logic.gates:write_energy"),
    Target("array.logic_op", "repro.array.tile:Tile.logic_op"),
    Target("faults.injector", "repro.faults.injectors:TrialInjector.attach"),
    Target("faults.injector", "repro.faults.injectors:TrialInjector.after_microstep"),
    Target("faults.injector", "repro.faults.injectors:TrialInjector.after_commit"),
    Target("lint.lint_program", "repro.lint.linter:lint_program"),
    Target("lint.program_bounds", "repro.lint.cost:program_bounds"),
    Target("harden.transform", "repro.harden.transform:harden_program"),
    Target("harvest.profile_run", "repro.harvest.intermittent:ProfileRun.run"),
    Target("harvest.intermittent_run", "repro.harvest.intermittent:IntermittentRun.run"),
    Target("harvest.buffer", "repro.harvest.capacitor:EnergyBuffer.draw_energy"),
    Target("harvest.buffer", "repro.harvest.capacitor:EnergyBuffer.add_energy"),
    Target("harvest.buffer", "repro.harvest.capacitor:EnergyBuffer.leak"),
    Target("env.trace", "repro.env.trace:TraceSource.energy"),
    Target("env.trace", "repro.env.trace:TraceSource.time_to_harvest"),
    Target("env.trace", "repro.env.trace:TraceSource.power"),
    Target(
        "perf.batched",
        "repro.perf.batched:BatchedMouse.run",
        count=lambda args: args[0].batch,
    ),
    Target("obs.emit", "repro.obs.telemetry:Telemetry.emit"),
    Target("obs.emit", "repro.obs.telemetry:Telemetry.emit_event"),
    Target("obs.emit", "repro.obs.prof:EnergyProfiler.record"),
    Target("obs.emit", "repro.obs.prof:EnergyProfiler.count_instructions"),
    Target("obs.emit", "repro.obs.prof:EnergyProfiler.count_restart"),
    Target("durability.checkpoint", "repro.durability.checkpoint:Checkpointer.on_commit"),
    Target("durability.checkpoint", "repro.durability.checkpoint:Checkpointer.on_outage"),
    Target("durability.checkpoint", "repro.durability.checkpoint:Checkpointer.on_profile_point"),
    Target("compile.build", "repro.compile.classifier:compile_svm_decision"),
    Target("compile.build", "repro.compile.classifier:compile_multiclass_svm"),
    Target("compile.build", "repro.compile.classifier:compile_bnn_output"),
    Target("compile.build", "repro.compile.builder:ProgramBuilder.finish"),
)

#: Per-layer metrics: name -> unit.  ``<span>.calls`` counts spans,
#: ``<span>.self_s`` sums their self time; the rest are derived in
#: :func:`layer_metrics`.
METRICS: dict[str, str] = {
    "core.step.calls": "count",
    "core.step.self_s": "s",
    "core.run.self_s": "s",
    "core.load.self_s": "s",
    "compilejit.compile.calls": "count",
    "compilejit.compile.self_s": "s",
    "compilejit.fused.self_s": "s",
    "compilejit.fused_frac": "ratio",
    "logic.write_energy.calls": "count",
    "logic.write_energy.self_s": "s",
    "array.logic_op.calls": "count",
    "array.logic_op.self_s": "s",
    "perf.kernel_hit_frac": "ratio",
    "faults.injector.self_s": "s",
    "faults.retries": "count",
    "lint.lint_program.self_s": "s",
    "lint.program_bounds.calls": "count",
    "lint.program_bounds.self_s": "s",
    "lint.program_bounds.repeat_frac": "ratio",
    "harden.transform.self_s": "s",
    "harvest.profile_run.self_s": "s",
    "harvest.intermittent_run.self_s": "s",
    "harvest.buffer.calls": "count",
    "harvest.outages": "count",
    "env.trace.calls": "count",
    "env.trace.self_s": "s",
    "perf.batched.self_s": "s",
    "perf.batched.samples": "count",
    "obs.emit.calls": "count",
    "obs.emit.self_s": "s",
    "durability.checkpoint.calls": "count",
    "durability.checkpoint.self_s": "s",
    "compile.build.self_s": "s",
    "bench.trace_overhead": "ratio",
}


class BoundsRepeats:
    """Counts ``program_bounds`` calls on an already-bounded pair.

    Keyed on the (program object, cost model parameters) pair; the
    program is held so its ``id`` cannot be reused while counting."""

    def __init__(self) -> None:
        self.seen: dict[tuple[int, object], object] = {}
        self.calls = 0
        self.repeats = 0

    def __call__(self, args: tuple) -> int:
        program, _config, cost = args[:3]
        key = (id(program), cost.params)
        self.calls += 1
        if key in self.seen:
            self.repeats += 1
        else:
            self.seen[key] = program
        return 0


def layer_metrics(
    totals: dict[str, tuple[int, float]],
    counts: dict[str, int],
    derived: dict[str, float],
) -> dict[str, float]:
    """Assemble :data:`METRICS` from span totals and harness counters.

    ``derived`` carries the values measured outside the spans: STATS and
    cache-stat deltas, report/ledger totals, the bounds repeat counter
    and the trace overhead.
    """
    out: dict[str, float] = {}
    for name in METRICS:
        span, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = totals.get(span, (0, 0.0))[0]
        elif field == "self_s":
            out[name] = totals.get(span, (0, 0.0))[1]
    out["perf.batched.samples"] = counts.get("perf.batched", 0)
    out.update(derived)
    missing = set(METRICS) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not measured: {sorted(missing)}")
    return {name: out[name] for name in METRICS}
