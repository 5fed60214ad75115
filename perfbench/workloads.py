"""The benchmark's four workloads: seeded items plus their referees.

Every workload is built by ``setup(seed, scratch)`` into a
:class:`Suite`: a list of :class:`Item` (one timed unit of work each)
and the untimed warm-up that runs each distinct program once.  The
seed only generates inputs — classifier data, fault-stream seeds,
source powers, trace shapes, leakage values — and never changes the
item mix, so two seeds cost the same host time up to input effects.

Each item carries a ``referee``: the same call with
:mod:`repro.compilejit` switched off, i.e. on the scalar microstep
referee.  The harness compares the two outputs (see ``harness.py``).
"""

from __future__ import annotations

import itertools
import math
import shutil
import tempfile
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from repro.compile.classifier import (
    CompiledBnnOutput,
    CompiledSvm,
    compile_bnn_output,
    compile_multiclass_svm,
    compile_svm_decision,
)
from repro.core.accelerator import Mouse
from repro.devices.parameters import ALL_TECHNOLOGIES
from repro.durability import CheckpointPolicy, Checkpointer
from repro.energy.metrics import Breakdown
from repro.energy.model import InstructionCostModel
from repro.env import kinetic, rf_burst, solar_diurnal
from repro.experiments.fault_campaign import _plans
from repro.faults import FaultCampaign, Workload, adder_workload
from repro.faults.report import CampaignReport
from repro.harden import HardenPolicy, harden_program
from repro.harden.frontier import _hardened_workload
from repro.harvest import (
    ConstantPowerSource,
    HarvestingConfig,
    IntermittentRun,
    ProfileRun,
    buffer_for,
)
from repro.isa.instruction import decode_cached
from repro.lint.config import LintConfig
from repro.ml.benchmarks import ALL_WORKLOADS
from repro.obs import EnergyProfiler, InMemorySink, Telemetry
from repro.perf.inference import (
    BatchResult,
    bnn_output_predict_batch,
    bnn_output_predict_serial,
    multiclass_svm_predict_batch,
    multiclass_svm_predict_serial,
    svm_classify_batch,
    svm_classify_serial,
)


@dataclass
class Item:
    """One timed unit of work.

    ``run`` is the timed call; ``referee`` re-runs it (or the part
    ``view`` selects) on the scalar referee and must return what
    ``view(run())`` returns.  ``samples`` is how many benchmark items
    one call completes (the batch size for batched classification).
    """

    kind: str
    label: str
    run: Callable[[], Any]
    referee: Callable[[], Any]
    samples: int = 1
    view: Callable[[Any], Any] = lambda out: out


@dataclass
class Suite:
    items: list[Item]
    warmups: list[Callable[[], Any]] = field(default_factory=list)


# ----------------------------------------------------------------------
# Canonical output form (what the referee check compares)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Raised:
    """A typed outcome: the item's call raised instead of returning."""

    kind: str
    message: str


def canon(out: Any) -> str:
    """Byte-exact text of a simulated output: floats by ``repr``."""
    if isinstance(out, Breakdown):
        return repr(astuple(out))
    if isinstance(out, CampaignReport):
        return out.to_json()
    if isinstance(out, BatchResult):
        return repr(
            (out.predictions.tolist(), [astuple(b) for b in out.breakdowns])
        )
    if isinstance(out, (tuple, list)):
        return "(" + ", ".join(canon(part) for part in out) + ")"
    return repr(out)


# ----------------------------------------------------------------------
# Seeded campaign programs (shared by three workloads)
# ----------------------------------------------------------------------


class CampaignPrograms:
    """The adder / SVM / BNN fault-campaign programs with seeded data.

    The adder is :func:`repro.faults.campaign.adder_workload`'s program
    (a 4-bit ripple adder over three SIMD columns) with seeded operand
    pairs; the SVM decision and the BNN output layer are the smallest
    programs of their compilers, with seeded support vector, weights
    and inputs.  Programs are compiled once and shared by every
    technology.
    """

    KINDS = ("adder", "bnn", "svm")

    def __init__(self, rng: np.random.Generator) -> None:
        self.adder = adder_workload()
        self.pairs = [tuple(int(v) for v in rng.integers(0, 16, 2)) for _ in range(3)]
        self.svm = compile_svm_decision(
            n_support=1, dimensions=1, input_bits=1, sv_bits=1,
            coef_bits=1, offset_bits=1, rows=1024, n_columns=1,
        )
        self.sv = rng.integers(0, 2, size=(1, 1))
        self.coef = rng.choice([-1, 1], size=1)
        self.offset = int(rng.integers(0, 2))
        self.x = [int(rng.integers(0, 2))]
        self.bnn = compile_bnn_output(fan_in=2, n_classes=2, bias_bits=2, rows=1024)
        self.weights = rng.integers(0, 2, size=(2, 2))
        self.biases = rng.integers(0, 4, size=2)
        self.bits = [int(v) for v in rng.integers(0, 2, size=2)]

    def workload(self, kind: str, tech) -> Workload:
        if kind == "adder":
            return self._adder(tech)
        if kind == "svm":
            return self._svm(tech)
        return self._bnn(tech)

    def _adder(self, tech) -> Workload:
        base, pairs = self.adder, self.pairs
        program = base.build().program

        def build() -> Mouse:
            mouse = Mouse(tech, rows=256, cols=8)
            for col, (a, c) in enumerate(pairs):
                mouse.write_value(0, 0, col, 4, a)
                mouse.write_value(0, 8, col, 4, c)
            mouse.load(program)
            return mouse

        return Workload(base.name, build, base.readout, [(a + c) % 32 for a, c in pairs])

    def _svm(self, tech) -> Workload:
        svm, sv, coef, offset, x = self.svm, self.sv, self.coef, self.offset, self.x

        def build() -> Mouse:
            mouse = svm.machine(sv, coef, offset, tech)
            svm.set_input(mouse, x)
            return mouse

        return Workload(
            "svm1x1", build, lambda m: [svm.read_score(m)],
            [CompiledSvm.reference_score(x, sv, coef, offset)],
        )

    def _bnn(self, tech) -> Workload:
        bnn, weights, biases, bits = self.bnn, self.weights, self.biases, self.bits

        def build() -> Mouse:
            mouse = bnn.machine(weights, biases, tech)
            bnn.set_input(mouse, bits)
            return mouse

        return Workload(
            "bnn2x2", build, lambda m: [bnn.predict(m)],
            [CompiledBnnOutput.reference_prediction(bits, weights, biases)],
        )


def _hardened(base: Workload, rates) -> Workload:
    """``base`` running the fully hardened rewrite of its program."""
    machine = base.build()
    bank = machine.bank
    config = LintConfig(n_data_tiles=len(bank.data_tiles), rows=bank.rows, cols=bank.cols)
    program = harden_program(machine.program, rates, config, HardenPolicy(level=1.0))
    return _hardened_workload(base, program)


def _warm_program(workload: Workload) -> Callable[[], Any]:
    """Plan compile + kernel LUTs (one compiled run) and the decode memo."""

    def warm() -> None:
        mouse = workload.build()
        for word in mouse.program.words():
            decode_cached(word)
        mouse.run()

    return warm


def _referee(call: Callable[[], Any]) -> Callable[[], Any]:
    """``call`` with the compiled tiers off (the scalar referee)."""
    from repro import compilejit

    def referee():
        was = compilejit.ENABLED
        compilejit.set_enabled(False)
        try:
            return call()
        finally:
            compilejit.set_enabled(was)

    return referee


def bit_reversal_order(n: int) -> list[int]:
    """A permutation of ``range(n)`` whose every prefix samples evenly.

    Items are listed grouped by kind; visiting them in bit-reversed
    index order makes any prefix a stratified sample of the whole
    list, so a time-bounded run that stops mid-round still sees the
    workload's full item mix in proportion."""
    bits = max(1, (n - 1).bit_length())
    keys = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]
    return sorted(range(n), key=keys.__getitem__)


# ----------------------------------------------------------------------
# fault-campaign
# ----------------------------------------------------------------------

#: Trials per campaign point, as ``repro all`` runs them: 6 per
#: unhardened point (the ``faults`` experiment), 8 per hardened point
#: (the ``hardening-frontier`` experiment).
TRIALS, HARDENED_TRIALS = 6, 8


def fault_campaign(seed: int, scratch: Path) -> Suite:
    """Each program under the ``faults`` experiment's four plans, plus
    its hardened (level 1.0) rewrite under gate flips without retry,
    the verify-off setting the frontier campaigns run.

    The technology rotates as a Latin square over (program, plan): the
    point of program ``p`` and plan ``v`` runs on technology
    ``(p + v) mod 3``, so every program meets every technology and
    every plan runs once on each technology.  That is 15 points, a
    third of the full product, and a round short enough for a window to
    repeat every point several times."""
    rng = np.random.default_rng([seed, 0])
    programs = CampaignPrograms(rng)
    items, warmups, warmed = [], [], set()

    def point(kind, workload, tech, plan_name, plan, trials):
        campaign_seed = int(rng.integers(2**31))

        def run():
            return FaultCampaign(workload, plan, trials=trials, seed=campaign_seed).run(jobs=1)

        retry = "" if plan.verify_retry else " no-retry"
        items.append(Item(
            kind=kind, label=f"{workload.name}/{tech.name}/{plan_name}{retry}",
            run=run, referee=_referee(run),
        ))

    def warm(key, workload):
        if key not in warmed:
            warmed.add(key)
            warmups.append(_warm_program(workload))

    for p, kind in enumerate(CampaignPrograms.KINDS):
        for v in range(len(_plans(ALL_TECHNOLOGIES[0])) + 1):
            tech = ALL_TECHNOLOGIES[(p + v) % len(ALL_TECHNOLOGIES)]
            plans = _plans(tech)
            base = programs.workload(kind, tech)
            if v < len(plans):
                warm((kind, tech.name), base)
                point(kind, base, tech, *plans[v], TRIALS)
                continue
            name, no_retry = next((n, q) for n, q in plans if not q.verify_retry)
            hardened = _hardened(base, no_retry.gate_flip_rates)
            warm((kind + "+hardened", tech.name), hardened)
            point(kind + "+hardened", hardened, tech, name, no_retry, HARDENED_TRIALS)
    return Suite(items, warmups)


# ----------------------------------------------------------------------
# harvest-sweep / observed-sweep
# ----------------------------------------------------------------------

#: Constant-source sweep points (W), 20 uW to 1 mW.
POWERS = tuple(float(p) for p in np.geomspace(20e-6, 1e-3, 4))


def _jitter(rng, value: float, spread: float) -> float:
    """``value`` times a seeded log-uniform factor within ``±spread``.

    Inputs vary with the seed inside narrow bands, so the host cost of
    an item (restarts, events, trace segments crossed) and whether it
    ends in a typed failure do not flip from one seed to the next."""
    return value * math.exp(rng.uniform(-spread, spread))


@dataclass
class _HarvestCase:
    """One harvested run before observation is decided."""

    kind: str
    label: str
    group: str
    config: Callable[[], HarvestingConfig]  # fresh buffer state per call
    profile: Any = None  # ProfileRun items
    cost: Any = None
    workload: Optional[Workload] = None  # IntermittentRun items


def _harvest_cases(seed: int) -> list[_HarvestCase]:
    rng = np.random.default_rng([seed, 1])
    cases: list[_HarvestCase] = []
    for tech in ALL_TECHNOLOGIES:
        cost = InstructionCostModel(tech)
        for workload in ALL_WORKLOADS:
            profile = workload.profile(cost)
            group = f"{workload.name}/{tech.name}"
            for power in (_jitter(rng, p, 0.05) for p in POWERS):
                cases.append(_HarvestCase(
                    "constant", f"{group}/{power * 1e6:.1f}uW", group,
                    lambda tech=tech, power=power: HarvestingConfig.paper(tech, power),
                    profile, cost,
                ))
            traces = (
                rf_burst(seed=int(rng.integers(2**31)), burst_watts=8e-4, idle_watts=4e-5),
                solar_diurnal(seed=int(rng.integers(2**31)), peak_watts=2e-4,
                              floor_watts=3e-5, day_length=0.2),
                # 96 footsteps: enough energy for every Projected run; the
                # largest Modern STT runs outlast the walk and fail-stop.
                kinetic(seed=int(rng.integers(2**31)), mean_watts=4e-4, n_steps=96),
            )
            for trace in traces:
                cases.append(_HarvestCase(
                    "trace", f"{group}/{trace.name}", group,
                    lambda tech=tech, trace=trace: HarvestingConfig.from_trace(tech, trace),
                    profile, cost,
                ))
            power = _jitter(rng, 2e-4, 0.05)
            leakage = _jitter(rng, 1e-7, 0.1)
            esr = _jitter(rng, 0.5, 0.1)
            cases.append(_HarvestCase(
                "nonideal", f"{group}/leak{leakage:.2e}/esr{esr:.2f}", group,
                lambda tech=tech, power=power, leakage=leakage, esr=esr: HarvestingConfig(
                    source=ConstantPowerSource(power),
                    buffer=buffer_for(tech, leakage_amps=leakage, esr_ohms=esr),
                ),
                profile, cost,
            ))
    programs = CampaignPrograms(np.random.default_rng([seed, 2]))
    for kind in CampaignPrograms.KINDS:
        for tech in ALL_TECHNOLOGIES:
            power = _jitter(rng, 5e-4, 0.1)
            workload = programs.workload(kind, tech)
            cases.append(_HarvestCase(
                "intermittent", f"{workload.name}/{tech.name}/{power * 1e6:.1f}uW",
                f"{workload.name}/{tech.name}",
                lambda tech=tech, power=power: HarvestingConfig.paper(tech, power),
                workload=workload,
            ))
    return cases


def _harvest_call(case: _HarvestCase, observe: bool, scratch: Optional[Path]):
    """The item's call: unobserved, or with telemetry (+ profiler and
    optionally a host checkpointer in a fresh scratch directory)."""

    # A handful of images per run: a quarter of the profile's
    # instructions, or half of the functional program.
    if case.profile is not None:
        period = max(1, case.profile.instructions // 4)
    else:
        period = max(1, len(case.workload.build().program) // 2)

    def run():
        sink = InMemorySink() if observe else None
        telemetry = Telemetry(sink) if observe else None
        profiler = EnergyProfiler() if observe and case.profile is not None else None
        directory = tempfile.mkdtemp(dir=scratch) if scratch is not None else None
        try:
            checkpointer = None
            if directory is not None:
                checkpointer = Checkpointer(
                    directory, CheckpointPolicy(period=period), telemetry=telemetry
                )
            if case.profile is not None:
                breakdown = ProfileRun(
                    case.profile, case.cost, case.config(), telemetry=telemetry,
                    checkpointer=checkpointer, profiler=profiler,
                ).run()
            else:
                breakdown = IntermittentRun(
                    case.workload.build(), case.config(), telemetry=telemetry,
                    checkpointer=checkpointer,
                ).run()
        finally:
            if directory is not None:
                shutil.rmtree(directory, ignore_errors=True)
        if not observe:
            return breakdown
        root = profiler.root if profiler is not None else None
        return (breakdown, root, len(sink.events))

    return run


def _sweep(seed: int, scratch: Path, observe: bool) -> Suite:
    cases = _harvest_cases(seed)
    items, warmups, seen = [], [], set()
    for index, case in enumerate(cases):
        # Every eighth observed item also writes host checkpoints.
        checkpoint = observe and index % 8 == 7
        run = _harvest_call(case, observe, scratch if checkpoint else None)
        items.append(Item(
            kind=case.kind + ("+ckpt" if checkpoint else ""),
            label=case.label,
            run=run,
            referee=_referee(run),
        ))
        if case.group not in seen:
            seen.add(case.group)
            warmups.append(run)
    return Suite(items, warmups)


def harvest_sweep(seed: int, scratch: Path) -> Suite:
    return _sweep(seed, scratch, observe=False)


def observed_sweep(seed: int, scratch: Path) -> Suite:
    return _sweep(seed, scratch, observe=True)


# ----------------------------------------------------------------------
# batch-inference
# ----------------------------------------------------------------------

BATCH_SIZES = (1, 8, 64)


def _classifiers(rng):
    """(name, batch call, serial referee call, input sampler) per program:
    binary SVM, one-vs-rest SVM and BNN output layer at two sizes each."""
    out = []
    for size, kw in (
        ("S", dict(n_support=1, dimensions=1, input_bits=2, sv_bits=2, coef_bits=2, offset_bits=2)),
        ("M", dict(n_support=1, dimensions=2, input_bits=3, sv_bits=3, coef_bits=3, offset_bits=3)),
    ):
        compiled = compile_svm_decision(rows=1024, n_columns=1, **kw)
        top = 1 << kw["input_bits"]
        sv = rng.integers(0, top, size=(kw["n_support"], kw["dimensions"]))
        coef = rng.integers(1, top, size=kw["n_support"]) * rng.choice([-1, 1], kw["n_support"])
        offset = int(rng.integers(0, top))
        out.append((
            f"svm-{size}",
            lambda X, c=compiled, sv=sv, coef=coef, o=offset: svm_classify_batch(c, sv, coef, o, X),
            lambda X, c=compiled, sv=sv, coef=coef, o=offset: svm_classify_serial(c, sv, coef, o, X),
            lambda n, top=top, d=kw["dimensions"]: rng.integers(0, top, size=(n, d)),
        ))
    for size, classes in (("S", 2), ("M", 3)):
        compiled = compile_multiclass_svm(
            n_classes=classes, n_support_per_class=1, dimensions=1,
            input_bits=2, sv_bits=2, coef_bits=2, offset_bits=2,
        )
        sv = [rng.integers(0, 4, size=(1, 1)) for _ in range(classes)]
        coef = [rng.integers(1, 4, size=1) * rng.choice([-1, 1], 1) for _ in range(classes)]
        offsets = [int(v) for v in rng.integers(0, 4, size=classes)]
        out.append((
            f"ovr-{size}",
            lambda X, c=compiled, sv=sv, coef=coef, o=offsets: multiclass_svm_predict_batch(c, sv, coef, o, X),
            lambda X, c=compiled, sv=sv, coef=coef, o=offsets: multiclass_svm_predict_serial(c, sv, coef, o, X),
            lambda n: rng.integers(0, 4, size=(n, 1)),
        ))
    for size, (fan_in, classes, bias_bits, rows) in (("S", (4, 2, 2, 1024)), ("M", (8, 3, 4, 256))):
        compiled = compile_bnn_output(fan_in=fan_in, n_classes=classes, bias_bits=bias_bits, rows=rows)
        weights = rng.integers(0, 2, size=(fan_in, classes))
        biases = rng.integers(0, 1 << bias_bits, size=classes)
        out.append((
            f"bnn-{size}",
            lambda X, c=compiled, w=weights, b=biases: bnn_output_predict_batch(c, w, b, X),
            lambda X, c=compiled, w=weights, b=biases: bnn_output_predict_serial(c, w, b, X),
            lambda n, f=fan_in: rng.integers(0, 2, size=(n, f)),
        ))
    return out


def _pick(result: BatchResult, index: int) -> BatchResult:
    return BatchResult(
        predictions=result.predictions[index:index + 1],
        breakdowns=result.breakdowns[index:index + 1],
    )


def batch_inference(seed: int, scratch: Path) -> Suite:
    rng = np.random.default_rng([seed, 3])
    items, warmups = [], []
    for name, batched, serial, sample in _classifiers(rng):
        for batch in BATCH_SIZES:
            X = sample(batch)
            # The referee replays one seeded sample of the batch serially:
            # per-sample ledgers do not depend on the rest of the batch.
            pick = int(rng.integers(batch))
            run = lambda batched=batched, X=X: batched(X)
            items.append(Item(
                kind=f"batch{batch}",
                label=f"{name}/batch{batch}",
                run=run,
                referee=_referee(lambda serial=serial, X=X, pick=pick: serial(X[pick:pick + 1])),
                samples=batch,
                view=lambda out, pick=pick: _pick(out, pick),
            ))
            if batch == 1:
                warmups.append(run)
    programs = CampaignPrograms(np.random.default_rng([seed, 4]))
    for kind in CampaignPrograms.KINDS:
        for tech in ALL_TECHNOLOGIES:
            workload = programs.workload(kind, tech)

            def run(workload=workload):
                mouse = workload.build()
                breakdown = mouse.run().breakdown
                return (workload.readout(mouse), breakdown)

            items.append(Item(
                kind="continuous",
                label=f"{workload.name}/{tech.name}",
                run=run,
                referee=_referee(run),
            ))
            warmups.append(_warm_program(workload))
    return Suite(items, warmups)


WORKLOADS: dict[str, Callable[[int, Path], Suite]] = {
    "fault-campaign": fault_campaign,
    "harvest-sweep": harvest_sweep,
    "observed-sweep": observed_sweep,
    "batch-inference": batch_inference,
}
