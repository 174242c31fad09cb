"""The exhaustive mapper: forked simulation of every surviving injection.

Orchestration of one :class:`~repro.exhaustive.space.ExhaustiveSpec`:

1. capture the golden trace (:mod:`repro.exhaustive.trace`) and reduce
   the step-model spaces (:mod:`repro.exhaustive.reduce`);
2. resolve every surviving representative against the content-addressed
   :class:`~repro.store.ResultStore` (key:
   :func:`~repro.store.digest.run_digest` over program digest + victim +
   fault + budget — deliberately backend-free, both backends are
   byte-identical);
3. fan the missing representatives out through
   :class:`~repro.eval.resilient.ResilientExecutor` in deterministic
   chunks — every worker receives the parent's compiled program and
   golden trace as the executor's context — each fork restored from the
   nearest golden snapshot instead of re-running from reset, and
   stopped at the first golden snapshot step where its state is one the
   chunk already classified: golden's (``masked``) or one a finished
   sibling passed through (that sibling's verdict), with chunks cut in
   ``(model, target, bit, trigger_step)`` order so the forks most likely
   to meet share one; the executor's result sink stores each chunk's
   classifications as it lands, so a failed map keeps finished chunks;
4. run the time-triggered models as a deterministic-grid campaign over
   :class:`~repro.eval.campaign.CampaignRunner` (which brings its own
   store memoization and resilient fan-out);
5. emit one :class:`~repro.faultsim.report.VulnerabilityMap` with
   records in canonical enumeration order — byte-identical to the naive
   from-reset enumeration, just ~10–100× fewer simulations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..eval.campaign import CampaignRunner
from ..eval.resilient import ResilientExecutor, RetryPolicy, TaskResult
from ..faultsim.classify import Outcome
from ..faultsim.explorer import FaultCampaignSpec, classify_outcomes
from ..faultsim.models import FaultSimError, FaultSpec
from ..faultsim.report import VulnerabilityMap
from ..ir.liveness import linked_liveness
from ..runtime import Machine, backend_for, drain
from ..store.digest import content_digest, run_digest
from .reduce import ReducedPlan, RepKey, naive_step_plan, reduce_step_model
from .report import ExhaustiveResult, ReductionStats
from .space import ExhaustiveSpec, enumerate_time_model
from .trace import GoldenTrace, capture_trace

#: Representatives per executor task: large enough to amortize dispatch,
#: small enough that a pool keeps every worker busy.
CHUNK_SIZE = 64

#: One simulated representative's classification: (outcome value, error).
Verdict = Tuple[str, Optional[str]]


def program_digest(linked) -> str:
    """Content identity of a linked program (store-key component)."""
    return content_digest({
        "code": [str(instr) for instr in linked.instrs],
        "entry": linked.entry,
        "init": list(linked.init_words),
    })


def injection_digest(prog_digest: str, scheme: str, workload: str,
                     fault: FaultSpec, budget: int) -> str:
    """Store key of one stable-power injection classification.

    Content-only, like every :func:`run_digest` key: no campaign name,
    no backend (classifications are backend-independent by the repo's
    bit-identity guarantee), no grid index — so any client that ever
    classified this injection against this program serves it warm.
    """
    return run_digest({
        "kind": "exhaustive-injection",
        "program": prog_digest,
        "scheme": scheme,
        "workload": workload,
        "budget": budget,
        "fault": fault.to_dict(),
    })


class KnownStates:
    """The fork states one chunk has already classified.

    ``verdicts`` maps the state key of every leg end a finished fork
    passed through to that fork's verdict; the stop counters say how
    many forks :func:`classify_fork` ended early on golden's state or on
    such a sibling's.  :func:`_simulate_chunk` builds one per chunk and
    drops it with the chunk.
    """

    __slots__ = ("verdicts", "golden_stops", "sibling_stops")

    def __init__(self) -> None:
        self.verdicts: Dict[tuple, Verdict] = {}
        self.golden_stops = 0
        self.sibling_stops = 0


def _state_key(machine) -> tuple:
    """Everything a stable-power run's rest and verdict depend on, at
    its current step.  Wear and the executed-instruction counters
    change neither; cycles drive the hub's devices."""
    return (machine.instr_count, machine.pc, machine.cycles,
            tuple(machine.regs), tuple(machine.mem),
            tuple(machine.out_buffer), tuple(machine.committed_out),
            machine.sensor_cursor, frozenset(machine._pending_rcolor))


def _snapshot_key(snap) -> tuple:
    """:func:`_state_key` of the golden machine a snapshot froze."""
    return (snap.instr_count, snap.pc, snap.cycles, snap.regs, snap.mem,
            snap.out_buffer, snap.committed_out, snap.sensor_cursor,
            snap.pending_rcolor)


def _verdict(machine, trace: GoldenTrace,
             exc: Optional[Exception]) -> Verdict:
    if exc is not None:
        return Outcome.BRICK.value, f"{type(exc).__name__}: {exc}"
    if not machine.halted:
        return Outcome.HANG.value, None
    if tuple(machine.committed_out) != trace.golden_out:
        return Outcome.SDC.value, None
    return Outcome.MASKED.value, None


def classify_fork(linked, backend, trace: GoldenTrace, fault: FaultSpec,
                  from_reset: bool = False,
                  known: Optional[KnownStates] = None) -> Verdict:
    """Run one injection on stable power and classify its end state.

    The fork restores the nearest golden snapshot at or before the
    trigger (or starts from reset when ``from_reset``), arms the standard
    one-shot :class:`~repro.faultsim.injector.FaultInjector`, and drains
    under the trace's shared absolute step budget:

    * trap (``MachineFault``/``SimulationError``) -> ``brick``;
    * budget exhausted without halting -> ``hang``;
    * halted with committed output != golden -> ``sdc``;
    * halted with golden output -> ``masked``.

    ``detected`` cannot occur on stable power: no monitor, no runtime
    recovery machinery is in the loop.

    Given ``known``, the drain runs in legs that end at golden snapshot
    steps: snapshots k1, k1+1, k1+3, k1+7, ... where k1 is the first
    after the trigger and the gaps double; past the last snapshot the
    fork drains to the budget.  At each leg end the fired fork stops if
    its state is golden's at that step (``masked``) or one a finished
    fork of ``known`` passed through (that fork's verdict).  The stop is
    exact: a fired injector does nothing more, the budget is absolute,
    and the rest of a stable-power run depends only on the state key, so
    the fork would halt, trap or hang exactly as the state's first
    owner did.
    """
    from ..faultsim.injector import FaultInjector

    machine = Machine(linked)
    if not from_reset:
        machine.restore(trace.snapshot_before(fault.trigger_step))
    injector = FaultInjector(fault)
    machine.attach(fault_hook=injector)
    if known is None:
        return _verdict(machine, trace, drain(
            machine, backend, trace.budget - machine.instr_count))
    passed: List[tuple] = []
    snapshots = trace.snapshots
    k = fault.trigger_step // trace.stride + 1
    gap = 1
    while k < len(snapshots):
        exc = drain(machine, backend,
                    k * trace.stride - machine.instr_count)
        if exc is not None or machine.halted:
            verdict = _verdict(machine, trace, exc)
            break
        if injector.fired:
            key = _state_key(machine)
            if key == _snapshot_key(snapshots[k]):
                known.golden_stops += 1
                verdict = Outcome.MASKED.value, None
                break
            verdict = known.verdicts.get(key)
            if verdict is not None:
                known.sibling_stops += 1
                break
            passed.append(key)
        k += gap
        gap *= 2
    else:
        verdict = _verdict(machine, trace, drain(
            machine, backend, trace.budget - machine.instr_count))
    for key in passed:
        known.verdicts[key] = verdict
    return verdict


# ----------------------------------------------------------------------
# Worker side (multiprocessing pool).
# ----------------------------------------------------------------------
def _simulate_chunk(context: tuple, payload: dict
                    ) -> Tuple[List[List[Optional[str]]], int, int]:
    """Executor task: classify one chunk of representative injections.

    ``context`` is ``(linked, backend, trace, from_reset)``, built once
    by the parent and installed in every worker by the executor; the
    payload carries the chunk's :class:`FaultSpec` values themselves
    (frozen plain data, picklable as they are).  Returns the verdicts in
    chunk order plus the golden and sibling stop counts of the chunk's
    :class:`KnownStates` (none from reset: the naive mapper is the
    oracle and drains every fork in full).
    """
    linked, backend, trace, from_reset = context
    known = None if from_reset else KnownStates()
    out: List[List[Optional[str]]] = []
    for fault in payload["faults"]:
        outcome, error = classify_fork(linked, backend, trace, fault,
                                       from_reset=from_reset, known=known)
        out.append([outcome, error])
    if known is None:
        return out, 0, 0
    return out, known.golden_stops, known.sibling_stops


# ----------------------------------------------------------------------
# Driver side.
# ----------------------------------------------------------------------

def _simulate_representatives(spec: ExhaustiveSpec,
                              reps: List[Tuple[RepKey, FaultSpec]],
                              linked, trace: GoldenTrace,
                              workers: int, naive: bool, store,
                              policy: Optional[RetryPolicy],
                              stats: ReductionStats
                              ) -> Dict[RepKey, Verdict]:
    """Classify every representative, store-first then simulate."""
    verdicts: Dict[RepKey, Verdict] = {}
    missing: List[Tuple[RepKey, FaultSpec]] = []
    victim = spec.victim
    digests: Dict[RepKey, str] = {}
    if store is not None:
        prog_digest = program_digest(linked)
        digests = {key: injection_digest(prog_digest, victim.scheme,
                                         victim.workload, fault,
                                         trace.budget)
                   for key, fault in reps}
    for key, fault in reps:
        entry = store.get(digests[key]) if store is not None else None
        if entry is not None:
            value = entry["value"]
            verdicts[key] = (value["outcome"], value.get("error"))
            stats.store_hits += 1
        else:
            missing.append((key, fault))
    if not missing:
        return verdicts

    # Flips of one register bit are the forks most likely to meet.
    missing.sort(key=lambda item: (item[1].model, item[1].target,
                                   item[1].bit, item[1].trigger_step))
    chunks = [missing[i:i + CHUNK_SIZE]
              for i in range(0, len(missing), CHUNK_SIZE)]

    def record(result: TaskResult) -> None:
        if not result.ok:
            return
        chunk = chunks[result.index]
        out, golden_stops, sibling_stops = result.result
        stats.golden_stops += golden_stops
        stats.sibling_stops += sibling_stops
        for (key, fault), (outcome, error) in zip(chunk, out):
            verdicts[key] = (outcome, error)
            stats.simulated += 1
            if store is not None and store.put(
                    digests[key], {"outcome": outcome, "error": error}):
                stats.store_puts += 1

    executor = ResilientExecutor(
        _simulate_chunk, workers=workers, policy=policy,
        context=(linked, backend_for(victim.backend), trace, naive),
        on_result=record)
    tasks = [(index, {"faults": [fault for _, fault in chunk]})
             for index, chunk in enumerate(chunks)]
    for result in executor.run(tasks):
        if not result.ok:
            raise FaultSimError(
                f"exhaustive chunk {result.index} failed: {result.error}")
    return verdicts


def _run_time_models(spec: ExhaustiveSpec, models: Tuple[str, ...],
                     runner: CampaignRunner, stats: ReductionStats
                     ) -> Dict[str, List[Tuple[FaultSpec, Outcome,
                                               Optional[str], List[dict]]]]:
    """Grid-campaign the time-triggered models, classified per injection."""
    plans = {model: enumerate_time_model(spec, model) for model in models}
    flat: List[FaultSpec] = [f for model in models for f in plans[model]]
    stats.campaign_points = len(flat)
    experiment = FaultCampaignSpec(victim=spec.victim, name=spec.name) \
        .experiment_spec(flat)
    campaign = runner.run(experiment)
    stats.campaign_store_hits = campaign.stats.store_hits
    stats.campaign_executed = campaign.stats.store_misses \
        if runner.store is not None else len(flat)
    classified = {fault: record
                  for fault, *record in classify_outcomes(campaign)}
    return {model: [(fault, *classified[fault]) for fault in plans[model]]
            for model in models}


def exhaustive_map(spec: ExhaustiveSpec, workers: int = 1,
                   naive: bool = False, store=None,
                   runner: Optional[CampaignRunner] = None,
                   policy: Optional[RetryPolicy] = None
                   ) -> ExhaustiveResult:
    """Produce one complete vulnerability map for one victim.

    ``naive=True`` disables every reduction layer and snapshot forking —
    each enumerated step-model injection is simulated from reset.  The
    result must be byte-identical (map fingerprint) to the reduced run;
    the differential tests and the CI smoke assert exactly that.
    Store-backed memoization stays off in naive mode so the comparison
    actually simulates.
    """
    step_models = spec.step_models()
    time_models = spec.time_models()
    if naive:
        store = None
    if runner is None and time_models:
        runner = CampaignRunner(workers=workers, policy=policy, store=store)

    compiled = runner.compile(spec.victim) if runner is not None \
        else spec.victim.compile()
    linked = compiled.linked

    stats = ReductionStats(naive=naive)
    plans: Dict[str, ReducedPlan] = {}
    verdicts: Dict[RepKey, Verdict] = {}
    trace: Optional[GoldenTrace] = None
    if step_models:
        trace = capture_trace(linked, spec.snapshot_stride)
        stats.golden_steps = trace.golden_steps
        liveness = linked_liveness(linked)
        reps: List[Tuple[RepKey, FaultSpec]] = []
        for model in step_models:
            plan = naive_step_plan(spec, model, trace) if naive \
                else reduce_step_model(spec, model, trace, liveness, linked)
            plans[model] = plan
            stats.enumerated[model] = plan.enumerated
            for reason, count in plan.layers.items():
                stats.layers[reason] = stats.layers.get(reason, 0) + count
            reps.extend(plan.representatives.items())
        stats.representatives = len(reps)
        verdicts = _simulate_representatives(
            spec, reps, linked, trace, workers, naive, store, policy,
            stats)

    time_records = {}
    if time_models:
        time_records = _run_time_models(spec, time_models, runner, stats)
        for model in time_models:
            stats.enumerated[model] = len(time_records[model])

    vmap = VulnerabilityMap(scheme=spec.victim.scheme,
                            workload=spec.victim.workload, seed=0)
    for model in spec.models:
        if model in plans:
            for fault, key in plans[model].entries:
                if key is None:
                    vmap.add(fault, Outcome.MASKED)
                else:
                    outcome, error = verdicts[key]
                    vmap.add(fault, Outcome(outcome), error=error)
        elif model in time_records:
            for fault, outcome, error, events in time_records[model]:
                vmap.add(fault, outcome, error=error, events=events)
    return ExhaustiveResult(spec=spec, map=vmap, stats=stats)
