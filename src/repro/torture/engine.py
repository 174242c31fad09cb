"""The torture engine: replay one adversarial schedule, check oracles.

The engine drives a :class:`~repro.runtime.machine.Machine` plus a
crash-consistency runtime the same way ``tests/test_crash_consistency.py``
does, but events land at *exact cycle boundaries* under either execution
backend: execution advances in bulk slices of
``(target_cycle - cycles) // max_instr_cycles`` instructions — which can
never overshoot the target cycle — then single-steps the residue, so the
first instruction boundary at or past the event cycle is found
identically by the interpreter and the threaded backend.  Everything the
engine itself does (announce, power-cycle, arm faults, pend vectors)
happens between slices on architectural state both backends share, which
is what makes torture fingerprints backend-portable and schedules
replayable bit-for-bit.

A run produces a :class:`TortureOutcome`: the oracle violations (see
:mod:`repro.torture.oracles`), a content-digest fingerprint over the
final architectural state, and enough diagnostics to label a corpus
entry.  ``strict=True`` escalates the first violation to
:class:`~repro.errors.InvariantViolation` for executor fan-outs that
must never retry oracle failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import compile_scheme
from ..errors import InvariantViolation
from ..faultsim.golden import capture_trace
from ..faultsim.injector import FaultInjector
from ..faultsim.models import CKPT_CORRUPT, CKPT_TRUNCATE, FaultSpec
from ..isa.instructions import CYCLES, Opcode
from ..isa.program import ISR_MAX_DEPTH
from ..runtime import runtime_for
from ..runtime.backend import backend_for
from ..runtime.machine import Machine
from ..runtime.nvp import NVPRuntime
from ..store.digest import content_digest
from ..workloads import REGISTRY, source
from .oracles import (
    FORWARD_PROGRESS,
    GOLDEN_OUTPUT,
    ISR_AT_LEAST_ONCE,
    MACHINE_FAULT,
    TORN_STATE,
    Violation,
    crash_applies,
    golden_applies,
)
from .schedule import (
    CKPT_FAULT,
    DATA_FAULT,
    ISR_BURST,
    POWER_FAIL,
    SCHEME_CONTRACTS,
    TortureError,
    TortureProfile,
    TortureSchedule,
    validate_schedule,
)

__all__ = [
    "TortureOutcome",
    "TortureTarget",
    "build_target",
    "run_schedule",
]

_ST = CYCLES[Opcode.ST]

#: Region budget used for gecko compiles of kernel workloads (matches the
#: crash-consistency tests); reactive workloads keep the compiler default
#: so handler WCETs fit.
KERNEL_GECKO_BUDGET = 1500

#: Consecutive compliant zero-progress failures that count as livelock.
_STALL_LIMIT = 3


# ----------------------------------------------------------------------
# Targets.
# ----------------------------------------------------------------------
@dataclass
class TortureTarget:
    """One compiled victim plus its golden-run facts, reusable across
    many schedules (compile once, torture thousands of times)."""

    workload: str
    scheme: str
    region_budget: Optional[int]
    compiled: object
    golden_out: Tuple[int, ...]
    golden_steps: int
    profile: TortureProfile
    max_instr_cycles: int

    @property
    def linked(self):
        return self.compiled.linked

    @property
    def base_scheme(self) -> str:
        return self.scheme.split("-")[0]

    @property
    def rollback_mode(self) -> bool:
        return self.scheme == "gecko-rollback"


_TARGET_CACHE: Dict[Tuple[str, str, Optional[int]], TortureTarget] = {}


def build_target(workload: str, scheme: str,
                 region_budget: Optional[int] = None) -> TortureTarget:
    """Compile ``workload`` for ``scheme`` and profile its golden run."""
    if scheme not in SCHEME_CONTRACTS:
        raise TortureError(
            f"unknown scheme {scheme!r} "
            f"(want one of {', '.join(sorted(SCHEME_CONTRACTS))})")
    entry = REGISTRY.get(workload)
    if entry is None:
        raise TortureError(f"unknown workload {workload!r}")
    base = scheme.split("-")[0]
    if base == "gecko" and region_budget is None \
            and entry.kind == "kernel":
        region_budget = KERNEL_GECKO_BUDGET
    key = (workload, scheme, region_budget)
    cached = _TARGET_CACHE.get(key)
    if cached is not None:
        return cached
    if base == "gecko":
        kwargs = {} if region_budget is None \
            else {"region_budget": region_budget}
        compiled = compile_scheme(source(workload), "gecko", **kwargs)
    else:
        compiled = compile_scheme(source(workload), base)

    golden = capture_trace(compiled.linked)
    profile = TortureProfile(
        total_cycles=golden.golden_cycles,
        mark_cycles=golden.mark_cycles,
        isr_entry_cycles=tuple(span.entry_cycles
                               for span in golden.isr_spans),
        image_cycles=NVPRuntime.checkpoint_size_words(8) * _ST,
        has_periph=golden.has_periph,
        vectors=tuple(sorted(compiled.linked.isr_vectors))
        if golden.has_periph else (),
    )
    target = TortureTarget(
        workload=workload, scheme=scheme, region_budget=region_budget,
        compiled=compiled, golden_out=golden.golden_out,
        golden_steps=golden.golden_steps, profile=profile,
        max_instr_cycles=max(i.cycles for i in compiled.linked.instrs),
    )
    _TARGET_CACHE[key] = target
    return target


# ----------------------------------------------------------------------
# Engine-side fault hooks.
# ----------------------------------------------------------------------
class _StepFaultHook:
    """Queue of one-shot architectural faults, applied at the next
    instruction boundary.  ``fired`` lets the threaded backend resume
    whole-block execution once nothing is armed; ``trigger_step`` is 0
    because a queued fault acts on the very next step."""

    trigger_step = 0

    def __init__(self) -> None:
        self._armed: List[Tuple[str, int, int]] = []

    @property
    def fired(self) -> bool:
        return not self._armed

    def arm(self, model: str, reg: int, bit: int) -> None:
        self._armed.append((model, reg, bit))

    def before_step(self, machine) -> bool:
        if not self._armed:
            return False
        model, reg, bit = self._armed.pop(0)
        if model == "reg_flip":
            machine.regs[reg] ^= 1 << bit
            return False
        return True  # instr_skip


# ----------------------------------------------------------------------
# Outcomes.
# ----------------------------------------------------------------------
@dataclass
class TortureOutcome:
    """Everything one torture run produced, as replayable plain data."""

    violations: List[Violation] = field(default_factory=list)
    fingerprint: str = ""
    committed_out: Tuple[int, ...] = ()
    halted: bool = False
    cycles: int = 0
    instr_count: int = 0
    crashes: int = 0
    deliveries: int = 0
    heals: int = 0
    triggered: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def oracles(self) -> frozenset:
        return frozenset(v.oracle for v in self.violations)

    def to_dict(self) -> dict:
        return {
            "violations": [v.to_dict() for v in self.violations],
            "fingerprint": self.fingerprint,
            "out": list(self.committed_out),
            "halted": self.halted,
            "cycles": self.cycles,
            "steps": self.instr_count,
            "crashes": self.crashes,
            "deliveries": self.deliveries,
            "heals": self.heals,
            "triggered": self.triggered,
        }


# ----------------------------------------------------------------------
# The run.
# ----------------------------------------------------------------------
class _TortureRun:
    def __init__(self, target: TortureTarget, schedule: TortureSchedule,
                 backend: str, max_steps: Optional[int]) -> None:
        self.target = target
        self.schedule = schedule
        self.backend = backend_for(backend) \
            if isinstance(backend, str) else backend
        self.machine = Machine(target.linked)
        self.symtab = target.linked.symtab
        self.code_size = len(target.linked.instrs)
        base = target.base_scheme
        self.runtime = runtime_for(target.compiled, base)
        self.step_hook = _StepFaultHook()
        self.machine.attach(fault_hook=self.step_hook)
        #: Armed checkpoint-image faults, oldest first: each JIT
        #: checkpoint consumes one.
        self.ckpt_faults: List[FaultInjector] = []
        # gecko-rollback pins pure-rollback mode (the Ratchet convention
        # of the crash tests): never tick, re-pin __mode after reboots.
        self.ticks = base == "gecko" and not target.rollback_mode
        # Watchdog: generous against legitimate re-execution overhead
        # (each of the <= ~64 possible failures redoes at most one
        # region, and regions are far smaller than the golden run), but
        # tight enough that livelock probes — which always burn the
        # whole budget — stay cheap for the shrinker.
        self.remaining = max_steps if max_steps is not None \
            else target.golden_steps * 50 + 60_000
        budget = target.region_budget
        if budget is None:
            from ..core import DEFAULT_REGION_BUDGET
            budget = DEFAULT_REGION_BUDGET
        self.progress_window = 3 * budget + 2000
        self.track_progress = base in ("ratchet", "gecko")
        self.crash_oracles = crash_applies(schedule)
        self.violations: List[Violation] = []
        self.crashes = 0
        self.triggered = 0
        self.fault: Optional[Exception] = None
        self._stall = 0
        self._last_progress: Optional[Tuple[int, int]] = None
        self._last_recovery_cycles = 0

    # -- plumbing ------------------------------------------------------
    @property
    def hub(self):
        return self.machine._periph

    def _read(self, name: str, default: int = 0) -> int:
        if name not in self.symtab:
            return default
        return self.machine.read_word(name)

    def _progress(self) -> Tuple[int, int]:
        return (self._read("__region_done"),
                getattr(self.runtime.stats, "jit_checkpoints", 0))

    def _slice(self, budget: int) -> bool:
        """One backend slice; False ends the run (halt/fault/watchdog)."""
        if self.machine.halted:
            return False
        if self.remaining <= 0:
            return False
        budget = min(budget, self.remaining)
        before = self.machine.instr_count
        _, fault = self.backend.run_slice(self.machine, budget)
        self.remaining -= self.machine.instr_count - before
        if fault is not None:
            self.fault = fault
            if self.crash_oracles:
                self.violations.append(Violation(
                    MACHINE_FAULT, f"machine trapped: {fault}"))
            return False
        # A trap ends the run before the runtime ticks, in the order
        # ``IntermittentSimulator._slice_running`` uses.
        if self.ticks:
            self.runtime.tick(self.machine)
        return not self.machine.halted

    def _advance_to(self, target_cycle: int) -> bool:
        """Run to the first instruction boundary at or past
        ``target_cycle``; identical under either backend."""
        maxc = self.target.max_instr_cycles
        while self.machine.cycles < target_cycle:
            gap = target_cycle - self.machine.cycles
            if not self._slice(max(1, gap // maxc)):
                return False
        return True

    # -- event delivery ------------------------------------------------
    def _stacked_vectors(self) -> Tuple[int, ...]:
        hub = self.hub
        if hub is None:
            return ()
        sp = self._read("__isr_sp")
        if not 0 < sp <= ISR_MAX_DEPTH:
            return ()
        base = self.symtab["__isr_stack"][0]
        return tuple(self.machine.mem[base + i] for i in range(sp))

    def _power_failure(self, index: int,
                       budget: Optional[int]) -> None:
        machine = self.machine
        if self.track_progress:
            progress = self._progress()
            gap = machine.cycles - self._last_recovery_cycles
            if self._last_progress is not None:
                if progress != self._last_progress:
                    self._stall = 0
                elif gap >= self.progress_window:
                    self._stall += 1
                    if self._stall >= _STALL_LIMIT and self.crash_oracles:
                        self.violations.append(Violation(
                            FORWARD_PROGRESS,
                            f"{self._stall} consecutive failures with "
                            f"zero durable progress despite compliant "
                            f"gaps (>= {self.progress_window} cycles)",
                            event_index=index))
                        self._stall = 0
        if budget is not None:
            faults = self.ckpt_faults
            if faults:
                self.runtime.attach(fault_hook=faults[0])
            self.runtime.on_checkpoint_signal(machine, float(budget))
            if faults and faults[0].fired:
                del faults[0]
        machine.power_off()
        self.runtime.on_reboot(machine)
        if self.target.rollback_mode:
            machine.write_word("__mode", 0, 1)
        self.crashes += 1
        if self.track_progress:
            self._last_progress = self._progress()
            self._last_recovery_cycles = machine.cycles
        self._check_recovery(index)

    def _deliver(self, index: int, event) -> None:
        self.triggered += 1
        if event.kind == POWER_FAIL:
            self._power_failure(index, event.ckpt_budget)
            repeat_budget = event.ckpt_budget \
                if self.target.base_scheme == "nvp" else None
            for _ in range(event.repeat):
                if event.gap_steps and not self.machine.halted:
                    self._slice(event.gap_steps)
                if self.machine.halted or self.fault is not None:
                    break
                self._power_failure(index, repeat_budget)
        elif event.kind == CKPT_FAULT:
            # Both models also cut the write budget short of the commit
            # markers (paper §IV-B2); the time trigger is always past.
            corrupt = event.mode == "corrupt"
            self.ckpt_faults.append(FaultInjector(FaultSpec(
                model=CKPT_CORRUPT if corrupt else CKPT_TRUNCATE,
                target=event.word if corrupt else event.cut,
                bit=event.bit, trigger_time_s=0.0)))
        elif event.kind == ISR_BURST:
            hub = self.hub
            if hub is None:
                raise TortureError(
                    f"event {index}: isr_burst on a program with no "
                    f"peripherals")
            hub.inject_pend(self.machine, event.vector)
        elif event.kind == DATA_FAULT:
            self.step_hook.arm(event.model, event.reg, event.bit)

    # -- oracles -------------------------------------------------------
    def _check_recovery(self, index: Optional[int]) -> None:
        machine = self.machine
        if not 0 <= machine.pc < self.code_size:
            self.violations.append(Violation(
                TORN_STATE,
                f"post-recovery pc {machine.pc} outside code "
                f"[0, {self.code_size})", event_index=index))
        for name in ("__jit_valid", "__mode"):
            if name in self.symtab:
                value = self._read(name)
                if value not in (0, 1):
                    self.violations.append(Violation(
                        TORN_STATE,
                        f"{name} = {value} after recovery "
                        f"(must be 0 or 1)", event_index=index))
        if self.hub is not None:
            sp = self._read("__isr_sp")
            if not 0 <= sp <= ISR_MAX_DEPTH:
                self.violations.append(Violation(
                    TORN_STATE,
                    f"__isr_sp = {sp} after recovery "
                    f"(max depth {ISR_MAX_DEPTH})", event_index=index))
            else:
                for vector in self._stacked_vectors():
                    if vector not in self.hub._vectors:
                        self.violations.append(Violation(
                            TORN_STATE,
                            f"unregistered vector {vector} on the ISR "
                            f"frame stack after recovery",
                            event_index=index))

    def _check_final(self) -> None:
        machine = self.machine
        if not machine.halted and self.fault is None \
                and self.crash_oracles:
            self.violations.append(Violation(
                FORWARD_PROGRESS,
                f"run did not halt within the step watchdog "
                f"(cycles={machine.cycles}, steps={machine.instr_count})"))
        hub = self.hub
        if hub is not None and machine.halted:
            sp = self._read("__isr_sp")
            if sp != 0:
                self.violations.append(Violation(
                    TORN_STATE,
                    f"halted with __isr_sp = {sp}: a handler activation "
                    f"was lost (stale frames never healed)"))
        pend = self._read("__irq_pend")
        for heal_step, vector in machine.isr_heals:
            redelivered = any(
                span.vector == vector and span.entry_step >= heal_step
                for span in machine.isr_spans)
            if not redelivered and not pend >> vector & 1:
                self.violations.append(Violation(
                    ISR_AT_LEAST_ONCE,
                    f"vector {vector} dropped at a heal "
                    f"(step {heal_step}) was never re-delivered and is "
                    f"not pending"))
                break
        if machine.halted and golden_applies(self.schedule):
            if tuple(machine.committed_out) != self.target.golden_out:
                self.violations.append(Violation(
                    GOLDEN_OUTPUT,
                    f"committed output diverged from golden after "
                    f"{self.crashes} crashes "
                    f"(got {len(machine.committed_out)} words, golden "
                    f"{len(self.target.golden_out)})"))

    # -- fingerprint ---------------------------------------------------
    def _fingerprint(self) -> str:
        machine = self.machine
        trace = [(span.vector, span.entry_step)
                 for span in machine.isr_spans][:4096]
        return content_digest({
            "out": list(machine.committed_out),
            "cycles": machine.cycles,
            "steps": machine.instr_count,
            "pc": machine.pc,
            "halted": machine.halted,
            "regs": list(machine.regs),
            "mem": list(machine.mem),
            "marks": machine.marks_executed,
            "crashes": self.crashes,
            "trace": trace,
        })

    # -- main ----------------------------------------------------------
    def run(self) -> TortureOutcome:
        self.runtime.on_reboot(self.machine)
        if self.target.rollback_mode:
            self.machine.write_word("__mode", 0, 1)
        self._last_recovery_cycles = self.machine.cycles
        if self.track_progress:
            self._last_progress = self._progress()
        for index, event in enumerate(self.schedule.events):
            if not self._advance_to(event.at_cycle):
                break
            if self.fault is not None or self.machine.halted:
                break
            self._deliver(index, event)
        # Drain to halt (or the watchdog) once the schedule is spent.
        while self.fault is None and not self.machine.halted \
                and self.remaining > 0:
            if not self._slice(self.remaining):
                break
        self._check_final()
        return TortureOutcome(
            violations=self.violations,
            fingerprint=self._fingerprint(),
            committed_out=tuple(self.machine.committed_out),
            halted=self.machine.halted,
            cycles=self.machine.cycles,
            instr_count=self.machine.instr_count,
            crashes=self.crashes,
            deliveries=len(self.machine.isr_spans),
            heals=len(self.machine.isr_heals),
            triggered=self.triggered,
        )


def run_schedule(target: TortureTarget, schedule: TortureSchedule,
                 backend: str = "interpreter",
                 max_steps: Optional[int] = None,
                 strict: bool = False) -> TortureOutcome:
    """Replay ``schedule`` against ``target`` under ``backend``.

    Deterministic: the same (target, schedule, backend) triple always
    produces the same :class:`TortureOutcome`, fingerprint included.
    ``strict=True`` raises :class:`~repro.errors.InvariantViolation` on
    the first oracle violation instead of returning it.
    """
    validate_schedule(schedule, target.scheme, target.profile)
    outcome = _TortureRun(target, schedule, backend, max_steps).run()
    if strict and outcome.violations:
        first = outcome.violations[0]
        raise InvariantViolation(
            f"{target.workload}/{target.scheme}[{backend}] violated "
            f"{first.oracle}: {first.detail}")
    return outcome
