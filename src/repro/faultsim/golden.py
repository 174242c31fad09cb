"""The golden run: one fault-free stable-power execution, recorded once.

Every engine that plans against a victim starts from the same reference
execution — sampled fault campaigns need its region occupancy, the
exhaustive mapper its per-step pcs and snapshots, ISR-aware attacks its
handler activations, and the torture fuzzer its commit cycles.
:func:`capture_trace` is the one loop that single-steps a fresh
:class:`~repro.runtime.machine.Machine` to halt; every consumer reads its
view off the :class:`GoldenTrace` it returns.

Snapshots are what make exhaustive forking cheap: a
:class:`~repro.runtime.machine.MachineSnapshot` every ``snapshot_stride``
steps means a fault triggered at step ``s`` costs ``s mod stride``
catch-up steps plus its post-injection tail instead of ``s`` steps of
golden prefix.  Consumers that never fork pass ``snapshot_stride=0``
and keep no snapshots.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..periph.hub import IsrSpan
from ..runtime.machine import Machine, MachineSnapshot
from .models import FaultSimError

#: Stable-power capture stop: no bundled workload iteration comes close.
_TRACE_STEP_CAP = 500_000

#: Post-injection step allowance beyond the doubled golden length.  A
#: fork that has not halted after twice the golden run plus this slack
#: has lost forward progress (the stable-power notion of a hang).
HANG_SLACK_STEPS = 256


@dataclass
class ExecutionProfile:
    """Region occupancy of one stable-power reference execution.

    Region ids change only at MARK commits, so the per-step list collapses
    into a handful of runs; queries bisect the run boundaries (the same
    O(log n) treatment ``AttackSchedule.source_at`` got) instead of
    indexing a step-sized list per lookup.
    """

    regions: List[int] = field(default_factory=list)
    #: ISR activations of the profiling run: (vector, entry, exit) step
    #: ranges, entry-ordered.  Empty for programs without peripherals.
    isr_spans: List[Tuple[int, int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        starts: List[int] = []
        values: List[int] = []
        for step, region in enumerate(self.regions):
            if not values or region != values[-1]:
                starts.append(step)
                values.append(region)
        self._starts = starts
        self._values = values

    @property
    def total_steps(self) -> int:
        return len(self.regions)

    def region_at(self, step: int) -> int:
        """The last-committed region when instruction ``step`` executes."""
        if not self.regions:
            return 0
        step %= len(self.regions)
        return self._values[bisect.bisect_right(self._starts, step) - 1]

    def isr_at(self, step: int) -> Optional[int]:
        """The vector whose handler is live at ``step``, if any."""
        if self.regions:
            step %= len(self.regions)
        for vector, entry, exit_ in self.isr_spans:
            if entry <= step < exit_:
                return vector
        return None

    def isr_steps(self) -> int:
        """Total profiled steps spent inside ISR activations."""
        return sum(exit_ - entry for _, entry, exit_ in self.isr_spans)


@dataclass
class GoldenTrace:
    """One fault-free reference execution, indexed for every consumer.

    ``pcs[s]`` is the program counter *before* step ``s`` executes;
    ``snapshots[k]`` is the machine state before step ``k * stride``
    (none when ``stride`` is 0).  ``isr_spans`` are the run's handler
    activations, a handler still open at HALT closed at the final
    step/cycle; ``mark_cycles`` is the cycle count after each region
    commit.  ``budget`` is the absolute step allowance every injected
    fork runs under — identical for all forks of one victim, so hang
    classification cannot depend on which snapshot a fork happened to
    start from.
    """

    pcs: List[int]
    profile: ExecutionProfile
    snapshots: List[MachineSnapshot]
    stride: int
    golden_out: Tuple[int, ...]
    golden_steps: int
    golden_cycles: int
    has_periph: bool = False
    isr_spans: Tuple[IsrSpan, ...] = ()
    mark_cycles: Tuple[int, ...] = ()
    budget: int = field(default=0)

    def __post_init__(self) -> None:
        if not self.budget:
            self.budget = 2 * self.golden_steps + HANG_SLACK_STEPS

    def snapshot_before(self, step: int) -> MachineSnapshot:
        """The nearest captured state at or before ``step``."""
        return self.snapshots[min(step // self.stride,
                                  len(self.snapshots) - 1)]


def capture_trace(linked, snapshot_stride: int = 0) -> GoldenTrace:
    """Run one stable-power reference execution, recording everything.

    Single-steps the reference interpreter (the semantics oracle both
    backends match byte-for-byte), so the trace is valid for forks
    resumed under either backend.  A positive ``snapshot_stride`` keeps
    a snapshot every that many steps for forks to restore from; 0 keeps
    none.
    """
    machine = Machine(linked)
    step = machine.step
    # Memory keeps its identity for the machine's lifetime.
    mem = machine.mem
    region_addr = machine.addr("__region_cur")
    pcs: List[int] = []
    regions: List[int] = []
    snapshots: List[MachineSnapshot] = []
    mark_cycles: List[int] = []
    add_pc, add_region = pcs.append, regions.append
    marks = 0
    for count in range(_TRACE_STEP_CAP):
        if machine.halted:
            break
        if snapshot_stride and count % snapshot_stride == 0:
            snapshots.append(machine.snapshot())
        add_pc(machine.pc)
        add_region(mem[region_addr])
        step()
        if machine.marks_executed != marks:
            marks = machine.marks_executed
            mark_cycles.append(machine.cycles)
    if not machine.halted:
        raise FaultSimError(
            f"golden capture did not halt within {_TRACE_STEP_CAP} steps")
    hub = machine._periph
    spans = tuple(
        span if span.closed else IsrSpan(
            vector=span.vector, entry_step=span.entry_step,
            entry_cycles=span.entry_cycles,
            exit_step=machine.instr_count, exit_cycles=machine.cycles)
        for span in (hub.trace if hub is not None else ()))
    return GoldenTrace(
        pcs=pcs,
        profile=ExecutionProfile(
            regions=regions,
            isr_spans=[(span.vector, span.entry_step, span.exit_step)
                       for span in spans]),
        snapshots=snapshots,
        stride=snapshot_stride,
        golden_out=tuple(machine.committed_out),
        golden_steps=machine.instr_count,
        golden_cycles=machine.cycles,
        has_periph=hub is not None,
        isr_spans=spans,
        mark_cycles=tuple(mark_cycles),
    )
