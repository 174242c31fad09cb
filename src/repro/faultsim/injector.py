"""The injector: one :class:`FaultSpec` armed against one simulation.

A :class:`FaultInjector` implements all three hook surfaces the runtime
layer exposes — :meth:`Machine.attach`'s ``fault_hook`` (architectural
faults), :meth:`NVPRuntime.attach`'s ``fault_hook`` (checkpoint-image
faults), and the simulator's monitor-event filter (signal faults) — and
wires itself into exactly the surfaces its model needs when the
simulator calls :meth:`attach`.  Every fault fires at most once (the
one-shot ``fired`` flag is also what lets the threaded execution backend
resume whole-block execution after delivery, and the declared
``trigger_step`` what lets it run whole blocks up to the trigger);
injectors are built per-run inside campaign workers and never shared or
pickled.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..analog.monitor import MonitorEvent
from ..isa.operands import MASK32, NUM_REGS, wrap32
from ..obs import FAULT_INJECTED
from .models import (
    CKPT_CORRUPT,
    CKPT_MODELS,
    CKPT_TRUNCATE,
    FaultSpec,
    REG_FLIP,
    SIGNAL_DROP,
    SIGNAL_MODELS,
    STEP_MODELS,
)

Write = Tuple[str, int, int]


class FaultInjector:
    """One-shot fault delivery through the runtime layer's hook points."""

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.fired = False
        self._sim = None

    @classmethod
    def from_spec(cls, spec) -> "FaultInjector":
        if isinstance(spec, dict):
            spec = FaultSpec.from_dict(spec)
        return cls(spec)

    # ------------------------------------------------------------------
    def attach(self, sim) -> None:
        """Wire into the hook surfaces this model needs (no patching).

        Checkpoint-image models need a runtime that actually JIT
        checkpoints; against a pure-rollback runtime (no ``fault_hook``
        attribute) they have no mechanism to land and stay unfired.
        """
        self._sim = sim
        model = self.spec.model
        if model in STEP_MODELS:
            sim.machine.attach(fault_hook=self)
        elif model in CKPT_MODELS and hasattr(sim.runtime, "fault_hook"):
            sim.runtime.attach(fault_hook=self)
        # SIGNAL_MODELS need no wiring: the simulator routes every monitor
        # event through filter_monitor_event itself.

    def _note_fired(self, detail: str) -> None:
        """Publish the injection on the simulation's event bus, if any —
        the excerpt fault reports quote to explain an sdc/brick outcome."""
        obs = getattr(self._sim, "obs", None)
        if obs is not None:
            obs.emit(FAULT_INJECTED, f"model={self.spec.model} {detail}")

    # -- Machine hook ---------------------------------------------------
    @property
    def trigger_step(self) -> Optional[int]:
        """The first ``instr_count`` at which :meth:`before_step` can act
        (step models; ``None`` otherwise).  Before it, ``before_step``
        returns False with no side effect, so the threaded backend runs
        whole blocks up to it instead of stepping."""
        return self.spec.trigger_step if self.spec.model in STEP_MODELS \
            else None

    def before_step(self, machine) -> bool:
        """Fire a step-triggered fault; True means skip this instruction."""
        if self.fired or machine.instr_count < self.spec.trigger_step:
            return False
        self.fired = True
        if self.spec.model == REG_FLIP:
            index = self.spec.target % NUM_REGS
            flipped = (machine.regs[index] & MASK32) ^ (1 << (self.spec.bit % 32))
            machine.regs[index] = wrap32(flipped)
            self._note_fired(f"reg=R{index} bit={self.spec.bit % 32}")
            return False
        self._note_fired(f"step={machine.instr_count}")
        return True  # INSTR_SKIP

    # -- NVPRuntime hook ------------------------------------------------
    def on_checkpoint(self, writes: List[Write],
                      budget: int) -> Tuple[List[Write], int]:
        """Corrupt or truncate the in-flight checkpoint image.

        Both models cut the write sequence before the commit markers
        (``__jit_valid``, the ACK toggle): the glitch that corrupts the
        backup is the same glitch that keeps it from committing, exactly
        the ``V_fail``-window mechanism of §IV-B2.
        """
        spec = self.spec
        if self.fired or (self._sim is not None
                          and self._sim.t < spec.trigger_time_s):
            return writes, budget
        self.fired = True
        image_words = len(writes) - 2  # everything but the commit markers
        if image_words <= 0:
            return writes, budget
        if spec.model == CKPT_TRUNCATE:
            cut = spec.target % image_words
            self._note_fired(f"cut={cut}")
            return writes, min(budget, cut)
        # CKPT_CORRUPT: one bad store lands, then the backup dies.
        index = spec.target % image_words
        sym, off, value = writes[index]
        corrupted = wrap32((value & MASK32) ^ (1 << (spec.bit % 32)))
        writes = list(writes)
        writes[index] = (sym, off, corrupted)
        self._note_fired(f"word={index} bit={spec.bit % 32}")
        return writes, min(budget, image_words)

    # -- simulator (monitor) hook ---------------------------------------
    def filter_monitor_event(self, event: MonitorEvent, powered: bool,
                             t: float) -> MonitorEvent:
        """Drop the next genuine event, or forge one out of quiet air."""
        spec = self.spec
        if (self.fired or spec.model not in SIGNAL_MODELS
                or t < spec.trigger_time_s):
            return event
        if spec.model == SIGNAL_DROP:
            if event is not MonitorEvent.NONE:
                self.fired = True
                self._note_fired(f"dropped={event.name.lower()}")
                return MonitorEvent.NONE
            return event
        # SIGNAL_SPURIOUS: forge the signal that matters in this state.
        if event is MonitorEvent.NONE:
            self.fired = True
            forged = MonitorEvent.CHECKPOINT if powered else MonitorEvent.WAKE
            self._note_fired(f"forged={forged.name.lower()}")
            return forged
        return event
