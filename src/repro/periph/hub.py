"""The peripheral hub: interrupt controller + deterministic device models.

``repro.periph`` turns the straight-line :class:`~repro.runtime.machine.
Machine` into an interrupt-driven sensor node.  Four device models — a
periodic timer, a sensor ADC, an edge-triggered GPIO line, and a DMA
stream engine — advance on *simulated cycles* and raise interrupts
through a small interrupt controller (per-source enable/pending bits,
per-source priority, an opt-in nesting policy, a four-deep hardware
frame stack).

Design rules that keep every existing guarantee intact:

* **All controller and device state lives in NVM words** (the
  ``PERIPH_SYMBOLS`` control block the linker appends for programs that
  use peripherals).  ``Machine.snapshot()``/``restore()``, power cycles,
  and checkpoint runtimes therefore round-trip pending interrupts and
  peripheral state with no new machinery; the hub itself holds only
  static caches derived from the program plus a volatile diagnostic
  trace.
* **Everything advances at instruction boundaries.**  The interpreter
  calls :meth:`PeriphHub.on_boundary` after every instruction; the
  threaded backend calls it after every block and uses
  :meth:`PeriphHub.event_before` to fall back to exact single-stepping
  for any block whose cycle span contains a device event — so both
  backends observe fires, deliveries, and returns at identical
  instruction boundaries and stay fingerprint-identical.
* **Delivery is a hardware context push.**  Entering an ISR saves the
  interrupted ``pc`` and register file into an NVM frame, pushes the
  vector, and seeds the handler's return-address slot with an
  out-of-code *sentinel* pc; the handler's ordinary ``RET`` loads the
  sentinel and the hub intercepts it at that same boundary to pop the
  frame.  No new opcodes are needed.
* **Power failures heal by re-delivery.**  A rollback runtime (GECKO)
  restarts the interrupted *main* region; the hub notices the stale
  frame stack (``pc`` outside the stacked handler's territory), drops
  it, and re-pends the stacked vectors — interrupts are therefore
  delivered at-least-once across power failures, the same contract real
  MCUs give firmware.  A JIT-checkpoint restore (NVP) that lands inside
  the handler resumes it natively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..isa.instructions import Opcode
from ..isa.operands import NUM_REGS, wrap32
from ..isa.program import (
    ISR_FRAME_WORDS,
    ISR_MAX_DEPTH,
    ISR_SOURCES,
    LinkedProgram,
)

#: Deterministic sample-stream offsets per device, far from the ``SENSE``
#: cursor so peripheral samples are decorrelated from polled samples.
ADC_STREAM_BASE = 1 << 16
GPIO_STREAM_BASE = 2 << 16
DMA_STREAM_BASE = 3 << 16

#: DMA buffer capacity in words (size of ``__dma_buf``).
DMA_BUF_WORDS = 16

#: Diagnostic-trace cap: delivery keeps working beyond it, recording stops.
TRACE_CAP = 200_000

_EMPTY: FrozenSet[str] = frozenset()


@dataclass
class IsrSpan:
    """One handler activation in the volatile diagnostic trace."""

    vector: int
    entry_step: int
    entry_cycles: int
    exit_step: Optional[int] = None
    exit_cycles: Optional[int] = None

    @property
    def closed(self) -> bool:
        return self.exit_step is not None


class PeriphHub:
    """Interrupt controller + device models for one linked program.

    The hub is configuration, not state: everything it needs between
    boundaries lives in the program's NVM control block, so a fresh hub
    attached to restored memory behaves identically.  ``trace`` is the
    one exception — a volatile list of :class:`IsrSpan` used by
    profiling and ISR-aware attack planning, never by execution.
    """

    def __init__(self, program: LinkedProgram) -> None:
        symtab = program.symtab
        if "__isr_sp" not in symtab:
            raise ValueError("program was linked without peripheral support")
        addr = {name: base for name, (base, _) in symtab.items()}
        self.program = program
        self._code_size = len(program.instrs)
        self._owner = program.owner
        # Sentinel pcs live strictly beyond any legal pc (and beyond the
        # "fell off the end" value): sentinel(v) = code_size + 1 + v.
        self._sentinel_base = self._code_size + 1

        self._en_a = addr["__irq_en"]
        self._pend_a = addr["__irq_pend"]
        self._prio_a = addr["__irq_prio"]
        self._nest_a = addr["__irq_nest"]
        self._sp_a = addr["__isr_sp"]
        self._stack_a = addr["__isr_stack"]
        self._frames_a = addr["__isr_frames"]
        self._adc_data_a = addr["__adc_data"]
        self._gpio_in_a = addr["__gpio_in"]
        self._dma_len_a = addr["__dma_len"]
        self._dma_done_a = addr["__dma_done"]
        self._dma_ctrl_a = addr["__dma_ctrl"]
        self._dma_buf_a = addr["__dma_buf"]

        # Registered vectors: entry pcs, return-address slots, dispatch mask.
        self._vectors: Dict[int, str] = dict(program.isr_vectors)
        self._vector_list = sorted(self._vectors)
        self._mask = 0
        self._entry_pc: Dict[int, int] = {}
        self._ret_addr: Dict[int, int] = {}
        for vector, fname in self._vectors.items():
            self._mask |= 1 << vector
            self._entry_pc[vector] = program.func_entry[fname]
            self._ret_addr[vector] = program.ret_slot[fname]

        # Device table: (ctrl, period, base, count, fire).  The DMA engine
        # reuses its transfer counter as the generic fire counter.
        self._devices = (
            (addr["__t0_ctrl"], addr["__t0_period"], addr["__t0_base"],
             addr["__t0_count"], self._fire_timer),
            (addr["__adc_ctrl"], addr["__adc_period"], addr["__adc_base"],
             addr["__adc_count"], self._fire_adc),
            (addr["__gpio_ctrl"], addr["__gpio_period"], addr["__gpio_base"],
             addr["__gpio_count"], self._fire_gpio),
            (addr["__dma_ctrl"], addr["__dma_rate"], addr["__dma_base"],
             addr["__dma_xfrd"], self._fire_dma),
        )

        # Territory: the pc-ownership closure of each handler (the handler
        # plus every function reachable from it).  Used to tell "resumed
        # inside the handler" (NVP JIT restore) apart from "rolled back to
        # the interrupted main region" (GECKO), which must heal.
        self._territory: Dict[int, FrozenSet[str]] = {
            vector: self._closure(fname)
            for vector, fname in self._vectors.items()
        }

        self.trace: List[IsrSpan] = []
        self._open: List[IsrSpan] = []
        #: Volatile diagnostic: ``(instr_count, vector)`` for every
        #: stacked activation dropped (and re-pended) by a stale-frame
        #: heal.  The torture at-least-once oracle checks each entry is
        #: re-delivered later or still pending at halt.
        self.heals: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    def _closure(self, root: str) -> FrozenSet[str]:
        callees: Dict[str, Set[str]] = {
            name: set() for name in self.program.func_entry
        }
        for pc, instr in enumerate(self.program.instrs):
            if instr.op is Opcode.CALL:
                callees[self._owner[pc]].add(instr.callee)
        seen = {root}
        work = [root]
        while work:
            for callee in callees.get(work.pop(), ()):
                if callee not in seen:
                    seen.add(callee)
                    work.append(callee)
        return frozenset(seen)

    def territory(self, vector: int) -> FrozenSet[str]:
        """Function names owned by ``vector``'s handler closure."""
        return self._territory.get(vector, _EMPTY)

    # ------------------------------------------------------------------
    # The boundary hook (interpreter: every step; threaded: every block).
    # ------------------------------------------------------------------
    def on_boundary(self, machine) -> None:
        self._try_pop(machine)
        self._advance(machine, machine.cycles)
        self._heal(machine)
        self._deliver(machine)

    def event_before(self, machine, block_cycles: int) -> bool:
        """Would anything happen inside a block of ``block_cycles``?

        The threaded backend asks before running each whole block; True
        demotes execution to exact single-stepping so device fires,
        deliveries, returns, and healing land at the same instruction
        boundaries as the interpreter.
        """
        mem = machine.mem
        sp = mem[self._sp_a]
        if sp:
            if not 0 < sp <= ISR_MAX_DEPTH:
                return True
            pc = machine.pc
            if not 0 <= pc < self._code_size:
                return True
            top = mem[self._stack_a + sp - 1]
            if self._owner[pc] not in self._territory.get(top, _EMPTY):
                return True
        if self._select(machine) is not None:
            return True
        end = machine.cycles + block_cycles
        for ctrl_a, period_a, base_a, count_a, _fire in self._devices:
            if not mem[ctrl_a]:
                continue
            base = mem[base_a]
            if base == 0:
                return True  # arming happens at an exact boundary
            period = mem[period_a]
            if period > 0 and base - 1 + (mem[count_a] + 1) * period <= end:
                return True
        return False

    # ------------------------------------------------------------------
    # Handler return (sentinel pop).
    # ------------------------------------------------------------------
    def _try_pop(self, machine) -> None:
        mem = machine.mem
        sp = mem[self._sp_a]
        if not 0 < sp <= ISR_MAX_DEPTH:
            return
        vector = machine.pc - self._sentinel_base
        if vector not in self._vectors:
            return
        if mem[self._stack_a + sp - 1] != vector:
            return
        frame = self._frames_a + (sp - 1) * ISR_FRAME_WORDS
        machine.pc = mem[frame]
        regs = machine.regs
        for i in range(NUM_REGS):
            regs[i] = mem[frame + 1 + i]
        mem[self._sp_a] = sp - 1
        machine.wear[self._sp_a] += 1
        self._close_span(machine, vector)

    # ------------------------------------------------------------------
    # Device models.
    # ------------------------------------------------------------------
    def _advance(self, machine, now: int) -> None:
        mem = machine.mem
        wear = machine.wear
        for ctrl_a, period_a, base_a, count_a, fire in self._devices:
            if not mem[ctrl_a]:
                continue
            base = mem[base_a]
            if base == 0:
                # Arm at this boundary; first fire one period from now.
                base = now + 1
                mem[base_a] = base
                wear[base_a] += 1
            period = mem[period_a]
            if period <= 0:
                continue
            origin = base - 1
            due = (now - origin) // period if now >= origin else 0
            count = mem[count_a]
            while count < due and mem[ctrl_a]:
                count += 1
                mem[count_a] = count
                wear[count_a] += 1
                fire(machine, count)

    def _pend(self, machine, vector: int) -> None:
        addr = self._pend_a
        machine.mem[addr] |= 1 << vector
        machine.wear[addr] += 1

    def _fire_timer(self, machine, count: int) -> None:
        self._pend(machine, ISR_SOURCES["timer"])

    def _fire_adc(self, machine, count: int) -> None:
        sample = wrap32(machine.sensor_stream(ADC_STREAM_BASE + count - 1))
        machine.mem[self._adc_data_a] = sample
        machine.wear[self._adc_data_a] += 1
        self._pend(machine, ISR_SOURCES["adc"])

    def _fire_gpio(self, machine, count: int) -> None:
        sample = machine.sensor_stream(GPIO_STREAM_BASE + count - 1) & 1
        if sample != machine.mem[self._gpio_in_a]:
            machine.mem[self._gpio_in_a] = sample
            machine.wear[self._gpio_in_a] += 1
            self._pend(machine, ISR_SOURCES["gpio"])

    def _fire_dma(self, machine, count: int) -> None:
        mem = machine.mem
        wear = machine.wear
        length = min(mem[self._dma_len_a], DMA_BUF_WORDS)
        index = count - 1
        if 0 <= index < length:
            word = wrap32(machine.sensor_stream(DMA_STREAM_BASE + index))
            mem[self._dma_buf_a + index] = word
            wear[self._dma_buf_a + index] += 1
        if count >= length:
            mem[self._dma_done_a] = 1
            wear[self._dma_done_a] += 1
            mem[self._dma_ctrl_a] = 0
            wear[self._dma_ctrl_a] += 1
            self._pend(machine, ISR_SOURCES["dma"])

    # ------------------------------------------------------------------
    # Stale-frame healing (power-failure rollback landed outside the ISR).
    # ------------------------------------------------------------------
    def _heal(self, machine) -> None:
        mem = machine.mem
        sp = mem[self._sp_a]
        if sp == 0:
            return
        if 0 < sp <= ISR_MAX_DEPTH and 0 <= machine.pc < self._code_size:
            top = mem[self._stack_a + sp - 1]
            if self._owner[machine.pc] in self._territory.get(top, _EMPTY):
                return  # genuinely executing inside the handler
        repend = 0
        for i in range(max(0, min(sp, ISR_MAX_DEPTH))):
            vector = mem[self._stack_a + i]
            if vector in self._vectors:
                repend |= 1 << vector
                if len(self.heals) < TRACE_CAP:
                    self.heals.append((machine.instr_count, vector))
        mem[self._sp_a] = 0
        machine.wear[self._sp_a] += 1
        if repend:
            mem[self._pend_a] |= repend
            machine.wear[self._pend_a] += 1
        while self._open:
            span = self._open.pop()
            span.exit_step = machine.instr_count
            span.exit_cycles = machine.cycles
        # at-least-once: the dropped activations re-run from delivery

    # ------------------------------------------------------------------
    # Delivery.
    # ------------------------------------------------------------------
    def _select(self, machine) -> Optional[int]:
        mem = machine.mem
        pend = mem[self._pend_a] & mem[self._en_a] & self._mask
        if not pend:
            return None
        sp = mem[self._sp_a]
        if not 0 <= sp < ISR_MAX_DEPTH:
            return None
        floor = None
        if sp > 0:
            if not mem[self._nest_a]:
                return None
            top = mem[self._stack_a + sp - 1]
            if not 0 <= top < len(ISR_SOURCES):
                return None
            floor = mem[self._prio_a + top]
        best = None
        best_key = None
        for vector in self._vector_list:
            if not pend >> vector & 1:
                continue
            prio = mem[self._prio_a + vector]
            if floor is not None and prio <= floor:
                continue
            key = (prio, -vector)
            if best_key is None or key > best_key:
                best, best_key = vector, key
        return best

    def _deliver(self, machine) -> None:
        if machine.halted:
            return
        vector = self._select(machine)
        if vector is None:
            return
        mem = machine.mem
        wear = machine.wear
        sp = mem[self._sp_a]
        frame = self._frames_a + sp * ISR_FRAME_WORDS
        mem[frame] = machine.pc
        wear[frame] += 1
        regs = machine.regs
        for i in range(NUM_REGS):
            mem[frame + 1 + i] = regs[i]
            wear[frame + 1 + i] += 1
        mem[self._stack_a + sp] = vector
        wear[self._stack_a + sp] += 1
        mem[self._sp_a] = sp + 1
        wear[self._sp_a] += 1
        mem[self._pend_a] &= ~(1 << vector)
        wear[self._pend_a] += 1
        # Return-address seeding mirrors CALL's return-slot write (no wear).
        mem[self._ret_addr[vector]] = self._sentinel_base + vector
        machine.pc = self._entry_pc[vector]
        if len(self.trace) < TRACE_CAP:
            span = IsrSpan(vector=vector, entry_step=machine.instr_count,
                           entry_cycles=machine.cycles)
            self.trace.append(span)
            self._open.append(span)

    # ------------------------------------------------------------------
    def _close_span(self, machine, vector: int) -> None:
        for index in range(len(self._open) - 1, -1, -1):
            span = self._open[index]
            if span.vector == vector:
                span.exit_step = machine.instr_count
                span.exit_cycles = machine.cycles
                del self._open[index]
                return

    # ------------------------------------------------------------------
    def inject_pend(self, machine, vector: int) -> None:
        """Externally pend ``vector`` (an adversarial ISR burst).

        This is the software face of EMI-forged device activity: the
        pending bit is set exactly as a device fire would set it, and
        delivery follows the normal enable/priority/nesting rules at the
        next boundary.  Raises ``ValueError`` for unregistered vectors —
        the attacker forges *lines the hardware has*, not new hardware.
        """
        if vector not in self._vectors:
            raise ValueError(
                f"vector {vector} has no registered handler "
                f"(registered: {sorted(self._vectors)})")
        self._pend(machine, vector)

    # ------------------------------------------------------------------
    def deliveries(self) -> int:
        """Handler activations recorded so far (diagnostic)."""
        return len(self.trace)
