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
  peripheral state with no new machinery.  The hub holds only what the
  program fixes, so every machine of a program shares one hub, and each
  machine records its own deliveries and heals (``isr_spans``,
  ``isr_heals``).
* **Everything advances at instruction boundaries.**  The interpreter
  calls :meth:`PeriphHub.on_boundary` after every instruction.  The
  threaded backend asks :meth:`PeriphHub.horizon` instead: the first
  cycle at which the hub could act.  It runs whole blocks that end
  before it, calls the hook only after those ending in ``RET`` or a
  peripheral MMIO store, and single-steps the rest — so both backends
  observe fires, deliveries, returns, and heals at identical
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
from typing import Dict, FrozenSet, Optional, Set

from ..errors import MachineFault
from ..isa.instructions import Opcode
from ..isa.operands import NUM_REGS, wrap32
from ..isa.program import (
    ISR_FRAME_WORDS,
    ISR_MAX_DEPTH,
    ISR_SOURCES,
    LinkedProgram,
    derived,
    symbol_addresses,
)

#: Deterministic sample-stream offsets per device, far from the ``SENSE``
#: cursor so peripheral samples are decorrelated from polled samples.
ADC_STREAM_BASE = 1 << 16
GPIO_STREAM_BASE = 2 << 16
DMA_STREAM_BASE = 3 << 16

#: DMA buffer capacity in words (size of ``__dma_buf``).
DMA_BUF_WORDS = 16

#: Cap on each machine's ISR records: delivery goes on, recording stops.
TRACE_CAP = 200_000

_EMPTY: FrozenSet[str] = frozenset()


@dataclass
class IsrSpan:
    """One handler activation in a machine's ``isr_spans``."""

    vector: int
    entry_step: int
    entry_cycles: int
    exit_step: Optional[int] = None
    exit_cycles: Optional[int] = None

    @property
    def closed(self) -> bool:
        return self.exit_step is not None


def _territories(program: LinkedProgram) -> Dict[int, FrozenSet[str]]:
    """Each vector's handler plus every function reachable from it."""
    callees: Dict[str, Set[str]] = {name: set() for name in program.func_entry}
    for pc, instr in enumerate(program.instrs):
        if instr.op is Opcode.CALL:
            callees[program.owner[pc]].add(instr.callee)
    territory = {}
    for vector, root in program.isr_vectors.items():
        seen, work = {root}, [root]
        while work:
            fresh = callees.get(work.pop(), set()) - seen
            seen |= fresh
            work.extend(fresh)
        territory[vector] = frozenset(seen)
    return territory


class PeriphHub:
    """Interrupt controller + device models for one linked program.

    The hub is configuration, not state: everything it needs between
    boundaries lives in the program's NVM control block, so ``Machine``
    shares one hub per program, built through ``derived`` (it must not
    reference the program).  What it delivers and heals it records on
    the machine, in ``isr_spans`` (:class:`IsrSpan`) and ``isr_heals``:
    diagnostics for profiling, attack planning and torture's oracles.
    """

    def __init__(self, program: LinkedProgram) -> None:
        addr = derived(program, symbol_addresses)
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

        # Device table: (name, ctrl, period, base, count, fire).  The DMA
        # engine reuses its transfer counter as the generic fire counter.
        self._devices = (
            ("timer", addr["__t0_ctrl"], addr["__t0_period"],
             addr["__t0_base"], addr["__t0_count"], self._fire_timer),
            ("adc", addr["__adc_ctrl"], addr["__adc_period"],
             addr["__adc_base"], addr["__adc_count"], self._fire_adc),
            ("gpio", addr["__gpio_ctrl"], addr["__gpio_period"],
             addr["__gpio_base"], addr["__gpio_count"], self._fire_gpio),
            ("dma", addr["__dma_ctrl"], addr["__dma_rate"],
             addr["__dma_base"], addr["__dma_xfrd"], self._fire_dma),
        )

        # Each handler's pc-ownership closure: "resumed inside the handler"
        # (NVP JIT restore) vs "rolled back to the interrupted main region"
        # (GECKO), which must heal.
        self._territory = _territories(program)

    # ------------------------------------------------------------------
    # The boundary hook, and the horizon before which it does nothing.
    # ------------------------------------------------------------------
    def on_boundary(self, machine) -> None:
        self._try_pop(machine)
        self._advance(machine, machine.cycles)
        self._heal(machine)
        self._deliver(machine)

    def horizon(self, machine) -> float:
        """First cycle at which a block ending there could see a device
        fire, or -1 unless the hub is quiet: main code with no ISR frame
        stacked, or a handler running inside its top vector's territory;
        nothing deliverable; no enabled device waiting to be armed.

        While quiet, :meth:`on_boundary` is a no-op at every boundary
        before the horizon except one after a ``RET`` (it may load a
        handler's sentinel, or leave the territory) or after a store to
        peripheral MMIO (it may arm a device or unmask a vector).  Every
        other instruction keeps the pc inside its function or calls into
        the running handler's closure.
        """
        mem = machine.mem
        sp = mem[self._sp_a]
        if sp and not self._in_handler(machine, sp) \
                or self._select(machine) is not None:
            return -1
        first = float("inf")
        for _name, ctrl_a, period_a, base_a, count_a, _fire in self._devices:
            if not mem[ctrl_a]:
                continue
            base = mem[base_a]
            count = mem[count_a]
            if base <= 0 or count < 0:
                return -1  # arming, or a corrupted device that traps
            period = mem[period_a]
            if period > 0:
                first = min(first, base - 1 + (count + 1) * period)
        return first

    def _in_handler(self, machine, sp: int) -> bool:
        """Whether ``sp`` is a valid depth and the pc lies inside the
        top stacked vector's territory."""
        pc = machine.pc
        return (0 < sp <= ISR_MAX_DEPTH and 0 <= pc < self._code_size
                and self._owner[pc] in self._territory.get(
                    machine.mem[self._stack_a + sp - 1], _EMPTY))

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
        """Fire every enabled device's due events up to cycle ``now``.

        No fault-free run holds a negative fire count or base: the
        firmware stores 0 to both when it starts a device, and arming
        sets ``base = now + 1``.  A corrupted one (a flipped sign bit in
        the firmware's store) traps here, naming the device, instead of
        firing it once per count from far below zero.
        """
        mem = machine.mem
        wear = machine.wear
        for name, ctrl_a, period_a, base_a, count_a, fire in self._devices:
            if not mem[ctrl_a]:
                continue
            base = mem[base_a]
            count = mem[count_a]
            if base < 0 or count < 0:
                raise MachineFault(
                    f"pc={machine.pc}: {name} device corrupted "
                    f"(base {base}, count {count})")
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
        if sp == 0 or self._in_handler(machine, sp):
            return  # main code, or genuinely executing the handler
        repend = 0
        heals = machine.isr_heals
        for i in range(max(0, min(sp, ISR_MAX_DEPTH))):
            vector = mem[self._stack_a + i]
            if vector in self._vectors:
                repend |= 1 << vector
                if len(heals) < TRACE_CAP:
                    heals.append((machine.instr_count, vector))
        mem[self._sp_a] = 0
        machine.wear[self._sp_a] += 1
        if repend:
            mem[self._pend_a] |= repend
            machine.wear[self._pend_a] += 1
        opened = machine._isr_open
        while opened:
            span = opened.pop()
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
        if len(machine.isr_spans) < TRACE_CAP:
            span = IsrSpan(vector=vector, entry_step=machine.instr_count,
                           entry_cycles=machine.cycles)
            machine.isr_spans.append(span)
            machine._isr_open.append(span)

    # ------------------------------------------------------------------
    def _close_span(self, machine, vector: int) -> None:
        opened = machine._isr_open
        for index in range(len(opened) - 1, -1, -1):
            span = opened[index]
            if span.vector == vector:
                span.exit_step = machine.instr_count
                span.exit_cycles = machine.cycles
                del opened[index]
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
