"""The target machine: a 16-register core with non-volatile main memory.

Models the MSP430FR-class MCUs of the paper: all of main memory is FRAM
(survives power loss), the register file and program counter are volatile,
and instruction costs follow :data:`repro.isa.instructions.CYCLES`.

Peripheral semantics chosen for deterministic crash-consistency testing:

* ``OUT`` values are buffered in a *volatile* output buffer and become
  externally observable (``committed_out``) only at a commit point — a
  ``MARK`` (region commit) or ``HALT``.  Because the compiler places a
  boundary immediately after every I/O operation, committed output is
  exactly-once under rollback re-execution.
* ``SENSE`` reads a deterministic sensor stream through a volatile cursor
  that commits at ``MARK`` (word ``__sensor_idx``) and is part of the JIT
  checkpoint, so replayed regions re-observe identical samples.
* ``MARK`` additionally persists the region id, the re-entry PC, a
  completion counter (GECKO's timer-based detection input) and flips the
  committed double-buffer color (Ratchet's dynamic convention).
* ``CKPT`` stores one register into ``__ckpt0``/``__ckpt1``; a static color
  comes from the instruction, the dynamic convention writes the complement
  of the committed color.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from ..errors import MachineFault
from ..isa.instructions import ALU, Instr, Opcode
from ..obs import REGION_COMMIT
from ..isa.operands import (
    Imm,
    MASK32,
    NUM_REGS,
    PReg,
    wrap32,
)
from ..isa.program import LinkedProgram

#: Maximum OUT values the JIT checkpoint can persist (area ``__jit_out``).
JIT_OUT_CAPACITY = 32


def default_sensor_stream(index: int) -> int:
    """Deterministic pseudo-sensor: a cheap integer hash of the cursor."""
    value = (index * 2654435761) & MASK32
    return (value >> 16) & 0x3FF  # 10-bit ADC-style reading


def _opcode_classes() -> dict:
    """Opcode -> profiler cycle-category ("where do the cycles go?")."""
    classes = {}
    mem = {Opcode.LD, Opcode.ST}
    ctrl = {Opcode.BNZ, Opcode.JMP, Opcode.CALL, Opcode.RET, Opcode.HALT,
            Opcode.NOP}
    io = {Opcode.OUT, Opcode.SENSE}
    ckpt = {Opcode.CKPT, Opcode.MARK}
    for op in Opcode:
        if op in mem:
            classes[op] = "mem"
        elif op in ctrl:
            classes[op] = "ctrl"
        elif op in io:
            classes[op] = "io"
        elif op in ckpt:
            classes[op] = "ckpt"
        else:
            classes[op] = "alu"
    return classes


#: Cycle-attribution categories for the observability profiler.
OPCODE_CLASSES = _opcode_classes()


class StepResult(enum.Enum):
    """Outcome of executing one instruction."""

    RUNNING = "running"
    HALTED = "halted"


#: Sentinel distinguishing "leave this hook alone" from "detach it".
_UNSET = object()


@dataclass(frozen=True)
class MachineSnapshot:
    """One machine's complete architectural state, frozen at an instant.

    Captures everything :meth:`Machine.restore` needs to resume execution
    bit-for-bit — memory, registers, ``pc`` (which may point mid-block),
    counters, volatile buffers, checkpoint bookkeeping, and the FRAM wear
    vector — but *not* configuration (the program, the sensor stream) or
    attached hooks, which belong to the machine the snapshot is restored
    into.  Snapshots are immutable plain data: safe to keep in a golden
    index while thousands of forked executions restore from them
    (:mod:`repro.exhaustive`), and picklable for worker pools.
    """

    mem: Tuple[int, ...]
    regs: Tuple[int, ...]
    pc: int
    halted: bool
    powered: bool
    cycles: int
    instr_count: int
    out_buffer: Tuple[int, ...]
    committed_out: Tuple[int, ...]
    sensor_cursor: int
    ckpt_stores_executed: int
    marks_executed: int
    pending_rcolor: FrozenSet[int]
    wear: Tuple[int, ...]


class Machine:
    """Interpreter for a linked program with power-failure support."""

    def __init__(self, program: LinkedProgram) -> None:
        self.program = program
        #: Non-volatile main memory (words), survives power_off().
        self.mem: List[int] = list(program.init_words)
        #: Volatile register file.
        self.regs: List[int] = [0] * NUM_REGS
        self.pc: int = program.entry_pc
        self.halted = False
        self.powered = True
        self.cycles = 0
        self.instr_count = 0
        #: Volatile output buffer and the committed (observable) output log.
        self.out_buffer: List[int] = []
        self.committed_out: List[int] = []
        #: Volatile sensor cursor.
        self.sensor_cursor = 0
        self.sensor_stream = default_sensor_stream
        #: Execution counters useful for metrics.
        self.ckpt_stores_executed = 0
        self.marks_executed = 0
        #: Registers checkpointed on the per-register dynamic index since
        #: the last MARK (volatile: an uncommitted region leaves the
        #: committed index untouched).
        self._pending_rcolor = set()
        #: Per-word NVM write counts (FRAM endurance bookkeeping; the wear
        #: vector the related-work NVP wear-out attacks exploit).
        self.wear: List[int] = [0] * program.data_words
        self._addr_cache: Dict[str, int] = {
            name: base for name, (base, _) in program.symtab.items()
        }
        # Hook registration (see :meth:`attach`): the fault-injection hook
        # (:mod:`repro.faultsim`), the observability bundle
        # (:mod:`repro.obs`), and the pre-resolved profiler (None unless
        # attached *and* enabled, keeping the per-step cost to one
        # identity check).  Execution backends read the private fields
        # directly; everyone else goes through :meth:`attach`.
        self._fault_hook = None
        self._obs = None
        self._prof = None
        # Peripheral hub: auto-attached for programs linked with the
        # peripheral control block (lazy import avoids a cycle).  The hub
        # is stateless configuration — all controller/device state lives
        # in NVM words — so a fresh hub on restored memory is exact.
        self._periph = None
        if "__isr_sp" in program.symtab:
            from ..periph.hub import PeriphHub

            self._periph = PeriphHub(program)

    # ------------------------------------------------------------------
    # Hook registration.
    # ------------------------------------------------------------------
    def attach(self, fault_hook=_UNSET, obs=_UNSET, profiler=_UNSET) -> None:
        """Register (or detach, by passing ``None``) execution hooks.

        This is the one supported way to wire monitors into a machine;
        every :class:`~repro.runtime.backend.ExecutionBackend` honors
        hooks registered here identically.

        Args:
            fault_hook: a :mod:`repro.faultsim`-style hook whose
                ``before_step(machine)`` runs before each instruction and
                may mutate architectural state; returning True skips the
                fetched instruction (Moro et al.'s instruction-skip
                model).  The hook must declare a ``fired`` flag (True
                once nothing is left to deliver) and ``trigger_step``,
                the first ``instr_count`` at which ``before_step`` can
                act.  Before the trigger ``before_step`` must return
                False with no side effect: the threaded backend runs
                whole blocks up to it, steps exactly until ``fired``,
                then resumes whole-block execution.
            obs: an :class:`~repro.obs.Observability` bundle — region
                commits become bus events.
            profiler: the pre-resolved cycle profiler (or ``None``);
                usually ``maybe(obs.profiler)``.

        Programs linked with peripheral support carry a
        :class:`~repro.periph.hub.PeriphHub` from construction; its
        ``on_boundary(machine)`` runs after every instruction
        (interpreter) or block (threaded backend).
        """
        if fault_hook is not _UNSET:
            self._fault_hook = fault_hook
        if obs is not _UNSET:
            self._obs = obs
        if profiler is not _UNSET:
            self._prof = profiler

    @property
    def fault_hook(self):
        """The registered fault hook (see :meth:`attach`)."""
        return self._fault_hook

    @property
    def obs(self):
        """The registered observability bundle (see :meth:`attach`)."""
        return self._obs

    # ------------------------------------------------------------------
    # Memory helpers.
    # ------------------------------------------------------------------
    def addr(self, name: str, offset: int = 0) -> int:
        return self._addr_cache[name] + offset

    def read_word(self, name: str, offset: int = 0) -> int:
        return self.mem[self.addr(name, offset)]

    def write_word(self, name: str, offset: int, value: int) -> None:
        address = self.addr(name, offset)
        self.mem[address] = wrap32(value)
        self.wear[address] += 1

    def wear_of(self, name: str) -> int:
        """Total writes the symbol's words have absorbed."""
        base, size = self.program.symtab[name]
        return sum(self.wear[base:base + size])

    def wear_hotspots(self, top: int = 5):
        """The most-written symbols: [(name, writes), ...]."""
        totals = [
            (name, self.wear_of(name)) for name in self.program.symtab
        ]
        totals.sort(key=lambda pair: -pair[1])
        return totals[:top]

    # ------------------------------------------------------------------
    # Snapshot / restore.
    # ------------------------------------------------------------------
    def snapshot(self) -> MachineSnapshot:
        """Freeze the complete architectural state (see
        :class:`MachineSnapshot`).  O(memory size); hooks and the program
        are configuration, not state, and are not captured."""
        return MachineSnapshot(
            mem=tuple(self.mem),
            regs=tuple(self.regs),
            pc=self.pc,
            halted=self.halted,
            powered=self.powered,
            cycles=self.cycles,
            instr_count=self.instr_count,
            out_buffer=tuple(self.out_buffer),
            committed_out=tuple(self.committed_out),
            sensor_cursor=self.sensor_cursor,
            ckpt_stores_executed=self.ckpt_stores_executed,
            marks_executed=self.marks_executed,
            pending_rcolor=frozenset(self._pending_rcolor),
            wear=tuple(self.wear),
        )

    def restore(self, snapshot: MachineSnapshot) -> None:
        """Rewind to ``snapshot``, exactly.

        State containers are updated in place (lists keep their identity),
        so execution backends holding references — and compiled threaded
        blocks, which re-fetch ``regs``/``mem``/``wear`` per call — resume
        transparently.  A restored ``pc`` may fall mid-block: the threaded
        backend compiles a lazy suffix block starting there, so restoring
        is valid at *every* instruction boundary, not only block leaders.
        Restoring a snapshot from a different program is undefined.
        """
        self.mem[:] = snapshot.mem
        self.regs[:] = snapshot.regs
        self.pc = snapshot.pc
        self.halted = snapshot.halted
        self.powered = snapshot.powered
        self.cycles = snapshot.cycles
        self.instr_count = snapshot.instr_count
        self.out_buffer[:] = snapshot.out_buffer
        self.committed_out[:] = snapshot.committed_out
        self.sensor_cursor = snapshot.sensor_cursor
        self.ckpt_stores_executed = snapshot.ckpt_stores_executed
        self.marks_executed = snapshot.marks_executed
        self._pending_rcolor.clear()
        self._pending_rcolor.update(snapshot.pending_rcolor)
        self.wear[:] = snapshot.wear

    # ------------------------------------------------------------------
    # Power events.
    # ------------------------------------------------------------------
    def power_off(self) -> None:
        """Lose all volatile state (registers, PC, buffers, cursor)."""
        self.powered = False
        self.regs = [0] * NUM_REGS
        self.pc = 0
        self.out_buffer = []
        self.sensor_cursor = 0
        self._pending_rcolor.clear()

    def cold_boot(self) -> None:
        """Start the program from its entry with a zeroed register file."""
        self.powered = True
        self.halted = False
        self.regs = [0] * NUM_REGS
        self.pc = self.program.entry_pc
        self.out_buffer = []
        self.sensor_cursor = self.read_word("__sensor_idx")
        self._pending_rcolor.clear()

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def _value(self, operand) -> int:
        if isinstance(operand, PReg):
            return self.regs[operand.index]
        if isinstance(operand, Imm):
            return operand.value
        raise MachineFault(f"bad operand {operand!r}")

    def _effective_addr(self, instr: Instr) -> int:
        base, size = self.program.symtab[instr.sym.name]
        offset = self._value(instr.off)
        address = base + offset
        if not 0 <= offset < size:
            raise MachineFault(
                f"pc={self.pc}: access {instr.sym.name}[{offset}] out of "
                f"bounds (size {size})"
            )
        return address

    def step(self) -> int:
        """Execute one instruction; returns the cycles it consumed.

        Returns 0 when halted or unpowered.
        Raises :class:`MachineFault` on traps.
        """
        if self.halted or not self.powered:
            return 0
        if not 0 <= self.pc < len(self.program.instrs):
            raise MachineFault(f"program counter out of range: {self.pc}")
        if self._fault_hook is not None and self._fault_hook.before_step(self):
            # Instruction skip: fetched and charged, no architectural
            # effect; control falls through to pc+1 regardless of opcode.
            instr = self.program.instrs[self.pc]
            self.pc += 1
            cost = instr.cycles
            self.cycles += cost
            self.instr_count += 1
            if self._prof is not None:
                self._prof.add_cycles(OPCODE_CLASSES[instr.op], cost)
            if self._periph is not None:
                self._periph.on_boundary(self)
            return cost
        instr = self.program.instrs[self.pc]
        target = self.program.targets[self.pc]
        op = instr.op
        regs = self.regs
        next_pc = self.pc + 1

        alu = ALU.get(op)
        if alu is not None:
            b = 0 if instr.b is None else self._value(instr.b)
            if b == 0 and (op is Opcode.DIV or op is Opcode.REM):
                raise MachineFault(f"pc={self.pc}: division by zero")
            regs[instr.dst.index] = alu(self._value(instr.a), b)
        elif op is Opcode.LI or op is Opcode.MOV:
            regs[instr.dst.index] = self._value(instr.a)
        elif op is Opcode.LD:
            regs[instr.dst.index] = self.mem[self._effective_addr(instr)]
        elif op is Opcode.ST:
            address = self._effective_addr(instr)
            self.mem[address] = self._value(instr.a)
            self.wear[address] += 1
        elif op is Opcode.BNZ:
            if self._value(instr.a) != 0:
                next_pc = target
        elif op is Opcode.JMP:
            next_pc = target
        elif op is Opcode.CALL:
            slot = self.program.ret_slot[instr.callee]
            self.mem[slot] = self.pc + 1
            next_pc = target
        elif op is Opcode.RET:
            owner = self.program.owner[self.pc]
            next_pc = self.mem[self.program.ret_slot[owner]]
        elif op is Opcode.HALT:
            self.halted = True
            self._commit_output()
            next_pc = self.pc
        elif op is Opcode.OUT:
            self.out_buffer.append(self._value(instr.a))
        elif op is Opcode.SENSE:
            regs[instr.dst.index] = wrap32(self.sensor_stream(self.sensor_cursor))
            self.sensor_cursor += 1
        elif op is Opcode.CKPT:
            color = instr.color
            if color is None:
                if instr.meta.get("per_reg"):
                    color = 1 - (self.read_word("__rcolor", instr.reg_index) & 1)
                    self._pending_rcolor.add(instr.reg_index)
                else:
                    color = 1 - (self.read_word("__color") & 1)
            self.write_word(f"__ckpt{color}", instr.reg_index,
                            regs[instr.a.index])
            self.ckpt_stores_executed += 1
        elif op is Opcode.MARK:
            self._commit_region(instr)
        elif op is Opcode.NOP:
            pass
        else:  # pragma: no cover - exhaustive dispatch
            raise MachineFault(f"unimplemented opcode {op}")

        self.pc = next_pc
        cost = instr.cycles
        self.cycles += cost
        self.instr_count += 1
        if self._prof is not None:
            self._prof.add_cycles(OPCODE_CLASSES[op], cost)
        if self._periph is not None:
            self._periph.on_boundary(self)
        return cost

    def _commit_region(self, instr: Instr) -> None:
        self.write_word("__region_cur", 0, instr.region or 0)
        self.write_word("__region_pc", 0, self.pc + 1)
        self.write_word("__region_done", 0, self.read_word("__region_done") + 1)
        self.write_word("__color", 0, 1 - (self.read_word("__color") & 1))
        for reg_index in self._pending_rcolor:
            # Commit per-register dynamic indices: the buffer written since
            # the previous boundary becomes the restore buffer.
            self.write_word("__rcolor", reg_index,
                            1 - (self.read_word("__rcolor", reg_index) & 1))
        self._pending_rcolor.clear()
        self.write_word("__sensor_idx", 0, self.sensor_cursor)
        self._commit_output()
        self.marks_executed += 1
        if self._obs is not None:
            self._obs.emit(REGION_COMMIT, f"region={instr.region or 0}")

    def _commit_output(self) -> None:
        self.committed_out.extend(self.out_buffer)
        self.out_buffer.clear()

    def run(self, max_steps: int = 10_000_000,
            backend: object = None) -> StepResult:
        """Run until HALT (or until ``max_steps``, raising on overrun).

        Args:
            max_steps: instruction-count budget.
            backend: an :class:`~repro.runtime.backend.ExecutionBackend`
                (or backend name) to run under; ``None`` is the reference
                interpreter.

        Raises:
            MachineFault: when the program has not halted within
                ``max_steps``.  A trap (``MachineFault`` or
                ``SimulationError``) that ends the run is re-raised as is.
        """
        from .backend import backend_for, drain

        if backend is None or isinstance(backend, str):
            backend = backend_for(backend or "interpreter")
        fault = drain(self, backend, max_steps)
        if fault is not None:
            raise fault
        if self.halted:
            return StepResult.HALTED
        raise MachineFault(f"program did not halt within {max_steps} steps")


def run_to_completion(program: LinkedProgram,
                      max_steps: int = 10_000_000,
                      backend: object = None) -> Machine:
    """Convenience: execute a program on stable power and return the machine.

    ``backend`` selects the execution backend (name or instance); ``None``
    uses the reference interpreter loop.
    """
    machine = Machine(program)
    machine.run(max_steps=max_steps, backend=backend)
    return machine
