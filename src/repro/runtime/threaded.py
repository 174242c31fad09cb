"""Threaded-code execution backend: precompiled basic-block closures.

The reference interpreter (:meth:`repro.runtime.machine.Machine.step`)
fetches one :class:`~repro.isa.instructions.Instr` dataclass per cycle and
re-decodes its operands every time.  This backend instead compiles each
machine-level basic block — once, lazily, per :class:`LinkedProgram` —
into a specialized Python function in which every compile-time-known
quantity is already a literal:

* register indices and immediates are inlined (no ``_value`` dispatch),
* symbol base addresses are resolved (a static ``LD``/``ST`` offset
  becomes one constant list index, bounds-checked at compile time),
* ALU instructions inline the ISA's own expression text
  (:func:`~repro.isa.instructions.alu_expr`), 32-bit wrap included,
* per-block cycle/instruction costs are pre-summed and flushed in
  batches.

Loops go one step further.  A backward ``BNZ``/``JMP`` (resolved target
at or before itself) closes a *region*: the contiguous pc span from its
target to the branch, merged with every span it overlaps.  All member
blocks of a region compile into one closure whose ``while`` loop
dispatches on a local pc and runs each member's block code, so a loop
iteration never returns to :meth:`ThreadedBackend.run_slice`.  The
closure returns when the pc is not one of its members' entries (the
loop exited, a ``CALL``/``RET`` left the span, a corrupted pc), after a
``HALT``, or when the next block does not fit in the remaining budget.
Dispatch is by pc, so no CFG shape can make it wrong: a pc that is not
a member entry simply returns to ``run_slice``, which compiles a suffix
block there as for any other mid-block pc.

Equivalence contract (checked byte-for-byte by ``tests/test_backends.py``
and the CI cross-check):

* **State** — registers, memory, wear counters, output buffers, sensor
  cursor, checkpoint/commit bookkeeping, ``pc``, ``cycles``,
  ``instr_count`` all match the interpreter after every
  :meth:`ThreadedBackend.run_slice`, because block code performs the
  same effects in the same order with the same wrapping quirks (e.g.
  ``ST`` stores unwrapped operand values, ``CALL`` return-slot writes
  bump no wear, comparison results are ``int`` not ``bool``).
* **Traps** — division by zero, out-of-bounds accesses and runaway
  program counters raise :class:`~repro.errors.MachineFault` with the
  interpreter's exact message, and with ``pc``/``cycles``/
  ``instr_count`` reflecting only the instructions *before* the faulting
  one (the interpreter charges cost after dispatch).
* **Hooks** — a fault hook registered via :meth:`Machine.attach` is
  *armed* until its one-shot ``fired`` flag flips, and declares
  ``trigger_step``, the first ``instr_count`` at which its
  ``before_step`` can act.  An armed hook lets blocks and regions run up
  to that step (the budget is capped at ``trigger_step - instr_count``),
  then is single-stepped from the trigger until it fires: before the
  trigger ``before_step`` returns False with no side effect, so skipping
  those calls is observationally identical.  Once fired, whole-block
  execution resumes (``before_step`` of a fired hook is a no-op).
* **Profiling** — with a profiler attached, plain blocks run (no
  regions) and each adds its per-opcode-class cycle sums, precomputed
  at compile time, after it runs; a trap attributes only the
  instructions before the faulting pc, as the interpreter does.
* **Peripherals** — for programs linked with the :mod:`repro.periph`
  control block, a store to peripheral MMIO ends its block, only plain
  blocks run, the hub's boundary hook runs after every block, and a
  block whose cycle span contains a device event is demoted to exact
  single-stepping (:meth:`~repro.periph.hub.PeriphHub.event_before`) —
  interrupt delivery, handler returns, device fires, and stale-frame
  healing all land on the interpreter's exact instruction boundaries.
* **Interruptible points** — ``MARK`` region commits and ``SENSE``
  reads call out of the block (observability bus, user sensor streams),
  so generated code synchronizes ``pc``/``cycles``/``instr_count``
  exactly before them.  Power events and monitor sampling only happen
  between slices, and a slice never executes more instructions than its
  budget: a block (or region entry block) longer than the remaining
  budget falls back to single-stepping, and a region stops before a
  member that does not fit, so slice-boundary timing is identical to
  the interpreter's.

Block functions close over nothing picklable-hostile on the program:
compiled blocks live in a module-level cache keyed by ``id(program)``
with a weakref guard, so :class:`LinkedProgram` instances remain
picklable for campaign worker pools.

Because blocks are compiled lazily *per entry pc*, a ``pc`` that lands
mid-block — a JIT-checkpoint restore, or a
:meth:`~repro.runtime.machine.Machine.restore` from a
:class:`~repro.runtime.machine.MachineSnapshot` taken between block
boundaries (how ``repro.exhaustive`` forks injections off the golden
trace) — simply becomes the leader of a fresh suffix block; no
alignment with the static block leaders is required.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple, Union

from ..errors import MachineFault, SimulationError
from ..isa.instructions import (
    ALU, BLOCK_ENDERS, WRAP32_TEXT, Instr, Opcode, alu_expr)
from ..isa.operands import Imm, PReg, trunc_div, trunc_rem
from ..isa.program import PERIPH_CONTROL_SYMBOLS, LinkedProgram
from .machine import OPCODE_CLASSES, Machine

#: Maximum instructions per compiled block.  Bounded so that the
#: budget-respecting fallback ("block longer than the remaining slice
#: budget → single-step") degrades at most the tail of a slice, and so
#: a block is never larger than the simulator's default quantum.
MAX_BLOCK_LEN = 32

#: A region's local-pc dispatch bisects its member entries down to runs
#: of at most this many equality tests.
_DISPATCH_RUN = 4

#: Branches that close a loop region when they jump backward.
_LOOP_BRANCHES = (Opcode.BNZ, Opcode.JMP)


class CompiledBlock:
    """One compiled straight-line block: a closure plus its static costs.

    ``classes`` holds the block's cycle sums per profiler category
    (:data:`~repro.runtime.machine.OPCODE_CLASSES`), in order of first
    appearance — what a profiled run adds after the block.
    """

    __slots__ = ("fn", "n", "cycles", "start", "classes", "region")

    def __init__(self, fn, n: int, cycles: int, start: int,
                 classes: Tuple[Tuple[str, int], ...] = ()) -> None:
        self.fn = fn
        self.n = n
        self.cycles = cycles
        self.start = start
        self.classes = classes
        #: Plain blocks run as ``fn(m, regs, mem, wear)``.
        self.region = False


class _RegionEntry:
    """One member entry of a compiled loop region: the region's closure
    plus the length of the member block starting there (what
    ``run_slice`` checks against the remaining budget before the call)."""

    __slots__ = ("fn", "n", "region")

    def __init__(self, fn, n: int) -> None:
        self.fn = fn
        self.n = n
        #: Regions run as ``fn(m, regs, mem, wear, left) -> executed``.
        self.region = True


def _operand(operand) -> str:
    """Expression for an operand's value: register read or literal."""
    if isinstance(operand, PReg):
        return f"regs[{operand.index}]"
    if isinstance(operand, Imm):
        return repr(operand.value)
    raise MachineFault(f"bad operand {operand!r}")


def _block_end(program: LinkedProgram, start: int,
               leaders: frozenset) -> int:
    """One past the last instruction of the block starting at ``start``.

    A block ends after a :data:`BLOCK_ENDERS` opcode, after a store to
    peripheral MMIO (it can re-arm a device or unmask an interrupt, so
    the hub must see the boundary the interpreter does), before the next
    leader, and after :data:`MAX_BLOCK_LEN` instructions.
    """
    instrs = program.instrs
    pc = start
    while True:
        instr = instrs[pc]
        pc += 1
        if (instr.op in BLOCK_ENDERS or pc >= len(instrs)
                or pc in leaders or pc - start >= MAX_BLOCK_LEN
                or (instr.op is Opcode.ST and instr.sym is not None
                    and instr.sym.name in PERIPH_CONTROL_SYMBOLS)):
            return pc


def _loop_regions(program: LinkedProgram,
                  leaders: frozenset) -> List[Tuple[int, ...]]:
    """Member block starts of every loop region, each in pc order.

    Each backward ``BNZ``/``JMP`` spans the pcs from its target to
    itself; overlapping spans merge into the outermost one, and each
    merged span is cut into the blocks :func:`_block_end` delimits —
    the same chain of blocks plain dispatch compiles from its first pc.
    """
    spans = sorted(
        (target, pc) for pc, (instr, target)
        in enumerate(zip(program.instrs, program.targets))
        if instr.op in _LOOP_BRANCHES and target is not None
        and target <= pc)
    merged: List[List[int]] = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    regions = []
    for lo, hi in merged:
        starts = []
        pc = lo
        while pc <= hi:
            starts.append(pc)
            pc = _block_end(program, pc, leaders)
        regions.append(tuple(starts))
    return regions


class _BlockCompiler:
    """Compiles the block starting at one pc — or, given ``members``,
    every member block of one loop region — into one Python closure."""

    def __init__(self, program: LinkedProgram, start: int,
                 leaders: frozenset, members: Tuple[int, ...] = ()) -> None:
        self.program = program
        self.start = start
        self.leaders = leaders
        self.members = members
        self.lines: List[str] = []
        self.env: Dict[str, object] = {
            "MachineFault": MachineFault,
            "trunc_div": trunc_div,
            "trunc_rem": trunc_rem,
        }
        # Indentation of the block body being emitted (a region nests it
        # inside its dispatch), and where control transfers write the
        # next pc: ``m.pc`` in a plain block, the local ``pc`` in a
        # region (written back to ``m.pc`` when the region returns).
        self.indent = 0
        self.goto = "m.pc"
        # Cycles/instructions accumulated since the last flush; traps and
        # out-of-block calls flush so observers see exact interpreter
        # accounting (cost lands *after* an instruction dispatches).
        self.pending_cycles = 0
        self.pending_count = 0

    # -- emission helpers ----------------------------------------------
    def emit(self, line: str, depth: int = 1) -> None:
        self.lines.append("    " * (self.indent + depth) + line)

    def flush_stmts(self) -> List[str]:
        stmts = []
        if self.pending_cycles:
            stmts.append(f"m.cycles += {self.pending_cycles}")
        if self.pending_count:
            stmts.append(f"m.instr_count += {self.pending_count}")
        return stmts

    def flush(self, depth: int = 1) -> None:
        for stmt in self.flush_stmts():
            self.emit(stmt, depth)
        self.pending_cycles = 0
        self.pending_count = 0

    def trap(self, pc: int, message_expr: str, depth: int) -> None:
        """Emit a trap path: exact pc/cycle state, interpreter message."""
        self.emit(f"m.pc = {pc}", depth)
        for stmt in self.flush_stmts():
            self.emit(stmt, depth)
        self.emit(f"raise MachineFault({message_expr})", depth)

    def addr_expr(self, pc: int, instr: Instr) -> str:
        """Effective-address expression for LD/ST, guards included."""
        base, size = self.program.symtab[instr.sym.name]
        if isinstance(instr.off, Imm):
            offset = instr.off.value
            if 0 <= offset < size:
                return repr(base + offset)
            # Statically out of bounds: always traps, exact message.
            message = (f"pc={pc}: access {instr.sym.name}[{offset}] out "
                       f"of bounds (size {size})")
            self.emit("if True:")
            self.trap(pc, repr(message), depth=2)
            return repr(base)  # unreachable
        off = _operand(instr.off)
        self.emit(f"_o = {off}")
        self.emit(f"if _o < 0 or _o >= {size}:")
        message = (f'f"pc={pc}: access {instr.sym.name}[{{_o}}] '
                   f'out of bounds (size {size})"')
        self.trap(pc, message, depth=2)
        return f"{base} + _o"

    # -- blocks and regions --------------------------------------------
    def compile(self) -> Union[CompiledBlock, Dict[int, _RegionEntry]]:
        """Generate, compile, and wrap the closure: a
        :class:`CompiledBlock`, or for a region its entries by pc."""
        if not self.members:
            end = _block_end(self.program, self.start, self.leaders)
            cycles, classes = self.block(self.start, end)
            fn = self.build("__tblock", "m, regs, mem, wear",
                            f"<threaded-block@{self.start}>")
            return CompiledBlock(fn, end - self.start, cycles, self.start,
                                 classes)
        lengths: Dict[int, int] = {}
        self.goto = "pc"
        self.emit("budget = left")
        self.emit("pc = m.pc")
        self.emit("while True:")
        self.dispatch(self.members, 2, lengths)
        self.emit("m.pc = pc")
        self.emit("return budget - left")
        fn = self.build("__tregion", "m, regs, mem, wear, left",
                        f"<threaded-region@{self.start}>")
        return {start: _RegionEntry(fn, n) for start, n in lengths.items()}

    def build(self, name: str, params: str, filename: str):
        body = "\n".join(self.lines) or "    pass"
        source = f"def {name}({params}):\n{body}\n"
        code = compile(source, filename, "exec")
        namespace = dict(self.env)
        exec(code, namespace)  # noqa: S102 - trusted generated code
        return namespace[name]

    def dispatch(self, starts: Tuple[int, ...], depth: int,
                 lengths: Dict[int, int]) -> None:
        """Emit the region's local-pc dispatch over ``starts``: bisect
        down to short runs of equality tests, each running one member
        block if it fits in ``left``.  Any other pc leaves the loop."""
        if len(starts) > _DISPATCH_RUN:
            half = len(starts) // 2
            self.emit(f"if pc < {starts[half]}:", depth)
            self.dispatch(starts[:half], depth + 1, lengths)
            self.emit("else:", depth)
            self.dispatch(starts[half:], depth + 1, lengths)
            return
        for position, start in enumerate(starts):
            end = _block_end(self.program, start, self.leaders)
            lengths[start] = end - start
            self.emit(f"{'elif' if position else 'if'} pc == {start}:",
                      depth)
            self.emit(f"if left < {end - start}:", depth + 1)
            self.emit("break", depth + 2)
            self.emit(f"left -= {end - start}", depth + 1)
            self.indent = depth
            self.block(start, end)
            if self.program.instrs[end - 1].op is Opcode.HALT:
                self.emit("break")
            self.indent = 0
        self.emit("else:", depth)
        self.emit("break", depth + 1)

    def block(self, start: int,
              end: int) -> Tuple[int, Tuple[Tuple[str, int], ...]]:
        """Emit the code of block ``[start, end)``; returns its cycle
        total and its per-class cycle sums."""
        instrs = self.program.instrs
        cycles = 0
        classes: Dict[str, int] = {}
        for pc in range(start, end):
            instr = instrs[pc]
            self.instruction(pc, instr)
            self.pending_cycles += instr.cycles
            self.pending_count += 1
            cycles += instr.cycles
            category = OPCODE_CLASSES[instr.op]
            classes[category] = classes.get(category, 0) + instr.cycles
        if instrs[end - 1].op not in BLOCK_ENDERS:
            self.emit(f"{self.goto} = {end}")
        self.flush()
        return cycles, tuple(classes.items())

    # -- per-opcode code generation ------------------------------------
    def instruction(self, pc: int, instr: Instr) -> None:  # noqa: C901
        op = instr.op
        emit = self.emit
        if op is Opcode.LI or op is Opcode.MOV:
            emit(f"regs[{instr.dst.index}] = {_operand(instr.a)}")
        elif op in ALU:
            b = "0" if instr.b is None else _operand(instr.b)
            if (op is Opcode.DIV or op is Opcode.REM) \
                    and not (isinstance(instr.b, Imm) and instr.b.value != 0):
                # A provably nonzero ``Imm`` divisor needs no guard.
                emit(f"_b = {b}")
                emit("if _b == 0:")
                self.trap(pc, repr(f"pc={pc}: division by zero"), depth=2)
                b = "_b"
            emit(f"regs[{instr.dst.index}] = "
                 f"{alu_expr(op, _operand(instr.a), b)}")
        elif op is Opcode.LD:
            address = self.addr_expr(pc, instr)
            emit(f"regs[{instr.dst.index}] = mem[{address}]")
        elif op is Opcode.ST:
            address = self.addr_expr(pc, instr)
            if address.isdigit():
                emit(f"mem[{address}] = {_operand(instr.a)}")
                emit(f"wear[{address}] += 1")
            else:
                emit(f"_a = {address}")
                # The interpreter stores the raw operand value (no wrap).
                emit(f"mem[_a] = {_operand(instr.a)}")
                emit("wear[_a] += 1")
        elif op is Opcode.BNZ:
            target = self.program.targets[pc]
            emit(f"{self.goto} = {target} if {_operand(instr.a)} != 0 "
                 f"else {pc + 1}")
        elif op is Opcode.JMP:
            emit(f"{self.goto} = {self.program.targets[pc]}")
        elif op is Opcode.CALL:
            slot = self.program.ret_slot[instr.callee]
            # Return-slot write: raw value, no wear bump (interpreter quirk).
            emit(f"mem[{slot}] = {pc + 1}")
            emit(f"{self.goto} = {self.program.targets[pc]}")
        elif op is Opcode.RET:
            owner = self.program.owner[pc]
            emit(f"{self.goto} = mem[{self.program.ret_slot[owner]}]")
        elif op is Opcode.HALT:
            emit(f"{self.goto} = {pc}")
            emit("m.halted = True")
            emit("m._commit_output()")
        elif op is Opcode.OUT:
            emit(f"m.out_buffer.append({_operand(instr.a)})")
        elif op is Opcode.SENSE:
            # The sensor stream is user code: synchronize exact state first.
            self.flush()
            emit(f"m.pc = {pc}")
            value = "m.sensor_stream(m.sensor_cursor)"
            emit(f"regs[{instr.dst.index}] = {WRAP32_TEXT.format(value)}")
            emit("m.sensor_cursor += 1")
        elif op is Opcode.CKPT:
            self.ckpt(instr)
        elif op is Opcode.MARK:
            # Region commit emits on the observability bus: synchronize
            # exact state, then reuse the interpreter's commit routine
            # verbatim (it reads ``self.pc + 1`` for the re-entry pc).
            self.flush()
            emit(f"m.pc = {pc}")
            name = f"_instr_{pc}"
            self.env[name] = instr
            emit(f"m._commit_region({name})")
        elif op is Opcode.NOP:
            pass
        else:  # pragma: no cover - exhaustive dispatch
            emit(f"m.pc = {pc}")
            self.flush()
            raise MachineFault(f"unimplemented opcode {op}")

    def ckpt(self, instr: Instr) -> None:
        emit = self.emit
        symtab = self.program.symtab
        ckpt0, _ = symtab["__ckpt0"]
        ckpt1, _ = symtab["__ckpt1"]
        source = f"regs[{instr.a.index}]"
        if instr.color is not None:
            address = (ckpt1 if instr.color else ckpt0) + instr.reg_index
            emit(f"mem[{address}] = {WRAP32_TEXT.format(source)}")
            emit(f"wear[{address}] += 1")
        elif instr.meta.get("per_reg"):
            rcolor, _ = symtab["__rcolor"]
            emit(f"_c = 1 - (mem[{rcolor + instr.reg_index}] & 1)")
            emit(f"m._pending_rcolor.add({instr.reg_index})")
            emit(f"_a = {ckpt1 + instr.reg_index} if _c else "
                 f"{ckpt0 + instr.reg_index}")
            emit(f"mem[_a] = {WRAP32_TEXT.format(source)}")
            emit("wear[_a] += 1")
        else:
            color, _ = symtab["__color"]
            emit(f"_c = 1 - (mem[{color}] & 1)")
            emit(f"_a = {ckpt1 + instr.reg_index} if _c else "
                 f"{ckpt0 + instr.reg_index}")
            emit(f"mem[_a] = {WRAP32_TEXT.format(source)}")
            emit("wear[_a] += 1")
        emit("m.ckpt_stores_executed += 1")


class _ProgramBlocks:
    """Lazily compiled code of one program, indexed by entry pc.

    ``blocks`` holds plain blocks — all that profiled and peripheral
    runs use.  ``units`` is what region dispatch runs at each pc: the
    region's entry at every member start, the same plain block anywhere
    else, so no member block is ever also compiled standalone there.
    """

    __slots__ = ("blocks", "units", "leaders", "regions")

    def __init__(self, program: LinkedProgram) -> None:
        size = len(program.instrs)
        self.blocks: List[Optional[CompiledBlock]] = [None] * size
        self.units: List[Union[None, CompiledBlock, _RegionEntry]] = \
            [None] * size
        self.leaders = program.block_leaders()
        #: Member start -> every member start of its loop region.
        self.regions: Dict[int, Tuple[int, ...]] = {
            start: members
            for members in _loop_regions(program, self.leaders)
            for start in members}

    def block(self, program: LinkedProgram, pc: int) -> CompiledBlock:
        block = self.blocks[pc]
        if block is None:
            block = _BlockCompiler(program, pc, self.leaders).compile()
            self.blocks[pc] = block
        return block

    def unit(self, program: LinkedProgram,
             pc: int) -> Union[CompiledBlock, _RegionEntry]:
        members = self.regions.get(pc)
        if members is None:
            unit = self.units[pc] = self.block(program, pc)
            return unit
        entries = _BlockCompiler(program, members[0], self.leaders,
                                 members).compile()
        for start, entry in entries.items():
            self.units[start] = entry
        return entries[pc]


#: Per-program block caches, keyed by ``id(program)``.  Closures are not
#: picklable, so blocks must never live on the ``LinkedProgram`` itself
#: (campaign compile caches are pickled into worker pools); the weakref
#: guards against id reuse and a finalizer drops dead entries.
_CACHES: Dict[int, Tuple["weakref.ref", _ProgramBlocks]] = {}


def _blocks_for(program: LinkedProgram) -> _ProgramBlocks:
    key = id(program)
    entry = _CACHES.get(key)
    if entry is not None and entry[0]() is program:
        return entry[1]
    cache = _ProgramBlocks(program)
    _CACHES[key] = (weakref.ref(program), cache)
    weakref.finalize(program, _CACHES.pop, key, None)
    return cache


def compile_block(program: LinkedProgram, start: int) -> CompiledBlock:
    """Compile (or fetch) the plain block starting at ``start`` — test
    hook."""
    return _blocks_for(program).block(program, start)


def _run_profiled(block: CompiledBlock, machine: Machine, prof) -> None:
    """Run ``block`` and attribute its cycles per opcode class.  A trap
    attributes only the instructions before the faulting pc (the block's
    trap path has synchronized ``machine.pc``), as the interpreter does."""
    try:
        block.fn(machine, machine.regs, machine.mem, machine.wear)
    except (MachineFault, SimulationError):
        for instr in machine.program.instrs[block.start:machine.pc]:
            prof.add_cycles(OPCODE_CLASSES[instr.op], instr.cycles)
        raise
    for category, cycles in block.classes:
        prof.add_cycles(category, cycles)


class ThreadedBackend:
    """Threaded-code backend: whole-block execution, exact semantics."""

    name = "threaded"

    _shared: Optional["ThreadedBackend"] = None

    @classmethod
    def shared(cls) -> "ThreadedBackend":
        if cls._shared is None:
            cls._shared = cls()
        return cls._shared

    def run_slice(self, machine: Machine,
                  budget: int) -> Tuple[int, Optional[Exception]]:
        cycles_start = machine.cycles
        try:
            hook = machine._fault_hook
            program = machine.program
            cache = _blocks_for(program)
            size = len(program.instrs)
            prof = machine._prof
            hub = machine._periph
            # The hub must see every block boundary and the profiler
            # every block's class sums: both run plain blocks only.
            plain = prof is not None or hub is not None
            units = cache.blocks if plain else cache.units
            executed = 0
            limit = budget
            while executed < budget:
                if machine.halted or not machine.powered:
                    break
                if hook is not None and not hook.fired:
                    # Armed fault hook: run ahead up to its declared
                    # trigger, then step exactly until it fires (only a
                    # step can fire it, so the cap is lifted there).
                    trigger = hook.trigger_step
                    if machine.instr_count >= trigger:
                        machine.step()
                        executed += 1
                        limit = budget
                        continue
                    limit = min(budget,
                                executed + trigger - machine.instr_count)
                pc = machine.pc
                if not 0 <= pc < size:
                    raise MachineFault(
                        f"program counter out of range: {pc}")
                unit = units[pc]
                if unit is None:
                    unit = cache.block(program, pc) if plain \
                        else cache.unit(program, pc)
                if unit.n > limit - executed:
                    # Never overshoot the slice budget (monitor/power
                    # sampling at slice boundaries must stay exact) nor
                    # an armed hook's trigger.
                    machine.step()
                    executed += 1
                    continue
                if unit.region:
                    executed += unit.fn(machine, machine.regs, machine.mem,
                                        machine.wear, limit - executed)
                    continue
                if hub is not None and hub.event_before(machine,
                                                        unit.cycles):
                    # A device fire, delivery, handler return, or heal
                    # falls inside this block's cycle span: single-step
                    # so it lands at the interpreter's exact boundary.
                    machine.step()
                    executed += 1
                    continue
                if prof is None:
                    unit.fn(machine, machine.regs, machine.mem, machine.wear)
                else:
                    _run_profiled(unit, machine, prof)
                executed += unit.n
                if hub is not None:
                    hub.on_boundary(machine)
            return machine.cycles - cycles_start, None
        except (MachineFault, SimulationError) as exc:
            return machine.cycles - cycles_start, exc
