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
  control block, a store to peripheral MMIO ends its block and only
  plain blocks run.  ``run_slice`` asks the hub one question,
  :meth:`~repro.periph.hub.PeriphHub.horizon`: the first cycle at which
  it could act, or -1.  A block (or residue) runs only if it ends before
  the horizon; otherwise the slice steps exactly, so interrupt delivery,
  handler returns, device fires, and stale-frame healing all land on the
  interpreter's instruction boundaries.  Before the horizon the hub's
  boundary hook does nothing except after a ``RET`` (it may land on a
  handler's sentinel) or an MMIO store, so it runs only after blocks
  ending in one (``CompiledBlock.mmio``).  The horizon is asked at the
  slice's first block and again after any step or hook call.
* **Interruptible points** — ``MARK`` region commits and ``SENSE``
  reads call out of the block (observability bus, user sensor streams),
  so generated code synchronizes ``pc``/``cycles``/``instr_count``
  exactly before them.  Power events and monitor sampling only happen
  between slices, and a slice never executes more instructions than its
  budget: a block (or region entry block) longer than the remaining
  budget ``k`` runs its first ``k`` instructions as a *residue* — one
  closure per block start holding all but the block's last instruction,
  with an exit after each — and a region stops before a member that
  does not fit, so slice-boundary timing is identical to the
  interpreter's.  Profiled runs step the residue instead, as do hub
  programs unless the horizon covers the whole block.

Block functions close over nothing picklable-hostile on the program:
compiled blocks live in :func:`~repro.isa.program.derived`'s weakref-
guarded cache, so :class:`LinkedProgram` instances remain picklable for
campaign worker pools.

Because blocks are compiled lazily *per entry pc*, a ``pc`` that lands
mid-block — a JIT-checkpoint restore, or a
:meth:`~repro.runtime.machine.Machine.restore` from a
:class:`~repro.runtime.machine.MachineSnapshot` taken between block
boundaries (how ``repro.exhaustive`` forks injections off the golden
trace) — simply becomes the leader of a fresh suffix block; no
alignment with the static block leaders is required.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from ..errors import MachineFault, SimulationError
from ..isa.instructions import (
    ALU, BLOCK_ENDERS, WRAP32_TEXT, Instr, Opcode, alu_expr)
from ..isa.operands import Imm, PReg, trunc_div, trunc_rem
from ..isa.program import PERIPH_CONTROL_SYMBOLS, LinkedProgram, derived
from .machine import OPCODE_CLASSES, Machine

#: Maximum instructions per compiled block.  Bounded so that a block is
#: never larger than the simulator's default quantum, and so the residue
#: closure run when a block does not fit the rest of a slice stays short.
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

    __slots__ = ("fn", "n", "cycles", "start", "classes", "region", "mmio")

    def __init__(self, fn, n: int, cycles: int, start: int,
                 classes: Tuple[Tuple[str, int], ...] = (),
                 mmio: bool = False) -> None:
        self.fn = fn
        self.n = n
        self.cycles = cycles
        self.start = start
        self.classes = classes
        #: Plain blocks run as ``fn(m, regs, mem, wear)``.
        self.region = False
        #: Whether the hub must see the boundary after the block: it
        #: ends in a store to peripheral MMIO or in a ``RET``.
        self.mmio = mmio


class _RegionEntry:
    """One member entry of a compiled loop region: the region's closure
    plus the length of the member block starting there (what
    ``run_slice`` checks against the remaining budget before the call)."""

    __slots__ = ("fn", "n", "region")

    def __init__(self, fn, n: int) -> None:
        self.fn = fn
        self.n = n
        #: Regions run as ``fn(m, regs, mem, wear, left) -> left``.
        self.region = True


def _operand(operand, reg: str) -> str:
    """Expression for an operand's value: register read or literal."""
    if isinstance(operand, PReg):
        return reg.format(operand.index)
    if isinstance(operand, Imm):
        return repr(operand.value)
    raise MachineFault(f"bad operand {operand!r}")


def _mmio_store(instr: Instr) -> bool:
    return (instr.op is Opcode.ST and instr.sym is not None
            and instr.sym.name in PERIPH_CONTROL_SYMBOLS)


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
                or _mmio_store(instr)):
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
    every member block of one loop region, or given ``residue``, the
    block's residue — into one Python closure.

    A region keeps the registers its members touch in locals ``r<i>``,
    its cycles in ``cyc`` and its count in ``budget - left``, and writes
    them back on return, on trap paths and around ``MARK``/``SENSE``.
    """

    def __init__(self, program: LinkedProgram, start: int,
                 leaders: frozenset, members: Tuple[int, ...] = (),
                 residue: bool = False) -> None:
        self.program = program
        self.start = start
        self.leaders = leaders
        self.members = members
        self.residue = residue
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
        # How a register is read or written, a region's register locals,
        # and one past the last pc of the block being emitted.
        self.reg = "r{}" if members else "regs[{}]"
        self.locals: Tuple[int, ...] = ()
        self.end = start

    # -- emission helpers ----------------------------------------------
    def emit(self, line: str, depth: int = 1) -> None:
        self.lines.append("    " * (self.indent + depth) + line)

    def flush_stmts(self) -> List[str]:
        stmts = []
        if self.pending_cycles:
            cycles = "cyc" if self.members else "m.cycles"
            stmts.append(f"{cycles} += {self.pending_cycles}")
        if self.pending_count and not self.members:
            stmts.append(f"m.instr_count += {self.pending_count}")
        return stmts

    def flush(self, depth: int = 1) -> None:
        for stmt in self.flush_stmts():
            self.emit(stmt, depth)
        self.pending_cycles = 0
        self.pending_count = 0

    def spill(self, template: str, depth: int = 1) -> None:
        """Emit one line applying ``template`` to each register local."""
        if self.locals:
            self.emit("; ".join(map(template.format, self.locals)), depth)

    def sync(self, pc: int, depth: int = 1, resume: bool = False) -> None:
        """Emit what makes the machine exact before ``pc`` runs; with
        ``resume`` (a call-out, not a trap) the counts restart there."""
        self.emit(f"m.pc = {pc}", depth)
        if not self.members:
            for stmt in self.flush_stmts():
                self.emit(stmt, depth)
        else:
            self.spill("regs[{0}] = r{0}", depth)
            self.emit(f"m.cycles += cyc + {self.pending_cycles}", depth)
            self.emit(f"m.instr_count += budget - left - {self.end - pc}",
                      depth)
            if resume:
                self.emit(f"cyc = 0; budget = left + {self.end - pc}")
        if resume:
            self.pending_cycles = self.pending_count = 0

    def trap(self, pc: int, message_expr: str, depth: int) -> None:
        """Emit a trap path: exact pc/cycle state, interpreter message."""
        self.sync(pc, depth)
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
        off = _operand(instr.off, self.reg)
        self.emit(f"_o = {off}")
        self.emit(f"if _o < 0 or _o >= {size}:")
        message = (f'f"pc={pc}: access {instr.sym.name}[{{_o}}] '
                   f'out of bounds (size {size})"')
        self.trap(pc, message, depth=2)
        return f"{base} + _o"

    # -- blocks and regions --------------------------------------------
    def compile(self) -> Union[CompiledBlock, Callable,
                               Dict[int, _RegionEntry]]:
        """Generate, compile, and wrap the closure: a
        :class:`CompiledBlock`, a residue's bare function, or for a
        region its entries by pc."""
        if self.residue:
            # All but the block's last instruction: the only one that can
            # branch, call, return, halt, or store to peripheral MMIO.
            end = _block_end(self.program, self.start, self.leaders) - 1
            self.block(self.start, end, exits=True)
            return self.build("__tresidue", "m, regs, mem, wear, k",
                              f"<threaded-residue@{self.start}>")
        if not self.members:
            end = _block_end(self.program, self.start, self.leaders)
            cycles, classes = self.block(self.start, end)
            fn = self.build("__tblock", "m, regs, mem, wear",
                            f"<threaded-block@{self.start}>")
            last = self.program.instrs[end - 1]
            return CompiledBlock(fn, end - self.start, cycles, self.start,
                                 classes,
                                 last.op is Opcode.RET or _mmio_store(last))
        lengths: Dict[int, int] = {}
        end = _block_end(self.program, self.members[-1], self.leaders)
        self.locals = tuple(sorted({
            reg.index for instr in self.program.instrs[self.members[0]:end]
            for reg in instr.defs() + instr.uses()}))
        self.goto = "pc"
        self.emit("budget = left")
        self.emit("pc = m.pc")
        self.emit("cyc = 0")
        self.spill("r{0} = regs[{0}]")
        self.emit("while True:")
        self.dispatch(self.members, 2, lengths)
        self.emit("m.pc = pc")
        self.spill("regs[{0}] = r{0}")
        self.emit("m.cycles += cyc; m.instr_count += budget - left")
        self.emit("return left")
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

    def block(self, start: int, end: int, exits: bool = False
              ) -> Tuple[int, Tuple[Tuple[str, int], ...]]:
        """Emit the code of block ``[start, end)``; returns its cycle
        total and its per-class cycle sums.  With ``exits``, the code
        returns after its ``k``-th instruction with exact state."""
        instrs = self.program.instrs
        cycles = 0
        classes: Dict[str, int] = {}
        self.end = end
        for pc in range(start, end):
            instr = instrs[pc]
            self.instruction(pc, instr)
            self.pending_cycles += instr.cycles
            self.pending_count += 1
            cycles += instr.cycles
            category = OPCODE_CLASSES[instr.op]
            classes[category] = classes.get(category, 0) + instr.cycles
            if exits and pc + 1 < end:
                self.emit(f"if k == {pc + 1 - start}:")
                self.emit(f"m.pc = {pc + 1}", 2)
                for stmt in self.flush_stmts():
                    self.emit(stmt, 2)
                self.emit("return", 2)
        if instrs[end - 1].op not in BLOCK_ENDERS:
            self.emit(f"{self.goto} = {end}")
        self.flush()
        return cycles, tuple(classes.items())

    # -- per-opcode code generation ------------------------------------
    def instruction(self, pc: int, instr: Instr) -> None:  # noqa: C901
        op = instr.op
        emit = self.emit
        reg = self.reg
        dst = None if instr.dst is None else reg.format(instr.dst.index)
        if op is Opcode.LI or op is Opcode.MOV:
            emit(f"{dst} = {_operand(instr.a, reg)}")
        elif op in ALU:
            b = "0" if instr.b is None else _operand(instr.b, reg)
            if (op is Opcode.DIV or op is Opcode.REM) \
                    and not (isinstance(instr.b, Imm) and instr.b.value != 0):
                # A provably nonzero ``Imm`` divisor needs no guard.
                emit(f"_b = {b}")
                emit("if _b == 0:")
                self.trap(pc, repr(f"pc={pc}: division by zero"), depth=2)
                b = "_b"
            emit(f"{dst} = {alu_expr(op, _operand(instr.a, reg), b)}")
        elif op is Opcode.LD:
            address = self.addr_expr(pc, instr)
            emit(f"{dst} = mem[{address}]")
        elif op is Opcode.ST:
            address = self.addr_expr(pc, instr)
            if address.isdigit():
                emit(f"mem[{address}] = {_operand(instr.a, reg)}")
                emit(f"wear[{address}] += 1")
            else:
                emit(f"_a = {address}")
                # The interpreter stores the raw operand value (no wrap).
                emit(f"mem[_a] = {_operand(instr.a, reg)}")
                emit("wear[_a] += 1")
        elif op is Opcode.BNZ:
            target = self.program.targets[pc]
            emit(f"{self.goto} = {target} if {_operand(instr.a, reg)} != 0 "
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
            emit(f"m.out_buffer.append({_operand(instr.a, reg)})")
        elif op is Opcode.SENSE:
            # The sensor stream is user code: synchronize exact state.
            self.sync(pc, resume=True)
            value = "m.sensor_stream(m.sensor_cursor)"
            emit(f"regs[{instr.dst.index}] = {WRAP32_TEXT.format(value)}")
            emit("m.sensor_cursor += 1")
            self.spill("r{0} = regs[{0}]")
        elif op is Opcode.CKPT:
            self.ckpt(instr)
        elif op is Opcode.MARK:
            # Region commit emits on the observability bus: synchronize
            # exact state, then reuse the interpreter's commit routine
            # verbatim (it reads ``self.pc + 1`` for the re-entry pc).
            self.sync(pc, resume=True)
            name = f"_instr_{pc}"
            self.env[name] = instr
            emit(f"m._commit_region({name})")
            self.spill("r{0} = regs[{0}]")
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
        source = self.reg.format(instr.a.index)
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
    ``residues`` holds the residue of the plain block at each pc, built
    the first time a slice ends inside that block: ``fn(m, regs, mem,
    wear, k)`` runs the block's first ``k`` instructions, ``0 < k < n``.
    """

    __slots__ = ("blocks", "units", "residues", "leaders", "regions")

    def __init__(self, program: LinkedProgram) -> None:
        size = len(program.instrs)
        self.blocks: List[Optional[CompiledBlock]] = [None] * size
        self.units: List[Union[None, CompiledBlock, _RegionEntry]] = \
            [None] * size
        self.residues: List[Optional[Callable]] = [None] * size
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

    def residue(self, program: LinkedProgram, pc: int) -> Callable:
        residue = self.residues[pc] = _BlockCompiler(
            program, pc, self.leaders, residue=True).compile()
        return residue

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


def _blocks_for(program: LinkedProgram) -> _ProgramBlocks:
    return derived(program, _ProgramBlocks)


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
            # A hub program runs a block only if it ends before the
            # hub's horizon: asked at the first block of the slice and
            # again after any step or hub call (None until then).
            horizon = None
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
                        horizon = None
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
                if hub is not None:
                    if horizon is None:
                        horizon = hub.horizon(machine)
                    if machine.cycles + unit.cycles >= horizon:
                        # The hub may act inside this block: step so a
                        # fire, delivery, return, or heal lands at the
                        # interpreter's exact boundary.
                        machine.step()
                        executed += 1
                        horizon = None
                        continue
                left = limit - executed
                if unit.n > left:
                    # Never overshoot the slice budget (monitor/power
                    # sampling at slice boundaries must stay exact) nor
                    # an armed hook's trigger: run the block's first
                    # ``left`` instructions as its residue.  A profiled
                    # run steps them, for exact class attribution.
                    if prof is None:
                        residue = cache.residues[pc] \
                            or cache.residue(program, pc)
                        residue(machine, machine.regs, machine.mem,
                                machine.wear, left)
                        executed = limit
                    else:
                        machine.step()
                        executed += 1
                        horizon = None
                    continue
                if unit.region:
                    executed = limit - unit.fn(machine, machine.regs,
                                               machine.mem, machine.wear, left)
                    continue
                if prof is None:
                    unit.fn(machine, machine.regs, machine.mem, machine.wear)
                else:
                    _run_profiled(unit, machine, prof)
                executed += unit.n
                if hub is not None and unit.mmio:
                    hub.on_boundary(machine)
                    horizon = None
            return machine.cycles - cycles_start, None
        except (MachineFault, SimulationError) as exc:
            return machine.cycles - cycles_start, exc
