"""Mid-level IR: modules, functions, basic blocks, and the CFG.

The IR is a non-SSA, three-address register-transfer form over virtual
registers (:class:`~repro.isa.operands.VReg`).  Control flow is fully
explicit: every basic block ends with one of

* ``JMP label``                     — one successor,
* ``BNZ cond, label`` + ``JMP label`` — two successors (taken, fallthrough),
* ``RET`` / ``HALT``               — no successors.

There is deliberately no implicit fallthrough at the IR level; the
flattening step in :mod:`repro.compiler.codegen` reintroduces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import CompileError
from ..isa.instructions import Instr, Opcode
from ..isa.operands import Label, VReg


@dataclass
class BasicBlock:
    """A straight-line instruction sequence with a single entry and exit."""

    name: str
    instrs: List[Instr] = field(default_factory=list)
    #: Free-form annotations (e.g. ``loop_header``, ``loop_bound``).
    meta: Dict[str, object] = field(default_factory=dict)

    def successors(self) -> List[str]:
        """Successor block names, taken-branch first."""
        if not self.instrs:
            return []
        last = self.instrs[-1]
        if last.op is Opcode.JMP:
            succs = []
            if len(self.instrs) >= 2 and self.instrs[-2].op is Opcode.BNZ:
                succs.append(self.instrs[-2].target.name)
            succs.append(last.target.name)
            return succs
        if last.op in (Opcode.RET, Opcode.HALT):
            return []
        raise CompileError(f"block {self.name} lacks a terminator (ends {last})")

    @property
    def terminated(self) -> bool:
        """Whether the block already ends in a valid terminator."""
        if not self.instrs:
            return False
        return self.instrs[-1].op in (Opcode.JMP, Opcode.RET, Opcode.HALT)

    def __str__(self) -> str:
        lines = [f"{self.name}:"]
        lines += [f"    {instr}" for instr in self.instrs]
        return "\n".join(lines)


class Function:
    """An IR function: named basic blocks plus a virtual-register allocator."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.blocks: Dict[str, BasicBlock] = {}
        self.block_order: List[str] = []
        self.entry: Optional[str] = None
        self._next_vreg = 0
        self._next_label = 0
        #: Size of the static frame (local arrays + spill slots), in words.
        self.frame_size = 0
        #: Formal parameter vregs, in declaration order.
        self.params: List[VReg] = []
        #: Vreg receiving the return value (also used at RET sites).
        self.ret_vreg: Optional[VReg] = None

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------
    def new_vreg(self) -> VReg:
        """Allocate a fresh virtual register."""
        self._next_vreg += 1
        return VReg(self._next_vreg - 1)

    def new_label(self, hint: str = "bb") -> str:
        """Allocate a fresh, unique block name."""
        while True:
            name = f"{hint}{self._next_label}"
            self._next_label += 1
            if name not in self.blocks:
                return name

    def add_block(self, name: Optional[str] = None, hint: str = "bb") -> BasicBlock:
        """Create and register a new (initially empty) block."""
        if name is None:
            name = self.new_label(hint)
        if name in self.blocks:
            raise CompileError(f"duplicate block {name} in {self.name}")
        block = BasicBlock(name)
        self.blocks[name] = block
        self.block_order.append(name)
        if self.entry is None:
            self.entry = name
        return block

    def alloc_frame(self, words: int) -> int:
        """Reserve ``words`` in the static frame; return the base offset."""
        offset = self.frame_size
        self.frame_size += words
        return offset

    @property
    def frame_symbol(self) -> str:
        return f"__frame_{self.name}"

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def block(self, name: str) -> BasicBlock:
        return self.blocks[name]

    def predecessors(self) -> Dict[str, List[str]]:
        """Map each block to its predecessor block names."""
        preds: Dict[str, List[str]] = {name: [] for name in self.block_order}
        for name in self.block_order:
            for succ in self.blocks[name].successors():
                preds[succ].append(name)
        return preds

    def successors(self) -> Dict[str, List[str]]:
        return {name: self.blocks[name].successors() for name in self.block_order}

    def reverse_postorder(self) -> List[str]:
        """Blocks in reverse postorder from the entry (unreachable excluded)."""
        seen: Set[str] = set()
        order: List[str] = []

        def visit(name: str) -> None:
            # Iterative DFS to survive deep CFGs.
            stack: List[Tuple[str, Iterator[str]]] = []
            seen.add(name)
            stack.append((name, iter(self.blocks[name].successors())))
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append((succ, iter(self.blocks[succ].successors())))
                        advanced = True
                        break
                if not advanced:
                    order.append(node)
                    stack.pop()

        if self.entry is not None:
            visit(self.entry)
        order.reverse()
        return order

    def instructions(self) -> Iterable[Tuple[str, int, Instr]]:
        """Yield ``(block name, index, instruction)`` over all blocks in order."""
        for name in self.block_order:
            for i, instr in enumerate(self.blocks[name].instrs):
                yield name, i, instr

    def vregs(self) -> Set[VReg]:
        """All virtual registers mentioned anywhere in the function."""
        regs: Set[VReg] = set()
        for _, _, instr in self.instructions():
            for reg in instr.defs() + instr.uses():
                if isinstance(reg, VReg):
                    regs.add(reg)
        return regs

    def verify(self) -> None:
        """Raise :class:`CompileError` on malformed control flow."""
        if self.entry is None:
            raise CompileError(f"function {self.name} has no entry block")
        for name in self.block_order:
            block = self.blocks[name]
            if not block.terminated:
                raise CompileError(f"block {name} in {self.name} is unterminated")
            for i, instr in enumerate(block.instrs):
                is_term = instr.op in (Opcode.JMP, Opcode.RET, Opcode.HALT)
                is_branch = instr.op is Opcode.BNZ
                last = i == len(block.instrs) - 1
                second_last = i == len(block.instrs) - 2
                if is_term and not last:
                    raise CompileError(
                        f"terminator {instr} mid-block in {self.name}:{name}"
                    )
                if is_branch and not (
                    second_last and block.instrs[-1].op is Opcode.JMP
                ):
                    raise CompileError(
                        f"BNZ must be followed by a block-final JMP "
                        f"({self.name}:{name})"
                    )
            for succ in block.successors():
                if succ not in self.blocks:
                    raise CompileError(
                        f"edge to undefined block {succ} from {self.name}:{name}"
                    )

    def __str__(self) -> str:
        header = f"func {self.name}({', '.join(map(repr, self.params))})"
        parts = [header]
        parts += [str(self.blocks[name]) for name in self.block_order]
        return "\n".join(parts)


@dataclass
class Module:
    """A whole IR program: functions plus global data symbols."""

    functions: Dict[str, Function] = field(default_factory=dict)
    #: Global symbols: name -> size in words.
    globals: Dict[str, int] = field(default_factory=dict)
    #: Optional initialisers: name -> word values.
    init: Dict[str, List[int]] = field(default_factory=dict)
    entry: str = "main"
    #: Interrupt handlers: vector number -> function name (``repro.periph``).
    isrs: Dict[int, str] = field(default_factory=dict)
    #: True when the program touches peripheral MMIO (even with no ISRs).
    uses_periph: bool = False

    def add_function(self, function: Function) -> None:
        if function.name in self.functions:
            raise CompileError(f"duplicate function {function.name}")
        self.functions[function.name] = function

    def add_global(self, name: str, size: int,
                   init: Optional[List[int]] = None) -> None:
        if name in self.globals:
            raise CompileError(f"duplicate global {name}")
        self.globals[name] = size
        if init is not None:
            self.init[name] = list(init)

    def verify(self) -> None:
        for function in self.functions.values():
            function.verify()
        if self.entry not in self.functions:
            raise CompileError(f"entry function {self.entry!r} missing")
        for fname, _, instr in self.all_instructions():
            if instr.op is Opcode.CALL and instr.callee not in self.functions:
                raise CompileError(
                    f"{fname}: call to undefined function {instr.callee!r}"
                )

    def all_instructions(self) -> Iterable[Tuple[str, str, Instr]]:
        """Yield ``(function, block, instruction)`` across the module."""
        for fname, function in self.functions.items():
            for bname, _, instr in function.instructions():
                yield fname, bname, instr

    def call_order(self) -> List[str]:
        """Functions in callee-before-caller order.

        Raises:
            CompileError: if the call graph is cyclic (recursion is not
                supported by the static-frame convention).
        """
        callees: Dict[str, Set[str]] = {name: set() for name in self.functions}
        for fname, _, instr in self.all_instructions():
            if instr.op is Opcode.CALL:
                callees[fname].add(instr.callee)
        order: List[str] = []
        state: Dict[str, int] = {}  # 0 = visiting, 1 = done

        def visit(name: str, chain: List[str]) -> None:
            if state.get(name) == 1:
                return
            if state.get(name) == 0:
                cycle = " -> ".join(chain + [name])
                raise CompileError(f"recursive call chain unsupported: {cycle}")
            state[name] = 0
            for callee in sorted(callees[name]):
                visit(callee, chain + [name])
            state[name] = 1
            order.append(name)

        for name in sorted(self.functions):
            visit(name, [])
        return order

    def __str__(self) -> str:
        parts = []
        for name in sorted(self.globals):
            parts.append(f"global {name}[{self.globals[name]}]")
        parts += [str(self.functions[name]) for name in sorted(self.functions)]
        return "\n\n".join(parts)


def remove_unreachable(function: Function) -> List[str]:
    """Delete blocks unreachable from the entry; returns the removed names."""
    reachable = set(function.reverse_postorder())
    removed = [name for name in function.block_order if name not in reachable]
    for name in removed:
        del function.blocks[name]
    function.block_order = [n for n in function.block_order if n in reachable]
    return removed


def split_block(function: Function, block_name: str, index: int,
                hint: str = "split") -> str:
    """Split ``block_name`` before instruction ``index``; return the new block.

    The first part keeps the original name (so incoming edges stay valid) and
    jumps to the new block, which receives the instructions from ``index`` on.
    """
    block = function.blocks[block_name]
    if not 0 <= index <= len(block.instrs):
        raise CompileError(f"split index {index} out of range in {block_name}")
    new_name = function.new_label(hint)
    new_block = BasicBlock(new_name, instrs=block.instrs[index:])
    block.instrs = block.instrs[:index]
    block.instrs.append(Instr(Opcode.JMP, target=Label(new_name)))
    function.blocks[new_name] = new_block
    position = function.block_order.index(block_name)
    function.block_order.insert(position + 1, new_name)
    return new_name
