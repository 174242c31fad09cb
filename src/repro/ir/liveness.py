"""Live-variable analysis over virtual (or physical) registers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..isa.instructions import Instr, Opcode
from .cfg import Function


@dataclass
class LivenessResult:
    """Block-level live-in/live-out register sets."""

    live_in: Dict[str, Set[object]]
    live_out: Dict[str, Set[object]]
    ignore_ckpt_uses: bool = False

    def live_at(self, function: Function, block: str, index: int) -> Set[object]:
        """Registers live immediately *before* instruction ``index``."""
        live = set(self.live_out[block])
        instrs = function.blocks[block].instrs
        for i in range(len(instrs) - 1, index - 1, -1):
            live -= set(instrs[i].defs())
            if not (self.ignore_ckpt_uses and instrs[i].op is Opcode.CKPT):
                live |= set(instrs[i].uses())
        return live


def block_use_def(instrs: List[Instr],
                  ignore_ckpt_uses: bool = False) -> Tuple[Set[object], Set[object]]:
    """(upward-exposed uses, defined registers) of a straight-line sequence."""
    uses: Set[object] = set()
    defs: Set[object] = set()
    for instr in instrs:
        if ignore_ckpt_uses and instr.op is Opcode.CKPT:
            continue
        for reg in instr.uses():
            if reg not in defs:
                uses.add(reg)
        defs.update(instr.defs())
    return uses, defs


def liveness(function: Function,
             ignore_ckpt_uses: bool = False) -> LivenessResult:
    """Compute block-level liveness with the standard backward fixpoint.

    ``ignore_ckpt_uses`` treats checkpoint stores as *not* reading their
    register: a region's input set is defined by the program's real uses —
    a register whose only future reader is another checkpoint carries no
    recoverable meaning, and counting it would create phantom inputs (e.g.
    spill-scratch registers kept "live" by their own checkpoints).
    """
    order = function.reverse_postorder()
    succs = function.successors()
    use: Dict[str, Set[object]] = {}
    defs: Dict[str, Set[object]] = {}
    for name in order:
        use[name], defs[name] = block_use_def(
            function.blocks[name].instrs, ignore_ckpt_uses=ignore_ckpt_uses
        )
    live_in: Dict[str, Set[object]] = {name: set() for name in order}
    live_out: Dict[str, Set[object]] = {name: set() for name in order}
    changed = True
    while changed:
        changed = False
        for name in reversed(order):
            out: Set[object] = set()
            for succ in succs[name]:
                out |= live_in.get(succ, set())
            new_in = use[name] | (out - defs[name])
            if out != live_out[name] or new_in != live_in[name]:
                live_out[name] = out
                live_in[name] = new_in
                changed = True
    return LivenessResult(live_in=live_in, live_out=live_out,
                          ignore_ckpt_uses=ignore_ckpt_uses)


@dataclass
class LinkedLiveness:
    """Per-pc liveness of the architectural registers of a linked program.

    ``live_in[pc]`` / ``live_out[pc]`` are bitmasks over register indices:
    bit ``r`` set means ``Rr`` is live immediately before / after the
    instruction at absolute index ``pc``.  Computed interprocedurally (see
    :func:`linked_liveness`), so a register is dead at ``pc`` only when *no*
    continuation of the whole program — including through calls and returns
    — reads it before redefining it.
    """

    live_in: List[int]
    live_out: List[int]

    def is_live_before(self, pc: int, reg: int) -> bool:
        """Is architectural register ``reg`` live just before ``pc``?"""
        return bool(self.live_in[pc] >> reg & 1)


def linked_liveness(program, ignore_ckpt_uses: bool = False) -> LinkedLiveness:
    """Interprocedural per-instruction liveness of a ``LinkedProgram``.

    A backward dataflow fixpoint over the flat machine-level instruction
    stream, context-insensitively threaded through calls:

    * ``BNZ``  flows from its target and the fallthrough slot;
    * ``JMP``  flows from its target;
    * ``CALL`` flows from the callee's entry (liveness after the call
      reaches the call site through the callee's ``RET`` edges — the
      machine's calling convention saves no registers, so a register the
      callee clobbers on every path is genuinely dead across the call);
    * ``RET``  flows from the return point (``call_pc + 1``) of *every*
      call site of its owning function — context-insensitive, hence an
      over-approximation that can only report extra liveness, never less;
    * ``HALT`` is a sink (the machine reads no registers after halting).

    ``ignore_ckpt_uses`` mirrors :func:`liveness`; the default (``False``)
    conservatively counts a ``CKPT`` as reading its source register, which
    is what fault-space pruning wants: a flip that lands in checkpoint
    storage stays un-pruned even though stable-power classification could
    never observe it.

    The result over-approximates dynamic liveness on every real execution
    path, so "dead at ``pc``" is sound evidence that a register bit-flip
    delivered just before ``pc`` cannot change any observable behaviour.
    """
    instrs = program.instrs
    n = len(instrs)

    # Return points per function: every slot following a CALL to it.
    return_points: Dict[str, List[int]] = {name: [] for name in program.func_entry}
    for pc, instr in enumerate(instrs):
        if instr.op is Opcode.CALL and pc + 1 < n:
            return_points[instr.callee].append(pc + 1)

    def successors(pc: int) -> List[int]:
        instr = instrs[pc]
        if instr.op is Opcode.HALT:
            return []
        if instr.op is Opcode.JMP or instr.op is Opcode.CALL:
            return [program.targets[pc]]
        if instr.op is Opcode.BNZ:
            succ = [program.targets[pc]]
            if pc + 1 < n:
                succ.append(pc + 1)
            return succ
        if instr.op is Opcode.RET:
            return list(return_points[program.owner[pc]])
        return [pc + 1] if pc + 1 < n else []

    use_mask = [0] * n
    def_mask = [0] * n
    preds: List[List[int]] = [[] for _ in range(n)]
    for pc, instr in enumerate(instrs):
        if not (ignore_ckpt_uses and instr.op is Opcode.CKPT):
            for reg in instr.uses():
                use_mask[pc] |= 1 << reg.index
        for reg in instr.defs():
            def_mask[pc] |= 1 << reg.index
        for succ in successors(pc):
            preds[succ].append(pc)

    live_in = [0] * n
    live_out = [0] * n
    worklist = list(range(n - 1, -1, -1))
    queued = [True] * n
    while worklist:
        pc = worklist.pop()
        queued[pc] = False
        out = 0
        for succ in successors(pc):
            out |= live_in[succ]
        new_in = use_mask[pc] | (out & ~def_mask[pc])
        live_out[pc] = out
        if new_in != live_in[pc]:
            live_in[pc] = new_in
            for pred in preds[pc]:
                if not queued[pred]:
                    queued[pred] = True
                    worklist.append(pred)
    return LinkedLiveness(live_in=live_in, live_out=live_out)


def live_intervals(function: Function) -> Dict[object, Tuple[int, int]]:
    """Live intervals over a linearization of the function.

    Instructions are numbered in block order; each register maps to the
    ``(first, last)`` instruction numbers at which it is live.  This is the
    input to the linear-scan register allocator.  The intervals are
    conservative (they span from first mention to last liveness point,
    including loop-carried liveness via block live-out extension).
    """
    result = liveness(function)
    number: Dict[Tuple[str, int], int] = {}
    counter = 0
    block_span: Dict[str, Tuple[int, int]] = {}
    for name in function.block_order:
        start = counter
        for i in range(len(function.blocks[name].instrs)):
            number[(name, i)] = counter
            counter += 1
        block_span[name] = (start, max(start, counter - 1))

    intervals: Dict[object, Tuple[int, int]] = {}

    def extend(reg: object, point: int) -> None:
        lo, hi = intervals.get(reg, (point, point))
        intervals[reg] = (min(lo, point), max(hi, point))

    for name in function.block_order:
        instrs = function.blocks[name].instrs
        for i, instr in enumerate(instrs):
            for reg in instr.defs() + instr.uses():
                extend(reg, number[(name, i)])
        lo_point, hi_point = block_span[name]
        # A register live across this block must cover the whole block.
        for reg in result.live_out[name] & result.live_in.get(name, set()):
            extend(reg, lo_point)
            extend(reg, hi_point)
        for reg in result.live_out[name]:
            extend(reg, hi_point)
    return intervals
