"""Natural loops (backedges via dominators) and their trip bounds."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import CompileError
from ..isa.instructions import Instr, Opcode
from ..isa.operands import Imm
from .cfg import Function
from .dominators import dominators
from .reaching import DefSite, reaching_definitions

#: Register -> every ``(block, instruction)`` that defines it.
_Defs = Dict[object, List[Tuple[str, Instr]]]


@dataclass
class Loop:
    """A natural loop: header plus the blocks of its body (header included)."""

    header: str
    body: Set[str] = field(default_factory=set)
    backedges: List[Tuple[str, str]] = field(default_factory=list)
    #: Static trip-count bound (``bound(N)`` or inferred), if known.
    bound: Optional[int] = None
    #: The smallest loop strictly enclosing this one.
    parent: Optional["Loop"] = None

    @property
    def depth(self) -> int:
        depth = 0
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def __repr__(self) -> str:
        return f"Loop(header={self.header}, blocks={len(self.body)}, bound={self.bound})"


def find_loops(function: Function) -> List[Loop]:
    """All natural loops of ``function``, outermost first.

    Loops sharing a header are merged (as LLVM does).  Irreducible control
    flow — a backedge whose target does not dominate its source — is rejected
    because the WCET analysis (and the paper's region formation, which places
    boundaries in loop headers) require reducibility.
    """
    return _find_loops(function, dominators(function))


def _find_loops(function: Function, dom: Dict[str, Set[str]]) -> List[Loop]:
    succs = function.successors()
    by_header: Dict[str, Loop] = {}
    rpo = function.reverse_postorder()
    rpo_index = {name: i for i, name in enumerate(rpo)}

    for src in rpo:
        for dst in succs[src]:
            if dst in dom.get(src, set()):
                loop = by_header.setdefault(dst, Loop(header=dst))
                loop.backedges.append((src, dst))
                loop.body |= _natural_loop_body(function, src, dst)
            elif rpo_index.get(dst, 0) <= rpo_index[src]:
                # A retreating edge that is not a backedge: irreducible CFG.
                raise CompileError(
                    f"irreducible control flow at edge {src} -> {dst} "
                    f"in {function.name}"
                )

    loops = list(by_header.values())
    for loop in loops:
        loop.bound = function.blocks[loop.header].meta.get("loop_bound")

    # The nesting forest: parent = smallest strictly-enclosing loop.
    loops.sort(key=lambda lp: len(lp.body))
    for i, inner in enumerate(loops):
        inner.parent = next(
            (outer for outer in loops[i + 1:] if inner.header in outer.body),
            None)
    loops.sort(key=lambda lp: (lp.depth, lp.header))
    return loops


def _natural_loop_body(function: Function, src: str, header: str) -> Set[str]:
    """Blocks of the natural loop of backedge ``src -> header``."""
    preds = function.predecessors()
    body = {header, src}
    stack = [src]
    while stack:
        node = stack.pop()
        if node == header:
            continue
        for pred in preds[node]:
            if pred not in body:
                body.add(pred)
                stack.append(pred)
    return body


def infer_loop_bounds(function: Function) -> int:
    """Derive trip bounds for canonical counted loops.

    Lowering runs this on every function, and the compiler runs it again
    after constant propagation has turned limits that were variables in
    the source (``int n = 9; ... i < n``) into immediates.  A loop gets a
    bound when its header compares an induction register against an
    immediate, every in-loop definition of the register adds the same
    constant step, one of them dominates every backedge, and exactly one
    definition from outside the loop reaches the header and loads a
    constant.  A counter held in a global is loaded afresh in the header,
    so it never qualifies.  Bounds are written to the header block's
    ``loop_bound`` meta (existing bounds win).  Returns how many loops
    were newly bounded.
    """
    dom = dominators(function)
    unbounded = [loop for loop in _find_loops(function, dom)
                 if loop.bound is None]
    if not unbounded:
        return 0
    reach_in = reaching_definitions(function).reach_in
    defs: _Defs = {}
    for name, _, instr in function.instructions():
        for reg in instr.defs():
            defs.setdefault(reg, []).append((name, instr))
    inferred = 0
    for loop in unbounded:
        header = function.blocks[loop.header]
        bound = _header_bound(function, loop, defs,
                              reach_in[loop.header], dom)
        if bound is not None:
            header.meta["loop_bound"] = bound
            inferred += 1
    return inferred


def _header_bound(function: Function, loop: Loop, defs: _Defs,
                  reach_in: Dict[object, Set[DefSite]],
                  dom: Dict[str, Set[str]]) -> Optional[int]:
    # Header must end with BNZ cond -> loop body; find the compare that
    # defines cond inside the header.
    header = function.blocks[loop.header]
    if len(header.instrs) < 2 or header.instrs[-2].op is not Opcode.BNZ:
        return None
    branch = header.instrs[-2]
    if branch.target.name not in loop.body:
        return None
    compare = None
    for instr in header.instrs:
        if instr.dst == branch.a and instr.op in (
            Opcode.SLT, Opcode.SLE, Opcode.SGT, Opcode.SGE
        ):
            compare = instr
    if compare is None or not isinstance(compare.b, Imm):
        return None
    induction = compare.a
    limit = compare.b.value

    # In-loop definitions must all add the same constant.
    step = None
    step_sites = []
    for name, instr in defs.get(induction, ()):
        if name in loop.body:
            delta = _step_of(instr, induction, defs, loop)
            if delta is None or (step is not None and step != delta):
                return None
            step = delta
            step_sites.append(name)
    if step in (None, 0):
        return None

    # The loop enters with one constant: of the definitions reaching the
    # header, the loop's own steps aside, exactly one remains and it is an
    # LI.  Definitions elsewhere (a sibling loop reusing the counter) do
    # not reach and do not matter.
    entering = [(name, index) for name, index in reach_in.get(induction, ())
                if name not in loop.body]
    if len(entering) != 1:
        return None
    name, index = entering[0]
    init = function.blocks[name].instrs[index]
    if init.op is not Opcode.LI:
        return None
    start = init.a.value

    # Soundness: the increment must run on *every* iteration, else the loop
    # can spin without progressing and any bound would understate the WCET.
    # Require some increment block to dominate every backedge source.
    if not any(all(site in dom.get(src, ()) for src, _ in loop.backedges)
               for site in step_sites):
        return None

    if compare.op is Opcode.SLT and step > 0:
        span = limit - start
    elif compare.op is Opcode.SLE and step > 0:
        span = limit - start + 1
    elif compare.op is Opcode.SGT and step < 0:
        span = start - limit
    elif compare.op is Opcode.SGE and step < 0:
        span = start - limit + 1
    else:
        return None
    if span <= 0:
        return 0
    return -(-span // abs(step))


def _step_of(instr: Instr, induction, defs: _Defs,
             loop: Loop) -> Optional[int]:
    """The constant increment this in-loop definition applies, or None."""
    if instr.op is Opcode.MOV:
        # i = t where t = i +/- C is defined once, in the loop (the
        # lowering shape).
        producers = defs.get(instr.a, ())
        if len(producers) != 1 or producers[0][0] not in loop.body:
            return None
        instr = producers[0][1]
    if instr.a == induction and isinstance(instr.b, Imm):
        if instr.op is Opcode.ADD:
            return instr.b.value
        if instr.op is Opcode.SUB:
            return -instr.b.value
    return None
