"""Worst-case execution time (WCET) analysis.

Two flavours are provided:

* :func:`function_wcet` — whole-function WCET in cycles, computed by
  collapsing natural loops innermost-first (loop cost = trip bound x longest
  single-iteration path) and then taking the longest path through the
  resulting DAG.  Calls cost the callee's WCET; the module-level driver
  processes the call graph callee-first.

* :func:`region_gap` — the longest ``MARK``-free path, i.e. the
  worst-case cycles any idempotent region can consume.  This is the
  quantity GECKO compares against the guaranteed power-on budget (§VI-B,
  step 3): if a region can outlive one capacitor charge the program cannot
  make forward progress under rollback recovery.  Boundary-free loops with
  a trip bound collapse into one node; a cycle that avoids every ``MARK``
  and resists collapsing is reported as divergent, the header the
  region-splitting pass must cut first.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import WCETError
from ..isa.instructions import Instr, Opcode
from .cfg import Function
from .loops import Loop, find_loops

#: Trip bound assumed for loops without an annotation (non-strict mode).
DEFAULT_LOOP_BOUND = 1024


def instr_cycles(instr: Instr, callee_wcet: Optional[Dict[str, int]] = None) -> int:
    """Cycle cost of one instruction, charging calls their callee's WCET."""
    cost = instr.cycles
    if instr.op is Opcode.CALL and callee_wcet is not None:
        cost += callee_wcet.get(instr.callee, 0)
    return cost


def block_cycles(function: Function, name: str,
                 callee_wcet: Optional[Dict[str, int]] = None) -> int:
    """Summed cycle cost of one basic block."""
    return sum(instr_cycles(i, callee_wcet) for i in function.blocks[name].instrs)


def function_wcet(function: Function,
                  callee_wcet: Optional[Dict[str, int]] = None,
                  default_bound: Optional[int] = DEFAULT_LOOP_BOUND,
                  strict: bool = False) -> int:
    """Whole-function WCET in cycles.

    Args:
        function: the function to analyse (must have reducible control flow).
        callee_wcet: WCET of every function this one may call.
        default_bound: trip bound assumed for unannotated loops.
        strict: raise :class:`WCETError` instead of assuming a default bound.
    """
    loops = find_loops(function)
    reachable = function.reverse_postorder()
    weight: Dict[str, float] = {
        name: block_cycles(function, name, callee_wcet) for name in reachable
    }
    rep: Dict[str, str] = {name: name for name in reachable}

    def find(name: str) -> str:
        while rep[name] != name:
            rep[name] = rep[rep[name]]
            name = rep[name]
        return name

    succs = {name: set(function.blocks[name].successors()) for name in reachable}
    backedges: Set[Tuple[str, str]] = set()
    for loop in loops:
        backedges.update(loop.backedges)

    # Innermost loops first.
    for loop in sorted(loops, key=lambda lp: -lp.depth):
        bound = loop.bound
        if bound is None:
            if strict or default_bound is None:
                raise WCETError(
                    f"loop at {function.name}:{loop.header} has no trip bound"
                )
            bound = default_bound
        body_reps = {find(b) for b in loop.body if b in rep}
        header = find(loop.header)
        iter_cost = _longest_path(
            header, body_reps,
            lambda n: {find(s) for src in _members(rep, n)
                       for s in succs.get(src, ())
                       if (src, s) not in backedges
                       and find(s) in body_reps and find(s) != n},
            weight,
        )
        weight[header] = bound * iter_cost
        for block in body_reps - {header}:
            rep[block] = header
            weight[block] = 0.0

    entry = find(function.entry)
    nodes = {find(name) for name in reachable}

    def dag_succs(node: str) -> Set[str]:
        result = set()
        for src in _members(rep, node):
            for s in succs.get(src, ()):  # skip backedges: now self-loops
                tgt = find(s)
                if tgt != node and (src, s) not in backedges:
                    result.add(tgt)
        return result

    total = _longest_path(entry, nodes, dag_succs, weight)
    return int(total)


def _members(rep: Dict[str, str], node: str) -> List[str]:
    """All original blocks currently collapsed into ``node``."""
    out = []
    for name in rep:
        cursor = name
        while rep[cursor] != cursor:
            cursor = rep[cursor]
        if cursor == node:
            out.append(name)
    return out


def _longest_path(entry: str, nodes: Set[str], succs_of, weight) -> float:
    """Longest weighted path from ``entry`` over an acyclic node set."""
    memo: Dict[str, float] = {}
    on_stack: Set[str] = set()

    def visit(node: str) -> float:
        if node in memo:
            return memo[node]
        if node in on_stack:
            raise WCETError(f"unexpected cycle through {node} in WCET DAG")
        on_stack.add(node)
        best = 0.0
        for succ in succs_of(node):
            if succ in nodes:
                best = max(best, visit(succ))
        on_stack.discard(node)
        memo[node] = weight.get(node, 0.0) + best
        return memo[node]

    return visit(entry)


def module_wcet(module, default_bound: Optional[int] = DEFAULT_LOOP_BOUND,
                strict: bool = False) -> Dict[str, int]:
    """WCET of every function, resolving calls callee-first."""
    result: Dict[str, int] = {}
    for name in module.call_order():
        result[name] = function_wcet(
            module.functions[name], callee_wcet=result,
            default_bound=default_bound, strict=strict,
        )
    return result


# ----------------------------------------------------------------------
# Loop-aware region-gap analysis (MARK-to-MARK worst case).
# ----------------------------------------------------------------------
class GapAnalysis:
    """Result of :func:`region_gap`.

    Attributes:
        worst: worst-case MARK-free cycles (the longest any region runs).
        witness: ``(block, index)`` where the worst gap peaks — where a
            splitting pass should insert a boundary.  For a gap peaking
            inside a collapsed (boundary-free, bounded) loop the witness is
            the loop header at index 0, i.e. "make this loop per-iteration".
        divergent_loop: header of a cycle that neither contains a MARK on
            every path nor could be collapsed (no static bound usable) —
            the caller must place a boundary in this header first.
    """

    def __init__(self) -> None:
        self.worst: float = 0.0
        self.witness: Optional[Tuple[str, int]] = None
        self.divergent_loop: Optional[str] = None
        #: gap at each (collapsed-graph) node entry, for split placement.
        self.gap_in: Dict[str, float] = {}
        #: collapsed boundary-free loops: header -> whole-loop cost.
        self.collapsed: Dict[str, float] = {}
        #: block -> collapsed-loop header it was folded into.
        self.member_of: Dict[str, str] = {}


def _block_mark_profile(function: Function, name: str,
                        callee_wcet: Optional[Dict[str, int]] = None):
    """(pre, internal, post, has_mark, first_exceed_walker) for one block.

    ``pre``  — cycles from block entry through the first MARK (inclusive);
    ``internal`` — the longest MARK-free run strictly between two MARKs;
    ``post`` — cycles after the last MARK to block exit.
    For a MARK-free block, ``pre = post = total`` and ``internal = 0``.
    """
    pre = 0.0
    post = 0.0
    internal = 0.0
    has_mark = False
    for instr in function.blocks[name].instrs:
        cost = instr_cycles(instr, callee_wcet)
        if instr.op is Opcode.MARK:
            segment = post + cost
            if not has_mark:
                pre = segment
            else:
                internal = max(internal, segment)
            has_mark = True
            post = 0.0
        else:
            post += cost
    if not has_mark:
        pre = post
    return pre, internal, post, has_mark


def region_gap(function: Function, default_bound: int = DEFAULT_LOOP_BOUND,
               callee_wcet: Optional[Dict[str, int]] = None) -> GapAnalysis:
    """Worst-case cycles any idempotent region consumes, loop-aware.

    Boundary-free loops with a static (or default) trip bound are collapsed
    into a single node costing ``bound x single-iteration longest path``,
    so a small counted loop legitimately lives inside one region.  Loops
    containing boundaries participate in the block-level propagation, where
    every MARK resets the running gap.  A cycle that avoids every MARK and
    resists collapsing is reported as divergent.
    """
    from .loops import find_loops

    analysis = GapAnalysis()
    order = function.reverse_postorder()
    profile = {
        name: _block_mark_profile(function, name, callee_wcet)
        for name in order
    }

    # Collapse boundary-free loops, innermost first.
    loops = sorted(find_loops(function), key=lambda lp: -lp.depth)
    collapsed: Dict[str, float] = {}   # header -> whole-loop cost
    member_of: Dict[str, str] = {}     # block -> collapsed header
    backedges: Set[Tuple[str, str]] = set()
    for loop in loops:
        backedges.update(loop.backedges)

    def rep(name: str) -> str:
        seen = set()
        while name in member_of and name not in seen:
            seen.add(name)
            name = member_of[name]
        return name

    for loop in loops:
        members = {b for b in loop.body if b in profile}
        if any(profile[b][3] for b in members):
            continue  # contains a boundary: handled by propagation
        if any(rep(b) != b and rep(b) not in members for b in members):
            continue
        bound = loop.bound if loop.bound is not None else default_bound
        reps = {rep(b) for b in members}

        def iter_succs(node: str) -> Set[str]:
            out = set()
            for src in [b for b in members if rep(b) == node]:
                for s in function.blocks[src].successors():
                    if (src, s) in backedges:
                        continue
                    target = rep(s)
                    if target in reps and target != node:
                        out.add(target)
            return out

        weights = {}
        for node in reps:
            if node in collapsed:
                weights[node] = collapsed[node]
            else:
                weights[node] = float(sum(
                    instr_cycles(i, callee_wcet)
                    for i in function.blocks[node].instrs
                ))
        try:
            iteration = _longest_path(rep(loop.header), reps, iter_succs,
                                      weights)
        except WCETError:
            analysis.divergent_loop = loop.header
            return analysis
        total = bound * iteration
        header_rep = rep(loop.header)
        collapsed[header_rep] = total
        for member in reps - {header_rep}:
            member_of[member] = header_rep

    # Block-level gap propagation over the collapsed graph.
    nodes = {rep(name) for name in order}
    node_cost: Dict[str, float] = {}
    node_profile = {}
    for node in nodes:
        if node in collapsed:
            node_profile[node] = (collapsed[node], 0.0, collapsed[node], False)
        else:
            node_profile[node] = profile[node]

    succs: Dict[str, Set[str]] = {node: set() for node in nodes}
    for name in order:
        for s in function.blocks[name].successors():
            a, b = rep(name), rep(s)
            if a != b:
                succs[a].add(b)

    # A cycle that avoids every boundary makes region length unbounded;
    # after collapsing, any remaining cycle through only MARK-free nodes is
    # exactly that.  Report a node on the cycle so the splitter can cut it.
    cycle_node = _markless_cycle_node(nodes, succs, node_profile,
                                      avoid=set(collapsed))
    if cycle_node is not None:
        analysis.divergent_loop = cycle_node
        return analysis

    gap_in: Dict[str, float] = {node: 0.0 for node in nodes}
    entry = rep(function.entry)
    worst = 0.0
    witness: Optional[Tuple[str, int]] = None

    for sweep in range(len(nodes) + 3):
        changed = False
        for node in nodes:
            incoming = 0.0
            for pred in nodes:
                if node in succs[pred]:
                    pre_p, _, post_p, has_mark_p = node_profile[pred]
                    out = post_p if has_mark_p else gap_in[pred] + post_p
                    incoming = max(incoming, out)
            if node == entry:
                incoming = max(incoming, 0.0)
            if incoming > gap_in[node] + 1e-9:
                gap_in[node] = incoming
                changed = True
        if not changed:
            break
    else:  # pragma: no cover - ruled out by the cycle check above
        raise WCETError("region-gap fixpoint failed to converge")

    for node in nodes:
        pre, internal, post, has_mark = node_profile[node]
        peak = gap_in[node] + pre
        if peak > worst:
            worst = peak
            witness = (node, 0) if node in collapsed \
                else _witness_in_block(function, node, gap_in[node],
                                       callee_wcet)
        if internal > worst:
            worst = internal
            witness = _witness_in_block(function, node, 0.0, callee_wcet,
                                        after_first_mark=True)
    analysis.worst = worst
    analysis.witness = witness
    analysis.gap_in = gap_in
    analysis.collapsed = dict(collapsed)
    analysis.member_of = {b: rep(b) for b in member_of}
    return analysis


def _markless_cycle_node(nodes: Set[str], succs: Dict[str, Set[str]],
                         node_profile,
                         avoid: Optional[Set[str]] = None) -> Optional[str]:
    """A node on a cycle that visits no boundary-carrying node, if any.

    ``avoid`` nodes (collapsed inner loops) are chosen only as a last
    resort: placing the repair boundary inside an inner loop would pay a
    per-iteration cost for an outer-cycle problem.
    """
    markless = {n for n in nodes if not node_profile[n][3]}
    avoid = avoid or set()
    color: Dict[str, int] = {}

    def dfs(start: str) -> Optional[str]:
        stack = [(start, iter(sorted(succs[start] & markless)))]
        color[start] = 0
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt) == 0:
                    # Back edge: the cycle is the stack suffix from nxt.
                    names = [entry[0] for entry in stack]
                    cycle = names[names.index(nxt):] if nxt in names else [nxt]
                    preferred = [n for n in cycle if n not in avoid]
                    return preferred[0] if preferred else cycle[0]
                if nxt not in color:
                    color[nxt] = 0
                    stack.append((nxt, iter(sorted(succs[nxt] & markless))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 1
                stack.pop()
        return None

    for start in sorted(markless):
        if start not in color:
            found = dfs(start)
            if found is not None:
                return found
    return None


def _witness_in_block(function: Function, name: str, gap_in: float,
                      callee_wcet=None, after_first_mark: bool = False):
    """The instruction index where the running gap peaks within a block."""
    gap = gap_in
    best = (name, 0)
    best_gap = gap
    seen_mark = False
    for index, instr in enumerate(function.blocks[name].instrs):
        if instr.op is Opcode.MARK:
            gap = 0.0
            seen_mark = True
            continue
        if after_first_mark and not seen_mark:
            continue
        gap += instr_cycles(instr, callee_wcet)
        if gap > best_gap:
            best_gap = gap
            best = (name, index)
    return best
