"""Worst-case execution time (WCET) analysis.

Both analyses first fold natural loops into their headers, innermost
first: a folded loop costs its trip bound x its longest single-iteration
path (:func:`_fold_loops`).

* :func:`function_wcet` — whole-function WCET in cycles: every loop is
  folded and the longest path is taken through the resulting DAG.  Calls
  cost the callee's WCET; the module-level driver processes the call graph
  callee-first.

* :func:`region_gap` — the longest ``MARK``-free path, i.e. the
  worst-case cycles any idempotent region can consume.  This is the
  quantity GECKO compares against the guaranteed power-on budget (§VI-B,
  step 3): if a region can outlive one capacitor charge the program cannot
  make forward progress under rollback recovery.  Only boundary-free loops
  fold; a cycle that avoids every ``MARK`` and resists folding is reported
  as divergent, the header the region-splitting pass must cut first.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

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


def _fold_loops(function: Function, weight: Dict[str, float],
                bound_of: Callable[[Loop], int],
                keep: Callable[[Loop], bool] = lambda loop: True,
                ) -> Tuple[Dict[str, str], Dict[str, float]]:
    """Fold the loops ``keep`` accepts into their headers, innermost first.

    ``weight`` holds each reachable block's cycles; a folded header's entry
    becomes the whole loop's cost, ``bound_of(loop)`` x the longest single
    iteration.  Returns the node owning each block (itself, or the header
    of the outermost folded loop around it) and each folded header's cost.
    """
    owner = {name: name for name in weight}
    folded: Dict[str, float] = {}
    for loop in sorted(find_loops(function), key=lambda lp: -lp.depth):
        if not keep(loop):
            continue
        members = [b for b in loop.body if b in owner]
        succs = _node_succs(function, members, owner)
        for targets in succs.values():
            targets.discard(loop.header)  # the backedges
        iteration = _longest_path(loop.header, succs, weight)
        weight[loop.header] = folded[loop.header] = bound_of(loop) * iteration
        for block in members:
            owner[block] = loop.header
    return owner, folded


def _node_succs(function: Function, blocks: List[str],
                owner: Dict[str, str]) -> Dict[str, Set[str]]:
    """Edges between the nodes owning ``blocks``, self-edges dropped."""
    succs: Dict[str, Set[str]] = {owner[name]: set() for name in blocks}
    for name in blocks:
        for succ in function.blocks[name].successors():
            target = owner[succ]
            if target in succs and target != owner[name]:
                succs[owner[name]].add(target)
    return succs


def _longest_path(entry: str, succs: Dict[str, Set[str]],
                  weight: Dict[str, float]) -> float:
    """Longest weighted path from ``entry`` over an acyclic graph."""
    memo: Dict[str, float] = {}
    on_stack: Set[str] = set()

    def visit(node: str) -> float:
        if node in memo:
            return memo[node]
        if node in on_stack:
            raise WCETError(f"unexpected cycle through {node} in WCET DAG")
        on_stack.add(node)
        best = max((visit(succ) for succ in succs[node]), default=0.0)
        on_stack.discard(node)
        memo[node] = weight[node] + best
        return memo[node]

    return visit(entry)


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
    def bound_of(loop: Loop) -> int:
        if loop.bound is not None:
            return loop.bound
        if strict or default_bound is None:
            raise WCETError(
                f"loop at {function.name}:{loop.header} has no trip bound"
            )
        return default_bound

    order = function.reverse_postorder()
    weight = {name: block_cycles(function, name, callee_wcet)
              for name in order}
    owner, _ = _fold_loops(function, weight, bound_of)
    dag = _node_succs(function, order, owner)
    return int(_longest_path(owner[function.entry], dag, weight))


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
            Ties go to the node first in reverse postorder.
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
        #: gap at each node's exit: the cycles after its last MARK, or
        #: ``gap_in`` plus the whole node for a MARK-free one.
        self.gap_out: Dict[str, float] = {}
        #: collapsed boundary-free loops: header -> whole-loop cost.
        self.collapsed: Dict[str, float] = {}
        #: block -> collapsed-loop header it was folded into.
        self.member_of: Dict[str, str] = {}


def _block_mark_profile(instrs: List[Instr]):
    """(pre, internal, post, has_mark) for one block's instructions.

    ``pre``  — cycles from block entry through the first MARK (inclusive);
    ``internal`` — the longest MARK-free run strictly between two MARKs;
    ``post`` — cycles after the last MARK to block exit.
    For a MARK-free block, ``pre = post = total`` and ``internal = 0``.
    """
    pre = 0.0
    post = 0.0
    internal = 0.0
    has_mark = False
    for instr in instrs:
        if instr.op is Opcode.MARK:
            segment = post + instr.cycles
            if not has_mark:
                pre = segment
            else:
                internal = max(internal, segment)
            has_mark = True
            post = 0.0
        else:
            post += instr.cycles
    if not has_mark:
        pre = post
    return pre, internal, post, has_mark


def region_gap(function: Function,
               default_bound: int = DEFAULT_LOOP_BOUND) -> GapAnalysis:
    """Worst-case cycles any idempotent region consumes, loop-aware.

    Boundary-free loops with a static (or default) trip bound are collapsed
    into a single node costing ``bound x single-iteration longest path``,
    so a small counted loop legitimately lives inside one region.  Loops
    containing boundaries participate in the block-level propagation, where
    every MARK resets the running gap.  A cycle that avoids every MARK and
    resists collapsing is reported as divergent.
    """
    analysis = GapAnalysis()
    order = function.reverse_postorder()
    profile = {name: _block_mark_profile(function.blocks[name].instrs)
               for name in order}
    marked = {name for name in order if profile[name][3]}
    weight = {name: block_cycles(function, name) for name in order}
    owner, collapsed = _fold_loops(
        function, weight,
        lambda loop: default_bound if loop.bound is None else loop.bound,
        keep=lambda loop: not loop.body & marked,
    )

    # Block-level gap propagation over the collapsed graph.
    nodes = [name for name in order if owner[name] == name]
    node_profile = {
        node: (collapsed[node], 0.0, collapsed[node], False)
        if node in collapsed else profile[node]
        for node in nodes
    }
    succs = _node_succs(function, order, owner)

    # A cycle that avoids every boundary makes region length unbounded;
    # after collapsing, any remaining cycle through only MARK-free nodes is
    # exactly that.  Report a node on the cycle so the splitter can cut it.
    cycle_node = _markless_cycle_node(set(nodes), succs, node_profile,
                                      avoid=set(collapsed))
    if cycle_node is not None:
        analysis.divergent_loop = cycle_node
        return analysis

    preds: Dict[str, List[str]] = {node: [] for node in nodes}
    for node in nodes:
        for succ in succs[node]:
            preds[succ].append(node)
    gap_in: Dict[str, float] = {node: 0.0 for node in nodes}

    def gap_out(node: str) -> float:
        _, _, post, has_mark = node_profile[node]
        return post if has_mark else gap_in[node] + post

    for sweep in range(len(nodes) + 3):
        changed = False
        for node in nodes:
            incoming = max((gap_out(pred) for pred in preds[node]),
                           default=0.0)
            if incoming > gap_in[node] + 1e-9:
                gap_in[node] = incoming
                changed = True
        if not changed:
            break
    else:  # pragma: no cover - ruled out by the cycle check above
        raise WCETError("region-gap fixpoint failed to converge")

    worst = 0.0
    witness: Optional[Tuple[str, int]] = None
    for node in nodes:
        pre, internal, post, has_mark = node_profile[node]
        peak = gap_in[node] + pre
        if peak > worst:
            worst = peak
            witness = (node, 0) if node in collapsed \
                else _witness_in_block(function, node, gap_in[node])
        if internal > worst:
            worst = internal
            witness = _witness_in_block(function, node, 0.0,
                                        after_first_mark=True)
    analysis.worst = worst
    analysis.witness = witness
    analysis.gap_in = gap_in
    analysis.gap_out = {node: gap_out(node) for node in nodes}
    analysis.collapsed = collapsed
    analysis.member_of = {b: node for b, node in owner.items() if b != node}
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
                      after_first_mark: bool = False):
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
        gap += instr.cycles
        if gap > best_gap:
            best_gap = gap
            best = (name, index)
    return best
