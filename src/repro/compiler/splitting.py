"""WCET-bounded region splitting (paper §VI-B, steps 3-5).

Given the guaranteed power-on budget (cycles the system can execute from a
full capacitor under worst-case draw), every idempotent region must finish
within the budget — otherwise a program running under rollback recovery can
never cross the region and forward progress stalls (exactly the DoS the
paper observes for Ratchet under attack, §VII-B3).

The loop-aware gap analysis (:func:`repro.ir.wcet.region_gap`) reports the
worst MARK-free path, treating small bounded boundary-free loops as single
units so they can legitimately stay within one region.  When the worst gap
exceeds the budget the pass inserts a boundary:

* inside a straight-line stretch — right where the running gap would
  exceed the budget;
* for an over-budget boundary-free loop — in the loop header, turning it
  into per-iteration regions (whose bodies are then split further if one
  iteration alone exceeds the budget);
* in the header of a *divergent* loop (a cycle that dodges every MARK on
  some path and has no usable bound).

After splitting, the caller must re-run region formation: a split can
break a WARAW protection.
"""

from __future__ import annotations

from ..errors import WCETError
from ..isa.instructions import Instr, Opcode, mark
from ..ir.cfg import Function
from ..ir.wcet import DEFAULT_LOOP_BOUND, GapAnalysis, region_gap

#: Cycle cost charged for a MARK when budgeting (its own commit stores).
_MARK_COST = mark(0).cycles


def split_regions(function: Function, budget: int,
                  default_bound: int = DEFAULT_LOOP_BOUND) -> int:
    """Insert boundaries so no region exceeds ``budget`` cycles.

    Returns the number of boundaries inserted.

    Raises:
        WCETError: if the budget is unattainable (a single instruction plus
            a boundary costs more than the budget, or splitting failed to
            converge).
    """
    min_needed = _MARK_COST + max(
        (instr.cycles for _, _, instr in function.instructions()), default=0
    )
    if budget < min_needed:
        raise WCETError(
            f"power-on budget {budget} cycles is below the minimum "
            f"splittable region size {min_needed} in {function.name}"
        )

    inserted = 0
    for _ in range(10_000):
        analysis = region_gap(function, default_bound=default_bound)
        if analysis.divergent_loop is not None:
            _insert_mark(function, analysis.divergent_loop, 0)
            inserted += 1
            continue
        if analysis.worst <= budget:
            return inserted
        block, index = _placement(function, analysis, budget)
        _insert_mark(function, block, index)
        inserted += 1
    raise WCETError(f"region splitting did not converge in {function.name}")


def _insert_mark(function: Function, block: str, index: int) -> None:
    function.blocks[block].instrs.insert(index, mark(0))


def _placement(function: Function, analysis: GapAnalysis,
               budget: int) -> tuple:
    """Where to put the next boundary, given the worst-gap witness."""
    block, _index = analysis.witness
    if block in analysis.collapsed:
        # An over-budget boundary-free loop: go per-iteration.
        return block, 0
    preds = function.predecessors()
    for _ in range(len(function.block_order) + 2):
        gap = analysis.gap_in.get(block, 0.0)
        arrival_exceeds = gap + _MARK_COST > budget
        if not arrival_exceeds:
            exceed = _first_exceed(function, block, gap, budget)
            if exceed is not None and exceed > 0:
                return block, exceed
            if exceed is None:
                # The peak is not inside this block after all (stale
                # witness); cut at its end as a safe fallback.
                return block, _block_end_cut(function, block)
        # The gap already exceeds on arrival (or at the first instruction):
        # the cut belongs upstream, in the predecessor with the largest
        # exit gap.  A collapsed-loop predecessor is split at its header.
        nodes = {analysis.member_of.get(p, p) for p in preds.get(block, [])}
        scored = [(analysis.gap_out[node], node) for node in nodes
                  if node in analysis.gap_out]
        if not scored:
            return block, 0
        _, best = max(scored)
        if best in analysis.collapsed:
            return best, 0
        block = best
        end = _block_end_cut(function, block)
        if end > 0:
            return block, end
    raise WCETError(f"could not place a region split in {function.name}")


def _first_exceed(function: Function, block: str, gap: float,
                  budget: int):
    """First instruction index where the running gap would pass the budget."""
    for i, instr in enumerate(function.blocks[block].instrs):
        if instr.op is Opcode.MARK:
            gap = 0.0
            continue
        if gap + instr.cycles + _MARK_COST > budget:
            return i
        gap += instr.cycles
    return None


def _block_end_cut(function: Function, block: str) -> int:
    """Insertion index just before the block's terminator."""
    instrs = function.blocks[block].instrs
    if len(instrs) >= 2 and instrs[-2].op is Opcode.BNZ:
        return len(instrs) - 2
    return max(0, len(instrs) - 1)


def verify_region_budget(function: Function, budget: int,
                         default_bound: int = DEFAULT_LOOP_BOUND) -> float:
    """Check invariant 5 (region WCET <= budget); returns the worst gap.

    Raises:
        WCETError: when some region can exceed the budget.
    """
    analysis = region_gap(function, default_bound=default_bound)
    if analysis.divergent_loop is not None:
        raise WCETError(
            f"{function.name}: loop at {analysis.divergent_loop} can cycle "
            f"without crossing a region boundary"
        )
    if analysis.worst > budget:
        raise WCETError(
            f"{function.name}: region gap {analysis.worst} exceeds the "
            f"power-on budget {budget}"
        )
    return analysis.worst
