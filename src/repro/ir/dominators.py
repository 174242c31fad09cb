"""Dominator analysis on IR functions.

Straightforward iterative dataflow over block sets — functions in this
domain have tens of blocks, so the simple formulation is both clear and
fast enough.
"""

from __future__ import annotations

from typing import Dict, Set

from .cfg import Function


def dominators(function: Function) -> Dict[str, Set[str]]:
    """Map each reachable block to the set of blocks dominating it."""
    order = function.reverse_postorder()
    preds = function.predecessors()
    universe = set(order)
    dom: Dict[str, Set[str]] = {name: set(universe) for name in order}
    dom[function.entry] = {function.entry}
    changed = True
    while changed:
        changed = False
        for name in order:
            if name == function.entry:
                continue
            incoming = [dom[p] for p in preds[name] if p in universe]
            new = set.intersection(*incoming) if incoming else set()
            new = new | {name}
            if new != dom[name]:
                dom[name] = new
                changed = True
    return dom
