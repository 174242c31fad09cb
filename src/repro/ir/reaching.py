"""Reaching definitions and use-def/def-use chains.

A *definition site* is ``(block name, instruction index)`` of an instruction
that writes a register.  GECKO's recovery-block construction
(:mod:`repro.core.recovery`) backtracks these chains to decide whether a
pruned checkpoint can be reconstructed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from .cfg import Function

DefSite = Tuple[str, int]
UseSite = Tuple[str, int]


@dataclass
class ReachingResult:
    """Reaching-definition sets plus derived chains."""

    #: Definitions reaching the *entry* of each block, per register.
    reach_in: Dict[str, Dict[object, Set[DefSite]]]
    #: ``(use site, register) -> definition sites that may reach it``.
    use_def: Dict[Tuple[UseSite, object], FrozenSet[DefSite]] = field(
        default_factory=dict
    )
    #: ``definition site -> use sites it may reach``.
    def_use: Dict[DefSite, Set[UseSite]] = field(default_factory=dict)

    def defs_reaching_use(self, site: UseSite, reg: object) -> FrozenSet[DefSite]:
        """Definition sites of ``reg`` that may reach the use at ``site``."""
        return self.use_def.get((site, reg), frozenset())


def reaching_definitions(function: Function) -> ReachingResult:
    """Standard forward may-analysis at definition-site granularity."""
    order = function.reverse_postorder()
    preds = function.predecessors()

    # Per-block gen (last def per register) and killed registers.
    gen: Dict[str, Dict[object, DefSite]] = {}
    kill: Dict[str, Set[object]] = {}
    for name in order:
        gen[name] = {}
        kill[name] = set()
        for i, instr in enumerate(function.blocks[name].instrs):
            for reg in instr.defs():
                gen[name][reg] = (name, i)
                kill[name].add(reg)

    reach_in: Dict[str, Dict[object, Set[DefSite]]] = {
        name: {} for name in order
    }
    reach_out: Dict[str, Dict[object, Set[DefSite]]] = {
        name: {} for name in order
    }

    def out_of(name: str) -> Dict[object, Set[DefSite]]:
        result: Dict[object, Set[DefSite]] = {}
        for reg, sites in reach_in[name].items():
            if reg not in kill[name]:
                result[reg] = set(sites)
        for reg, site in gen[name].items():
            result.setdefault(reg, set()).add(site)
        return result

    changed = True
    while changed:
        changed = False
        for name in order:
            merged: Dict[object, Set[DefSite]] = {}
            for pred in preds[name]:
                for reg, sites in reach_out.get(pred, {}).items():
                    merged.setdefault(reg, set()).update(sites)
            if merged != reach_in[name]:
                reach_in[name] = merged
                changed = True
            new_out = out_of(name)
            if new_out != reach_out[name]:
                reach_out[name] = new_out
                changed = True

    result = ReachingResult(reach_in=reach_in)

    # Derive use-def and def-use chains with an in-block forward walk.
    for name in order:
        current: Dict[object, Set[DefSite]] = {
            reg: set(sites) for reg, sites in reach_in[name].items()
        }
        for i, instr in enumerate(function.blocks[name].instrs):
            site = (name, i)
            for reg in instr.uses():
                defs = frozenset(current.get(reg, set()))
                result.use_def[(site, reg)] = defs
                for def_site in defs:
                    result.def_use.setdefault(def_site, set()).add(site)
            for reg in instr.defs():
                current[reg] = {site}
    return result
