"""Instruction sites: positions, site dominance and MARK-aware paths.

A *site* is a ``(block, index)`` position in a function's current IR.
GECKO's soundness rules are questions about the paths between sites: a
memory anti-dependence needs a boundary unless every path crosses a MARK
(§VI-B), and a pruned checkpoint's slot source must dominate the boundary
with no same-register checkpoint in between (§VI-C–E).  Region formation,
recovery slices, coloring repairs and the GECKO driver all ask them here.

Sites shift whenever a pass inserts or removes instructions, so passes
keep instruction objects and look positions up: a :class:`SiteMap`
describes one IR state and is built afresh after every edit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..isa.instructions import Instr, Opcode
from ..isa.operands import PReg
from .cfg import Function
from .dominators import dominators

Site = Tuple[str, int]


def next_sites(function: Function, site: Site) -> List[Site]:
    """The sites execution can move to right after ``site``."""
    block, index = site
    instrs = function.blocks[block].instrs
    instr = instrs[index]
    if instr.op is Opcode.JMP:
        return [(instr.target.name, 0)]
    if instr.op is Opcode.BNZ:
        return [(instr.target.name, 0), (block, index + 1)]
    if instr.op in (Opcode.RET, Opcode.HALT):
        return []
    if index + 1 < len(instrs):
        return [(block, index + 1)]
    return []


def markfree_reaches(function: Function, src: Site,
                     targets: Set[Site]) -> bool:
    """Whether a ``targets`` site is reachable from just after ``src``
    without crossing a MARK (i.e. lies inside the region ``src`` is in)."""
    seen: Set[Site] = set()
    stack = next_sites(function, src)
    while stack:
        site = stack.pop()
        if site in seen:
            continue
        seen.add(site)
        if site in targets:
            return True
        instr = function.blocks[site[0]].instrs[site[1]]
        if instr.op is Opcode.MARK:
            continue
        stack.extend(next_sites(function, site))
    return False


def path_through(function: Function, src: Site, dst: Site,
                 through: Set[Site]) -> bool:
    """Is there a path src -> dst visiting a ``through`` site?

    Paths that revisit ``src`` are not followed: the analysis always asks
    about the segment after the *last* execution of ``src``, so anything
    before a revisit is irrelevant (e.g. a loop-carried definition that
    precedes the next execution of a loop-header checkpoint).
    """
    seen: Set[Tuple[Site, bool]] = set()
    stack = [(s, False) for s in next_sites(function, src)]
    while stack:
        site, crossed = stack.pop()
        if site == src:
            continue  # a revisit resets the segment of interest
        if (site, crossed) in seen:
            continue
        seen.add((site, crossed))
        if site == dst and crossed:
            return True
        here = crossed or site in through
        for nxt in next_sites(function, site):
            stack.append((nxt, here))
    return False


class SiteMap:
    """Positions, dominance and definitions of one IR state of a function."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self._positions: Dict[int, Site] = {}
        for name, index, instr in function.instructions():
            self._positions.setdefault(id(instr), (name, index))
        self._dom: Optional[Dict[str, Set[str]]] = None
        self._defs: Dict[int, Set[Site]] = {}

    def of(self, instr: Instr) -> Optional[Site]:
        """Where ``instr`` (by identity) first occurs, or ``None``."""
        return self._positions.get(id(instr))

    def dominates(self, a: Site, b: Site) -> bool:
        """Whether ``a`` strictly dominates ``b``."""
        if a[0] == b[0]:
            return a[1] < b[1]
        if self._dom is None:
            self._dom = dominators(self.function)
        return a[0] in self._dom.get(b[0], ())

    def def_sites(self, reg_index: int) -> Set[Site]:
        """Sites of every instruction that writes register ``reg_index``."""
        cached = self._defs.get(reg_index)
        if cached is None:
            cached = self._defs[reg_index] = {
                (name, i)
                for name, i, instr in self.function.instructions()
                if any(isinstance(d, PReg) and d.index == reg_index
                       for d in instr.defs())
            }
        return cached
