"""Memory anti-dependences.

The idempotent-region formation pass (:mod:`repro.compiler.region`) consumes
:func:`memory_antideps`: every load -> may-alias store pair that could make a
region non-idempotent must be separated by a region boundary, except for
WARAW-protected pairs (a dominating store to the same word re-creates the
read value on re-execution — paper §VI-B, "Region formation").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..isa.instructions import Opcode
from .alias import MemRef, clobbers_all_memory, may_alias, mem_ref, must_alias
from .cfg import Function
from .dominators import dominators

Site = Tuple[str, int]


@dataclass(frozen=True)
class AntiDep:
    """A memory anti-dependence: ``load`` then (on some path) ``store``.

    ``protectors`` are stores that must-alias the hazard word and dominate
    the load; if any protector shares the load's region, the pair is
    WARAW-protected and needs no boundary.
    """

    load: Site
    store: Site
    symbol: str
    protectors: FrozenSet[Site] = frozenset()


def block_reachability(function: Function) -> Dict[str, Set[str]]:
    """``block -> blocks reachable from it`` (not counting the empty path)."""
    succs = function.successors()
    reach: Dict[str, Set[str]] = {}
    for name in function.block_order:
        seen: Set[str] = set()
        stack = list(succs[name])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(succs[node])
        reach[name] = seen
    return reach


def _instr_dominates(dom: Dict[str, Set[str]], a: Site, b: Site) -> bool:
    """Whether instruction ``a`` dominates instruction ``b``."""
    if a[0] == b[0]:
        return a[1] < b[1]
    return a[0] in dom.get(b[0], set())


def memory_antideps(function: Function) -> List[AntiDep]:
    """All load->store anti-dependences of ``function``.

    ``CALL`` is treated as both a read and a write of all memory, so calls
    participate on both sides; the boundaries the compiler places around
    calls satisfy those pairs.
    """
    reads: List[Tuple[Site, Optional[MemRef]]] = []
    writes: List[Tuple[Site, Optional[MemRef]]] = []
    for name, i, instr in function.instructions():
        ref = mem_ref(instr)
        site = (name, i)
        if instr.op is Opcode.LD:
            reads.append((site, ref))
        elif instr.op is Opcode.ST:
            writes.append((site, ref))
        elif clobbers_all_memory(instr):
            reads.append((site, None))
            writes.append((site, None))

    reach = block_reachability(function)
    dom = dominators(function)
    deps: List[AntiDep] = []
    for load_site, load_ref in reads:
        for store_site, store_ref in writes:
            if load_site == store_site:
                continue
            if not _refs_may_conflict(load_ref, store_ref):
                continue
            if not _site_reaches(reach, load_site, store_site):
                continue
            protectors = _waraw_protectors(
                dom, writes, load_site, load_ref, store_ref
            )
            symbol = (store_ref or load_ref).symbol if (store_ref or load_ref) else "*"
            deps.append(
                AntiDep(load=load_site, store=store_site, symbol=symbol,
                        protectors=frozenset(protectors))
            )
    return deps


def _refs_may_conflict(load_ref: Optional[MemRef],
                       store_ref: Optional[MemRef]) -> bool:
    if load_ref is None or store_ref is None:
        return True  # a CALL conflicts with everything
    return may_alias(load_ref, store_ref)


def _site_reaches(reach: Dict[str, Set[str]], src: Site, dst: Site) -> bool:
    """Whether execution can flow from ``src`` to ``dst`` (possibly cyclic)."""
    if src[0] == dst[0]:
        if dst[1] > src[1]:
            return True
        return src[0] in reach[src[0]]  # same block again via a cycle
    return dst[0] in reach[src[0]]


def _waraw_protectors(dom, writes, load_site: Site,
                      load_ref: Optional[MemRef],
                      store_ref: Optional[MemRef]) -> Set[Site]:
    """Stores making the pair WARAW-protected (see :class:`AntiDep`)."""
    if load_ref is None or store_ref is None:
        return set()
    if not (load_ref.is_exact and store_ref.is_exact
            and load_ref.offset == store_ref.offset
            and load_ref.symbol == store_ref.symbol):
        return set()
    protectors: Set[Site] = set()
    for write_site, write_ref in writes:
        if write_ref is None or not must_alias(write_ref, store_ref):
            continue
        if _instr_dominates(dom, write_site, load_site):
            protectors.add(write_site)
    return protectors
