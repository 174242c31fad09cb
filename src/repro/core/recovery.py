"""Recovery-block (slice) construction for checkpoint pruning (paper §VI-E).

A checkpoint of register ``r`` at boundary ``B`` may be pruned when the
value ``r`` holds at ``B`` can be *reconstructed* after a crash.  The
builder backtracks register data dependences from the checkpoint's use of
``r`` (paper: data-dependence backtracking over the PDG) and terminates at

* a constant (``LI``),
* a load from read-only memory (lookup tables — never stored anywhere in
  the module),
* a *kept* checkpoint slot of some register whose committed slot provably
  still holds the needed value at recovery time.

The slot-termination soundness conditions mirror the paper's double-buffer
argument (§VI-D): the referenced checkpoint ``c2`` must (1) hold the same
unique reaching definition, (2) dominate ``B``'s boundary so it executed,
and (3) have no other kept checkpoint of the same register between it and
``B`` on any path — then at most one later same-register checkpoint can run
before a crash, and 2-coloring guarantees it uses the other buffer.

Backtracking fails (the checkpoint is kept) on: multiple reaching
definitions (control-dependence integrity — the slice's control flow could
diverge from the original), cyclic dependences (loop-carried values),
mutable memory, ``sense()`` inputs, or slices above the length cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from ..isa.instructions import BINOPS, Instr, Opcode, UNOPS
from ..isa.operands import Imm, PReg, Sym
from ..ir.reaching import ReachingResult
from ..ir.sites import Site, SiteMap, markfree_reaches, path_through

#: Default cap on recovery-block length (the paper reports ~6 instructions).
MAX_SLICE_LEN = 8


@dataclass(eq=False)
class CkptInfo:
    """One checkpoint store and its boundary association.

    Passes hold instruction objects, not positions: positions shift with
    every edit, so they are looked up in a :class:`~repro.ir.sites.SiteMap`.
    Infos compare by identity.
    """

    instr: Instr                  # the CKPT instruction object (mutated later)
    reg_index: int
    mark_instr: Instr             # the owning MARK instruction object
    kept: bool = True
    #: Checkpoints whose slices reference this one (must stay kept).
    referenced_by: List["CkptInfo"] = field(default_factory=list)
    #: Abstract slice elements when pruned.
    slice_elements: Optional[List["SliceElement"]] = None


@dataclass(frozen=True)
class InstrElement:
    """A recomputation step: re-execute a copy of an original instruction.

    The copy is captured eagerly because checkpoint removal shifts
    instruction indices after pruning.
    """

    instr: Instr


@dataclass(frozen=True)
class SlotElement:
    """A termination step: load a register from another checkpoint's slot."""

    source_index: int             # index of the referenced CkptInfo
    reg: PReg                     # destination register (as the slice sees it)


SliceElement = Union[InstrElement, SlotElement]


class SliceBuilder:
    """Builds recovery slices for one function's checkpoints."""

    def __init__(self, sites: SiteMap, reaching: ReachingResult,
                 readonly_symbols: FrozenSet[str],
                 checkpoints: Sequence[CkptInfo],
                 max_len: int = MAX_SLICE_LEN) -> None:
        self._sites = sites
        self._fn = sites.function
        self._reaching = reaching
        self._readonly = readonly_symbols
        self._ckpts = list(checkpoints)
        self._max_len = max_len
        self._alias_site_cache: Dict[Tuple, Set[Site]] = {}
        #: kept checkpoints per register index, for slot termination.
        self._by_reg: Dict[int, List[int]] = {}
        for i, info in enumerate(self._ckpts):
            self._by_reg.setdefault(info.reg_index, []).append(i)

    # ------------------------------------------------------------------
    def try_build(self, target: CkptInfo) -> Optional[List[SliceElement]]:
        """Attempt a slice for ``target``; returns elements or ``None``."""
        state = _BuildState()
        ok = self._resolve_use(
            self._sites.of(target.instr), PReg(target.reg_index), target,
            state
        )
        if not ok or len(state.elements) > self._max_len:
            return None
        if not state.elements:
            return None
        return state.elements

    # ------------------------------------------------------------------
    def _resolve_use(self, use_site: Site, reg: PReg, target: CkptInfo,
                     state: "_BuildState") -> bool:
        token = self._resolution_token(use_site, reg, target)
        bound = state.reg_binding.get(reg)
        if bound is not None:
            return bound == token  # one value per register name per slice
        if token is None:
            return False
        kind, payload = token
        if kind == "slot":
            state.reg_binding[reg] = token
            state.elements.append(SlotElement(source_index=payload, reg=reg))
            state.slot_sources.append(payload)
            return True
        def_site = payload
        if def_site in state.on_stack:
            return False  # loop-carried value
        instr = self._fn.blocks[def_site[0]].instrs[def_site[1]]
        state.on_stack.add(def_site)
        try:
            for used in instr.uses():
                if not self._resolve_use(def_site, used, target, state):
                    return False
        finally:
            state.on_stack.discard(def_site)
        state.reg_binding[reg] = token
        state.elements.append(InstrElement(instr=instr.copy()))
        return len(state.elements) <= self._max_len

    def _resolution_token(self, use_site: Site, reg: PReg,
                          target: CkptInfo) -> Optional[Tuple[str, object]]:
        """How to rebuild the value ``reg`` carried into ``use_site``."""
        slot = self._find_slot_source(reg, use_site, target)
        if slot is not None:
            return ("slot", slot)
        defs = self._reaching.defs_reaching_use(use_site, reg)
        if len(defs) != 1:
            return None  # control-dependence integrity: ambiguous origin
        def_site = next(iter(defs))
        instr = self._fn.blocks[def_site[0]].instrs[def_site[1]]
        if not self._is_recomputable(instr, def_site, target):
            return None
        return ("def", def_site)

    def _is_recomputable(self, instr: Instr, def_site: Site,
                         target: CkptInfo) -> bool:
        if instr.op is Opcode.LI or instr.op in BINOPS or instr.op in UNOPS:
            return True
        if instr.op is Opcode.LD:
            if instr.sym.name in self._readonly:
                return True
            return self._load_stable(instr, def_site, target)
        return False

    def _load_stable(self, load: Instr, def_site: Site,
                     target: CkptInfo) -> bool:
        """Whether re-executing this load at recovery reads the same value.

        True when no may-aliasing store (or call, which may write anything)
        lies (a) on any path from the load to the recovering boundary, or
        (b) inside the recovering region itself (reachable from the
        boundary without crossing another MARK) — so the loaded word cannot
        have changed between the original load and the crash.  This is what
        lets recovery blocks reload function arguments, call results and
        other once-written locations instead of checkpointing them.
        """
        aliasing = self._aliasing_sites(load)
        if not aliasing:
            return True
        mark_site = self._sites.of(target.mark_instr)
        if path_through(self._fn, def_site, mark_site, aliasing):
            return False
        if markfree_reaches(self._fn, mark_site, aliasing):
            return False
        return True

    def _aliasing_sites(self, load: Instr) -> Set[Site]:
        """Sites of stores (and calls) that may write this load's word."""
        from ..ir.alias import clobbers_all_memory, may_alias, mem_ref

        load_ref = mem_ref(load)
        key = (load_ref.symbol, load_ref.offset)
        cached = self._alias_site_cache.get(key)
        if cached is not None:
            return cached
        sites: Set[Site] = set()
        for name, i, instr in self._fn.instructions():
            if clobbers_all_memory(instr):
                sites.add((name, i))
                continue
            if instr.op is not Opcode.ST:
                continue
            store_ref = mem_ref(instr)
            if store_ref is not None and may_alias(load_ref, store_ref):
                sites.add((name, i))
        self._alias_site_cache[key] = sites
        return sites

    def _find_slot_source(self, reg: PReg, use_site: Site,
                          target: CkptInfo) -> Optional[int]:
        """A kept checkpoint slot provably holding ``reg``'s value at ``use_site``.

        Value equivalence: the checkpoint ``c2`` and the use are def-free
        connected (no definition of the register on any path between them)
        with one dominating the other, so the last execution of ``c2``
        observed exactly the value the use consumed.  Slot integrity: ``c2``
        dominates the recovering boundary (it executed) and no other kept
        checkpoint of the register lies between it and the boundary (so at
        most one later same-register checkpoint — of the other color — can
        run before the crash).
        """
        sites = self._sites
        def_sites = sites.def_sites(reg.index)
        mark_site = sites.of(target.mark_instr)
        for index in self._by_reg.get(reg.index, ()):
            info = self._ckpts[index]
            if info is target or not info.kept:
                continue
            site = sites.of(info.instr)
            if not sites.dominates(site, mark_site):
                continue
            if sites.dominates(site, use_site):
                if path_through(self._fn, site, use_site, def_sites):
                    continue
            elif sites.dominates(use_site, site):
                if path_through(self._fn, use_site, site, def_sites):
                    continue
            else:
                continue
            if slot_clobbered(sites, self._ckpts, info, mark_site):
                continue
            return index
        return None


@dataclass
class _BuildState:
    elements: List[SliceElement] = field(default_factory=list)
    reg_binding: Dict[PReg, Site] = field(default_factory=dict)
    on_stack: Set[Site] = field(default_factory=set)
    slot_sources: List[int] = field(default_factory=list)


def slot_clobbered(sites: SiteMap, infos: Sequence[CkptInfo],
                   source: CkptInfo, mark_site: Site) -> bool:
    """Whether another kept checkpoint of ``source``'s register lies on a
    path from ``source`` to the boundary at ``mark_site``.

    Such a checkpoint may have overwritten ``source``'s slot before a
    crash, so the boundary cannot restore from it.
    """
    others = {
        sites.of(other.instr)
        for other in infos
        if other.kept and other is not source
        and other.reg_index == source.reg_index
    }
    return bool(others) and path_through(
        sites.function, sites.of(source.instr), mark_site, others)


def find_dominating_slot(sites: SiteMap, infos: Sequence[CkptInfo],
                         reg_index: int, mark_site: Site) -> Optional[int]:
    """A kept checkpoint whose slot restores ``reg_index`` at ``mark_site``.

    Conditions (same soundness argument as slice slot termination): the
    checkpoint dominates the boundary, no other kept checkpoint of the
    register lies between them (clobber protection via 2-coloring), and no
    definition of the register lies between them (value equality).  Used
    both when planning restores for boundaries that lack an own checkpoint
    of a live register and when deciding the minimal checkpoint set of a
    coloring-repair boundary.
    """
    def_sites = sites.def_sites(reg_index)
    for index, info in enumerate(infos):
        if not info.kept or info.reg_index != reg_index:
            continue
        c2 = sites.of(info.instr)
        if c2 is None or not sites.dominates(c2, mark_site):
            continue
        if slot_clobbered(sites, infos, info, mark_site):
            continue
        if def_sites and path_through(sites.function, c2, mark_site,
                                      def_sites):
            continue
        return index
    return None


def find_restore_source(sites: SiteMap, infos: Sequence[CkptInfo],
                        reg_index: int,
                        mark_site: Site) -> Optional[Tuple[str, int]]:
    """How a boundary lacking an own checkpoint of ``reg_index`` restores it.

    Returns ``("slot", i)`` when a dominating kept checkpoint works (see
    :func:`find_dominating_slot`), or ``("slice", i)`` when a pruned
    checkpoint's recovery block can be reused: its boundary dominates this
    one, the register is not redefined in between, and every slot the slice
    reads remains clobber-protected up to this boundary.  ``None`` means
    the boundary must carry its own checkpoint.
    """
    slot = find_dominating_slot(sites, infos, reg_index, mark_site)
    if slot is not None:
        return ("slot", slot)
    def_sites = sites.def_sites(reg_index)
    for index, info in enumerate(infos):
        if info.kept or info.reg_index != reg_index:
            continue
        if not info.slice_elements:
            continue
        prev_mark = sites.of(info.mark_instr)
        if prev_mark is None or not sites.dominates(prev_mark, mark_site):
            continue
        if def_sites and path_through(sites.function, prev_mark, mark_site,
                                      def_sites):
            continue
        sources = [infos[element.source_index]
                   for element in info.slice_elements
                   if isinstance(element, SlotElement)]
        if all(
            source.kept and sites.of(source.instr) is not None
            and not slot_clobbered(sites, infos, source, mark_site)
            for source in sources
        ):
            return ("slice", index)
    return None


def materialize_slice(ckpts: Sequence[CkptInfo],
                      elements: List[SliceElement]) -> List[Instr]:
    """Turn abstract slice elements into executable instructions.

    Must run after coloring, when every referenced checkpoint has a concrete
    buffer color.  Slot elements become loads from ``__ckpt<color>``.
    """
    from .plans import slot_symbol

    out: List[Instr] = []
    for element in elements:
        if isinstance(element, SlotElement):
            info = ckpts[element.source_index]
            color = info.instr.color
            sym = slot_symbol(color if color is not None else 0)
            load = Instr(Opcode.LD, dst=element.reg, sym=Sym(sym),
                         off=Imm(info.reg_index))
            if color is None:
                if info.instr.meta.get("per_reg"):
                    load.meta["per_reg_slot"] = True
                else:
                    load.meta["dynamic_slot"] = True
            out.append(load)
        else:
            out.append(element.instr.copy())
    return out
