"""Static 2-coloring of checkpoint storage (paper §VI-D).

Each register's checkpoints alternate between the two buffer copies
(``__ckpt0``/``__ckpt1``) so a crash mid-checkpoint can never corrupt the
slot the committed region restores from.  Because GECKO prunes checkpoints,
the dynamic flip Ratchet uses is unavailable; instead each CKPT gets a
*static* color such that any two checkpoints of the same register that can
execute consecutively (no other checkpoint of that register in between)
receive different colors.

Coloring a register is 2-coloring its *adjacency graph*.  Odd cycles arise
at CFG join points (and at loops containing a single checkpoint of the
register); following the paper, the conflict is repaired by creating a new
region on the offending CFG edge with an additional checkpoint — here, a
full input checkpoint set, so the new region is independently recoverable —
and recoloring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..compiler.checkpoint import CHECKPOINTABLE
from ..errors import CompileError
from ..isa.instructions import Instr, ckpt as make_ckpt, jmp, mark
from ..isa.operands import Label, PReg
from ..ir.cfg import BasicBlock, Function
from ..ir.liveness import liveness
from ..ir.sites import Site, SiteMap, next_sites
from .recovery import CkptInfo, find_restore_source


@dataclass
class ColoringStats:
    """Outcome of the coloring pass for one function."""

    colored: int = 0
    conflicts_fixed: int = 0
    extra_checkpoints: int = 0
    dynamic_fallbacks: int = 0


def color_function(function: Function, infos: List[CkptInfo],
                   max_repairs_per_reg: int = 12) -> ColoringStats:
    """Assign colors to every kept checkpoint of ``function`` (in place).

    Registers are processed independently (a checkpoint of ``x`` never
    constrains ``y``'s buffers).  Odd cycles are repaired by inserting a new
    boundary region on the conflicting path (the paper's join-conflict fix);
    a register whose adjacency graph resists ``max_repairs_per_reg`` repairs
    — repairs can flip the parity of overlapping cycles — falls back to the
    paper's naive per-register dynamic index (§VI-D's 16-IndexStores
    scheme), applied to that register alone.  Convergence is therefore
    guaranteed, and the dynamic fallback's extra cost is confined to the
    rare pathological register.
    """
    stats = ColoringStats()
    dynamic: Set[int] = set()
    repairs: Dict[int, int] = {}
    # Repairs insert a checkpoint of the conflicting register only, so one
    # register's repair never perturbs another register's coloring and each
    # register converges independently.  A repair that would need to
    # checkpoint *other* registers too (because some live input of the new
    # region has no dominating slot to restore from) is refused, and the
    # register falls back to the per-register dynamic index instead.
    for reg_index in sorted({i.reg_index for i in infos if i.kept}):
        while reg_index not in dynamic:
            conflict = _try_color_register(function, infos, reg_index)
            if conflict is None:
                break
            fixed = None
            if repairs.get(reg_index, 0) < max_repairs_per_reg:
                fixed = _fix_conflict(function, infos, conflict)
            if fixed is None:
                dynamic.add(reg_index)
                stats.dynamic_fallbacks += 1
                _make_dynamic(infos, reg_index)
                break
            repairs[reg_index] = repairs.get(reg_index, 0) + 1
            stats.conflicts_fixed += 1
            stats.extra_checkpoints += fixed
    stats.colored = sum(1 for i in infos if i.kept)
    return stats


def _make_dynamic(infos: List[CkptInfo], reg_index: int) -> None:
    """Give up static coloring for one register: per-register dynamic index."""
    for info in infos:
        if info.kept and info.reg_index == reg_index:
            info.instr.color = None
            info.instr.meta["per_reg"] = True


@dataclass
class _Conflict:
    reg_index: int
    src: CkptInfo
    dst: CkptInfo
    path: List[Site]  # sites from just after src up to and including dst


def _try_color_register(function: Function, infos: List[CkptInfo],
                        reg_index: int) -> Optional["_Conflict"]:
    """2-color one register's checkpoints; returns the first conflict."""
    group = [i for i in infos if i.kept and i.reg_index == reg_index]
    sites = SiteMap(function)
    current: Dict[int, Site] = {}
    for info in group:
        site = sites.of(info.instr)
        if site is None:
            raise CompileError("checkpoint registry out of sync with IR")
        current[id(info.instr)] = site

    site_to_info = {current[id(i.instr)]: i for i in group}
    adjacency: Dict[int, Set[int]] = {k: set() for k in range(len(group))}
    paths: Dict[Tuple[int, int], List[Site]] = {}
    index_of = {id(i.instr): k for k, i in enumerate(group)}
    for k, info in enumerate(group):
        for neighbor_site, path in _adjacent_ckpts(
            function, current[id(info.instr)], set(site_to_info)
        ):
            j = index_of[id(site_to_info[neighbor_site].instr)]
            adjacency[k].add(j)
            adjacency[j].add(k)
            paths.setdefault((k, j), path)
    colors: Dict[int, int] = {}
    for start in range(len(group)):
        if start in colors:
            continue
        colors[start] = 0
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbor in adjacency[node]:
                required = 1 - colors[node]
                if neighbor not in colors:
                    colors[neighbor] = required
                    stack.append(neighbor)
                elif colors[neighbor] != required:
                    ordered = (node, neighbor)
                    if ordered not in paths:
                        ordered = (neighbor, node)
                    return _Conflict(
                        reg_index=reg_index,
                        src=group[ordered[0]],
                        dst=group[ordered[1]],
                        path=paths[ordered],
                    )
    for k, info in enumerate(group):
        info.instr.color = colors[k]
        info.instr.meta.pop("per_reg", None)
    return None


def _adjacent_ckpts(function: Function, site: Site,
                    stops: Set[Site]) -> List[Tuple[Site, List[Site]]]:
    """Same-register checkpoints reachable without crossing another one.

    Returns ``(neighbor site, path)`` pairs where ``path`` lists the sites
    walked from just after ``site`` up to and including the neighbor.
    """
    results: List[Tuple[Site, List[Site]]] = []
    seen: Set[Site] = set()
    parent: Dict[Site, Optional[Site]] = {}
    stack: List[Site] = []
    for nxt in next_sites(function, site):
        if nxt not in parent:
            parent[nxt] = None
            stack.append(nxt)
    while stack:
        here = stack.pop()
        if here in seen:
            continue
        seen.add(here)
        if here in stops:
            path: List[Site] = []
            cursor: Optional[Site] = here
            while cursor is not None:
                path.append(cursor)
                cursor = parent[cursor]
            path.reverse()
            results.append((here, path))
            continue  # do not traverse past another checkpoint
        for nxt in next_sites(function, here):
            if nxt not in parent:
                parent[nxt] = here
                stack.append(nxt)
    return results


def _fix_conflict(function: Function, infos: List[CkptInfo],
                  conflict: _Conflict) -> Optional[int]:
    """Insert a conflict-register-only boundary region on the offending path.

    When the conflicting path crosses a CFG edge, a new block is inserted on
    that edge (classic critical-edge splitting).  When the path is entirely
    within one block — an odd cycle detected on a straight-line segment —
    the boundary goes directly into the block: execution between two
    in-block positions is strictly sequential, so the insertion point cuts
    every src->dst path.

    The new region checkpoints *only* the conflicting register (the paper's
    rule); every other live input must be restorable from an existing
    dominating slot, otherwise the repair is refused (returns ``None``) and
    the caller falls back to the dynamic index for this register.
    """
    edge = _last_transition_edge(function, conflict.path)
    live = liveness(function, ignore_ckpt_uses=True)

    if edge is None:
        block_name, index = conflict.path[-1]
        live_here = live.live_at(function, block_name, index)
        if not _repair_is_free(function, infos, live_here,
                               (block_name, index), conflict.reg_index):
            return None
        new_mark = mark(0)
        new_instrs, added = boundary_instrs(
            infos, [conflict.reg_index], new_mark
        )
        function.blocks[block_name].instrs[index:index] = new_instrs
        if not _repair_holds(function, infos, new_mark,
                             conflict.reg_index):
            del function.blocks[block_name] \
                .instrs[index:index + len(new_instrs)]
            del infos[-added:]
            return None
        return added

    branch_site, target_block = edge
    live_here = live.live_in.get(target_block, set())
    if not _repair_is_free(function, infos, live_here, branch_site,
                           conflict.reg_index):
        return None
    new_name = function.new_label("recolor")
    new_mark = mark(0)
    new_instrs, added = boundary_instrs(
        infos, [conflict.reg_index], new_mark
    )
    new_block = BasicBlock(new_name, instrs=new_instrs + [jmp(Label(target_block))])
    function.blocks[new_name] = new_block
    position = function.block_order.index(branch_site[0])
    function.block_order.insert(position + 1, new_name)
    branch_instr = function.blocks[branch_site[0]].instrs[branch_site[1]]
    branch_instr.target = Label(new_name)
    if not _repair_holds(function, infos, new_mark, conflict.reg_index):
        del function.blocks[new_name]
        function.block_order.remove(new_name)
        branch_instr.target = Label(target_block)
        del infos[-added:]
        return None
    return added


def _repair_holds(function: Function, infos: List[CkptInfo],
                  new_mark: Instr, conflict_reg: int) -> bool:
    """Re-validate a just-inserted repair boundary at its real site.

    ``_repair_is_free`` checks restore paths *before* the insertion, at
    the branch site — but the repair's own checkpoint of the conflict
    register can clobber-invalidate a slice restore another live input
    depended on (its slice may read the conflict register's slot).  So
    after mutating the IR, re-run the exact check ``_attach_plans`` will
    enforce; a repair that fails it is undone by the caller and the
    register falls back to the dynamic index instead of dying at
    plan-attachment with "no restore path".
    """
    sites = SiteMap(function)
    mark_site = sites.of(new_mark)
    if mark_site is None:
        return False
    live = liveness(function, ignore_ckpt_uses=True)
    for reg in live.live_at(function, mark_site[0], mark_site[1] + 1):
        if not isinstance(reg, PReg) or reg.index not in CHECKPOINTABLE:
            continue
        if reg.index == conflict_reg:     # restored by its own boundary
            continue                      # checkpoint
        if find_restore_source(sites, infos, reg.index, mark_site) is None:
            return False
    return True


def _repair_is_free(function: Function, infos: List[CkptInfo], live_regs,
                    mark_site: Site, conflict_reg: int) -> bool:
    """Whether every non-conflict live input has a restore source already."""
    sites = SiteMap(function)
    for reg in live_regs:
        if not isinstance(reg, PReg) or reg.index not in CHECKPOINTABLE:
            continue
        if reg.index == conflict_reg:
            continue
        if find_restore_source(sites, infos, reg.index, mark_site) is None:
            return False
    return True


def boundary_instrs(infos: List[CkptInfo], inputs: List[int],
                    new_mark: Instr):
    """Build [CKPT..., MARK] and register the checkpoints."""
    instrs: List[Instr] = []
    for reg_index in inputs:
        ck = make_ckpt(PReg(reg_index), reg_index=reg_index, color=None)
        instrs.append(ck)
        infos.append(
            CkptInfo(instr=ck, reg_index=reg_index, mark_instr=new_mark)
        )
    instrs.append(new_mark)
    return instrs, len(inputs)


def _last_transition_edge(function: Function,
                          path: List[Site]) -> Optional[Tuple[Site, str]]:
    """The last block-crossing edge on ``path``: (branch site, target block)."""
    previous: Optional[Site] = None
    result: Optional[Tuple[Site, str]] = None
    for site in path:
        if previous is not None and previous[0] != site[0]:
            result = (previous, site[0])
        previous = site
    return result


def verify_coloring(function: Function, infos: Sequence[CkptInfo]) -> None:
    """Assert invariant 4: path-consecutive same-register checkpoints alternate.

    Registers on the per-register dynamic fallback are exempt — their slot
    index is maintained at runtime (committed at each MARK), which gives
    alternation by construction.
    """
    kept = [i for i in infos if i.kept]
    positions = SiteMap(function)
    sites: Dict[Site, CkptInfo] = {}
    dynamic_regs: Set[int] = set()
    for info in kept:
        if info.instr.meta.get("per_reg"):
            dynamic_regs.add(info.reg_index)
            continue
        site = positions.of(info.instr)
        if site is None:
            raise CompileError("checkpoint registry out of sync with IR")
        sites[site] = info
    by_reg: Dict[int, Set[Site]] = {}
    for site, info in sites.items():
        by_reg.setdefault(info.reg_index, set()).add(site)
    for reg_index, group_sites in by_reg.items():
        if reg_index in dynamic_regs:
            continue
        for site in group_sites:
            for neighbor_site, _ in _adjacent_ckpts(function, site, group_sites):
                a = sites[site].instr.color
                b = sites[neighbor_site].instr.color
                if a is None or b is None or a == b:
                    raise CompileError(
                        f"coloring invariant violated for R{reg_index} "
                        f"in {function.name}: {site} -> {neighbor_site}"
                    )
