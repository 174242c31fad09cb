"""Checkpoint pruning (paper §VI-C).

Walks every boundary's checkpoint stores and removes the ones whose value a
recovery block can reconstruct (see :mod:`repro.core.recovery`).  The pass
keeps the checkpoint registry (:class:`~repro.core.recovery.CkptInfo`) alive
for the subsequent coloring and plan-building stages: pruned checkpoints
carry their abstract slice, kept ones may be referenced by slices and are
then locked against later pruning.

The paper's headline result — ~80% of checkpoint stores removed (Fig. 12) —
comes from two sources this pass reproduces: registers that stay unchanged
across consecutive boundaries (slice = one slot load from the previous
boundary) and values recomputable from constants or read-only tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List

from ..isa.instructions import Instr, Opcode
from ..isa.operands import PReg
from ..ir.cfg import Function, Module
from ..ir.reaching import reaching_definitions
from ..ir.sites import SiteMap
from .recovery import CkptInfo, MAX_SLICE_LEN, SliceBuilder


@dataclass
class PruneResult:
    """Per-function pruning outcome."""

    checkpoints: List[CkptInfo] = field(default_factory=list)
    total: int = 0
    pruned: int = 0

    @property
    def kept(self) -> int:
        return self.total - self.pruned

    @property
    def reduction(self) -> float:
        """Fraction of checkpoint stores removed (0..1)."""
        return self.pruned / self.total if self.total else 0.0


def readonly_symbols(module: Module) -> FrozenSet[str]:
    """Module globals that no instruction ever stores to."""
    written = set()
    for _, _, instr in module.all_instructions():
        if instr.op is Opcode.ST:
            written.add(instr.sym.name)
    return frozenset(name for name in module.globals if name not in written)


def collect_checkpoints(function: Function) -> List[CkptInfo]:
    """Build the checkpoint registry: every CKPT with its owning MARK."""
    infos: List[CkptInfo] = []
    for name in function.block_order:
        instrs = function.blocks[name].instrs
        pending: List[Instr] = []
        for instr in instrs:
            if instr.op is Opcode.CKPT:
                pending.append(instr)
            elif instr.op is Opcode.MARK:
                for ck in pending:
                    infos.append(
                        CkptInfo(instr=ck, reg_index=ck.reg_index,
                                 mark_instr=instr)
                    )
                pending = []
            elif pending:
                # Checkpoints must be contiguous before their MARK.
                raise AssertionError(
                    f"stray CKPT not followed by MARK in {function.name}:{name}"
                )
    return infos


def prune_function(function: Function, readonly: FrozenSet[str],
                   max_slice_len: int = MAX_SLICE_LEN) -> PruneResult:
    """Prune reconstructible checkpoints of ``function`` (in place)."""
    infos = collect_checkpoints(function)
    result = PruneResult(checkpoints=infos, total=len(infos))
    if not infos:
        return result

    reaching = reaching_definitions(function)
    sites = SiteMap(function)
    builder = SliceBuilder(sites, reaching, readonly, infos,
                           max_len=max_slice_len)
    for info in infos:
        if info.referenced_by:
            continue  # locked: another slice restores from this slot
        defs = reaching.defs_reaching_use(sites.of(info.instr),
                                          PReg(info.reg_index))
        if len(defs) != 1:
            continue
        elements = builder.try_build(info)
        if elements is None:
            continue
        # Lock every slot source before committing the prune.
        sources = [
            infos[e.source_index] for e in elements
            if hasattr(e, "source_index")
        ]
        if any(not src.kept for src in sources):
            continue
        info.kept = False
        info.slice_elements = elements
        result.pruned += 1
        for src in sources:
            src.referenced_by.append(info)

    _remove_pruned(function, infos)
    return result


def _remove_pruned(function: Function, infos: List[CkptInfo]) -> None:
    pruned_objects = {id(i.instr) for i in infos if not i.kept}
    if not pruned_objects:
        return
    for name in function.block_order:
        block = function.blocks[name]
        block.instrs = [
            instr for instr in block.instrs if id(instr) not in pruned_objects
        ]


def unprune(function: Function, info: CkptInfo) -> None:
    """Re-insert a pruned checkpoint before its MARK (validation fallback)."""
    if info.kept:
        return
    site = SiteMap(function).of(info.mark_instr)
    if site is None:
        raise AssertionError(
            f"could not locate owning MARK to unprune R{info.reg_index}"
        )
    name, index = site
    function.blocks[name].instrs.insert(index, info.instr)
    info.kept = True
    info.slice_elements = None
