"""The GECKO compiler pipeline and the other compilation schemes.

Public entry points:

* :func:`compile_nvp`     — plain code generation, no instrumentation; crash
  consistency comes entirely from the JIT checkpoint runtime (the baseline).
* :func:`compile_ratchet` — idempotent regions + full register-file
  checkpoints with the dynamic double buffer, *no* WCET splitting (Ratchet).
* :func:`compile_gecko`   — the paper's five-step pipeline (§VI-B): region
  formation, WCET analysis, region splitting, re-formation, then register
  checkpointing with pruning (§VI-C), recovery blocks (§VI-E) and static
  2-colored double buffering (§VI-D).

Every compiled program carries per-region restore plans in the MARK
instructions' ``meta['plan']``; the runtimes build their lookup tables from
those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Union

from ..errors import CompileError
from ..isa.instructions import Opcode
from ..isa.program import LinkedProgram, link
from ..ir.cfg import Function, Module
from ..ir.sites import SiteMap
from ..lang.lowering import compile_source
from ..compiler.checkpoint import CHECKPOINTABLE, insert_checkpoints
from ..compiler.codegen import lower_module
from ..compiler.regalloc import allocate_module
from ..compiler.region import (
    form_regions,
    renumber_regions,
    unsatisfied_antideps,
)
from ..compiler.splitting import split_regions, verify_region_budget
from .coloring import boundary_instrs, color_function, verify_coloring
from .plans import RegionPlan, SliceExec, SlotLoad
from .pruning import (
    PruneResult,
    collect_checkpoints,
    prune_function,
    readonly_symbols,
    unprune,
)
from .recovery import (
    CkptInfo,
    SlotElement,
    find_dominating_slot,
    find_restore_source,
    materialize_slice,
    slot_clobbered,
)

#: Default guaranteed power-on budget in cycles (one full capacitor charge
#: under worst-case draw — see PowerSystem.guaranteed_cycles(); a 1 mF
#: buffer at MSP430-class draw sustains far more than this, so the default
#: is conservative while leaving small kernels unsplit, as on real boards).
DEFAULT_REGION_BUDGET = 50_000

#: Cycle slack reserved when splitting so that the checkpoint stores later
#: inserted at each boundary (up to 15 registers x 4 cycles) still fit.
_SPLIT_MARGIN = 64

#: Words of lookup-table overhead per region entry (id -> entry PC, inputs).
_TABLE_WORDS_PER_REGION = 2


@dataclass
class CompileStats:
    """Static metrics for the paper's Fig. 12, Tab. III and §VII-C."""

    scheme: str = "gecko"
    regions: int = 0
    checkpoints_before_pruning: int = 0
    checkpoints_after_pruning: int = 0
    recovery_blocks: int = 0
    recovery_block_instrs: int = 0
    code_size: int = 0
    spills: int = 0
    #: Join-point coloring conflicts repaired by inserting a new region.
    coloring_conflicts: int = 0
    #: Registers that fell back to the per-register dynamic index (§VI-D).
    dynamic_fallbacks: int = 0

    @property
    def pruning_reduction(self) -> float:
        """Fraction of checkpoint stores removed by pruning (Fig. 12)."""
        if not self.checkpoints_before_pruning:
            return 0.0
        return 1.0 - (self.checkpoints_after_pruning
                      / self.checkpoints_before_pruning)

    @property
    def avg_recovery_block_len(self) -> float:
        if not self.recovery_blocks:
            return 0.0
        return self.recovery_block_instrs / self.recovery_blocks

    @property
    def lookup_table_size(self) -> int:
        """Instruction-equivalent size of the recovery lookup table (§VII-C)."""
        return (_TABLE_WORDS_PER_REGION * self.regions
                + self.recovery_block_instrs)

    @property
    def total_code_size(self) -> int:
        """Binary size proxy: program + recovery blocks + lookup table."""
        return self.code_size + self.lookup_table_size


@dataclass
class CompiledProgram:
    """A linked executable plus its instrumentation metadata."""

    linked: LinkedProgram
    scheme: str
    stats: CompileStats
    module: Module
    #: Per-function pruning results (gecko schemes only).
    prune_results: Dict[str, PruneResult] = field(default_factory=dict)

    @property
    def checkpoint_stores(self) -> int:
        """Static CKPT count in the final binary (Tab. III)."""
        return self.linked.count_opcode(Opcode.CKPT)

    @property
    def region_count(self) -> int:
        return self.linked.count_opcode(Opcode.MARK)


SourceOrModule = Union[str, Module]


def _prepare(source: SourceOrModule, optimize: bool = True) -> Module:
    module = compile_source(source) if isinstance(source, str) else source
    # The static-frame calling convention cannot express recursion; fail
    # loudly here rather than miscompile (call_order raises on cycles).
    module.call_order()
    # ISR handler closures must be well-formed for every scheme (the
    # exclusivity rules below are what make skipping their region
    # instrumentation sound).
    _isr_closures(module)
    if optimize:
        # Step 1 of the paper's pipeline: traditional optimizations on the
        # IR before any crash-consistency instrumentation.  Constant
        # propagation also exposes loop limits that were variables in the
        # source, so bound inference (first run by lowering) runs again.
        from ..compiler.optimize import optimize_module
        from ..ir.loops import infer_loop_bounds
        optimize_module(module)
        for function in module.functions.values():
            infer_loop_bounds(function)
    return module


def compile_nvp(source: SourceOrModule,
                optimize: bool = True) -> CompiledProgram:
    """Compile with no software crash-consistency instrumentation."""
    module = _prepare(source, optimize)
    alloc = allocate_module(module)
    linked = link(lower_module(module))
    stats = CompileStats(
        scheme="nvp", code_size=linked.code_size(),
        spills=sum(a.spill_count for a in alloc.values()),
    )
    return CompiledProgram(linked=linked, scheme="nvp", stats=stats,
                           module=module)


def compile_ratchet(source: SourceOrModule,
                    optimize: bool = True) -> CompiledProgram:
    """Compile the Ratchet baseline: idempotent regions, full-RF checkpoints.

    Faithful to the paper's characterisation: no WCET-driven splitting
    (Ratchet regions can exceed a charge cycle, §VII-B3) and the dynamic
    double-buffer index flip rather than static coloring.
    """
    module = _prepare(source, optimize)
    alloc = allocate_module(module)
    isr_fns = _isr_functions(module)
    for name, function in module.functions.items():
        if name in isr_fns:
            # Handler closures get no region instrumentation: the hub's
            # frame push/pop is the crash-consistency mechanism around
            # them (stale frames heal by re-delivery).
            continue
        form_regions(function, loop_headers=True)
        insert_checkpoints(function, policy="ratchet")
        _check_idempotent(function)
    renumber_regions(module)
    for function in module.functions.values():
        _attach_plans(function, collect_checkpoints(function))
    linked = link(lower_module(module))
    stats = CompileStats(
        scheme="ratchet",
        regions=linked.count_opcode(Opcode.MARK),
        checkpoints_before_pruning=linked.count_opcode(Opcode.CKPT),
        checkpoints_after_pruning=linked.count_opcode(Opcode.CKPT),
        code_size=linked.code_size(),
        spills=sum(a.spill_count for a in alloc.values()),
    )
    return CompiledProgram(linked=linked, scheme="ratchet", stats=stats,
                           module=module)


def compile_gecko(source: SourceOrModule,
                  region_budget: int = DEFAULT_REGION_BUDGET,
                  prune: bool = True,
                  max_slice_len: Optional[int] = None,
                  optimize: bool = True) -> CompiledProgram:
    """Run the full GECKO pipeline.

    Args:
        source: MiniC text or an already-lowered IR module.
        region_budget: guaranteed power-on cycles every region must fit in.
        prune: disable to get the "GECKO w/o pruning" configuration (Fig. 11).
        max_slice_len: recovery-block length cap (default from recovery).
        optimize: run the classic middle-end passes first (pipeline step 1).
    """
    module = _prepare(source, optimize)
    alloc = allocate_module(module)
    readonly = readonly_symbols(module)
    stats = CompileStats(scheme="gecko" if prune else "gecko-nopruning")
    prune_results: Dict[str, PruneResult] = {}

    isr_fns = _isr_functions(module)
    for name, function in module.functions.items():
        if name in isr_fns:
            # No region instrumentation inside handler closures; their
            # whole activation must instead fit the power-on budget,
            # checked below (WCET, strict loop bounds).
            continue
        # Steps 2-4: form regions, split against the WCET budget, re-form.
        form_regions(function)
        split_regions(function, max(region_budget - _SPLIT_MARGIN, 32))
        form_regions(function)
        # Step 5: checkpoint the register inputs of every region.
        before = insert_checkpoints(function, policy="gecko")
        stats.checkpoints_before_pruning += before
        if prune:
            kwargs = {}
            if max_slice_len is not None:
                kwargs["max_slice_len"] = max_slice_len
            result = prune_function(function, readonly, **kwargs)
        else:
            result = PruneResult(checkpoints=collect_checkpoints(function),
                                 total=before)
        prune_results[name] = result
        color_stats = _color_and_validate(function, result.checkpoints)
        stats.coloring_conflicts += color_stats.conflicts_fixed
        stats.dynamic_fallbacks += color_stats.dynamic_fallbacks
        verify_region_budget(function, region_budget)

    _check_isr_wcet(module, region_budget)

    renumber_regions(module)
    for name, function in module.functions.items():
        if name in prune_results:
            _attach_plans(function, prune_results[name].checkpoints)

    linked = link(lower_module(module))
    stats.regions = linked.count_opcode(Opcode.MARK)
    stats.checkpoints_after_pruning = linked.count_opcode(Opcode.CKPT)
    # "Before pruning" counts what the binary would carry had no checkpoint
    # been pruned — the final count plus every store pruning removed (the
    # Fig. 12 comparison).
    stats.checkpoints_before_pruning = stats.checkpoints_after_pruning + sum(
        result.pruned for result in prune_results.values()
    )
    stats.code_size = linked.code_size()
    stats.spills = sum(a.spill_count for a in alloc.values())
    for instr in linked.instrs:
        plan = instr.meta.get("plan")
        if isinstance(plan, RegionPlan):
            for action in plan.restores.values():
                if isinstance(action, SliceExec):
                    stats.recovery_blocks += 1
                    stats.recovery_block_instrs += len(action)
    return CompiledProgram(linked=linked, scheme=stats.scheme, stats=stats,
                           module=module, prune_results=prune_results)


def compile_scheme(source: SourceOrModule, scheme: str,
                   **kwargs) -> CompiledProgram:
    """Dispatch by scheme name: 'nvp', 'ratchet', 'gecko', 'gecko-nopruning'."""
    if scheme == "nvp":
        return compile_nvp(source)
    if scheme == "ratchet":
        return compile_ratchet(source)
    if scheme == "gecko":
        return compile_gecko(source, **kwargs)
    if scheme == "gecko-nopruning":
        return compile_gecko(source, prune=False, **kwargs)
    raise ValueError(f"unknown compilation scheme {scheme!r}")


# ----------------------------------------------------------------------
# Coloring + post-coloring validation.
# ----------------------------------------------------------------------
def _color_and_validate(function: Function, infos: List[CkptInfo],
                        max_rounds: int = 50):
    """Color checkpoints, then repair anything coloring's edits broke.

    Two things can go stale after conflict repair inserts new boundaries:
    a pruned checkpoint's slot reference (another same-register checkpoint
    now sits between source and target), and a WARAW protection (a new MARK
    separates the protecting store from its load).  Both repairs insert
    instructions, so iterate to a fixpoint.  Returns the accumulated
    :class:`~repro.core.coloring.ColoringStats`.
    """
    from .coloring import ColoringStats

    total = ColoringStats()
    for _ in range(max_rounds):
        stats = color_function(function, infos)
        total.conflicts_fixed += stats.conflicts_fixed
        total.extra_checkpoints += stats.extra_checkpoints
        total.dynamic_fallbacks += stats.dynamic_fallbacks
        total.colored = stats.colored
        stale = _stale_slices(function, infos)
        if stale:
            for info in stale:
                unprune(function, info)
            continue
        dep = next(iter(unsatisfied_antideps(function)), None)
        if dep is not None:
            _insert_boundary_before(function, infos, dep.store)
            continue
        verify_coloring(function, infos)
        return total
    raise CompileError(
        f"post-coloring validation did not converge in {function.name}"
    )


def _stale_slices(function: Function,
                  infos: List[CkptInfo]) -> List[CkptInfo]:
    """Pruned checkpoints whose slot references are no longer safe."""
    sites = SiteMap(function)
    stale: List[CkptInfo] = []
    for info in infos:
        if info.kept or not info.slice_elements:
            continue
        mark_site = sites.of(info.mark_instr)
        if mark_site is None:
            stale.append(info)
            continue
        for element in info.slice_elements:
            if not isinstance(element, SlotElement):
                continue
            source = infos[element.source_index]
            source_site = sites.of(source.instr)
            if (source_site is None or not source.kept
                    or not sites.dominates(source_site, mark_site)
                    or slot_clobbered(sites, infos, source, mark_site)):
                stale.append(info)
                break
    return stale


def _insert_boundary_before(function: Function, infos: List[CkptInfo],
                            store_site) -> None:
    """Cut an anti-dependence post-coloring: MARK + minimal checkpoints.

    Live inputs restorable from an existing dominating slot are left to the
    plan builder; checkpointing them here would disturb their coloring.
    """
    from ..isa.instructions import mark
    from ..isa.operands import PReg
    from ..ir.liveness import liveness

    block_name, index = store_site
    live = liveness(function, ignore_ckpt_uses=True)
    live_here = live.live_at(function, block_name, index)
    sites = SiteMap(function)
    inputs = []
    for reg in sorted(live_here, key=lambda r: getattr(r, "index", 99)):
        if not isinstance(reg, PReg) or reg.index not in CHECKPOINTABLE:
            continue
        if find_dominating_slot(sites, infos, reg.index, store_site) is None:
            inputs.append(reg.index)
    new_instrs, _ = boundary_instrs(infos, inputs, mark(0))
    function.blocks[block_name].instrs[index:index] = new_instrs


# ----------------------------------------------------------------------
# Restore-plan construction.
# ----------------------------------------------------------------------
def _attach_plans(function: Function, infos: List[CkptInfo]) -> None:
    """Attach a RegionPlan to every MARK.

    Each live input register of a region is restored via (in order of
    preference) its own boundary checkpoint, its pruning recovery block, or
    a dominating checkpoint slot from an earlier boundary (covers repair
    boundaries that deliberately checkpoint only the conflicted register).
    """
    from ..ir.liveness import liveness
    from ..isa.operands import PReg

    by_mark: Dict[int, List[CkptInfo]] = {}
    for info in infos:
        by_mark.setdefault(id(info.mark_instr), []).append(info)

    live = liveness(function, ignore_ckpt_uses=True)
    sites = SiteMap(function)

    for name in function.block_order:
        for index, instr in enumerate(function.blocks[name].instrs):
            if instr.op is not Opcode.MARK:
                continue
            plan = RegionPlan(region=instr.region or 0)
            for info in by_mark.get(id(instr), []):
                if info.kept:
                    plan.restores[info.reg_index] = SlotLoad(
                        reg_index=info.reg_index, color=info.instr.color,
                        per_reg=bool(info.instr.meta.get("per_reg")),
                    )
                elif info.slice_elements:
                    plan.restores[info.reg_index] = SliceExec(
                        target=info.reg_index,
                        instrs=materialize_slice(infos, info.slice_elements),
                    )
            for reg in live.live_at(function, name, index + 1):
                if not isinstance(reg, PReg) \
                        or reg.index not in CHECKPOINTABLE:
                    continue
                if reg.index in plan.restores:
                    continue
                found = find_restore_source(sites, infos, reg.index,
                                            (name, index))
                if found is None:
                    raise CompileError(
                        f"{function.name}: live input R{reg.index} of the "
                        f"region at {name}:{index} has no restore path"
                    )
                kind, source_index = found
                source = infos[source_index]
                if kind == "slot":
                    plan.restores[reg.index] = SlotLoad(
                        reg_index=source.reg_index, color=source.instr.color,
                        per_reg=bool(source.instr.meta.get("per_reg")),
                    )
                else:
                    plan.restores[reg.index] = SliceExec(
                        target=reg.index,
                        instrs=materialize_slice(infos, source.slice_elements),
                    )
            instr.meta["plan"] = plan


# ----------------------------------------------------------------------
# ISR handler closures.
# ----------------------------------------------------------------------
def _isr_closures(module: Module) -> Dict[int, FrozenSet[str]]:
    """Per-vector handler closures, with the exclusivity rules enforced.

    A handler closure (the handler plus everything it may call) gets no
    region/checkpoint instrumentation: its crash consistency comes from
    the hub's frame push/pop and at-least-once re-delivery.  That is only
    sound if closure functions are *exclusive* — never called from main
    code or from another vector's closure — because an instrumented
    caller re-entering a shared callee after rollback would replay the
    callee without its checkpoints.
    """
    if not module.isrs:
        return {}
    callees: Dict[str, set] = {name: set() for name in module.functions}
    callers: Dict[str, set] = {name: set() for name in module.functions}
    for fname, _, instr in module.all_instructions():
        if instr.op is Opcode.CALL:
            callees[fname].add(instr.callee)
            callers[instr.callee].add(fname)

    closures: Dict[int, FrozenSet[str]] = {}
    owner: Dict[str, int] = {}
    for vector, handler in sorted(module.isrs.items()):
        if handler not in module.functions:
            raise CompileError(
                f"isr vector {vector} names undefined function {handler!r}")
        if handler == module.entry:
            raise CompileError("the entry function cannot be an isr handler")
        seen = {handler}
        work = [handler]
        while work:
            for callee in callees[work.pop()]:
                if callee not in seen:
                    seen.add(callee)
                    work.append(callee)
        for fname in seen:
            if fname in owner:
                raise CompileError(
                    f"function {fname!r} is shared between the vector-"
                    f"{owner[fname]} and vector-{vector} isr closures"
                )
            owner[fname] = vector
        closures[vector] = frozenset(seen)

    if module.entry in owner:
        raise CompileError(
            f"isr closure (vector {owner[module.entry]}) reaches the entry "
            f"function"
        )
    for fname, vector in owner.items():
        outside = callers[fname] - closures[vector]
        if outside:
            raise CompileError(
                f"function {fname!r} belongs to the vector-{vector} isr "
                f"closure but is also called from "
                f"{', '.join(sorted(outside))}"
            )
    return closures


def _isr_functions(module: Module) -> FrozenSet[str]:
    """Every function owned by any ISR handler closure."""
    closures = _isr_closures(module)
    names: set = set()
    for fns in closures.values():
        names |= fns
    return frozenset(names)


def _check_isr_wcet(module: Module, region_budget: int) -> None:
    """Every handler activation must fit the guaranteed power-on budget.

    Handlers carry no MARKs, so a whole activation is the atomic unit a
    power failure can force to re-run; under GECKO it must therefore fit
    ``region_budget`` like any split region.  Loop bounds are strict —
    an unbounded loop inside a handler closure is a compile error.
    """
    if not module.isrs:
        return
    from ..errors import WCETError
    from ..ir.wcet import function_wcet

    closures = _isr_closures(module)
    members: set = set()
    for fns in closures.values():
        members |= fns
    wcets: Dict[str, int] = {}
    for fname in module.call_order():
        if fname not in members:
            continue
        try:
            wcets[fname] = int(function_wcet(
                module.functions[fname], callee_wcet=wcets, strict=True))
        except WCETError as exc:
            raise CompileError(
                f"isr closure function {fname!r}: {exc}") from exc
    for vector, handler in sorted(module.isrs.items()):
        wcet = wcets[handler]
        if wcet > region_budget:
            raise CompileError(
                f"isr handler {handler!r} (vector {vector}) has WCET "
                f"{wcet} cycles, exceeding the region budget "
                f"{region_budget}"
            )


def _check_idempotent(function: Function) -> None:
    deps = unsatisfied_antideps(function)
    if deps:
        raise CompileError(
            f"{function.name}: {len(deps)} unsatisfied anti-dependences "
            f"after region formation"
        )
