#!/usr/bin/env python
"""Compiler explorer: watch GECKO transform a program, pass by pass.

Shows, for one workload: the IR after lowering, idempotent region
formation, WCET-driven splitting, checkpoint insertion, pruning decisions
with their recovery blocks, and the final coloring — the whole §VI
pipeline, inspectable.

Run:  python examples/compiler_explorer.py [workload]
"""

import sys

from repro.compiler import (
    allocate_module,
    form_regions,
    insert_checkpoints,
    split_regions,
)
from repro.core import compile_gecko, compile_nvp
from repro.core.pruning import prune_function, readonly_symbols
from repro.core.plans import SliceExec, SlotLoad
from repro.ir.sites import SiteMap
from repro.ir.wcet import region_gap
from repro.isa import Opcode
from repro.lang import compile_source
from repro.workloads import WORKLOAD_NAMES, source


def marks(fn):
    return sum(1 for _, _, i in fn.instructions() if i.op is Opcode.MARK)


def ckpts(fn):
    return sum(1 for _, _, i in fn.instructions() if i.op is Opcode.CKPT)


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "dijkstra"
    if name not in WORKLOAD_NAMES:
        raise SystemExit(f"unknown workload {name!r}; pick from "
                         f"{', '.join(WORKLOAD_NAMES)}")
    src = source(name)

    module = compile_source(src)
    # Walk the pipeline on the meatiest function (kernels often live in a
    # helper rather than main).
    main_fn = max(
        module.functions.values(),
        key=lambda fn: sum(len(b.instrs) for b in fn.blocks.values()),
    )
    print(f"== {name}: lowered IR ==")
    print(f"  functions: {sorted(module.functions)}  "
          f"(exploring {main_fn.name!r})")
    print(f"  {main_fn.name}: {len(main_fn.block_order)} blocks, "
          f"{sum(len(b.instrs) for b in main_fn.blocks.values())} instrs")

    allocate_module(module)

    stats = form_regions(main_fn)
    print("\n== step 2: idempotent region formation ==")
    print(f"  boundaries: {stats.boundaries} "
          f"(anti-dependence cuts: {stats.antidep_cuts}, "
          f"I/O: {stats.io_boundaries}, calls: {stats.call_boundaries})")

    budget = 50_000
    inserted = split_regions(main_fn, budget)
    analysis = region_gap(main_fn)
    print("\n== steps 3-4: WCET analysis + splitting ==")
    print(f"  power-on budget: {budget} cycles")
    print(f"  boundaries inserted by splitting: {inserted}")
    print(f"  worst region gap after splitting: {analysis.worst:.0f} cycles")

    form_regions(main_fn)  # re-establish idempotence after splits
    inserted_ckpts = insert_checkpoints(main_fn, policy="gecko")
    print("\n== step 5a: checkpoint insertion (region register inputs) ==")
    print(f"  checkpoint stores inserted: {inserted_ckpts}")

    before_pruning = SiteMap(main_fn)
    result = prune_function(main_fn, readonly_symbols(module))
    print("\n== step 5b: checkpoint pruning (§VI-C) ==")
    print(f"  pruned {result.pruned} of {result.total} "
          f"({result.reduction:.0%})")
    for info in result.checkpoints:
        state = "KEPT  " if info.kept else "pruned"
        extra = ""
        if not info.kept and info.slice_elements:
            kinds = [type(e).__name__.replace("Element", "")
                     for e in info.slice_elements]
            extra = f" <- recovery block [{', '.join(kinds)}]"
        site = before_pruning.of(info.instr)
        print(f"    R{info.reg_index:<2} at {site}  {state}{extra}")

    # The full pipeline, for the finished artifact.
    program = compile_gecko(src)
    nvp = compile_nvp(src)
    print("\n== final binary ==")
    print(f"  regions: {program.region_count}   "
          f"checkpoints: {program.checkpoint_stores}")
    print(f"  recovery blocks: {program.stats.recovery_blocks} "
          f"(avg {program.stats.avg_recovery_block_len:.1f} instrs), "
          f"lookup table ~{program.stats.lookup_table_size} words")
    print(f"  code size: {program.stats.code_size} vs NVP "
          f"{nvp.stats.code_size} "
          f"({program.stats.total_code_size / nvp.stats.code_size - 1:+.0%} "
          f"incl. tables)")

    print("\n== restore plans (first three regions) ==")
    shown = 0
    for instr in program.linked.instrs:
        if instr.op is not Opcode.MARK or shown >= 3:
            continue
        plan = instr.meta["plan"]
        actions = []
        for reg, action in sorted(plan.restores.items()):
            if isinstance(action, SlotLoad):
                color = "dyn" if action.color is None else action.color
                actions.append(f"R{reg}<-slot[{action.reg_index}][{color}]")
            elif isinstance(action, SliceExec):
                actions.append(f"R{reg}<-block({len(action)} instrs)")
        print(f"  region {plan.region}: {', '.join(actions) or '(no inputs)'}")
        shown += 1


if __name__ == "__main__":
    main()
