"""Mid-level IR and compiler analyses (CFG, dataflow, alias, WCET)."""

from .alias import MemRef, clobbers_all_memory, may_alias, mem_ref, must_alias
from .cfg import BasicBlock, Function, Module, remove_unreachable, split_block
from .dependence import AntiDep, memory_antideps
from .dominators import (
    control_dependence,
    dominators,
    immediate_dominators,
    postdominators,
)
from .liveness import (
    LinkedLiveness,
    LivenessResult,
    linked_liveness,
    live_intervals,
    liveness,
)
from .loops import Loop, find_loops, infer_loop_bounds, loop_of_block
from .reaching import ReachingResult, reaching_definitions
from .wcet import (
    DEFAULT_LOOP_BOUND,
    block_cycles,
    function_wcet,
    module_wcet,
)

__all__ = [
    "AntiDep", "BasicBlock", "DEFAULT_LOOP_BOUND", "Function",
    "LinkedLiveness", "LivenessResult", "Loop", "MemRef", "Module",
    "ReachingResult", "block_cycles", "clobbers_all_memory",
    "control_dependence", "dominators", "find_loops", "function_wcet",
    "immediate_dominators", "infer_loop_bounds", "live_intervals",
    "linked_liveness", "liveness", "loop_of_block",
    "may_alias", "mem_ref", "memory_antideps",
    "module_wcet", "must_alias", "postdominators", "reaching_definitions",
    "remove_unreachable", "split_block",
]
