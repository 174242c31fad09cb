"""GECKO: the paper's contribution — pruned, colored, attack-aware rollback.

The public compiler API lives here:

>>> from repro.core import compile_gecko, compile_nvp, compile_ratchet
>>> program = compile_gecko(minic_source)
>>> program.stats.pruning_reduction
"""

from .coloring import ColoringStats, color_function, verify_coloring
from .gecko import (
    CompileStats,
    CompiledProgram,
    DEFAULT_REGION_BUDGET,
    compile_gecko,
    compile_nvp,
    compile_ratchet,
    compile_scheme,
)
from .plans import RegionPlan, SliceExec, SlotLoad, slot_symbol
from .pruning import (
    PruneResult,
    collect_checkpoints,
    prune_function,
    readonly_symbols,
)
from .recovery import CkptInfo, MAX_SLICE_LEN, SliceBuilder, materialize_slice

__all__ = [
    "CkptInfo", "ColoringStats", "CompileStats", "CompiledProgram",
    "DEFAULT_REGION_BUDGET", "MAX_SLICE_LEN", "PruneResult", "RegionPlan",
    "SliceBuilder", "SliceExec", "SlotLoad", "collect_checkpoints",
    "color_function", "compile_gecko", "compile_nvp", "compile_ratchet",
    "compile_scheme", "materialize_slice", "prune_function",
    "readonly_symbols", "slot_symbol", "verify_coloring",
]
