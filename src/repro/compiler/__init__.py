"""Compiler substrate: regalloc, codegen, regions, splitting, checkpoints."""

from .checkpoint import count_checkpoints, insert_checkpoints
from .codegen import lower_function, lower_module
from .regalloc import AllocationResult, allocate_function, allocate_module
from .region import (
    RegionStats,
    form_regions,
    renumber_regions,
    unsatisfied_antideps,
)
from .splitting import split_regions

__all__ = [
    "AllocationResult", "RegionStats", "allocate_function", "allocate_module",
    "count_checkpoints", "form_regions", "insert_checkpoints",
    "lower_function", "lower_module", "renumber_regions", "split_regions",
    "unsatisfied_antideps",
]
