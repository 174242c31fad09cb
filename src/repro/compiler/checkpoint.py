"""Checkpoint-store insertion at region boundaries.

Two policies, matching the paper's evaluation configurations:

* ``ratchet`` — checkpoint the *entire* register file at every boundary
  using the dynamic double-buffer (the paper's Ratchet baseline, ~2.4x).
* ``gecko``   — checkpoint only the region's *register inputs* (registers
  live at region entry), the starting point for GECKO's pruning (Fig. 10a,
  "GECKO w/o pruning", ~1.3x).

Checkpoint stores are placed immediately *before* their MARK: the MARK is
the atomic commit record, so a power failure mid-checkpoint leaves the
previously committed region (and its intact buffer color) as the recovery
point.
"""

from __future__ import annotations

from typing import List, Set

from ..isa.instructions import Instr, Opcode, ckpt
from ..isa.operands import NUM_REGS, PReg
from ..ir.cfg import Function
from ..ir.liveness import liveness

#: Registers eligible for checkpointing (R0 is hardwired zero).
CHECKPOINTABLE = tuple(range(1, NUM_REGS))


def insert_checkpoints(function: Function, policy: str = "gecko") -> int:
    """Insert CKPT stores before every MARK; returns how many were added."""
    if policy not in ("gecko", "ratchet"):
        raise ValueError(f"unknown checkpoint policy {policy!r}")
    live = liveness(function, ignore_ckpt_uses=True)
    added = 0
    for name in function.reverse_postorder():
        block = function.blocks[name]
        index = 0
        while index < len(block.instrs):
            instr = block.instrs[index]
            if instr.op is not Opcode.MARK:
                index += 1
                continue
            regs = _inputs_of_boundary(function, live, name, index, policy)
            stores = [ckpt(PReg(r), reg_index=r, color=None) for r in regs]
            block.instrs[index:index] = stores
            added += len(stores)
            index += len(stores) + 1
    return added


def _inputs_of_boundary(function: Function, live, block: str, index: int,
                        policy: str) -> List[int]:
    if policy == "ratchet":
        return list(CHECKPOINTABLE)
    after = live.live_at(function, block, index + 1)
    regs: Set[int] = set()
    for reg in after:
        if isinstance(reg, PReg) and reg.index in CHECKPOINTABLE:
            regs.add(reg.index)
    return sorted(regs)


def count_checkpoints(function: Function) -> int:
    """Static number of CKPT stores currently in ``function``."""
    return sum(
        1 for _, _, instr in function.instructions()
        if instr.op is Opcode.CKPT
    )
