"""Idempotent region formation (paper §VI-B).

A region boundary is a ``MARK`` instruction.  At runtime a boundary commits
the program's progress (region id, re-entry PC, buffered I/O, sensor
cursor); between boundaries the code must be *idempotent* — re-executable
from the boundary with identical results.

The pass places boundaries:

1. at every function entry (a call ends the caller's region);
2. in every loop header (the paper's rule for loops);
3. immediately before and after every ``CALL`` and I/O operation
   (calls/interrupts/I-O are their own regions);
4. before any store that closes an *unprotected* memory anti-dependence —
   i.e. a load -> may-alias store pair with a MARK-free path between them
   that is not WARAW-protected by a dominating same-word store in the same
   region.

The pass is re-runnable: running it again after WCET splitting restores
idempotence when a split broke a WARAW protection (§VI-B, last paragraph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..isa.instructions import Instr, Opcode, mark
from ..ir.cfg import Function, Module
from ..ir.dependence import AntiDep, memory_antideps
from ..ir.sites import Site, markfree_reaches, next_sites


@dataclass
class RegionStats:
    """Bookkeeping produced by formation, useful for reports and tests."""

    boundaries: int = 0
    antidep_cuts: int = 0
    loop_headers: int = 0
    call_boundaries: int = 0
    io_boundaries: int = 0


def form_regions(function: Function, loop_headers: bool = False) -> RegionStats:
    """Insert region boundaries into ``function`` (in place).

    ``loop_headers=True`` reproduces Ratchet's placement: an unconditional
    boundary at the top of every loop, paying one commit per iteration.
    GECKO's configuration (the default) relies on the anti-dependence cuts
    alone — a loop whose body is WAR-free stays inside one region and is
    simply re-executed from the region entry after a crash; loop-carried
    WARs are cut where they occur, and WCET splitting bounds region length.
    This is the main source of GECKO's low overhead relative to Ratchet
    (Fig. 11).
    """
    stats = RegionStats()
    _insert_mandatory_boundaries(function, stats, loop_headers=loop_headers)
    _cut_antidependences(function, stats)
    stats.boundaries = sum(
        1 for _, _, instr in function.instructions() if instr.op is Opcode.MARK
    )
    return stats


# ----------------------------------------------------------------------
# Mandatory boundaries.
# ----------------------------------------------------------------------
def _insert_mandatory_boundaries(function: Function, stats: RegionStats,
                                 loop_headers: bool = False) -> None:
    from ..ir.loops import find_loops

    # Function entry.
    entry = function.blocks[function.entry]
    if not entry.instrs or entry.instrs[0].op is not Opcode.MARK:
        entry.instrs.insert(0, mark(0))

    # Loop headers (Ratchet placement only; see form_regions).
    if loop_headers:
        for loop in find_loops(function):
            header = function.blocks[loop.header]
            if header.instrs and header.instrs[0].op is Opcode.MARK:
                continue
            header.instrs.insert(0, mark(0))
            stats.loop_headers += 1

    # Calls and I/O: a boundary immediately before and after each.
    for name in list(function.block_order):
        block = function.blocks[name]
        rebuilt: List[Instr] = []
        previous: Optional[Instr] = None
        for instr in block.instrs:
            boundary_kind = None
            if instr.op is Opcode.CALL:
                boundary_kind = "call"
            elif instr.is_io:
                boundary_kind = "io"
            if boundary_kind is not None:
                if previous is None or previous.op is not Opcode.MARK:
                    rebuilt.append(mark(0))
                    _bump(stats, boundary_kind)
                rebuilt.append(instr)
                rebuilt.append(mark(0))
                _bump(stats, boundary_kind)
                previous = rebuilt[-1]
                continue
            if instr.op is Opcode.MARK and previous is not None \
                    and previous.op is Opcode.MARK:
                continue  # collapse adjacent boundaries
            rebuilt.append(instr)
            previous = instr
        block.instrs = rebuilt


def _bump(stats: RegionStats, kind: str) -> None:
    if kind == "call":
        stats.call_boundaries += 1
    else:
        stats.io_boundaries += 1


# ----------------------------------------------------------------------
# Anti-dependence cuts.
# ----------------------------------------------------------------------
def _cut_antidependences(function: Function, stats: RegionStats) -> None:
    # Sites shift as MARKs are inserted, so recompute until stable.
    for _ in range(10_000):
        dep = _first_unsatisfied(function)
        if dep is None:
            return
        block = function.blocks[dep.store[0]]
        block.instrs.insert(dep.store[1], mark(0))
        stats.antidep_cuts += 1
    raise RuntimeError("anti-dependence cutting failed to converge")


def _first_unsatisfied(function: Function) -> Optional[AntiDep]:
    for dep in memory_antideps(function):
        if _is_satisfied(function, dep):
            continue
        return dep
    return None


def unsatisfied_antideps(function: Function) -> List[AntiDep]:
    """Anti-dependences not yet separated by a boundary (invariant 2 check).

    Empty on a correctly formed function; later passes that insert MARKs
    (WCET splitting, coloring conflict repair) can re-introduce violations
    by breaking WARAW protections, and re-check with this.
    """
    return [
        dep for dep in memory_antideps(function)
        if not _is_satisfied(function, dep)
    ]


def _is_satisfied(function: Function, dep: AntiDep) -> bool:
    """A pair is fine if every load->store path crosses a MARK, or WARAW holds."""
    if not markfree_reaches(function, dep.load, {dep.store}):
        return True
    for protector in dep.protectors:
        # WARAW protection is valid only while the protecting store shares
        # the load's region on every path: no MARK between them.
        if not _marked_path_exists(function, protector, dep.load):
            return True
    return False


def _marked_path_exists(function: Function, src: Site, dst: Site) -> bool:
    """Is there a path from after ``src`` to ``dst`` that crosses a MARK?

    Unlike :func:`~repro.ir.sites.path_through`, a path may pass ``src``
    again: on the loop ``st x; ld x; mark; bnz loop`` the store's value
    does not survive into the next iteration's load.
    """
    seen: Set[Tuple[Site, bool]] = set()
    stack = [(site, False) for site in next_sites(function, src)]
    while stack:
        site, crossed = stack.pop()
        if (site, crossed) in seen:
            continue
        seen.add((site, crossed))
        if site == dst and crossed:
            return True
        instr = function.blocks[site[0]].instrs[site[1]]
        here = crossed or instr.op is Opcode.MARK
        for nxt in next_sites(function, site):
            stack.append((nxt, here))
    return False


def renumber_regions(module: Module) -> int:
    """Assign globally unique ids to every MARK; returns the region count."""
    next_id = 1
    for name in sorted(module.functions):
        function = module.functions[name]
        for bname in function.block_order:
            for instr in function.blocks[bname].instrs:
                if instr.op is Opcode.MARK:
                    instr.region = next_id
                    next_id += 1
    return next_id - 1
