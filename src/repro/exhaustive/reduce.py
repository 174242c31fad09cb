"""Fault-space reduction: classify without simulating, collapse the rest.

ARMORY's tractability result is that most of an exhaustive fault space
never needs a simulator.  Three layers, applied in order to each
enumerated step-model injection:

1. **Static liveness pruning** — :func:`repro.ir.liveness.linked_liveness`
   proves the targeted register dead at the injection pc: no path of the
   whole program reads it before redefining it, so the flip is ``masked``
   by construction.

2. **Dynamic next-access analysis** — the golden trace knows exactly
   which instruction touches the register next.  If nothing ever touches
   it again, or the next touch is a pure redefinition, the flip is
   ``masked``: execution between injection and that point cannot depend
   on the flipped value (any dependence would be a read), so the fork
   replays the golden path and the flip is erased or never observed.

3. **Equivalence-class collapsing** — flips of the same register bit at
   different steps whose next *read* is the same instruction instance
   produce byte-identical machine states at that read (golden state plus
   the same one-bit XOR), hence byte-identical continuations.  One
   representative — injected immediately before the shared read — is
   simulated; its outcome is attributed to every member.  Soundness
   requires the absolute step budget every fork runs under to be shared
   (see :class:`~repro.exhaustive.trace.GoldenTrace.budget`), so hang
   classification agrees across a class by construction.

``instr_skip`` gets the static layer only: skipping a ``NOP``, or a pure
value-producing instruction whose destination is statically dead, charges
the same cycles and advances the same pc as executing it — ``masked``
with no simulation.  Skips with architectural effect are all simulated
(two dynamic skip contexts are never provably equivalent: the skipped
instruction's effect depends on the full machine state).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.liveness import LinkedLiveness
from ..isa.instructions import BINOPS, UNOPS, Opcode
from ..isa.operands import NUM_REGS
from ..faultsim.models import FaultSimError, FaultSpec, INSTR_SKIP, REG_FLIP
from .space import ExhaustiveSpec, enumerate_step_model
from .trace import GoldenTrace

#: Opcodes whose only architectural effect is writing their destination
#: register (skipping one with a dead destination is a no-op: same pc
#: advance, same cycle charge, stale-but-unread destination).
PURE_SKIP_OPS = BINOPS | UNOPS | frozenset({Opcode.LI, Opcode.LD})

#: A representative key: ("flip", reg, read_step, bit) or ("skip", step).
RepKey = Tuple


@dataclass
class ReducedPlan:
    """One step-model space after reduction, in enumeration order.

    ``entries`` pairs every enumerated injection with either ``None``
    (analytically ``masked``) or the key of the representative whose
    simulated outcome it inherits.  ``representatives`` maps each key to
    the one :class:`FaultSpec` actually simulated, insertion-ordered so
    chunked fan-out stays deterministic.
    """

    model: str
    entries: List[Tuple[FaultSpec, Optional[RepKey]]]
    representatives: Dict[RepKey, FaultSpec]
    #: Per-layer accounting: reason -> injection count.
    layers: Dict[str, int] = field(default_factory=dict)

    @property
    def enumerated(self) -> int:
        return len(self.entries)


class _AccessIndex:
    """Per-register access timeline of a golden trace.

    For register ``r`` and step ``s``: the first step ``t >= s`` whose
    instruction touches ``r``, and whether that touch reads it.  An
    instruction both reading and writing ``r`` (``ADD r, r, 1``) counts
    as a read — the flipped value flows into it.  The per-pc register
    masks are the ones :func:`~repro.ir.liveness.linked_liveness` built.
    """

    def __init__(self, trace: GoldenTrace, liveness: LinkedLiveness) -> None:
        use_mask, def_mask = liveness.use_mask, liveness.def_mask
        self._steps: List[List[int]] = [[] for _ in range(NUM_REGS)]
        self._reads: List[List[bool]] = [[] for _ in range(NUM_REGS)]
        for step, pc in enumerate(trace.pcs):
            touched = use_mask[pc] | def_mask[pc]
            reg = 0
            while touched:
                if touched & 1:
                    self._steps[reg].append(step)
                    self._reads[reg].append(bool(use_mask[pc] >> reg & 1))
                touched >>= 1
                reg += 1

    def next_access(self, reg: int, step: int
                    ) -> Tuple[Optional[int], bool]:
        """(step of the first access at/after ``step``, is it a read)."""
        steps = self._steps[reg]
        i = bisect.bisect_left(steps, step)
        if i == len(steps):
            return None, False
        return steps[i], self._reads[reg][i]


def reduce_reg_flips(spec: ExhaustiveSpec, trace: GoldenTrace,
                     liveness: LinkedLiveness) -> ReducedPlan:
    """Reduce the full reg_flip space of one victim."""
    index = _AccessIndex(trace, liveness)
    entries: List[Tuple[FaultSpec, Optional[RepKey]]] = []
    reps: Dict[RepKey, FaultSpec] = {}
    layers = {"liveness_pruned": 0, "dead_tail_pruned": 0,
              "overwritten_pruned": 0, "class_attributed": 0,
              "representatives": 0}
    resolved: Dict[Tuple[int, int], Tuple[str, Optional[int]]] = {}
    for fault in enumerate_step_model(spec, REG_FLIP, trace.profile):
        step, reg = fault.trigger_step, fault.target
        verdict = resolved.get((step, reg))
        if verdict is None:
            if not liveness.is_live_before(trace.pcs[step], reg):
                verdict = ("liveness_pruned", None)
            else:
                access, is_read = index.next_access(reg, step)
                if access is None:
                    verdict = ("dead_tail_pruned", None)
                elif not is_read:
                    verdict = ("overwritten_pruned", None)
                else:
                    verdict = ("read", access)
            resolved[(step, reg)] = verdict
        kind, read_step = verdict
        if kind != "read":
            layers[kind] += 1
            entries.append((fault, None))
            continue
        key: RepKey = ("flip", reg, read_step, fault.bit)
        if key not in reps:
            region = f"region:{trace.profile.region_at(read_step)}"
            reps[key] = FaultSpec(model=REG_FLIP, trigger_step=read_step,
                                  target=reg, bit=fault.bit, region=region)
            layers["representatives"] += 1
        else:
            layers["class_attributed"] += 1
        entries.append((fault, key))
    return ReducedPlan(model=REG_FLIP, entries=entries,
                       representatives=reps, layers=layers)


def reduce_instr_skips(spec: ExhaustiveSpec, trace: GoldenTrace,
                       liveness: LinkedLiveness, program) -> ReducedPlan:
    """Reduce the instr_skip space (static dead-effect pruning only)."""
    entries: List[Tuple[FaultSpec, Optional[RepKey]]] = []
    reps: Dict[RepKey, FaultSpec] = {}
    layers = {"dead_skip_pruned": 0, "representatives": 0}
    for fault in enumerate_step_model(spec, INSTR_SKIP, trace.profile):
        pc = trace.pcs[fault.trigger_step]
        instr = program.instrs[pc]
        dead_def = (instr.op in PURE_SKIP_OPS
                    and not liveness.live_out[pc] >> instr.dst.index & 1)
        if instr.op is Opcode.NOP or dead_def:
            layers["dead_skip_pruned"] += 1
            entries.append((fault, None))
            continue
        key: RepKey = ("skip", fault.trigger_step)
        reps[key] = fault
        layers["representatives"] += 1
        entries.append((fault, key))
    return ReducedPlan(model=INSTR_SKIP, entries=entries,
                       representatives=reps, layers=layers)


def naive_step_plan(spec: ExhaustiveSpec, model: str,
                    trace: GoldenTrace) -> ReducedPlan:
    """The un-reduced ground truth: every injection is its own
    representative, simulated from reset."""
    entries: List[Tuple[FaultSpec, Optional[RepKey]]] = []
    reps: Dict[RepKey, FaultSpec] = {}
    for i, fault in enumerate(enumerate_step_model(spec, model,
                                                   trace.profile)):
        key: RepKey = ("naive", model, i)
        reps[key] = fault
        entries.append((fault, key))
    return ReducedPlan(model=model, entries=entries, representatives=reps,
                       layers={"representatives": len(reps)})


def reduce_step_model(spec: ExhaustiveSpec, model: str, trace: GoldenTrace,
                      liveness: LinkedLiveness, program) -> ReducedPlan:
    if model == REG_FLIP:
        return reduce_reg_flips(spec, trace, liveness)
    if model == INSTR_SKIP:
        return reduce_instr_skips(spec, trace, liveness, program)
    raise FaultSimError(f"{model} is not a step-triggered model")
