"""Invariant oracles: what every torture run must uphold, and when.

Each oracle is a named predicate over an in-flight or finished torture
run.  Oracles carry *applicability* rules, because a violated oracle is
only a bug when the schedule stayed inside the scheme's contract and the
oracle's own preconditions:

``golden_output``
    Committed output equals the failure-free golden run.  Applies only
    when the schedule contains *consistency* events (power failures and
    checkpoint faults): a ``data_fault`` legitimately corrupts data (an
    SDC is a classification, not a reproduction bug) and an ``isr_burst``
    forges device activity the firmware never promised to mask.
``torn_state``
    Checkpoint / recovery atomicity: after every recovery — and at halt —
    no torn ``__jit_*`` bookkeeping, no out-of-range pc, no corrupt or
    leftover ISR frame stack is observable.  A halted machine still
    "inside a handler" is the signature of a lost activation.
``isr_at_least_once``
    Every handler activation the hub dropped at a stale-frame heal must
    be delivered again later or still be pending at halt (the at-least-
    once re-delivery contract real MCUs give firmware).
``forward_progress``
    No livelock: consecutive *compliant* failures (enough cycles between
    recovery and the next failure for a region to commit) must advance
    durable progress; and the whole run must halt within the step
    watchdog once the schedule is exhausted.
``backend_equivalence``
    The interpreter and threaded backends produce bit-identical
    fingerprints on the identical schedule.
``machine_fault``
    The machine must never trap (bad pc, wild address) under an
    in-contract schedule — a trap after recovery is torn state made
    architectural.

The engine records violations as plain data (:class:`Violation`); strict
consumers (replay, the executor fan-out) can escalate them to
:class:`~repro.errors.InvariantViolation`, which
:mod:`repro.eval.resilient` classifies as non-retryable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .schedule import CKPT_FAULT, DATA_FAULT, POWER_FAIL, TortureSchedule

__all__ = [
    "BACKEND_EQUIV",
    "FORWARD_PROGRESS",
    "GOLDEN_OUTPUT",
    "ISR_AT_LEAST_ONCE",
    "MACHINE_FAULT",
    "ORACLE_NAMES",
    "TORN_STATE",
    "Violation",
    "crash_applies",
    "golden_applies",
]

GOLDEN_OUTPUT = "golden_output"
TORN_STATE = "torn_state"
ISR_AT_LEAST_ONCE = "isr_at_least_once"
FORWARD_PROGRESS = "forward_progress"
BACKEND_EQUIV = "backend_equivalence"
MACHINE_FAULT = "machine_fault"

ORACLE_NAMES = (GOLDEN_OUTPUT, TORN_STATE, ISR_AT_LEAST_ONCE,
                FORWARD_PROGRESS, BACKEND_EQUIV, MACHINE_FAULT)

#: Event kinds under which committed output must still equal golden.
_CONSISTENCY_KINDS = frozenset({POWER_FAIL, CKPT_FAULT})


def golden_applies(schedule: TortureSchedule) -> bool:
    """Does the golden-output oracle bind for this schedule?"""
    return schedule.kinds <= _CONSISTENCY_KINDS


def crash_applies(schedule: TortureSchedule) -> bool:
    """Do the crash-class oracles (``machine_fault``,
    ``forward_progress``) bind for this schedule?

    A ``data_fault`` can legitimately corrupt an index register (an
    out-of-bounds trap) or a loop counter (a 2^32-iteration stall) —
    those are SDC/crash *classifications* of an architectural fault, not
    consistency bugs.  Checkpoint faults stay in scope: a runtime that
    restores a corrupt image into a trap or a livelock is exactly the
    failure the paper's detection exists to prevent.
    """
    return DATA_FAULT not in schedule.kinds


@dataclass(frozen=True)
class Violation:
    """One oracle violation, as replayable plain data."""

    oracle: str
    detail: str
    event_index: Optional[int] = None

    def to_dict(self) -> dict:
        out = {"oracle": self.oracle, "detail": self.detail}
        if self.event_index is not None:
            out["event"] = self.event_index
        return out
