"""Torture schedules: typed adversarial event sequences over one run.

A :class:`TortureSchedule` is a sorted sequence of :class:`TortureEvent`
deliveries, each pinned to a simulated *cycle* boundary — the one clock
both execution backends advance identically — so a schedule replays
bit-for-bit on the interpreter and on threaded code.  Four event kinds
cover the attack surface the paper and the related work care about:

``power_fail``
    A power failure at the event cycle, optionally *announced* (the
    voltage monitor fires first with ``ckpt_budget`` cycles of buffered
    energy — the paper's ``V_backup`` path, or its ``V_fail`` torn-budget
    attack), optionally repeated ``repeat`` times during recovery with
    ``gap_steps`` instructions between repeats (failure-during-recovery).
``ckpt_fault``
    Arms an EMI fault against the *next* JIT checkpoint image (reusing
    the :mod:`repro.faultsim` corrupt/truncate models): one word is
    flipped / the write stops early, and the commit markers never land —
    the glitch that corrupts is the glitch that keeps it from committing.
``isr_burst``
    Pends an interrupt vector out of band (an EMI-induced spurious edge),
    the :mod:`repro.periph.attack` phase-locking surface.
``data_fault``
    A one-shot architectural fault at the next instruction boundary:
    ``reg_flip`` (XOR one register bit) or ``instr_skip``.

Per-scheme *contracts* (:data:`SCHEME_CONTRACTS`) restrict generation to
schedules each scheme actually promises to survive — NVP's contract is
"announced failures with sufficient energy" (an unannounced failure or a
torn budget is the paper's known NVP vulnerability, not a reproduction
bug), while GECKO must also survive unannounced failures and checkpoint
faults because detection plus rollback is its whole claim.

The seeded generator biases event placement three ways — uniform over
the run, *boundary-biased* (just after a golden MARK commit, the
highest-value crash points), and *ISR-phase-locked* (around golden
handler-entry cycles, where frame state is in flight) — with child
streams spawned per case through :mod:`repro.seeds`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..faultsim.models import IMAGE_PREFIX_WORDS
from ..isa.operands import NUM_REGS

__all__ = [
    "AMPLE_BUDGET",
    "CKPT_FAULT",
    "DATA_FAULT",
    "EVENT_KINDS",
    "ISR_BURST",
    "POWER_FAIL",
    "SCHEME_CONTRACTS",
    "SchemeContract",
    "TortureError",
    "TortureEvent",
    "TortureProfile",
    "TortureSchedule",
    "generate_schedule",
    "validate_schedule",
]


class TortureError(ReproError):
    """A malformed torture schedule, contract breach, or engine misuse."""


#: Event kinds.
POWER_FAIL = "power_fail"
CKPT_FAULT = "ckpt_fault"
ISR_BURST = "isr_burst"
DATA_FAULT = "data_fault"
EVENT_KINDS = (POWER_FAIL, CKPT_FAULT, ISR_BURST, DATA_FAULT)

#: An announced checkpoint budget that always suffices (cycles).
AMPLE_BUDGET = 10 ** 9

#: Checkpoint-fault modes (mirroring :mod:`repro.faultsim.models`).
CKPT_MODES = ("corrupt", "truncate")

#: Data-fault models (the step-triggered :mod:`repro.faultsim` models).
DATA_MODELS = ("reg_flip", "instr_skip")

_REPEAT_CAP = 16
_GAP_STEPS_CAP = 4096


@dataclass(frozen=True)
class TortureEvent:
    """One scheduled delivery.  Unused fields stay at their defaults so
    events of every kind share a single canonical dict encoding."""

    kind: str
    at_cycle: int
    # power_fail --------------------------------------------------------
    ckpt_budget: Optional[int] = None   # None = unannounced failure
    repeat: int = 0                     # extra failures during recovery
    gap_steps: int = 0                  # instructions between repeats
    # ckpt_fault --------------------------------------------------------
    mode: Optional[str] = None          # "corrupt" | "truncate"
    word: int = 0                       # image word index (corrupt)
    cut: int = 0                        # words written before the stop
    # isr_burst ---------------------------------------------------------
    vector: int = 0
    # data_fault --------------------------------------------------------
    model: Optional[str] = None         # "reg_flip" | "instr_skip"
    reg: int = 0
    bit: int = 0                        # shared by ckpt corrupt / reg_flip

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise TortureError(f"unknown event kind {self.kind!r} "
                               f"(want one of {', '.join(EVENT_KINDS)})")
        if self.at_cycle < 0:
            raise TortureError(f"at_cycle must be >= 0, got {self.at_cycle}")
        if not 0 <= self.repeat <= _REPEAT_CAP:
            raise TortureError(f"repeat must be in [0, {_REPEAT_CAP}]")
        if not 0 <= self.gap_steps <= _GAP_STEPS_CAP:
            raise TortureError(f"gap_steps must be in [0, {_GAP_STEPS_CAP}]")
        if self.kind == CKPT_FAULT and self.mode not in CKPT_MODES:
            raise TortureError(f"ckpt_fault mode must be one of "
                               f"{', '.join(CKPT_MODES)}, got {self.mode!r}")
        if self.kind == DATA_FAULT and self.model not in DATA_MODELS:
            raise TortureError(f"data_fault model must be one of "
                               f"{', '.join(DATA_MODELS)}, got {self.model!r}")
        if not 0 <= self.reg < NUM_REGS:
            raise TortureError(f"reg must be in [0, {NUM_REGS})")
        if not (0 <= self.word < IMAGE_PREFIX_WORDS
                and 0 <= self.cut < IMAGE_PREFIX_WORDS):
            raise TortureError(f"word and cut must be in "
                               f"[0, {IMAGE_PREFIX_WORDS})")
        if not 0 <= self.bit < 32:
            raise TortureError("bit must be in [0, 32)")

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical dict form (only non-default fields, sorted keys)."""
        out: Dict[str, object] = {"kind": self.kind, "at": self.at_cycle}
        for key, attr in (("budget", "ckpt_budget"), ("repeat", "repeat"),
                          ("gap", "gap_steps"), ("mode", "mode"),
                          ("word", "word"), ("cut", "cut"),
                          ("vector", "vector"), ("model", "model"),
                          ("reg", "reg"), ("bit", "bit")):
            value = getattr(self, attr)
            if value not in (None, 0):
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TortureEvent":
        return cls(kind=data["kind"], at_cycle=data["at"],
                   ckpt_budget=data.get("budget"),
                   repeat=data.get("repeat", 0),
                   gap_steps=data.get("gap", 0),
                   mode=data.get("mode"), word=data.get("word", 0),
                   cut=data.get("cut", 0), vector=data.get("vector", 0),
                   model=data.get("model"), reg=data.get("reg", 0),
                   bit=data.get("bit", 0))


@dataclass(frozen=True)
class SchemeContract:
    """What a scheme promises to survive — the generator's legal moves.

    ``budgets`` lists the announced-budget classes power failures may
    draw from: ``"ample"`` (monitor fires with enough energy),
    ``"torn"`` (monitor fires inside the ``V_fail`` window), ``"none"``
    (unannounced — the failure beats the monitor entirely).
    """

    kinds: Tuple[str, ...]
    budgets: Tuple[str, ...]

    def allows_budget(self, budget: Optional[int]) -> bool:
        if budget is None:
            return "none" in self.budgets
        if budget >= AMPLE_BUDGET:
            return "ample" in self.budgets
        return "torn" in self.budgets


#: Scheme id -> contract.  ``gecko-rollback`` pins ``__mode`` to rollback
#: (the pure-Ratchet convention of the crash-consistency tests), where
#: checkpoints never run, so ckpt faults would be inert there.
SCHEME_CONTRACTS: Dict[str, SchemeContract] = {
    "nvp": SchemeContract(
        kinds=(POWER_FAIL, ISR_BURST, DATA_FAULT),
        budgets=("ample",)),
    "ratchet": SchemeContract(
        kinds=(POWER_FAIL, ISR_BURST, DATA_FAULT),
        budgets=("none",)),
    "gecko-jit": SchemeContract(
        kinds=(POWER_FAIL, CKPT_FAULT, ISR_BURST, DATA_FAULT),
        budgets=("ample", "torn", "none")),
    "gecko-rollback": SchemeContract(
        kinds=(POWER_FAIL, ISR_BURST, DATA_FAULT),
        budgets=("ample", "torn", "none")),
}

SCHEME_NAMES = tuple(sorted(SCHEME_CONTRACTS))


@dataclass(frozen=True)
class TortureProfile:
    """Golden-run facts the generator biases its placements with."""

    total_cycles: int
    mark_cycles: Tuple[int, ...] = ()
    isr_entry_cycles: Tuple[int, ...] = ()
    image_cycles: int = 96          # full JIT checkpoint write cost
    has_periph: bool = False
    vectors: Tuple[int, ...] = ()


@dataclass(frozen=True)
class TortureSchedule:
    """An ordered, validated event sequence (sorted by cycle, then by
    original position — simultaneous events deliver in schedule order)."""

    events: Tuple[TortureEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(
            self.events, key=lambda e: e.at_cycle))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def to_dicts(self) -> List[dict]:
        return [event.to_dict() for event in self.events]

    @classmethod
    def from_dicts(cls, dicts: Sequence[dict]) -> "TortureSchedule":
        return cls(events=tuple(TortureEvent.from_dict(d) for d in dicts))

    @property
    def kinds(self) -> frozenset:
        return frozenset(event.kind for event in self.events)


def validate_schedule(schedule: TortureSchedule, scheme: str,
                      profile: Optional[TortureProfile] = None) -> None:
    """Raise :class:`TortureError` when ``schedule`` steps outside the
    scheme contract (or targets peripherals the program lacks)."""
    contract = SCHEME_CONTRACTS.get(scheme)
    if contract is None:
        raise TortureError(f"unknown scheme {scheme!r} "
                           f"(want one of {', '.join(SCHEME_NAMES)})")
    for index, event in enumerate(schedule):
        if event.kind not in contract.kinds:
            raise TortureError(
                f"event {index}: kind {event.kind!r} is outside the "
                f"{scheme} contract ({', '.join(contract.kinds)})")
        if event.kind == POWER_FAIL \
                and not contract.allows_budget(event.ckpt_budget):
            raise TortureError(
                f"event {index}: ckpt_budget {event.ckpt_budget!r} is "
                f"outside the {scheme} contract "
                f"(budget classes: {', '.join(contract.budgets)})")
        if event.kind == ISR_BURST and profile is not None:
            if not profile.has_periph:
                raise TortureError(
                    f"event {index}: isr_burst on a program with no "
                    f"peripherals")
            if profile.vectors and event.vector not in profile.vectors:
                raise TortureError(
                    f"event {index}: isr_burst vector {event.vector} has "
                    f"no registered handler "
                    f"(registered: {list(profile.vectors)})")


# ----------------------------------------------------------------------
# Generation.
# ----------------------------------------------------------------------
def _draw_cycle(rng, profile: TortureProfile, horizon: int) -> int:
    """One biased placement: uniform / boundary-biased / phase-locked."""
    roll = rng.random()
    if roll < 0.4 or (not profile.mark_cycles
                      and not profile.isr_entry_cycles):
        return rng.randrange(1, horizon)
    if roll < 0.75 and profile.mark_cycles:
        # Boundary-biased: land just around a golden MARK commit.
        return max(1, rng.choice(profile.mark_cycles)
                   + rng.randrange(-4, 12))
    if profile.isr_entry_cycles:
        # Phase-locked: around a golden handler entry, where frame state
        # is in flight (the repro.periph.attack surface).
        return max(1, rng.choice(profile.isr_entry_cycles)
                   + rng.randrange(-24, 48))
    return rng.randrange(1, horizon)


def _draw_budget(rng, contract: SchemeContract,
                 profile: TortureProfile) -> Optional[int]:
    """Energy-biased announced budget (or None for unannounced)."""
    choices = []
    if "none" in contract.budgets:
        choices += ["none"] * 4
    if "ample" in contract.budgets:
        choices += ["ample"] * 3
    if "torn" in contract.budgets:
        choices += ["torn"] * 3
    kind = rng.choice(choices)
    if kind == "none":
        return None
    if kind == "ample":
        return AMPLE_BUDGET
    # Torn: enough for a prefix of the image, never the commit markers.
    return rng.randrange(0, max(2, profile.image_cycles))


def generate_schedule(profile: TortureProfile, scheme: str, rng,
                      events_min: int = 2,
                      events_max: int = 10) -> TortureSchedule:
    """One seeded adversarial schedule inside the scheme contract.

    ``rng`` is a :class:`random.Random` (spawn one per case with
    :func:`repro.seeds.spawn_rng` — never share streams across cases).
    """
    contract = SCHEME_CONTRACTS.get(scheme)
    if contract is None:
        raise TortureError(f"unknown scheme {scheme!r} "
                           f"(want one of {', '.join(SCHEME_NAMES)})")
    if not 1 <= events_min <= events_max:
        raise TortureError("need 1 <= events_min <= events_max")
    horizon = max(16, int(profile.total_cycles * 1.5)) + 256
    kinds = [POWER_FAIL] * 6
    if CKPT_FAULT in contract.kinds:
        kinds += [CKPT_FAULT] * 2
    if profile.has_periph and profile.vectors \
            and ISR_BURST in contract.kinds:
        kinds += [ISR_BURST] * 2
    if DATA_FAULT in contract.kinds:
        kinds += [DATA_FAULT] * 2
    count = rng.randint(events_min, events_max)
    events: List[TortureEvent] = []
    for _ in range(count):
        kind = rng.choice(kinds)
        at = _draw_cycle(rng, profile, horizon)
        if kind == POWER_FAIL:
            repeat = rng.randint(1, 4) if rng.random() < 0.3 else 0
            events.append(TortureEvent(
                kind=kind, at_cycle=at,
                ckpt_budget=_draw_budget(rng, contract, profile),
                repeat=repeat,
                gap_steps=rng.randrange(0, 12) if repeat else 0))
        elif kind == CKPT_FAULT:
            mode = rng.choice(CKPT_MODES)
            events.append(TortureEvent(
                kind=kind, at_cycle=at, mode=mode,
                word=rng.randrange(0, IMAGE_PREFIX_WORDS),
                bit=rng.randrange(32),
                cut=rng.randrange(0, IMAGE_PREFIX_WORDS)))
        elif kind == ISR_BURST:
            events.append(TortureEvent(
                kind=kind, at_cycle=at,
                vector=rng.choice(profile.vectors)))
        else:
            events.append(TortureEvent(
                kind=kind, at_cycle=at,
                model=rng.choice(DATA_MODELS),
                reg=rng.randrange(NUM_REGS),
                bit=rng.randrange(32)))
    schedule = TortureSchedule(events=tuple(events))
    validate_schedule(schedule, scheme, profile)
    return schedule


def simplify_event(event: TortureEvent, scheme: str
                   ) -> List[TortureEvent]:
    """Simpler variants of one event, most aggressive first (the
    shrinker's per-event move set; every variant stays in contract)."""
    contract = SCHEME_CONTRACTS[scheme]
    out: List[TortureEvent] = []

    def push(**changes) -> None:
        candidate = replace(event, **changes)
        if candidate != event:
            out.append(candidate)

    if event.repeat:
        push(repeat=0, gap_steps=0)
        if event.repeat > 1:
            push(repeat=event.repeat // 2)
    if event.gap_steps:
        push(gap_steps=0)
    if event.kind == POWER_FAIL and event.ckpt_budget is not None \
            and "none" in contract.budgets:
        push(ckpt_budget=None)
    if event.kind == DATA_FAULT:
        if event.bit:
            push(bit=0)
        if event.reg:
            push(reg=0)
    if event.kind == CKPT_FAULT:
        if event.bit:
            push(bit=0)
        if event.word:
            push(word=0)
        if event.cut:
            push(cut=0)
    for div in (10_000, 1_000, 100, 10):
        rounded = event.at_cycle - event.at_cycle % div
        if rounded != event.at_cycle and rounded > 0:
            push(at_cycle=rounded)
    return out
