"""The adversary's move set: a typed, bounded space of EMI attacks.

The paper evaluates GECKO against hand-picked attacks — fixed tones at
fixed minutes (Figs. 9/13).  Moro et al.'s EMFI fault model argues for
*parameterizing* the attack instead: the adversary's physical knobs form a
bounded space, and a search over that space measures the defense against
the worst attack the model admits, not the worst one a human thought of.

:class:`AttackCandidate` is one point of that space — carrier frequency,
transmit power, antenna distance, and a burst pattern (window start /
duration / duty cycle / hop period, all as fractions of the victim's run
window so the same candidate scales to any experiment length).
:class:`AttackSpace` bounds each knob (:class:`Bounds`), samples and
perturbs candidates with a caller-supplied seeded RNG, and encodes a
candidate into the existing harness vocabulary — an
:class:`~repro.eval.campaign.AttackSpec` + :class:`~repro.eval.campaign.
PathSpec` pair for campaigns, or a built :class:`~repro.emi.
AttackSchedule` + :class:`~repro.emi.RemotePath` for direct replay.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Mapping, Sequence, Tuple

from ..emi import AttackSchedule, EMISource, RemotePath
from ..energy.harvester import dbm_to_watts
from ..errors import ReproError
from ..eval.campaign import AttackSpec, PathSpec

#: Bursts shorter than this fraction of the run are dropped as degenerate
#: (they would violate the AttackWindow start < end invariant once scaled).
MIN_BURST_FRAC = 1e-9


class AdversaryError(ReproError):
    """An attack space, strategy, or search that cannot be built or run."""


@dataclass(frozen=True)
class Bounds:
    """One closed parameter interval, optionally log-scaled.

    Log-scaled bounds sample and perturb in log10 space, which is the
    natural metric for distance (path loss is log-linear in it).
    """

    lo: float
    hi: float
    log: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise AdversaryError(f"bounds must be finite, got {self}")
        if not self.lo < self.hi:
            raise AdversaryError(f"bounds need lo < hi, got {self}")
        if self.log and self.lo <= 0:
            raise AdversaryError(f"log bounds need lo > 0, got {self}")

    def clip(self, value: float) -> float:
        return min(self.hi, max(self.lo, value))

    def sample(self, rng: random.Random) -> float:
        if self.log:
            return 10.0 ** rng.uniform(math.log10(self.lo),
                                       math.log10(self.hi))
        return rng.uniform(self.lo, self.hi)

    def grid(self, n: int) -> List[float]:
        """``n`` evenly spaced values, endpoints included."""
        if n < 1:
            raise AdversaryError("grid needs n >= 1")
        if n == 1:
            return [self.lo]
        if self.log:
            lo, hi = math.log10(self.lo), math.log10(self.hi)
            return [10.0 ** (lo + (hi - lo) * i / (n - 1)) for i in range(n)]
        return [self.lo + (self.hi - self.lo) * i / (n - 1)
                for i in range(n)]

    def neighbor(self, value: float, rng: random.Random,
                 scale: float) -> float:
        """A Gaussian perturbation of ``value``, clipped back in bounds."""
        if self.log:
            span = math.log10(self.hi) - math.log10(self.lo)
            moved = math.log10(max(value, self.lo)) \
                + rng.gauss(0.0, scale * span)
            return self.clip(10.0 ** moved)
        return self.clip(value + rng.gauss(0.0, scale * (self.hi - self.lo)))


class CandidateBase:
    """What every candidate derives from its :meth:`windows` and its three
    physical knobs (``freq_mhz``, ``tx_dbm``, ``distance_m``): airtime,
    energy, and the encoding into the harness vocabulary."""

    def windows(self) -> Tuple[Tuple[float, float], ...]:
        """(start, end) transmission bursts as fractions of the run."""
        raise NotImplementedError

    def airtime_frac(self) -> float:
        return sum(end - start for start, end in self.windows())

    def airtime_s(self, duration_s: float) -> float:
        return self.airtime_frac() * duration_s

    def energy_j(self, duration_s: float) -> float:
        """The attacker's transmitted energy: P_tx × airtime."""
        return dbm_to_watts(self.tx_dbm) * self.airtime_s(duration_s)

    # -- encoding into the harness vocabulary --------------------------
    def source(self) -> EMISource:
        return EMISource(self.freq_mhz * 1e6, self.tx_dbm)

    def attack_spec(self) -> AttackSpec:
        return AttackSpec.bursts(self.windows(), freq_mhz=self.freq_mhz,
                                 tx_dbm=self.tx_dbm)

    def path_spec(self) -> PathSpec:
        return PathSpec.remote(distance_m=self.distance_m)

    def build(self, duration_s: float) -> Tuple[AttackSchedule, RemotePath]:
        """The replayable (schedule, path) pair at a concrete run length."""
        source = self.source()
        schedule = AttackSchedule.from_intervals(
            [(a * duration_s, b * duration_s) for a, b in self.windows()],
            source)
        return schedule, RemotePath(distance_m=self.distance_m)


@dataclass(frozen=True)
class AttackCandidate(CandidateBase):
    """One fully-specified attack the adversary model admits.

    Timing fields are fractions of the victim's run window: the active
    interval is ``[start, start + duration)``, chopped into bursts of
    period ``hop_period`` transmitting for the first ``duty`` fraction of
    each (``duty >= 1`` collapses to one continuous window).
    """

    freq_mhz: float
    tx_dbm: float
    distance_m: float
    start: float
    duration: float
    duty: float
    hop_period: float

    # -- timeline ------------------------------------------------------
    def windows(self) -> Tuple[Tuple[float, float], ...]:
        """(start, end) transmission bursts as fractions of the run."""
        end = min(1.0, self.start + self.duration)
        if end - self.start <= MIN_BURST_FRAC:
            return ()
        if self.duty >= 1.0:
            return ((self.start, end),)
        period = max(self.hop_period, MIN_BURST_FRAC)
        bursts: List[Tuple[float, float]] = []
        t = self.start
        while t < end - MIN_BURST_FRAC:
            on_end = min(end, t + period * self.duty)
            if on_end - t > MIN_BURST_FRAC:
                bursts.append((t, on_end))
            t += period
        return tuple(bursts)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "AttackCandidate":
        return cls(**{f.name: data[f.name] for f in fields(cls)})


#: The searchable knobs and their physical bounds: the paper's rig caps
#: power at 35 dBm (§III); the susceptible band sits below ~60 MHz
#: (§IV-A2); sub-meter standoff is not "remote" any more.
DEFAULT_BOUNDS: Dict[str, Bounds] = {
    "freq_mhz": Bounds(5.0, 60.0),
    "tx_dbm": Bounds(10.0, 35.0),
    "distance_m": Bounds(1.0, 10.0, log=True),
    "start": Bounds(0.0, 0.9),
    "duration": Bounds(0.05, 1.0),
    "duty": Bounds(0.1, 1.0),
    "hop_period": Bounds(0.02, 0.5),
}


class SpaceBase:
    """Seeded moves over a space's ``bounds`` (iterated in their order, so
    the RNG draws are fixed).  Each move builds its candidate through the
    space's ``_make(knobs)``; :meth:`lattice` starts from the space's
    ``aggressive(freq_mhz)`` prior."""

    def _make(self, knobs: Dict[str, float]) -> CandidateBase:
        raise NotImplementedError

    def sample(self, rng: random.Random) -> CandidateBase:
        return self._make({name: bounds.sample(rng)
                           for name, bounds in self.bounds.items()})

    def clip(self, candidate: CandidateBase) -> CandidateBase:
        return self._make({name: bounds.clip(getattr(candidate, name))
                           for name, bounds in self.bounds.items()})

    def neighbor(self, candidate: CandidateBase, rng: random.Random,
                 scale: float = 0.15) -> CandidateBase:
        """Perturb every knob; the anneal strategy's proposal move."""
        return self._make({
            name: bounds.neighbor(getattr(candidate, name), rng, scale)
            for name, bounds in self.bounds.items()})

    def lattice(self, n_freq: int, n_power: int = 1) -> List[CandidateBase]:
        """A (frequency × power) grid of aggressive candidates — the grid
        strategy's plan and the anneal strategy's warm start."""
        power = self.bounds["tx_dbm"]
        # Full power first (and only full power when n_power == 1): the
        # lattice is the *aggressive* prior, not a uniform grid.
        powers = [power.hi] if n_power == 1 \
            else list(reversed(power.grid(n_power)))
        out: List[CandidateBase] = []
        for tx_dbm in powers:
            for freq in self.bounds["freq_mhz"].grid(n_freq):
                out.append(replace(self.aggressive(freq), tx_dbm=tx_dbm))
        return out


@dataclass(frozen=True)
class AttackSpace(SpaceBase):
    """Bounded candidate space with seeded sampling and perturbation."""

    bounds: Mapping[str, Bounds] = field(
        default_factory=lambda: dict(DEFAULT_BOUNDS))

    def __post_init__(self) -> None:
        want = {f.name for f in fields(AttackCandidate)}
        got = set(self.bounds)
        if want != got:
            raise AdversaryError(
                f"space must bound exactly the candidate fields; "
                f"missing {sorted(want - got)}, extra {sorted(got - want)}")

    def _make(self, knobs: Dict[str, float]) -> AttackCandidate:
        return AttackCandidate(**knobs)

    def aggressive(self, freq_mhz: float) -> AttackCandidate:
        """The max-damage prior at one tone: full window, full power,
        closest standoff, continuous transmission."""
        return self.clip(AttackCandidate(
            freq_mhz=freq_mhz,
            tx_dbm=self.bounds["tx_dbm"].hi,
            distance_m=self.bounds["distance_m"].lo,
            start=self.bounds["start"].lo,
            duration=self.bounds["duration"].hi,
            duty=self.bounds["duty"].hi,
            hop_period=self.bounds["hop_period"].hi,
        ))
