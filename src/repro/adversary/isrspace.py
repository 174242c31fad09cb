"""The ISR-timing attack axis: EMI bursts phase-locked to interrupt arrival.

Reactive firmware concentrates its work in interrupt handlers, so an
adversary who has profiled the victim's interrupt cadence doesn't sweep
burst timing blindly — it *locks* bursts to the handlers: every burst
sits at the same phase offset around an expected arrival.  The search
then runs over a much smaller, much sharper space: the usual physical
knobs (tone, power, standoff) plus just ``phase`` and ``width``.

:class:`IsrPhaseCandidate` carries the profiled arrival pattern as frozen
data, so candidates stay picklable, comparable, and replayable like any
:class:`~repro.adversary.space.AttackCandidate`; both share
:class:`~repro.adversary.space.CandidateBase` (airtime, energy and the
harness encoding), and the spaces share
:class:`~repro.adversary.space.SpaceBase`'s moves, so
:class:`~repro.adversary.search.AdversarySearch` and every strategy run
over it unchanged — pass an :class:`IsrPhaseSpace` as the ``space``
argument.

:func:`isr_attack_space` builds the space from a victim's own golden
trace (:func:`repro.periph.attack.isr_trace`): one stable-power iteration
is profiled, its arrivals tiled across the attack window at the profiled
iteration period — the cadence model an attacker builds from a bench
capture.  :func:`search_isr_defense` cross-evaluates NVP vs GECKO, each
scheme searched with a space profiled from its *own* binary (the
schemes' instrumentation shifts the cadence).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..eval.campaign import CampaignRunner
from ..periph.attack import MCU_CLOCK_HZ, isr_arrivals, isr_trace, \
    phase_locked_windows
from .search import AdversaryResult, AdversarySearch, adversary_victim
from .space import AdversaryError, Bounds, CandidateBase, SpaceBase

#: Burst count cap: tiling a short iteration over a long window can
#: produce thousands of arrivals; past this the schedule is clipped (the
#: attacker's transmitter duty-cycles out anyway).
MAX_ARRIVALS = 256

#: The searchable knobs.  ``phase`` and ``width`` are fractions of the
#: run window, re-bounded per space from the profiled interrupt period.
_PHYSICAL_KNOBS = ("freq_mhz", "tx_dbm", "distance_m")
_TIMING_KNOBS = ("phase", "width")


@dataclass(frozen=True)
class IsrPhaseCandidate(CandidateBase):
    """One phase-locked attack: physical knobs + (phase, width) offsets.

    ``arrivals`` is the profiled interrupt-arrival pattern (fractions of
    the run window) — fixed per space, carried on the candidate so a
    serialized evaluation replays without the profiling run.
    """

    freq_mhz: float
    tx_dbm: float
    distance_m: float
    phase: float
    width: float
    arrivals: Tuple[float, ...] = ()

    # -- timeline ------------------------------------------------------
    def windows(self) -> Tuple[Tuple[float, float], ...]:
        """Merged (start, end) bursts around every expected arrival."""
        return phase_locked_windows(self.arrivals, self.phase, self.width)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}
        data["arrivals"] = list(self.arrivals)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "IsrPhaseCandidate":
        fields = {f.name for f in dataclasses.fields(cls)}
        kept = {k: v for k, v in data.items() if k in fields}
        kept["arrivals"] = tuple(kept.get("arrivals", ()))
        return cls(**kept)


@dataclass(frozen=True)
class IsrPhaseSpace(SpaceBase):
    """Bounded phase-locked candidate space over a fixed arrival pattern.

    Shares :class:`~repro.adversary.space.AttackSpace`'s moves
    (``sample`` / ``clip`` / ``neighbor`` / ``lattice``) and has its own
    ``aggressive`` prior, so every search strategy runs over it
    unchanged.
    """

    arrivals: Tuple[float, ...]
    bounds: Mapping[str, Bounds]

    def __post_init__(self) -> None:
        if not self.arrivals:
            raise AdversaryError("isr phase space needs >= 1 arrival")
        want = set(_PHYSICAL_KNOBS) | set(_TIMING_KNOBS)
        got = set(self.bounds)
        if want != got:
            raise AdversaryError(
                f"isr phase space must bound exactly {sorted(want)}; "
                f"missing {sorted(want - got)}, extra {sorted(got - want)}")

    def _make(self, knobs: Dict[str, float]) -> IsrPhaseCandidate:
        return IsrPhaseCandidate(arrivals=self.arrivals, **knobs)

    def aggressive(self, freq_mhz: float) -> IsrPhaseCandidate:
        """Max-damage prior at one tone: full power, closest standoff,
        widest burst, centered on the arrival itself."""
        return self.clip(self._make({
            "freq_mhz": freq_mhz,
            "tx_dbm": self.bounds["tx_dbm"].hi,
            "distance_m": self.bounds["distance_m"].lo,
            "phase": 0.0,
            "width": self.bounds["width"].hi,
        }))


def isr_attack_space(linked, duration_s: float,
                     vector: Optional[int] = None,
                     clock_hz: float = MCU_CLOCK_HZ,
                     freq_bounds: Bounds = Bounds(5.0, 60.0),
                     power_bounds: Bounds = Bounds(10.0, 35.0),
                     distance_bounds: Bounds = Bounds(1.0, 10.0, log=True)
                     ) -> IsrPhaseSpace:
    """Build the phase-locked space from one golden trace of ``linked``.

    One stable-power iteration is profiled; its arrivals are tiled across
    the ``duration_s`` attack window at the iteration period (clipped to
    :data:`MAX_ARRIVALS` bursts).  Phase spans ± half the median
    inter-arrival gap; width spans up to one gap, so even the widest
    burst stays interrupt-scale rather than window-scale.
    """
    spans, total_cycles = isr_trace(linked)
    base = isr_arrivals(spans, total_cycles, vector=vector)
    if not base:
        raise AdversaryError(
            "golden trace delivered no interrupts"
            + (f" on vector {vector}" if vector is not None else ""))
    window_cycles = duration_s * clock_hz
    if window_cycles <= 0:
        raise AdversaryError("attack window must be positive")
    # Tile one iteration's arrival pattern across the whole window.
    period = total_cycles / window_cycles  # iteration length, as a fraction
    arrivals: List[float] = []
    tile = 0
    while len(arrivals) < MAX_ARRIVALS:
        offset = tile * period
        if offset >= 1.0:
            break
        for a in base:
            t = offset + a * period
            if t < 1.0 and len(arrivals) < MAX_ARRIVALS:
                arrivals.append(t)
        tile += 1
    gaps = sorted(b - a for a, b in zip(arrivals, arrivals[1:])) \
        or [period or 1.0]
    gap = max(gaps[len(gaps) // 2], 1e-9)
    return IsrPhaseSpace(
        arrivals=tuple(arrivals),
        bounds={
            "freq_mhz": freq_bounds,
            "tx_dbm": power_bounds,
            "distance_m": distance_bounds,
            "phase": Bounds(-gap / 2.0, gap / 2.0),
            "width": Bounds(gap / 16.0, gap),
        },
    )


def search_isr_defense(workload: str,
                       schemes: Tuple[str, ...] = ("nvp", "gecko"),
                       duration_s: float = 0.05,
                       strategy: str = "anneal",
                       budget: int = 16,
                       seed: int = 0,
                       batch: int = 4,
                       workers: int = 1,
                       runner: Optional[CampaignRunner] = None,
                       vector: Optional[int] = None,
                       **victim_overrides
                       ) -> Dict[str, AdversaryResult]:
    """NVP-vs-GECKO cross-evaluation on the ISR-timing axis.

    Each scheme is searched with a phase-locked space profiled from its
    *own* compiled binary — the schemes' instrumentation shifts interrupt
    cadence, and a realistic attacker profiles the deployed image.  The
    shared runner means both schemes compile once and reuse workers.
    """
    runner = runner or CampaignRunner(workers=workers)
    results: Dict[str, AdversaryResult] = {}
    for scheme in schemes:
        victim = adversary_victim(workload=workload, scheme=scheme,
                                  duration_s=duration_s,
                                  **victim_overrides)
        space = isr_attack_space(runner.compile(victim).linked, duration_s,
                                 vector=vector)
        search = AdversarySearch(victim, space=space, strategy=strategy,
                                 budget=budget, seed=seed, batch=batch,
                                 runner=runner)
        results[scheme] = search.run()
    return results


def render_isr_comparison(results: Mapping[str, AdversaryResult]) -> str:
    """A compact NVP-vs-GECKO table over the ISR-timing frontier."""
    lines = [f"{'scheme':8s} {'worst damage':>12s} {'detections':>10s} "
             f"{'cost (J)':>9s}  worst attack"]
    for scheme, result in results.items():
        worst = result.worst_case()
        if worst is None:
            lines.append(f"{scheme:8s} {'-':>12s} {'-':>10s} {'-':>9s}  "
                         f"(no damaging attack found)")
            continue
        c = worst.candidate
        lines.append(
            f"{scheme:8s} {worst.scores.damage:12.3f} "
            f"{worst.scores.detections:10d} "
            f"{worst.scores.cost_j:9.3f}  "
            f"{c.freq_mhz:.1f} MHz @ {c.tx_dbm:.1f} dBm, "
            f"phase {c.phase:+.2e}, width {c.width:.2e}")
    return "\n".join(lines)
