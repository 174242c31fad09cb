"""Reduction accounting: what the exhaustive mapper did *not* simulate.

The acceptance claim behind :mod:`repro.exhaustive` is quantitative —
the reduced mapper classifies the identical fault space with an order of
magnitude fewer simulations — so the mapper's bookkeeping is a
first-class artifact next to the map itself: per-model space sizes,
per-layer pruning counts, representative/simulated/store-served splits,
and the headline reduction factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..faultsim.report import VulnerabilityMap


@dataclass
class ReductionStats:
    """Cost accounting of one exhaustive mapping run.

    ``enumerated`` is the complete space (what the naive mapper would
    simulate); ``representatives`` + ``campaign_points`` is what a cold
    reduced run must simulate; ``simulated`` / ``campaign_executed`` is
    what *this* run actually executed after store memoization.  Of the
    ``simulated`` forks, ``golden_stops`` ended early on golden's state
    and ``sibling_stops`` on a state another fork of their chunk had
    classified (always 0 for the naive mapper, which drains in full).
    """

    naive: bool = False
    golden_steps: int = 0
    #: model -> enumerated injection count (the full space).
    enumerated: Dict[str, int] = field(default_factory=dict)
    #: reduction layer -> injections it resolved or collapsed.
    layers: Dict[str, int] = field(default_factory=dict)
    #: Unique step-model simulations a cold reduced run needs.
    representatives: int = 0
    #: Step-model simulations actually executed (store misses).
    simulated: int = 0
    store_hits: int = 0
    store_puts: int = 0
    #: Simulated forks stopped early on a known state.
    golden_stops: int = 0
    sibling_stops: int = 0
    #: Time-triggered grid: size, store hits, executions.
    campaign_points: int = 0
    campaign_store_hits: int = 0
    campaign_executed: int = 0

    # ------------------------------------------------------------------
    @property
    def total_enumerated(self) -> int:
        return sum(self.enumerated.values())

    @property
    def naive_simulations(self) -> int:
        """What exhausting the same space without reduction costs."""
        return self.total_enumerated

    @property
    def unique_simulations(self) -> int:
        """Cold cost of the reduced run (before store memoization)."""
        return self.representatives + self.campaign_points

    @property
    def executed_simulations(self) -> int:
        """Simulations this very run performed (0 on a warm store)."""
        return self.simulated + self.campaign_executed

    def reduction_factor(self) -> float:
        """naive / reduced simulation count (>= 1.0 when reduction wins)."""
        return self.naive_simulations / max(1, self.unique_simulations)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "naive": self.naive,
            "golden_steps": self.golden_steps,
            "enumerated": dict(self.enumerated),
            "layers": dict(self.layers),
            "representatives": self.representatives,
            "simulated": self.simulated,
            "store_hits": self.store_hits,
            "store_puts": self.store_puts,
            "golden_stops": self.golden_stops,
            "sibling_stops": self.sibling_stops,
            "campaign_points": self.campaign_points,
            "campaign_store_hits": self.campaign_store_hits,
            "campaign_executed": self.campaign_executed,
            "reduction_factor": self.reduction_factor(),
        }

    def render(self) -> str:
        lines = [f"fault-space reduction "
                 f"({'naive' if self.naive else 'reduced'} mapper):"]
        for model in self.enumerated:
            lines.append(f"  {model:14} {self.enumerated[model]:>9} "
                         f"injections enumerated")
        for reason in sorted(self.layers):
            lines.append(f"  {reason:>24}: {self.layers[reason]}")
        lines.append(f"  unique simulations: {self.unique_simulations} "
                     f"({self.representatives} step reps "
                     f"+ {self.campaign_points} grid points)")
        lines.append(f"  executed now: {self.executed_simulations} "
                     f"(store served {self.store_hits} reps, "
                     f"{self.campaign_store_hits} grid points)")
        lines.append(f"  forks stopped at a known state: "
                     f"{self.golden_stops} golden, "
                     f"{self.sibling_stops} sibling")
        lines.append(f"  reduction factor: {self.reduction_factor():.1f}x "
                     f"vs naive ({self.naive_simulations} simulations)")
        return "\n".join(lines)


@dataclass
class ExhaustiveResult:
    """One exhaustive mapping run: the map plus its cost accounting."""

    spec: object
    map: VulnerabilityMap
    stats: ReductionStats

    def fingerprint(self) -> str:
        return self.map.fingerprint()

    def to_dict(self) -> dict:
        return {"map": self.map.to_dict(), "stats": self.stats.to_dict()}

    def render(self) -> str:
        return self.map.render() + "\n\n" + self.stats.render()
