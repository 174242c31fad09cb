"""Vulnerability maps: where a scheme breaks, aggregated and serialized.

A :class:`VulnerabilityMap` is the fault-injection analogue of the
campaign engine's :class:`~repro.eval.campaign.CampaignResult`: every
injection becomes an :class:`InjectionRecord` (the fault, its outcome,
any execution error), and the map aggregates them into per
(fault-model × program-region) outcome histograms — the artifact that
makes §VII-B3's qualitative claim checkable at a glance.  Maps are plain
data: JSON round-trippable, mergeable across campaigns, and hashable via
:meth:`fingerprint` so serial and parallel sweeps can be proven
bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..store.digest import content_digest
from .classify import CORRUPTION_OUTCOMES, OUTCOME_ORDER, Outcome
from .models import FAULT_MODELS, FaultSpec


def _outcome_key(outcome) -> str:
    """Normalise Outcome members and raw strings to the JSON value
    (``str(enum)`` differs across Python versions, so never rely on it)."""
    return outcome.value if isinstance(outcome, Outcome) else str(outcome)


@dataclass
class InjectionRecord:
    """One injected run: the fault, what happened, and any sim failure."""

    fault: FaultSpec
    outcome: str
    error: Optional[str] = None
    #: The last bus events before the run ended (JSON-safe dicts from
    #: :attr:`SimResult.events`) — the excerpt that explains *why* an
    #: injection became an sdc/brick.  Empty when telemetry was off.
    events: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"fault": self.fault.to_dict(),
                "outcome": _outcome_key(self.outcome),
                "error": self.error,
                "events": self.events}

    @classmethod
    def from_dict(cls, data: dict) -> "InjectionRecord":
        return cls(fault=FaultSpec.from_dict(data["fault"]),
                   outcome=data["outcome"],
                   error=data.get("error"),
                   events=[dict(e) for e in data.get("events", [])])


@dataclass
class VulnerabilityMap:
    """Per-scheme outcome histograms over (fault model × region)."""

    scheme: str
    workload: str
    seed: int = 0
    records: List[InjectionRecord] = field(default_factory=list)

    # -- building -------------------------------------------------------
    def add(self, fault: FaultSpec, outcome: Outcome,
            error: Optional[str] = None,
            events: Optional[List[dict]] = None) -> None:
        self.records.append(
            InjectionRecord(fault=fault, outcome=outcome, error=error,
                            events=list(events) if events else []))

    def merge(self, other: "VulnerabilityMap") -> None:
        """Fold another campaign's records in (same scheme + workload)."""
        self.records.extend(other.records)

    # -- queries --------------------------------------------------------
    @property
    def total(self) -> int:
        return len(self.records)

    def _select(self, model: Optional[str],
                region: Optional[str]) -> Iterable[InjectionRecord]:
        for record in self.records:
            if model is not None and record.fault.model != model:
                continue
            if region is not None and record.fault.region != region:
                continue
            yield record

    def histogram(self, model: Optional[str] = None,
                  region: Optional[str] = None) -> Dict[str, int]:
        """Outcome counts (every class present, zero-filled)."""
        counts = {outcome.value: 0 for outcome in OUTCOME_ORDER}
        for record in self._select(model, region):
            key = _outcome_key(record.outcome)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def count(self, *outcomes: Outcome, model: Optional[str] = None,
              region: Optional[str] = None) -> int:
        wanted = {_outcome_key(o) for o in outcomes}
        return sum(1 for r in self._select(model, region)
                   if _outcome_key(r.outcome) in wanted)

    def corruption_count(self, model: Optional[str] = None) -> int:
        """SDC-or-brick injections — the paper's failure criterion."""
        return self.count(*CORRUPTION_OUTCOMES, model=model)

    def failure_excerpts(self, last: int = 8
                         ) -> List[Tuple[InjectionRecord, List[dict]]]:
        """Each corrupting injection with its final ``last`` bus events —
        the per-fault narrative behind the histogram cells."""
        wanted = {_outcome_key(o) for o in CORRUPTION_OUTCOMES}
        return [(record, record.events[-last:]) for record in self.records
                if _outcome_key(record.outcome) in wanted and record.events]

    def cells(self) -> List[Tuple[str, str, Dict[str, int]]]:
        """(model, region, histogram) rows in canonical order."""
        seen: Dict[Tuple[str, str], None] = {}
        for record in self.records:
            seen.setdefault((record.fault.model, record.fault.region))
        model_rank = {m: i for i, m in enumerate(FAULT_MODELS)}
        keys = sorted(seen, key=lambda k: (model_rank.get(k[0], 99), k[1]))
        return [(m, r, self.histogram(model=m, region=r)) for m, r in keys]

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        return {"scheme": self.scheme, "workload": self.workload,
                "seed": self.seed,
                "records": [r.to_dict() for r in self.records]}

    @classmethod
    def from_dict(cls, data: dict) -> "VulnerabilityMap":
        return cls(scheme=data["scheme"], workload=data["workload"],
                   seed=data.get("seed", 0),
                   records=[InjectionRecord.from_dict(r)
                            for r in data.get("records", [])])

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "VulnerabilityMap":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def fingerprint(self) -> str:
        """Content digest of :meth:`to_dict`: the bit-identity check for
        serial-vs-parallel campaign equivalence."""
        return content_digest(self.to_dict())

    # -- rendering ------------------------------------------------------
    def render(self) -> str:
        """An ASCII (model × region) → outcome-histogram table."""
        header = (f"{'model':14} {'region':16} "
                  + " ".join(f"{o.value[:4]:>5}" for o in OUTCOME_ORDER)
                  + f" {'total':>6}")
        lines = [f"vulnerability map: scheme={self.scheme} "
                 f"workload={self.workload} seed={self.seed} "
                 f"injections={self.total}",
                 header, "-" * len(header)]
        for model, region, histogram in self.cells():
            row_total = sum(histogram.values())
            counts = " ".join(f"{histogram[o.value]:5d}"
                              for o in OUTCOME_ORDER)
            lines.append(f"{model:14} {region:16} {counts} {row_total:6d}")
        totals = self.histogram()
        counts = " ".join(f"{totals[o.value]:5d}" for o in OUTCOME_ORDER)
        lines.append("-" * len(header))
        lines.append(f"{'all':14} {'':16} {counts} {self.total:6d}")
        return "\n".join(lines)
