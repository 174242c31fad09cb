"""The failure corpus: shrunk violations as durable regression cases.

A :class:`ReproCase` is the end product of the torture pipeline — a
minimal schedule, the oracle it violates, and the per-backend outcome
fingerprints recorded when it was found.  Cases are digest-keyed by
their *identity* (target + schedule + oracle, not the mutable outcome
facts), stored in the PR 7 :class:`~repro.store.ResultStore` with
``fsync=True`` puts (a shrunk failure is far more expensive to
rediscover than an fsync costs), and replayed bit-identically later:
:func:`TortureCorpus.replay` re-runs the schedule on each recorded
backend and demands both that the oracle still fires and that the
fingerprint matches the recorded one word-for-word.

The corpus is how a fuzzing campaign becomes a standing regression
suite: CI replays every stored case on every change, so a consistency
bug fixed once can never quietly come back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..store.digest import content_digest
from ..store.store import ResultStore
from .engine import TortureTarget, build_target, run_schedule
from .oracles import BACKEND_EQUIV
from .schedule import TortureSchedule

__all__ = ["CORPUS_KIND", "ReproCase", "ReplayResult", "TortureCorpus",
           "record_fingerprints"]

#: ``meta["kind"]`` tag distinguishing corpus entries from other store
#: tenants sharing the same root.
CORPUS_KIND = "torture-repro"


@dataclass(frozen=True)
class ReproCase:
    """One minimal, replayable oracle violation."""

    workload: str
    scheme: str
    events: Tuple[dict, ...]  # canonical event dicts (TortureEvent.to_dict)
    oracle: str
    detail: str = ""
    region_budget: Optional[int] = None
    backend: str = "interpreter"
    #: backend name -> outcome fingerprint recorded when the case was
    #: found; replay must reproduce these bit-identically.
    fingerprints: Dict[str, str] = field(default_factory=dict)
    #: provenance: the campaign seed and case index that found it.
    seed: Optional[int] = None
    case_index: Optional[int] = None

    @property
    def digest(self) -> str:
        """Identity digest: target + schedule + oracle.

        Outcome facts (fingerprints, detail, provenance) stay out so a
        re-found case dedupes against the stored one.
        """
        return content_digest({
            "kind": CORPUS_KIND,
            "workload": self.workload,
            "scheme": self.scheme,
            "region_budget": self.region_budget,
            "events": list(self.events),
            "oracle": self.oracle,
        })

    def schedule(self) -> TortureSchedule:
        return TortureSchedule.from_dicts(self.events)

    def target(self) -> TortureTarget:
        return build_target(self.workload, self.scheme,
                            region_budget=self.region_budget)

    def to_dict(self) -> dict:
        out = {
            "workload": self.workload,
            "scheme": self.scheme,
            "events": list(self.events),
            "oracle": self.oracle,
            "detail": self.detail,
            "backend": self.backend,
            "fingerprints": dict(self.fingerprints),
        }
        if self.region_budget is not None:
            out["region_budget"] = self.region_budget
        if self.seed is not None:
            out["seed"] = self.seed
        if self.case_index is not None:
            out["case_index"] = self.case_index
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ReproCase":
        return cls(
            workload=data["workload"],
            scheme=data["scheme"],
            events=tuple(dict(e) for e in data["events"]),
            oracle=data["oracle"],
            detail=data.get("detail", ""),
            region_budget=data.get("region_budget"),
            backend=data.get("backend", "interpreter"),
            fingerprints=dict(data.get("fingerprints", {})),
            seed=data.get("seed"),
            case_index=data.get("case_index"),
        )


@dataclass
class ReplayResult:
    """Replay verdict for one case on one backend."""

    digest: str
    backend: str
    reproduced: bool  # oracle fired again
    bit_identical: bool  # fingerprint matched the recorded one
    fingerprint: str
    recorded: str

    @property
    def ok(self) -> bool:
        return self.reproduced and self.bit_identical


def record_fingerprints(case: ReproCase,
                        backends: Tuple[str, ...] = ("interpreter",
                                                     "threaded"),
                        max_steps: Optional[int] = None) -> ReproCase:
    """A copy of ``case`` with fresh fingerprints on ``backends``."""
    target = case.target()
    schedule = case.schedule()
    prints = {backend: run_schedule(target, schedule, backend,
                                    max_steps=max_steps).fingerprint
              for backend in backends}
    data = case.to_dict()
    data["fingerprints"] = prints
    return ReproCase.from_dict(data)


class TortureCorpus:
    """Digest-keyed repro cases over a :class:`ResultStore` root."""

    def __init__(self, store: ResultStore) -> None:
        self.store = store

    @classmethod
    def open(cls, root: str) -> "TortureCorpus":
        return cls(ResultStore(root))

    def add(self, case: ReproCase) -> Tuple[str, bool]:
        """Persist ``case`` durably; returns ``(digest, was_new)``."""
        meta = {"kind": CORPUS_KIND, "oracle": case.oracle,
                "workload": case.workload, "scheme": case.scheme,
                "events": len(case.events)}
        digest = case.digest
        return digest, self.store.put(digest, case.to_dict(), meta=meta,
                                      fsync=True)

    def get(self, digest: str) -> Optional[ReproCase]:
        entry = self.store.get(digest)
        if entry is None or (entry.get("meta") or {}).get("kind") \
                != CORPUS_KIND:
            return None
        return ReproCase.from_dict(entry["value"])

    def cases(self) -> Iterator[Tuple[str, ReproCase]]:
        """All corpus cases (skipping other tenants), digest order."""
        for digest, entry in self.store.entries():
            if (entry.get("meta") or {}).get("kind") != CORPUS_KIND:
                continue
            yield digest, ReproCase.from_dict(entry["value"])

    def __len__(self) -> int:
        return sum(1 for _ in self.cases())

    # ------------------------------------------------------------------
    def replay(self, case: ReproCase,
               backends: Optional[Tuple[str, ...]] = None,
               max_steps: Optional[int] = None) -> List[ReplayResult]:
        """Re-run ``case`` and verify oracle + fingerprint per backend.

        Backends default to every backend the case recorded a
        fingerprint for (falling back to the case's finding backend).
        ``backend_equivalence`` cases reproduce when the two recorded
        fingerprints differ the same way: each backend must still match
        its own recording.
        """
        target = case.target()
        schedule = case.schedule()
        if backends is None:
            backends = tuple(sorted(case.fingerprints)) \
                or (case.backend,)
        results: List[ReplayResult] = []
        outcomes = {}
        for backend in backends:
            outcome = run_schedule(target, schedule, backend,
                                   max_steps=max_steps)
            outcomes[backend] = outcome
            recorded = case.fingerprints.get(backend, "")
            if case.oracle == BACKEND_EQUIV:
                reproduced = True  # judged across backends below
            else:
                reproduced = case.oracle in outcome.oracles()
            results.append(ReplayResult(
                digest=case.digest, backend=backend,
                reproduced=reproduced,
                bit_identical=(not recorded
                               or outcome.fingerprint == recorded),
                fingerprint=outcome.fingerprint, recorded=recorded))
        if case.oracle == BACKEND_EQUIV and len(outcomes) >= 2:
            prints = {o.fingerprint for o in outcomes.values()}
            diverged = len(prints) > 1
            for result in results:
                result.reproduced = diverged
        return results

    def replay_all(self, backends: Optional[Tuple[str, ...]] = None,
                   max_steps: Optional[int] = None
                   ) -> Dict[str, List[ReplayResult]]:
        return {digest: self.replay(case, backends=backends,
                                    max_steps=max_steps)
                for digest, case in self.cases()}
