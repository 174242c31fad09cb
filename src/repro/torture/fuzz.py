"""Seeded fuzzing campaigns: generate, run, check, shrink, persist.

One campaign = one :class:`TortureSpec`: a (workload, scheme) target, a
root seed, and a case count.  Schedules are drawn per case from a
seed-sequence-spawned child stream (:func:`repro.seeds.spawn_rng` —
never ``seed + i``), so the campaign is deterministic, order-free, and
uncorrelated across cases.

Cases fan out through :class:`~repro.eval.resilient.ResilientExecutor`
(per-case watchdogs, crash recovery, retries for infrastructure
failures — oracle violations are ``invariant_violation`` and never
retried), with the spec and the parent's compiled target as the
executor's context, so workers never rebuild the target.  Each case
optionally cross-checks the two execution backends on the identical
schedule (the ``backend_equivalence`` oracle).  The campaign
fingerprint digests every case outcome in index order, so a serial run
and a 8-worker run of the same spec must produce the same fingerprint —
the executor cannot silently change results.

Violations are shrunk serially in the parent (shrinking is a sequential
search) and deduped into :class:`~repro.torture.corpus.ReproCase`
records ready for the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..eval.resilient import ResilientExecutor, TaskResult
from ..seeds import spawn_rng
from ..store.digest import content_digest
from .corpus import ReproCase
from .engine import TortureOutcome, TortureTarget, build_target, run_schedule
from .oracles import BACKEND_EQUIV, Violation
from .schedule import TortureSchedule, generate_schedule
from .shrink import DEFAULT_SHRINK_RUNS, shrink_schedule

__all__ = ["CaseResult", "TortureReport", "TortureSpec", "run_campaign"]


@dataclass(frozen=True)
class TortureSpec:
    """One reproducible fuzzing campaign."""

    workload: str
    scheme: str
    seed: int = 0
    cases: int = 50
    events_min: int = 2
    events_max: int = 10
    backend: str = "interpreter"
    #: also run the threaded backend on every schedule and add a
    #: ``backend_equivalence`` violation when fingerprints differ.
    check_backends: bool = True
    region_budget: Optional[int] = None
    max_steps: Optional[int] = None
    shrink: bool = True
    shrink_budget: int = DEFAULT_SHRINK_RUNS

    def to_dict(self) -> dict:
        return {
            "workload": self.workload, "scheme": self.scheme,
            "seed": self.seed, "cases": self.cases,
            "events_min": self.events_min, "events_max": self.events_max,
            "backend": self.backend,
            "check_backends": self.check_backends,
            "region_budget": self.region_budget,
            "max_steps": self.max_steps,
        }


@dataclass
class CaseResult:
    """One fuzz case: its schedule and what the oracles said."""

    index: int
    schedule: TortureSchedule
    outcome: TortureOutcome
    shrunk: Optional[TortureSchedule] = None
    shrink_runs: int = 0
    error: Optional[str] = None  # infrastructure failure, not a finding

    @property
    def violating(self) -> bool:
        return bool(self.outcome.violations)


@dataclass
class TortureReport:
    """Campaign summary: every case, every finding, one fingerprint."""

    spec: TortureSpec
    cases: List[CaseResult] = field(default_factory=list)
    repro_cases: List[ReproCase] = field(default_factory=list)
    fingerprint: str = ""
    errors: int = 0

    @property
    def violations(self) -> int:
        return sum(1 for case in self.cases if case.violating)

    def summary(self) -> dict:
        oracle_counts: Dict[str, int] = {}
        for case in self.cases:
            for oracle in case.outcome.oracles():
                oracle_counts[oracle] = oracle_counts.get(oracle, 0) + 1
        return {
            "spec": self.spec.to_dict(),
            "cases": len(self.cases),
            "violations": self.violations,
            "errors": self.errors,
            "oracles": dict(sorted(oracle_counts.items())),
            "repro_cases": len(self.repro_cases),
            "fingerprint": self.fingerprint,
        }


# ----------------------------------------------------------------------
# Worker side (module-level: must pickle under ``spawn``).
# ----------------------------------------------------------------------
def _run_case(context: Tuple[TortureSpec, TortureTarget],
              schedule: TortureSchedule) -> TortureOutcome:
    """Executor task: one case against the campaign's target.  The
    schedule and the outcome are frozen or plain dataclasses, picklable
    as they are."""
    spec, target = context
    outcome = run_schedule(target, schedule, spec.backend,
                           max_steps=spec.max_steps)
    if spec.check_backends:
        other = "threaded" if spec.backend == "interpreter" \
            else "interpreter"
        mirror = run_schedule(target, schedule, other,
                              max_steps=spec.max_steps)
        if mirror.fingerprint != outcome.fingerprint:
            outcome.violations.append(Violation(
                BACKEND_EQUIV,
                f"{spec.backend} and {other} fingerprints diverge on "
                f"the identical schedule "
                f"({outcome.fingerprint[:12]} != "
                f"{mirror.fingerprint[:12]})"))
    return outcome


# ----------------------------------------------------------------------
# The campaign.
# ----------------------------------------------------------------------
def generate_case(spec: TortureSpec, index: int,
                  profile) -> TortureSchedule:
    """The deterministic schedule for case ``index`` of ``spec``."""
    rng = spawn_rng(spec.seed, "torture", spec.workload, spec.scheme,
                    "case", index)
    return generate_schedule(profile, spec.scheme, rng,
                             events_min=spec.events_min,
                             events_max=spec.events_max)


def run_campaign(spec: TortureSpec, workers: int = 1) -> TortureReport:
    """Run the whole campaign; deterministic for a given spec.

    ``workers > 1`` fans cases out through the resilient pool; the
    report fingerprint is computed over index-ordered outcomes either
    way, so serial and parallel runs of one spec are interchangeable.
    """
    target = build_target(spec.workload, spec.scheme,
                          region_budget=spec.region_budget)
    schedules = [generate_case(spec, index, target.profile)
                 for index in range(spec.cases)]
    executor = ResilientExecutor(_run_case, workers=workers,
                                 context=(spec, target))
    results: List[TaskResult] = executor.run(list(enumerate(schedules)))

    report = TortureReport(spec=spec)
    outcome_digest: List[Tuple[int, str]] = []
    for result in results:
        schedule = schedules[result.index]
        if result.ok:
            case = CaseResult(index=result.index, schedule=schedule,
                              outcome=result.result)
        else:
            report.errors += 1
            case = CaseResult(index=result.index, schedule=schedule,
                              outcome=TortureOutcome(),
                              error=f"{result.error_kind}: "
                                    f"{result.error}")
        report.cases.append(case)
        outcome_digest.append((result.index,
                               content_digest(case.outcome.to_dict())
                               if result.ok else "error"))

    report.fingerprint = content_digest(outcome_digest)

    # Shrinking is a sequential search: do it in the parent, serially,
    # only for the violating cases (usually few).
    if spec.shrink:
        seen: set = set()
        for case in report.cases:
            if not case.violating:
                continue
            first = case.outcome.violations[0]
            shrunk = shrink_schedule(
                target, case.schedule, first.oracle,
                backend=spec.backend, max_steps=spec.max_steps,
                run_budget=spec.shrink_budget)
            case.shrunk = shrunk.schedule
            case.shrink_runs = shrunk.runs
            repro = make_repro_case(spec, case, target)
            if repro.digest not in seen:
                seen.add(repro.digest)
                report.repro_cases.append(repro)
    return report


def make_repro_case(spec: TortureSpec, case: CaseResult,
                    target=None) -> ReproCase:
    """Package a violating case (shrunk if available) as a ReproCase."""
    if target is None:
        target = build_target(spec.workload, spec.scheme,
                              region_budget=spec.region_budget)
    schedule = case.shrunk if case.shrunk is not None else case.schedule
    first = case.outcome.violations[0]
    fingerprints = {
        backend: run_schedule(target, schedule, backend,
                              max_steps=spec.max_steps).fingerprint
        for backend in ("interpreter", "threaded")}
    return ReproCase(
        workload=spec.workload, scheme=spec.scheme,
        events=tuple(schedule.to_dicts()),
        oracle=first.oracle, detail=first.detail,
        region_budget=spec.region_budget, backend=spec.backend,
        fingerprints=fingerprints, seed=spec.seed,
        case_index=case.index)
