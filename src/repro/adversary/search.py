"""The adaptive adversary: strategy-driven search fanned out as campaigns.

:class:`AdversarySearch` closes the loop between a seeded
:class:`~repro.adversary.strategies.SearchStrategy` and the campaign
engine: every ``ask`` batch becomes one
:class:`~repro.eval.campaign.ExperimentSpec` whose paired ``"*"`` axis
carries (attack, path, duration) per candidate, executed by a shared
:class:`~repro.eval.campaign.CampaignRunner` — so candidate evaluations
reuse the compile cache and worker pool, and a serial search and a pooled
search of the same seed produce bit-identical evaluations (asserted via
:meth:`AdversaryResult.fingerprint`).

Candidates whose tone cannot physically couple into the victim's monitor
(induced amplitude below :data:`PRUNE_THRESHOLD_V` at their frequency,
power, and distance) are *pruned*: scored as zero-damage without burning
a simulation, the ARMORY lesson that exhaustive campaigns only scale when
the infeasible bulk is cut early.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..eval.campaign import (
    AttackSpec,
    CampaignRunner,
    ExperimentSpec,
    PathSpec,
)
from ..eval.resilient import RetryPolicy
from ..eval.common import VictimConfig, fault_victim
from ..obs import ADVERSARY_CANDIDATE, ADVERSARY_ROUND, Observability
from ..runtime import SimResult
from ..store.digest import content_digest
from .frontier import FrontierPoint, ParetoFrontier
from .objectives import (
    AttackScores,
    ObjectiveWeights,
    objective_fn,
    score,
    unsimulated,
)
from .space import AdversaryError, AttackCandidate, AttackSpace
from .strategies import SearchStrategy, Trial, make_strategy

#: Induced-amplitude floor below which a tone cannot flip any monitor
#: reading (the ADC quantization step is ~3 mV); such candidates are
#: pruned without simulation.
PRUNE_THRESHOLD_V = 0.005

#: Full-fidelity evaluations feed the frontier; halving rungs do not.
FULL_FIDELITY = 1.0 - 1e-9


def adversary_victim(workload: str = "blink", scheme: str = "nvp",
                     duration_s: float = 0.05,
                     **overrides) -> VictimConfig:
    """The Fig. 13 detection rig as the search target: an outage-driven
    harvester and a small storage capacitor, so checkpoints, shutdowns,
    and (for GECKO) the detection protocol run throughout the window."""
    return fault_victim(workload, scheme, duration_s,
                        **{"region_budget": 20_000, **overrides})


@dataclass
class Evaluation:
    """One scored candidate: what was tried, at what fidelity, and how
    it went.  ``pruned`` evaluations never reached the simulator;
    ``failed`` ones reached it but died there (timeout, crashed worker,
    or simulation error after the runner's retries) and are scored as
    zero-damage so the search continues on the surviving batch."""

    index: int
    round: int
    candidate: AttackCandidate
    fidelity: float
    scores: AttackScores
    objective: float
    pruned: bool = False
    failed: bool = False

    def to_dict(self) -> dict:
        return {"index": self.index, "round": self.round,
                "candidate": self.candidate.to_dict(),
                "fidelity": self.fidelity,
                "scores": self.scores.to_dict(),
                "objective": self.objective,
                "pruned": self.pruned,
                "failed": self.failed}

    @classmethod
    def from_dict(cls, data: dict) -> "Evaluation":
        return cls(index=data["index"], round=data["round"],
                   candidate=AttackCandidate.from_dict(data["candidate"]),
                   fidelity=data["fidelity"],
                   scores=AttackScores.from_dict(data["scores"]),
                   objective=data["objective"],
                   pruned=data["pruned"],
                   failed=data.get("failed", False))


@dataclass
class SearchStats:
    """Cost accounting for one search."""

    evaluations: int = 0
    simulations: int = 0
    pruned: int = 0
    failures: int = 0
    rounds: int = 0
    workers: int = 1
    wall_time_s: float = 0.0


@dataclass
class AdversaryResult:
    """Everything one search against one defense produced."""

    workload: str
    scheme: str
    strategy: str
    objective: str
    budget: int
    seed: int
    duration_s: float
    evaluations: List[Evaluation] = field(default_factory=list)
    frontier: ParetoFrontier = field(default_factory=ParetoFrontier)
    stats: SearchStats = field(default_factory=SearchStats)
    golden: Optional[SimResult] = None

    def worst_case(self) -> Optional[Evaluation]:
        """The frontier's maximum-damage attack, as a full evaluation."""
        point = self.frontier.worst_case()
        return self.evaluations[point.index] if point is not None else None

    def best_damage(self) -> float:
        point = self.frontier.worst_case()
        return point.damage if point is not None else 0.0

    def fingerprint(self) -> str:
        """Content digest of evaluations + frontier — equal between
        serial and pooled runs of the same seed."""
        return content_digest({
            "evaluations": [e.to_dict() for e in self.evaluations],
            "frontier": self.frontier.to_dict(),
        })


class AdversarySearch:
    """Search one defense for its worst admissible EMI attack."""

    def __init__(self, victim: VictimConfig,
                 space: Optional[AttackSpace] = None,
                 strategy: str = "anneal",
                 objective: str = "damage",
                 budget: int = 32,
                 seed: int = 0,
                 batch: int = 8,
                 weights: Optional[ObjectiveWeights] = None,
                 workers: int = 1,
                 runner: Optional[CampaignRunner] = None,
                 policy: Optional[RetryPolicy] = None,
                 obs: Optional[Observability] = None,
                 prune_threshold_v: float = PRUNE_THRESHOLD_V) -> None:
        self.victim = victim
        self.space = space if space is not None else AttackSpace()
        self.strategy_name = strategy
        self.objective_name = objective
        self.objective = objective_fn(objective)
        self.budget = budget
        self.seed = seed
        self.batch = batch
        self.weights = weights or ObjectiveWeights()
        self.runner = runner or CampaignRunner(workers=workers,
                                               policy=policy)
        self.obs = obs
        self.prune_threshold_v = prune_threshold_v
        self._curve = victim.profile().curve_for(victim.monitor_kind)

    # ------------------------------------------------------------------
    def feasible(self, candidate: AttackCandidate) -> bool:
        """Can this tone induce anything the monitor could even quantize?"""
        if not candidate.windows():
            return False
        source = candidate.source()
        received = candidate.path_spec().build().received_power_w(source)
        amplitude = self._curve.induced_amplitude(source.frequency_hz,
                                                  received)
        return amplitude >= self.prune_threshold_v

    def _golden(self) -> SimResult:
        spec = ExperimentSpec(
            name=f"adversary-golden:{self.victim.workload}:"
                 f"{self.victim.scheme}",
            victim=self.victim, attack=AttackSpec.silent(),
            path=PathSpec.remote(), baseline=False,
        )
        outcome = self.runner.run(spec).outcomes[0]
        if outcome.error or outcome.result is None:
            raise AdversaryError(
                f"golden reference run failed: {outcome.error}")
        return outcome.result

    def _evaluate_batch(self, trials: Sequence[Trial],
                        round_index: int) -> List[Optional[SimResult]]:
        """Simulate one ask-batch; a candidate whose run still fails after
        the runner's retries yields ``None`` rather than aborting the
        search — partial batches keep the remaining candidates."""
        points = [{
            "attack": trial.candidate.attack_spec(),
            "path": trial.candidate.path_spec(),
            "duration_s": self.victim.duration_s * trial.fidelity,
        } for trial in trials]
        spec = ExperimentSpec(
            name=f"adversary:{self.victim.workload}:{self.victim.scheme}:"
                 f"r{round_index}",
            victim=self.victim, baseline=False, sweep={"*": points},
        )
        results: List[Optional[SimResult]] = []
        for outcome in self.runner.run(spec).outcomes:
            if outcome.error or outcome.result is None:
                results.append(None)
            else:
                results.append(outcome.result)
        return results

    def _emit(self, kind: str, detail: str, t: float) -> None:
        if self.obs is not None:
            self.obs.emit(kind, detail, t=t)

    # ------------------------------------------------------------------
    def run(self) -> AdversaryResult:
        start = time.perf_counter()
        strategy: SearchStrategy = make_strategy(
            self.strategy_name, self.space, self.budget,
            seed=self.seed, batch=self.batch)
        golden = self._golden()
        result = AdversaryResult(
            workload=self.victim.workload, scheme=self.victim.scheme,
            strategy=self.strategy_name, objective=self.objective_name,
            budget=self.budget, seed=self.seed,
            duration_s=self.victim.duration_s, golden=golden,
            stats=SearchStats(workers=self.runner.workers),
        )
        stats = result.stats
        while True:
            trials = strategy.ask()
            if not trials:
                break
            feasible = [t for t in trials if self.feasible(t.candidate)]
            sims = self._evaluate_batch(feasible, stats.rounds) \
                if feasible else []
            sim_results = dict(zip((id(t) for t in feasible), sims))
            values: List[float] = []
            for trial in trials:
                index = len(result.evaluations)
                pruned = id(trial) not in sim_results
                failed = (not pruned) and sim_results[id(trial)] is None
                if pruned or failed:
                    scores = unsimulated(trial.candidate,
                                         self.victim.duration_s,
                                         trial.fidelity)
                    if failed:
                        stats.failures += 1
                    else:
                        stats.pruned += 1
                else:
                    scores = score(trial.candidate,
                                   sim_results[id(trial)], golden,
                                   self.victim.duration_s, trial.fidelity,
                                   self.weights)
                    stats.simulations += 1
                value = self.objective(scores, self.weights)
                values.append(value)
                evaluation = Evaluation(
                    index=index, round=stats.rounds,
                    candidate=trial.candidate, fidelity=trial.fidelity,
                    scores=scores, objective=value, pruned=pruned,
                    failed=failed)
                result.evaluations.append(evaluation)
                stats.evaluations += 1
                if not pruned and not failed \
                        and trial.fidelity >= FULL_FIDELITY:
                    result.frontier.add(FrontierPoint(
                        damage=scores.damage,
                        detectability=float(scores.detections),
                        cost_j=scores.cost_j, index=index))
                self._emit(
                    ADVERSARY_CANDIDATE,
                    f"{self.victim.scheme} #{index} "
                    f"damage={scores.damage:.3f} det={scores.detections} "
                    f"cost={scores.cost_j:.3f}J"
                    f"{' pruned' if pruned else ''}"
                    f"{' failed' if failed else ''}",
                    t=float(index))
            strategy.tell(trials, values)
            stats.rounds += 1
            self._emit(
                ADVERSARY_ROUND,
                f"{self.victim.scheme} round {stats.rounds} "
                f"best={result.best_damage():.3f}",
                t=float(stats.rounds))
        stats.wall_time_s = time.perf_counter() - start
        return result
