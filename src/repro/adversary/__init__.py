"""Adaptive EMI attack synthesis: search the attack space, map the frontier.

The paper (and every harness in :mod:`repro.eval`) replays *hand-picked*
attacks; this subsystem measures each defense against the **worst attack
the adversary model admits**:

* :mod:`~repro.adversary.space` — a typed, bounded
  :class:`AttackSpace` over the adversary's physical knobs (tone,
  power, distance, burst timing), encoded into the existing
  campaign/schedule vocabulary;
* :mod:`~repro.adversary.objectives` — pluggable objectives: damage
  (progress loss, SDC, brick, rollback pressure), detectability, and
  attacker cost;
* :mod:`~repro.adversary.strategies` — seeded grid / random /
  simulated-annealing / successive-halving search;
* :mod:`~repro.adversary.search` — the orchestrator, fanning candidate
  evaluations through the campaign engine with energy-infeasibility
  pruning and deterministic serial == parallel fingerprints;
* :mod:`~repro.adversary.frontier` — Pareto frontiers over
  (damage, detectability, cost) and the robustness-domination order;
* :mod:`~repro.adversary.report` — :class:`RobustnessReport`: NVP vs
  GECKO under their own worst found attacks, JSON round-trippable, with
  found attacks replayable by the existing harnesses.

Quickstart::

    from repro.adversary import compare_defenses

    report = compare_defenses(workload="blink", budget=64, workers=4)
    print(report.render())
    assert report.more_robust("gecko", than="nvp")
"""

from .frontier import FrontierPoint, ParetoFrontier, more_robust
from .isrspace import (
    MAX_ARRIVALS,
    IsrPhaseCandidate,
    IsrPhaseSpace,
    isr_attack_space,
    render_isr_comparison,
    search_isr_defense,
)
from .objectives import (
    OBJECTIVES,
    AttackScores,
    ObjectiveWeights,
    corruption_rate,
    objective_fn,
    progress_loss,
    rollback_pressure,
    score,
    unsimulated,
)
from .report import (
    DefenseReport,
    FoundAttack,
    RobustnessReport,
    compare_defenses,
    replay,
)
from .search import (
    PRUNE_THRESHOLD_V,
    AdversaryResult,
    AdversarySearch,
    Evaluation,
    SearchStats,
    adversary_victim,
)
from .space import (
    DEFAULT_BOUNDS,
    AdversaryError,
    AttackCandidate,
    AttackSpace,
    Bounds,
)
from .strategies import (
    STRATEGIES,
    AnnealStrategy,
    GridStrategy,
    HalvingStrategy,
    RandomStrategy,
    SearchStrategy,
    Trial,
    make_strategy,
)

__all__ = [
    "AdversaryError", "AdversaryResult", "AdversarySearch", "AnnealStrategy",
    "AttackCandidate", "AttackScores", "AttackSpace", "Bounds",
    "DEFAULT_BOUNDS", "DefenseReport", "Evaluation", "FoundAttack",
    "FrontierPoint", "GridStrategy", "HalvingStrategy",
    "IsrPhaseCandidate", "IsrPhaseSpace", "MAX_ARRIVALS", "OBJECTIVES",
    "ObjectiveWeights", "PRUNE_THRESHOLD_V", "ParetoFrontier",
    "RandomStrategy", "RobustnessReport", "STRATEGIES", "SearchStats",
    "SearchStrategy", "Trial", "adversary_victim", "compare_defenses",
    "corruption_rate", "isr_attack_space", "make_strategy", "more_robust",
    "objective_fn", "progress_loss", "render_isr_comparison", "replay",
    "rollback_pressure", "score", "search_isr_defense", "unsimulated",
]
