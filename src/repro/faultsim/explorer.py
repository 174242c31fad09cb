"""Systematic exploration of the injection space, fanned out as a campaign.

ARMORY's lesson is that fault *campaigns* — sweeps over the full
(time × model × target) injection space — are the correctness tool for
fault-tolerant firmware, not single hand-picked glitches.  This module
turns that sweep into campaign data:

* :func:`profile_execution` runs the victim once on stable power and
  records which idempotent region every instruction belongs to, so
  step-triggered faults carry a plan-time region attribution;
* :class:`FaultCampaignSpec` deterministically expands (seeded RNG) into
  a list of :class:`~repro.faultsim.models.FaultSpec` injections and an
  :class:`~repro.eval.campaign.ExperimentSpec` whose sweep axis is the
  fault itself;
* :func:`run_fault_campaign` rides the existing
  :class:`~repro.eval.campaign.CampaignRunner` — worker pool, compile
  cache, baseline dedup — so the golden fault-free reference is computed
  once and shared, then classifies every outcome into a
  :class:`~repro.faultsim.report.VulnerabilityMap`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..eval.campaign import (
    AttackSpec,
    CampaignResult,
    CampaignRunner,
    ExperimentSpec,
    PathSpec,
)
from ..eval.common import VictimConfig
from ..eval.resilient import RetryPolicy
from ..isa.operands import NUM_REGS
from ..seeds import spawn_rng
from .classify import Outcome, classify
from .golden import ExecutionProfile, capture_trace
from .models import (
    CKPT_CORRUPT,
    CKPT_TRUNCATE,
    FAULT_MODELS,
    FaultSimError,
    FaultSpec,
    IMAGE_PREFIX_WORDS,
    INSTR_SKIP,
    REG_FLIP,
    SIGNAL_DROP,
    SIGNAL_SPURIOUS,
    STEP_MODELS,
    image_word_label,
)
from .report import VulnerabilityMap

#: Injections per fault model in a default exhaustive sweep.
DEFAULT_POINTS = 50

#: Bus events kept per injection record (the "what led up to it" excerpt).
EXCERPT_EVENTS = 12


def fault_victim(workload: str = "crc16", scheme: str = "nvp",
                 duration_s: float = 0.25, **overrides) -> VictimConfig:
    """A victim whose window genuinely exercises the checkpoint machinery.

    Same shape as the Fig. 13 detection rig: a small storage capacitor on
    an outage-driven harvester, so JIT checkpoints, shutdowns, and reboots
    recur throughout the window instead of never happening on bench power.
    """
    victim = VictimConfig(
        workload=workload, scheme=scheme, duration_s=duration_s,
        capacitance=22e-6, supply_w=None, outage_period_s=0.05,
        outage_duty=0.4, outage_power_w=8e-3, sleep_min_s=1e-3, quantum=64,
    )
    return victim.with_overrides(**overrides) if overrides else victim


def profile_execution(linked) -> ExecutionProfile:
    """Region occupancy and ISR spans of the victim's golden run."""
    return capture_trace(linked).profile


@dataclass
class FaultCampaignSpec:
    """A whole injection campaign as data: victim + models + density.

    ``points`` injections are drawn per fault model from a seeded RNG, so
    the same spec always expands to the same plan — the determinism the
    serial/parallel bit-identity guarantee rests on.

    ``isr_window`` restricts *step-triggered* injections to instruction
    steps where an interrupt handler is live (reactive workloads only),
    tagged ``isr:<vector>`` — the adversary who times faults to interrupt
    arrival.  Time-triggered models (checkpoint images, monitor signals)
    are not handler-localized and draw as usual.
    """

    victim: VictimConfig = field(default_factory=fault_victim)
    models: Tuple[str, ...] = FAULT_MODELS
    points: int = DEFAULT_POINTS
    seed: int = 0
    name: str = "faultsim"
    isr_window: bool = False

    def __post_init__(self) -> None:
        unknown = [m for m in self.models if m not in FAULT_MODELS]
        if unknown:
            raise FaultSimError(
                f"unknown fault models {unknown} "
                f"(want a subset of {', '.join(FAULT_MODELS)})")
        if self.points < 1:
            raise FaultSimError("points must be >= 1")

    # ------------------------------------------------------------------
    def plan(self, compiled=None) -> List[FaultSpec]:
        """The deterministic injection list (the campaign's sweep axis)."""
        profile: Optional[ExecutionProfile] = None
        if any(model in STEP_MODELS for model in self.models):
            compiled = compiled or self.victim.compile()
            profile = profile_execution(compiled.linked)
            if self.isr_window and not profile.isr_spans:
                raise FaultSimError(
                    f"isr_window campaign on {self.victim.workload!r}, but "
                    f"its profiling run delivered no interrupts")
        duration = self.victim.duration_s
        plan: List[FaultSpec] = []
        seen = set()
        for model in self.models:
            # One spawned child stream per model axis (not a shared
            # stream, not ``seed + i``): model lists of different
            # lengths or orders can never correlate the draws.
            rng = spawn_rng(self.seed, "faultsim", "model", model)
            for index in range(self.points):
                fault = self._draw(model, index, rng, profile, duration)
                # The RNG samples with replacement; a repeated draw is the
                # same injection and would be simulated (and counted) twice.
                if fault not in seen:
                    seen.add(fault)
                    plan.append(fault)
        return plan

    def _draw(self, model: str, index: int, rng: random.Random,
              profile: Optional[ExecutionProfile],
              duration: float) -> FaultSpec:
        if model in STEP_MODELS:
            if self.isr_window:
                step = self._draw_isr_step(rng, profile)
                region = f"isr:{profile.isr_at(step)}"
            else:
                step = rng.randrange(profile.total_steps)
                region = f"region:{profile.region_at(step)}"
            if model == REG_FLIP:
                return FaultSpec(model=model, trigger_step=step,
                                 target=rng.randrange(NUM_REGS),
                                 bit=rng.randrange(32), region=region)
            return FaultSpec(model=model, trigger_step=step, region=region)
        if model == CKPT_CORRUPT:
            target = rng.randrange(IMAGE_PREFIX_WORDS)
            # Even spread over the window so injections land after the
            # first committed checkpoint, where corruption can bite.
            t = duration * (index + 1) / (self.points + 1)
            return FaultSpec(model=model, trigger_time_s=t, target=target,
                             bit=rng.randrange(32),
                             region=f"img:{image_word_label(target)}")
        if model == CKPT_TRUNCATE:
            cut = rng.randrange(IMAGE_PREFIX_WORDS)
            t = duration * (index + 1) / (self.points + 1)
            return FaultSpec(model=model, trigger_time_s=t, target=cut,
                             region="img:partial")
        # Signal faults: anywhere in the window but its very end, where a
        # forged event could no longer change anything observable.
        t = rng.uniform(0.0, duration * 0.9)
        assert model in (SIGNAL_DROP, SIGNAL_SPURIOUS)
        return FaultSpec(model=model, trigger_time_s=t, region="signal")

    def _draw_isr_step(self, rng: random.Random,
                       profile: ExecutionProfile) -> int:
        """One step uniform over the union of ISR activation ranges."""
        flat = rng.randrange(max(1, profile.isr_steps()))
        for _, entry, exit_ in profile.isr_spans:
            width = exit_ - entry
            if flat < width:
                return entry + flat
            flat -= width
        return profile.isr_spans[-1][1]

    def experiment_spec(self,
                        plan: Optional[Sequence[FaultSpec]] = None,
                        compiled=None) -> ExperimentSpec:
        """The campaign grid: one silent-air run per injection, plus the
        shared golden baseline the classifier compares against."""
        plan = list(plan) if plan is not None else self.plan(compiled)
        return ExperimentSpec(
            name=f"{self.name}:{self.victim.workload}:{self.victim.scheme}",
            victim=self.victim,
            attack=AttackSpec.silent(),
            path=PathSpec.remote(),
            sweep={"fault": plan},
            baseline=True,
            telemetry=True,
        )


@dataclass
class FaultCampaign:
    """Everything one injection campaign produced."""

    spec: FaultCampaignSpec
    map: VulnerabilityMap
    campaign: CampaignResult


def classify_outcomes(campaign: CampaignResult
                      ) -> Iterator[Tuple[FaultSpec, Outcome,
                                          Optional[str], List[dict]]]:
    """One map record per injection run of a fault-axis campaign.

    Yields ``(fault, verdict, error, events)`` in grid order: the verdict
    classifies the run against its shared golden baseline (by taxonomy
    tag when the run failed), and ``events`` is the excerpt of the last
    :data:`EXCERPT_EVENTS` bus events that led up to it.
    """
    for outcome in campaign.outcomes:
        if outcome.baseline is None:
            raise FaultSimError(
                f"golden reference failed: "
                f"{campaign.baselines[0].error or 'missing baseline'}")
        events = outcome.result.events[-EXCERPT_EVENTS:] \
            if outcome.result is not None else []
        yield (outcome.params["fault"],
               classify(outcome.result, outcome.baseline, outcome.error,
                        error_kind=outcome.error_kind),
               outcome.error, events)


def run_fault_campaign(spec: FaultCampaignSpec, workers: int = 1,
                       runner: Optional[CampaignRunner] = None,
                       policy: Optional[RetryPolicy] = None
                       ) -> FaultCampaign:
    """Plan, fan out, classify: one vulnerability map per call.

    The compile cache is shared with any caller-provided runner, so a
    multi-scheme study (NVP vs. GECKO over the same workload) compiles
    each scheme exactly once across all of its campaigns.  A ``policy``
    adds per-injection timeouts and retries; injections that still fail
    are classified by their taxonomy tag (a ``timeout`` is a hang, a
    crash a brick) instead of losing the map.
    """
    runner = runner or CampaignRunner(workers=workers, policy=policy)
    plan = spec.plan(runner.compile(spec.victim))
    campaign = runner.run(spec.experiment_spec(plan))

    vmap = VulnerabilityMap(scheme=spec.victim.scheme,
                            workload=spec.victim.workload, seed=spec.seed)
    for fault, verdict, error, events in classify_outcomes(campaign):
        vmap.add(fault, verdict, error=error, events=events)
    return FaultCampaign(spec=spec, map=vmap, campaign=campaign)


def scheme_comparison(workload: str = "crc16",
                      schemes: Sequence[str] = ("nvp", "gecko"),
                      models: Sequence[str] = FAULT_MODELS,
                      points: int = DEFAULT_POINTS, seed: int = 0,
                      duration_s: float = 0.25, workers: int = 1,
                      runner: Optional[CampaignRunner] = None,
                      policy: Optional[RetryPolicy] = None,
                      backend: str = "interpreter"
                      ) -> Dict[str, FaultCampaign]:
    """The §VII-B3 experiment shape: one map per scheme, shared cache."""
    runner = runner or CampaignRunner(workers=workers, policy=policy)
    campaigns: Dict[str, FaultCampaign] = {}
    for scheme in schemes:
        spec = FaultCampaignSpec(
            victim=fault_victim(workload=workload, scheme=scheme,
                                duration_s=duration_s, backend=backend),
            models=tuple(models), points=points, seed=seed,
            name=f"faultsim-{scheme}",
        )
        campaigns[scheme] = run_fault_campaign(spec, runner=runner)
    return campaigns
