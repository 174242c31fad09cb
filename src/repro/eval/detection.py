"""Attack detection and recovery over time: Fig. 13 and §VII-B3.

Six attack scenarios (a)-(f) replay EMI bursts at chosen times against
victims running NVP, Ratchet, or GECKO in an energy-harvesting environment
(periodic outages like the paper's 1 Hz power generator, time-compressed).
The output is a completion-count timeline per scheme — the paper's Fig. 13
series — plus the §VII-B3 summary: throughput under attack relative to an
unattacked NVP baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..emi.devices import EVALUATION_BOARD
from ..runtime import SimResult
from .campaign import AttackSpec, CampaignRunner, ExperimentSpec, PathSpec
from .common import REMOTE_TX_DBM, fault_victim

#: The paper's six scenarios, as attack windows in fractions of the run
#: (Fig. 13: attacks at minute marks of a 50-minute window).
SCENARIOS: Dict[str, Tuple[Tuple[float, float], ...]] = {
    "a-none": (),
    "b-late": ((0.80, 0.90),),
    "c-mid": ((0.60, 0.70),),
    "d-two": ((0.40, 0.50), (0.80, 0.90)),
    "e-three": ((0.30, 0.40), (0.60, 0.68), (0.70, 0.78)),
    "f-spread": ((0.20, 0.30), (0.50, 0.60), (0.80, 0.90)),
}

DETECTION_SCHEMES = ("nvp", "ratchet", "gecko")


@dataclass
class DetectionRun:
    """One (scenario, scheme) outcome."""

    scenario: str
    scheme: str
    result: SimResult
    window_s: float

    @property
    def timeline(self) -> List[Tuple[float, int]]:
        return self.result.timeline

    @property
    def throughput(self) -> float:
        return self.result.throughput_per_minute(self.window_s)


def detection_spec(scenarios: Sequence[object],
                   schemes: Sequence[str],
                   workload: str = "blink",
                   total_s: float = 0.6,
                   outage_period_s: float = 0.05,
                   outage_duty: float = 0.4,
                   capacitance_f: float = 22e-6,
                   device_name: str = EVALUATION_BOARD,
                   region_budget: int = 20_000) -> ExperimentSpec:
    """The Fig. 13 grid as an :class:`ExperimentSpec`.

    ``scenarios`` entries are :data:`SCENARIOS` names or raw window tuples
    ((start, end) fractions of the run).  The harvester produces genuine
    periodic outages (the paper's 1 Hz power generator, time-compressed) so
    reboots — and with them GECKO's detection and re-enable protocol — run
    continuously.
    """
    windows = [SCENARIOS[s] if isinstance(s, str) else tuple(s)
               for s in scenarios]
    victim = fault_victim(
        workload, schemes[0], total_s, device_name=device_name,
        capacitance=capacitance_f, outage_period_s=outage_period_s,
        outage_duty=outage_duty, region_budget=region_budget,
    )
    return ExperimentSpec(
        name="fig13-detection",
        victim=victim,
        attack=AttackSpec.bursts((), tx_dbm=REMOTE_TX_DBM),  # peak freq
        path=PathSpec.remote(5.0),
        sim_overrides={"record_timeline": True,
                       "timeline_dt_s": total_s / 30.0},
        sweep={"attack.windows": windows, "victim.scheme": list(schemes)},
        baseline=False,
    )


def figure13(scenarios: Optional[Sequence[str]] = None,
             schemes: Sequence[str] = DETECTION_SCHEMES,
             workers: int = 1,
             **kwargs) -> List[DetectionRun]:
    """All scenario x scheme runs for the Fig. 13 panels, as one campaign
    (each scheme compiles once, shared across scenarios)."""
    names = list(scenarios or SCENARIOS)
    schemes = list(schemes)
    total_s = kwargs.get("total_s", 0.6)
    spec = detection_spec(names, schemes, **kwargs)
    campaign = CampaignRunner(workers=workers).run(spec)
    return [
        DetectionRun(
            scenario=names[outcome.index // len(schemes)],
            scheme=schemes[outcome.index % len(schemes)],
            result=outcome.result,
            window_s=total_s,
        )
        for outcome in campaign.outcomes
    ]


def run_scenario(scenario: str, scheme: str, **kwargs) -> DetectionRun:
    """Simulate one scheme through one attack scenario (single-point
    campaign; see :func:`detection_spec` for the knobs)."""
    return figure13(scenarios=[scenario], schemes=[scheme], **kwargs)[0]


@dataclass
class AttackThroughput:
    """§VII-B3 summary: sustained-attack throughput vs unattacked NVP."""

    scheme: str
    completions: int
    baseline_completions: int
    attacks_detected: int
    final_state: str

    @property
    def relative(self) -> float:
        if not self.baseline_completions:
            return 0.0
        return self.completions / self.baseline_completions


def throughput_under_attack(workload: str = "blink",
                            total_s: float = 0.5,
                            schemes: Sequence[str] = DETECTION_SCHEMES,
                            workers: int = 1,
                            **kwargs) -> List[AttackThroughput]:
    """Sustained attack from t=0 (the paper's 41%-of-baseline experiment).

    Attack windows are data now, so the sustained scenario is just the raw
    window ``((0.0, 1.0),)`` — no scenario-table mutation required.
    """
    baseline = run_scenario("a-none", "nvp", workload=workload,
                            total_s=total_s, **kwargs)
    sustained = figure13(scenarios=[((0.0, 1.0),)], schemes=list(schemes),
                         workload=workload, total_s=total_s,
                         workers=workers, **kwargs)
    return [
        AttackThroughput(
            scheme=run.scheme,
            completions=run.result.completions,
            baseline_completions=baseline.result.completions,
            attacks_detected=run.result.attacks_detected,
            final_state=run.result.final_state,
        )
        for run in sustained
    ]
