"""Experiment harnesses regenerating every table and figure of the paper.

Sweeps run through the declarative campaign engine
(:mod:`repro.eval.campaign`): an :class:`ExperimentSpec` expands into a
grid, a :class:`CampaignRunner` executes it (optionally across worker
processes) with compile caching and baseline deduplication, and a
:class:`CampaignResult` accounts for every run.
"""

from .campaign import (
    AttackSpec,
    CampaignError,
    CampaignResult,
    CampaignRunner,
    CampaignStats,
    ExperimentSpec,
    PathSpec,
    RunOutcome,
    RunSpec,
    run_campaign,
)
from .capacitor_sweep import CAPACITOR_SIZES_F, CapacitorPoint, figure15
from .resilient import (
    BUDGET_EXCEEDED,
    ChaosSpec,
    ERROR_KINDS,
    INVARIANT_VIOLATION,
    ResilienceError,
    ResilientExecutor,
    RETRIED_OK,
    RetryPolicy,
    SIM_ERROR,
    TIMEOUT,
    WORKER_CRASH,
)
from .common import (
    VictimConfig,
    forward_progress,
    frequency_sweep_mhz,
    fmt_pct,
    remote_tone,
    run_attack,
)
from .comparison import CountermeasureEntry, TABLE_II, gecko_is_unique, table2
from .detection import (
    AttackThroughput,
    DetectionRun,
    SCENARIOS,
    detection_spec,
    figure13,
    run_scenario,
    throughput_under_attack,
)
from .distance import DistancePoint, distance_grid, max_effective_distance
from .overhead import (
    HarvestingRow,
    OverheadRow,
    PruningRow,
    SCHEMES,
    StaticsRow,
    compile_all,
    figure11,
    figure12,
    figure14,
    geomean,
    table3,
)
from .realtime import DEFAULT_SEGMENTS, Segment, realtime_control
from .sweeps import SweepPoint, SweepResult, TableOneRow, sweep_device, table_one

__all__ = [
    "AttackSpec", "AttackThroughput", "BUDGET_EXCEEDED", "CAPACITOR_SIZES_F",
    "CampaignError", "CampaignResult", "CampaignRunner", "CampaignStats",
    "CapacitorPoint", "ChaosSpec", "CountermeasureEntry", "DEFAULT_SEGMENTS",
    "DetectionRun", "DistancePoint", "ERROR_KINDS", "ExperimentSpec",
    "INVARIANT_VIOLATION",
    "HarvestingRow", "OverheadRow", "PathSpec", "PruningRow", "RETRIED_OK",
    "ResilienceError", "ResilientExecutor", "RetryPolicy",
    "RunOutcome", "RunSpec", "SCENARIOS", "SCHEMES", "SIM_ERROR", "Segment",
    "StaticsRow", "SweepPoint", "SweepResult", "TABLE_II", "TIMEOUT",
    "TableOneRow", "VictimConfig", "WORKER_CRASH", "compile_all",
    "detection_spec", "distance_grid", "figure11", "figure12", "figure13",
    "figure14", "figure15", "fmt_pct", "forward_progress",
    "frequency_sweep_mhz", "gecko_is_unique", "geomean",
    "max_effective_distance", "realtime_control", "remote_tone",
    "run_attack", "run_campaign", "run_scenario", "sweep_device", "table2",
    "table3", "table_one", "throughput_under_attack",
]
