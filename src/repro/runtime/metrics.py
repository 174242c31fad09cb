"""Evaluation metrics matching the paper's definitions.

* Forward-progress rate (§IV-A2): ``R = T_forward / T_guarantee`` — the
  attacked run's useful execution relative to what the same system sustains
  unattacked over the same window.
* Checkpoint-failure rate (§IV-B2): ``F = N_fail / N_checkpoints``, the
  :attr:`SimResult.checkpoint_failure_rate` property.
* Throughput (§VII-B3): application completions per minute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .simulator import SimResult


def forward_progress_rate(attacked: SimResult, baseline: SimResult) -> float:
    """R = attacked useful cycles / baseline useful cycles (0..~1)."""
    if baseline.executed_cycles <= 0:
        return 0.0
    return min(1.0, attacked.executed_cycles / baseline.executed_cycles)


def relative_throughput(result: SimResult, baseline: SimResult) -> float:
    """Completions relative to an unattacked baseline run."""
    if baseline.completions == 0:
        return 0.0
    return result.completions / baseline.completions


@dataclass
class OutputCheck:
    """Integrity verdict of committed outputs against a golden run."""

    runs: int
    corrupted: int

    @property
    def corruption_rate(self) -> float:
        return self.corrupted / self.runs if self.runs else 0.0

    @property
    def clean(self) -> bool:
        return self.corrupted == 0


def check_outputs(result: SimResult, golden: Sequence[int]) -> OutputCheck:
    """Compare each completed run's committed output against the golden one.

    Partial prefixes are not accepted: every completion must reproduce the
    failure-free output exactly (crash-consistency invariant 1).
    """
    golden_list = list(golden)
    corrupted = sum(
        1 for outputs in result.committed_outputs if outputs != golden_list
    )
    return OutputCheck(runs=len(result.committed_outputs), corrupted=corrupted)


def progress_timeline(result: SimResult,
                      bucket_s: float = 1.0) -> List[float]:
    """Completions per bucket over the run (the Fig. 13 series)."""
    if result.duration_s <= 0:
        return []
    buckets = int(result.duration_s / bucket_s) + 1
    series = [0.0] * buckets
    for t in result.completion_times:
        index = min(buckets - 1, int(t / bucket_s))
        series[index] += 1
    return series
