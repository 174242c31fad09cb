"""Frequency-sweep attack experiments: Fig. 4, Fig. 5, Fig. 7, Table I.

Each experiment sweeps a single-tone attack across frequencies against a
victim running the JIT-checkpoint (NVP) stack and reports the forward-
progress rate R at each frequency, plus — for Table I — the minimum R, its
frequency, and the peak checkpoint-failure rate F.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..emi import device, device_names
from .campaign import AttackSpec, CampaignRunner, ExperimentSpec, PathSpec
from .common import (
    DPI_TX_DBM,
    REMOTE_TX_DBM,
    VictimConfig,
    frequency_sweep_mhz,
)


@dataclass
class SweepPoint:
    """One frequency's outcome."""

    freq_mhz: float
    progress_rate: float
    failure_rate: float = 0.0


@dataclass
class SweepResult:
    """A whole sweep for one (device, monitor, path) combination."""

    device_name: str
    monitor_kind: str
    injection: str                    # "remote", "P1", "P2"
    points: List[SweepPoint] = field(default_factory=list)

    @property
    def min_rate(self) -> float:
        return min((p.progress_rate for p in self.points), default=1.0)

    @property
    def min_rate_freq_mhz(self) -> float:
        return min(self.points, key=lambda p: p.progress_rate).freq_mhz

    @property
    def max_failure_rate(self) -> float:
        return max((p.failure_rate for p in self.points), default=0.0)

    @property
    def max_failure_freq_mhz(self) -> float:
        return max(self.points, key=lambda p: p.failure_rate).freq_mhz


def sweep_device(device_name: str, monitor_kind: str = "adc",
                 injection: str = "remote",
                 freqs_mhz: Optional[List[float]] = None,
                 tx_dbm: Optional[float] = None,
                 measure_failures: bool = False,
                 duration_s: float = 0.05,
                 workers: int = 1) -> SweepResult:
    """Run one frequency sweep against one device/monitor/path combo.

    Two campaigns through one :class:`CampaignRunner`: the rate sweep
    (one compile, one shared silent baseline), then — when
    ``measure_failures`` is set — a second sweep over just the biting
    frequencies with the victim switched to the weak-outage power setup
    where the V_fail corruption window actually opens (§IV-B2).  The
    runner's compile cache carries the compiled workload across both.
    """
    if injection == "remote":
        path = PathSpec.remote(5.0)
        dbm = REMOTE_TX_DBM if tx_dbm is None else tx_dbm
    else:
        path = PathSpec.dpi(injection)
        dbm = DPI_TX_DBM if tx_dbm is None else tx_dbm

    victim = VictimConfig(device_name=device_name, monitor_kind=monitor_kind,
                          duration_s=duration_s)
    freqs = list(frequency_sweep_mhz() if freqs_mhz is None else freqs_mhz)
    runner = CampaignRunner(workers=workers)
    campaign = runner.run(ExperimentSpec(
        name=f"sweep:{device_name}:{monitor_kind}:{injection}",
        victim=victim,
        attack=AttackSpec.tone(tx_dbm=dbm),
        path=path,
        sweep={"attack.freq_mhz": freqs},
    ))

    failures = {}
    if measure_failures:
        # Only frequencies that bite are worth the longer failure run.
        biting = [o.params["attack.freq_mhz"] for o in campaign.outcomes
                  if o.progress_rate is not None and o.progress_rate < 0.9]
        if biting:
            fail_victim = victim.with_overrides(
                supply_w=None, capacitance=4.7e-6, sleep_min_s=1e-3,
                duration_s=max(duration_s, 0.4),
            )
            fail_campaign = runner.run(ExperimentSpec(
                name=f"sweep-failures:{device_name}",
                victim=fail_victim,
                attack=AttackSpec.tone(tx_dbm=dbm),
                path=path,
                sweep={"attack.freq_mhz": biting},
                baseline=False,
            ))
            failures = {
                o.params["attack.freq_mhz"]: o.result.checkpoint_failure_rate
                for o in fail_campaign.outcomes if o.result is not None
            }

    result = SweepResult(device_name=device_name, monitor_kind=monitor_kind,
                         injection=injection)
    for freq, outcome in zip(freqs, campaign.outcomes):
        rate = outcome.progress_rate if outcome.progress_rate is not None \
            else 0.0
        result.points.append(SweepPoint(
            freq_mhz=freq, progress_rate=rate,
            failure_rate=failures.get(freq, 0.0),
        ))
    return result


@dataclass
class TableOneRow:
    """One device's Table I entry (simulated, with the paper's reference)."""

    device_name: str
    adc_rmin: float
    adc_rmin_freq_mhz: float
    adc_fmax: float
    adc_fmax_freq_mhz: float
    comp_rmin: Optional[float] = None
    comp_rmin_freq_mhz: Optional[float] = None


def table_one(freqs_mhz: Optional[List[float]] = None,
              duration_s: float = 0.04) -> List[TableOneRow]:
    """Reproduce Table I across all nine platforms."""
    rows: List[TableOneRow] = []
    base = frequency_sweep_mhz() if freqs_mhz is None else freqs_mhz
    for name in device_names():
        profile = device(name)
        # Make sure each board's own resonances are sampled even on a
        # coarse grid (the paper sweeps at 1 MHz resolution).
        dev_freqs = sorted(
            set(base)
            | {f / 1e6 for f in profile.adc_curve.resonant_frequencies()}
        )
        adc = sweep_device(name, "adc", freqs_mhz=dev_freqs,
                           measure_failures=True, duration_s=duration_s)
        row = TableOneRow(
            device_name=name,
            adc_rmin=adc.min_rate,
            adc_rmin_freq_mhz=adc.min_rate_freq_mhz,
            adc_fmax=adc.max_failure_rate,
            adc_fmax_freq_mhz=adc.max_failure_freq_mhz,
        )
        if "comp" in profile.monitors and profile.comp_curve is not None:
            comp_freqs = sorted(
                set(base)
                | {f / 1e6 for f in profile.comp_curve.resonant_frequencies()}
            )
            comp = sweep_device(name, "comp", freqs_mhz=comp_freqs,
                                duration_s=duration_s)
            row.comp_rmin = comp.min_rate
            row.comp_rmin_freq_mhz = comp.min_rate_freq_mhz
        rows.append(row)
    return rows
