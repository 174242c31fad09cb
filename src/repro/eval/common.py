"""Shared experiment configuration for the paper's evaluation (§IV, §VII).

Every benchmark regenerating a table or figure builds on these helpers so
that the attack rig (35 dBm source at 5 m — Fig. 6), the DPI rig (20 dBm
wired — Fig. 3), and the victim configuration stay consistent across
experiments, the way a single lab setup would.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core import CompiledProgram, compile_scheme
from ..emi import AttackSchedule, DPIPath, EMISource, RemotePath, DeviceProfile, device
from ..emi.devices import EVALUATION_BOARD
from ..energy import Capacitor, ConstantSupply, PowerSystem, SquareWaveHarvester
from ..runtime import SimConfig, SimResult, forward_progress_rate
from ..workloads import source

#: The paper's remote-attack rig: up to 35 dBm, 5 m, directional antenna.
REMOTE_TX_DBM = 35.0
REMOTE_DISTANCE_M = 5.0

#: The paper's DPI rig: 20 dBm injected through the coupling network.
DPI_TX_DBM = 20.0

#: Default victim application for attack-surface experiments: the sensing
#: loop every intermittent deployment runs (§III, "Applications").
VICTIM_WORKLOAD = "blink"


@dataclass
class VictimConfig:
    """One victim device + power setup, reusable across attack runs.

    The config is plain data: picklable (campaign workers rebuild their own
    simulators from it), replaceable via :meth:`with_overrides`, and keyed
    for the campaign engine's compile/baseline caches via :meth:`cache_key`.
    """

    device_name: str = EVALUATION_BOARD
    monitor_kind: str = "adc"
    workload: str = VICTIM_WORKLOAD
    scheme: str = "nvp"
    capacitance: float = 1e-3
    supply_w: Optional[float] = 0.5        # None -> use outage harvester
    outage_period_s: float = 0.16          # used when supply_w is None
    outage_duty: float = 0.4
    outage_power_w: float = 5e-3
    duration_s: float = 0.08
    sleep_min_s: float = 2e-3
    quantum: int = 64
    region_budget: Optional[int] = None
    #: Optional power-rail overrides (None -> PowerSystem/Capacitor defaults).
    v_on: Optional[float] = None
    v_backup: Optional[float] = None
    v_off: Optional[float] = None
    cap_v_max: float = 3.3
    cap_leakage_a_per_f: Optional[float] = None
    cap_v_init: Optional[float] = None     # None -> capacitor starts full
    #: Inline MiniC source; overrides the bundled ``workload`` lookup so the
    #: CLI can sweep user programs.
    workload_source: Optional[str] = None
    #: Execution backend advancing the machine ("interpreter" | "threaded").
    #: Part of :meth:`cache_key` (baselines are per-backend) but not
    #: :meth:`compile_key` — both backends share one compiled artifact.
    backend: str = "interpreter"

    # -- declarative helpers -------------------------------------------
    def with_overrides(self, **kw) -> "VictimConfig":
        """A copy with the given fields replaced (dataclass ``replace``)."""
        return replace(self, **kw)

    def cache_key(self) -> Tuple:
        """Stable, hashable identity over every field (baseline cache key)."""
        return tuple((f.name, getattr(self, f.name)) for f in fields(self))

    def compile_key(self) -> Tuple:
        """Identity of the compiled artifact: (program, scheme, budget).

        Two victims differing only in power/monitor setup share one compile.
        """
        if self.workload_source is not None:
            program = ("inline",
                       hashlib.sha256(self.workload_source.encode()).hexdigest())
        else:
            program = self.workload
        budget = self.region_budget if self.scheme.startswith("gecko") else None
        return (program, self.scheme, budget)

    # -- factories ------------------------------------------------------
    def compile(self) -> CompiledProgram:
        kwargs = {}
        if self.region_budget is not None and self.scheme.startswith("gecko"):
            kwargs["region_budget"] = self.region_budget
        text = self.workload_source if self.workload_source is not None \
            else source(self.workload)
        return compile_scheme(text, self.scheme, **kwargs)

    def power_system(self) -> PowerSystem:
        if self.supply_w is not None:
            harvester = ConstantSupply(self.supply_w)
        else:
            harvester = SquareWaveHarvester(
                on_power_w=self.outage_power_w,
                period_s=self.outage_period_s,
                duty=self.outage_duty,
            )
        cap_kwargs = {"v_max": self.cap_v_max}
        if self.cap_leakage_a_per_f is not None:
            cap_kwargs["leakage_a_per_f"] = self.cap_leakage_a_per_f
        capacitor = Capacitor(self.capacitance, **cap_kwargs)
        if self.cap_v_init is not None:
            capacitor.reset(self.cap_v_init)
        thresholds = {name: getattr(self, name)
                      for name in ("v_on", "v_backup", "v_off")
                      if getattr(self, name) is not None}
        return PowerSystem(capacitor=capacitor, harvester=harvester,
                           **thresholds)

    def sim_config(self, **overrides) -> SimConfig:
        config = SimConfig(quantum=self.quantum,
                           sleep_min_s=self.sleep_min_s)
        return replace(config, **overrides) if overrides else config

    def profile(self) -> DeviceProfile:
        return device(self.device_name)


def fault_victim(workload: str = "crc16", scheme: str = "nvp",
                 duration_s: float = 0.25, **overrides) -> VictimConfig:
    """A victim whose window genuinely exercises the checkpoint machinery.

    The Fig. 13 detection rig: a small storage capacitor on an
    outage-driven harvester, so JIT checkpoints, shutdowns, and reboots
    recur throughout the window instead of never happening on bench power.
    """
    victim = VictimConfig(
        workload=workload, scheme=scheme, duration_s=duration_s,
        capacitance=22e-6, supply_w=None, outage_period_s=0.05,
        outage_duty=0.4, outage_power_w=8e-3, sleep_min_s=1e-3, quantum=64,
    )
    return victim.with_overrides(**overrides) if overrides else victim


def run_attack(victim: VictimConfig,
               attack: Optional[AttackSchedule] = None,
               path=None,
               compiled: Optional[CompiledProgram] = None,
               duration_s: Optional[float] = None,
               config: Optional[SimConfig] = None) -> SimResult:
    """Simulate one victim under one attack schedule.

    Compatibility wrapper: one grid point through the campaign engine
    (:mod:`repro.eval.campaign`), which owns the simulator construction.
    """
    from .campaign import CampaignRunner, ExperimentSpec  # circular import

    import dataclasses
    cache = {victim.compile_key(): compiled} if compiled is not None else None
    spec = ExperimentSpec(
        name="run_attack",
        victim=victim,
        attack=attack if attack is not None else AttackSchedule.silent(),
        path=path if path is not None
        else RemotePath(distance_m=REMOTE_DISTANCE_M),
        duration_s=duration_s,
        sim_overrides=dataclasses.asdict(config) if config is not None else {},
        baseline=False,
    )
    runner = CampaignRunner(workers=1, compile_cache=cache, reraise=True)
    return runner.run(spec).outcomes[0].result


def remote_tone(freq_hz: float, dbm: float = REMOTE_TX_DBM) -> AttackSchedule:
    """A continuous remote tone (the sweep experiments)."""
    return AttackSchedule.always(EMISource(freq_hz, dbm))


def forward_progress(victim: VictimConfig, attack: AttackSchedule,
                     path=None, compiled: Optional[CompiledProgram] = None,
                     baseline: Optional[SimResult] = None):
    """(rate R, attacked result, baseline result) for one attack setup.

    Compatibility wrapper over two single-point campaigns sharing one
    compiled artifact; sweeps should use :class:`~repro.eval.campaign.
    CampaignRunner`, which also deduplicates the silent baseline.
    """
    compiled = compiled or victim.compile()
    if baseline is None:
        baseline = run_attack(victim, AttackSchedule.silent(), path=path,
                              compiled=compiled)
    attacked = run_attack(victim, attack, path=path, compiled=compiled)
    return forward_progress_rate(attacked, baseline), attacked, baseline


def frequency_sweep_mhz(start: float = 5, stop: float = 60, step: float = 2,
                        sparse_to: float = 500,
                        sparse_step: float = 50) -> List[float]:
    """Sweep frequencies (MHz): dense over the susceptible band, sparse above.

    The paper sweeps 5-500 MHz at 1 MHz (§IV-B1); every observed effect sits
    below ~50 MHz, so the default grid keeps full resolution there and
    samples the quiet region above.
    """
    if step <= 0 or sparse_step <= 0:
        raise ValueError("frequency sweep steps must be positive")
    freqs: List[float] = []
    f = start
    while f <= stop:
        freqs.append(f)
        f += step
    f = stop + sparse_step
    while f <= sparse_to:
        freqs.append(f)
        f += sparse_step
    return freqs


def fmt_pct(value: float) -> str:
    """Format a rate like the paper's tables (percent, adaptive precision)."""
    pct = value * 100.0
    if pct != 0 and pct < 0.1:
        return f"{pct:.0e}%"
    return f"{pct:.1f}%"
