"""The power subsystem: harvester -> capacitor -> MCU, with thresholds.

Ties together a harvester and a capacitor and owns the voltage thresholds
of Figure 2:

* ``v_on``     — wake/reboot level (capacitor "fully charged" enough);
* ``v_backup`` — JIT checkpoint trigger;
* ``v_off``    — brownout: below this the core loses volatile state.

The spoofable window the paper names ``V_fail`` is ``(v_off, v_backup)``:
a forged wake-up there resumes execution without the energy to complete the
next checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .capacitor import Capacitor
from .harvester import ConstantSupply


@dataclass
class MCUPowerModel:
    """Active-power model of the core (MSP430FR-class defaults)."""

    clock_hz: float = 8e6
    active_power_w: float = 2.2e-3
    sleep_power_w: float = 0.8e-6

    @property
    def energy_per_cycle(self) -> float:
        return self.active_power_w / self.clock_hz

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.clock_hz


@dataclass
class PowerSystem:
    """Energy balance between harvesting and the MCU."""

    capacitor: Capacitor = field(default_factory=Capacitor)
    harvester: object = field(default_factory=ConstantSupply)
    mcu: MCUPowerModel = field(default_factory=MCUPowerModel)
    v_on: float = 3.0
    v_backup: float = 2.6
    v_off: float = 2.2
    #: The backup power domain: once a checkpoint begins, the main supply
    #: path is cut and only this small reserve (board decoupling plus the
    #: NVP backup buffer, sized to barely cover one checkpoint from
    #: ``v_backup``) powers the stores.  A checkpoint started deeper in the
    #: ``V_fail`` window therefore runs out of energy mid-way — the paper's
    #: data-corruption mechanism (§IV-B2).
    backup_capacitance: float = 3.8e-8

    def __post_init__(self) -> None:
        if not self.v_off < self.v_backup < self.v_on <= self.capacitor.v_max:
            raise ValueError(
                "thresholds must satisfy v_off < v_backup < v_on <= v_max"
            )
        # Observability: counters resolved once at attach so the per-call
        # cost is a single identity check when telemetry is off.
        self._m_harvested = None
        self._m_active = None
        self._m_sleep = None

    def attach_obs(self, obs) -> None:
        """Wire energy-ledger counters into an observability bundle."""
        if obs.metrics.enabled:
            self._m_harvested = obs.metrics.counter("energy.harvested_j")
            self._m_active = obs.metrics.counter("energy.consumed_j",
                                                 mode="active")
            self._m_sleep = obs.metrics.counter("energy.consumed_j",
                                                mode="sleep")

    # ------------------------------------------------------------------
    @property
    def voltage(self) -> float:
        return self.capacitor.voltage

    def harvest(self, t: float, dt: float,
                extra_power_w: float = 0.0) -> float:
        """Charge from the harvester (plus e.g. harvested attack RF).

        Capacitor self-discharge is applied over the same interval, so a
        large, leaky buffer genuinely charges slower (Fig. 15).
        """
        power = self.harvester.power_at(t) + extra_power_w
        stored = self.capacitor.charge(power, dt)
        self.capacitor.leak(dt)
        if self._m_harvested is not None:
            self._m_harvested.inc(stored)
        return stored

    def consume_cycles(self, cycles: float) -> float:
        """Drain the energy of ``cycles`` of active execution."""
        # energy_per_cycle, then Capacitor.discharge, in locals.
        mcu, capacitor = self.mcu, self.capacitor
        joules = cycles * (mcu.active_power_w / mcu.clock_hz)
        drained = min(max(0.0, joules), capacitor.energy)
        capacitor.energy -= drained
        if self._m_active is not None:
            self._m_active.inc(drained)
        return drained

    def consume_sleep(self, dt: float) -> float:
        """Drain sleep current over ``dt`` seconds."""
        drained = self.capacitor.discharge(self.mcu.sleep_power_w * dt)
        if self._m_sleep is not None:
            self._m_sleep.inc(drained)
        return drained

    # ------------------------------------------------------------------
    def cycles_until(self, v_floor: float) -> float:
        """Cycles executable before the voltage sinks to ``v_floor``
        (zero harvest — the guaranteed budget)."""
        return self.capacitor.usable_energy(v_floor) / self.mcu.energy_per_cycle

    def guaranteed_cycles(self) -> float:
        """Worst-case cycles per charge: from ``v_backup`` down to ``v_off``.

        This is the buffered-energy bound GECKO sizes regions against
        (§VI-B step 3): even if the checkpoint trigger fires immediately
        after a region starts, the region still completes.
        """
        saved = self.capacitor.energy
        self.capacitor.reset(self.v_backup)
        cycles = self.cycles_until(self.v_off)
        self.capacitor.energy = saved
        return cycles

    def checkpoint_budget_cycles(self) -> float:
        """Cycles the backup domain can power a checkpoint started now."""
        v = self.voltage
        if v <= self.v_off:
            return 0.0
        reserve = 0.5 * self.backup_capacitance * (v * v - self.v_off * self.v_off)
        return reserve / self.mcu.energy_per_cycle

    @property
    def in_fail_window(self) -> bool:
        """Whether the voltage sits in the spoofable ``V_fail`` window."""
        return self.v_off < self.voltage < self.v_backup
