"""Capacitor energy buffer (E = 1/2 C V^2).

The capacitor is the energy store of Figure 1: harvested power charges it,
the MCU drains it, and the voltage monitor watches its voltage.  Charging
toward a source ceiling slows as the voltage approaches the ceiling
(matching the exponential tail that makes large capacitors slow to refill —
the effect behind Fig. 15).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class Capacitor:
    """An ideal capacitor tracked by stored energy.

    Attributes:
        capacitance: farads (the paper sweeps 1 mF .. 10 mF).
        v_max: ceiling voltage (harvester regulator output).
        voltage: current voltage; set via :meth:`reset` or charging.
    """

    capacitance: float = 1e-3
    v_max: float = 3.3
    #: Self-discharge, amps per farad (supercaps leak a few uA per mF).
    #: Leakage scales with capacitance, which is the dominant reason the
    #: paper's Fig. 15 sees total time grow with buffer size even though
    #: every size stores the same usable energy.
    leakage_a_per_f: float = 0.02
    energy: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.capacitance <= 0:
            raise ValueError("capacitance must be positive")
        if self.energy == 0.0:
            self.energy = self.energy_at(self.v_max)

    # ------------------------------------------------------------------
    def energy_at(self, voltage: float) -> float:
        """Stored energy at a given voltage."""
        return 0.5 * self.capacitance * voltage * voltage

    @property
    def voltage(self) -> float:
        return math.sqrt(max(0.0, 2.0 * self.energy / self.capacitance))

    def reset(self, voltage: float) -> None:
        """Set the capacitor to an exact voltage."""
        self.energy = self.energy_at(min(voltage, self.v_max))

    # ------------------------------------------------------------------
    def charge(self, power_w: float, dt: float) -> float:
        """Add harvested energy over ``dt`` seconds; returns joules stored.

        Charging tapers near ``v_max``: the usable charging power scales
        with the remaining voltage headroom, approximating the RC tail.
        """
        if power_w <= 0 or dt <= 0:
            return 0.0
        # voltage and energy_at(v_max), in locals (the per-slice path).
        energy, capacitance, v_max = self.energy, self.capacitance, self.v_max
        voltage = math.sqrt(max(0.0, 2.0 * energy / capacitance))
        headroom = max(0.0, 1.0 - voltage / v_max)
        taper = min(1.0, 4.0 * headroom)  # full-rate until ~75% of v_max
        delta = power_w * dt * taper
        ceiling = 0.5 * capacitance * v_max * v_max
        delta = min(delta, ceiling - energy)
        self.energy = energy + delta
        return delta

    def discharge(self, joules: float) -> float:
        """Drain energy; returns the amount actually drawn."""
        drawn = min(max(0.0, joules), self.energy)
        self.energy -= drawn
        return drawn

    @property
    def leakage_power_w(self) -> float:
        """Self-discharge power at the current voltage."""
        return self.leakage_a_per_f * self.capacitance * self.voltage

    def leak(self, dt: float) -> float:
        """Apply self-discharge over ``dt`` seconds; returns joules lost."""
        # leakage_power_w * dt, then discharge, in locals.
        energy, capacitance = self.energy, self.capacitance
        voltage = math.sqrt(max(0.0, 2.0 * energy / capacitance))
        joules = self.leakage_a_per_f * capacitance * voltage * dt
        drawn = min(max(0.0, joules), energy)
        self.energy = energy - drawn
        return drawn

    def usable_energy(self, v_floor: float) -> float:
        """Energy available before the voltage sinks to ``v_floor``."""
        return max(0.0, self.energy - self.energy_at(v_floor))

    def time_to_charge(self, v_from: float, v_to: float,
                       power_w: float) -> float:
        """Seconds to charge between two voltages at constant power.

        Uses the same taper as :meth:`charge`; returns ``inf`` when the
        harvested power cannot reach ``v_to``.
        """
        if power_w <= 0:
            return math.inf
        saved = self.energy
        self.reset(v_from)
        elapsed = 0.0
        step = 1e-3
        target = self.energy_at(min(v_to, self.v_max))
        while self.energy < target:
            if self.charge(power_w, step) <= 0:
                self.energy = saved
                return math.inf
            elapsed += step
            if elapsed > 3600:
                self.energy = saved
                return math.inf
        self.energy = saved
        return elapsed
