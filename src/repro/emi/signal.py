"""EMI attack signal sources.

The paper's attack rig is an RF signal generator plus amplifier and a
directional antenna emitting a single-tone sine wave; the two knobs the
adversary controls are frequency and transmit power (§III, "Attack
Scenario").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..energy.harvester import dbm_to_watts, watts_to_dbm


@dataclass(frozen=True)
class EMISource:
    """A single-tone EMI emitter."""

    frequency_hz: float
    power_dbm: float

    @property
    def power_w(self) -> float:
        return dbm_to_watts(self.power_dbm)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {"frequency_hz": self.frequency_hz,
                "power_dbm": self.power_dbm}

    @classmethod
    def from_dict(cls, data: dict) -> "EMISource":
        return cls(frequency_hz=data["frequency_hz"],
                   power_dbm=data["power_dbm"])

    def __str__(self) -> str:
        if self.frequency_hz >= 1e9:
            freq = f"{self.frequency_hz / 1e9:g}GHz"
        else:
            freq = f"{self.frequency_hz / 1e6:g}MHz"
        return f"{freq}@{self.power_dbm:g}dBm"


def induced_waveform_sample(amplitude_v: float, frequency_hz: float,
                            t: float, sample_index: int) -> float:
    """One sampled value of the induced sine as the victim's ADC sees it.

    The monitor samples far below the attack frequency, so successive
    samples alias pseudo-randomly across the sine's phase.  A deterministic
    hash of the sample index supplies the phase so simulations are exactly
    reproducible.
    """
    if amplitude_v <= 0:
        return 0.0
    state = (sample_index * 2654435761 + int(frequency_hz) * 40503) & 0xFFFFFFFF
    phase = 2.0 * math.pi * (state / 0xFFFFFFFF)
    return amplitude_v * math.sin(2.0 * math.pi * frequency_hz * t + phase)
