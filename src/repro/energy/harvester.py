"""Energy harvester models.

The paper powers its boards three ways and each has a model here:

* bench DC supply (attack experiments, §IV): :class:`ConstantSupply`;
* a GPIO power generator replaying an RF trace that cuts power at 1 Hz
  (§VII-B3): :class:`SquareWaveHarvester`;
* a Powercast P2110 RF harvester fed by a 3 W, 915 MHz transmitter
  (§VII-B4): :class:`RFHarvester`, using free-space path loss and a
  rectifier efficiency curve.

All models answer ``power_at(t)`` in watts; :class:`TraceHarvester` replays
arbitrary recorded samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

SPEED_OF_LIGHT = 299_792_458.0


def dbm_to_watts(dbm: float) -> float:
    """Convert dBm to watts."""
    return 10.0 ** (dbm / 10.0) / 1000.0


def watts_to_dbm(watts: float) -> float:
    """Convert watts to dBm (-inf for zero)."""
    if watts <= 0:
        return float("-inf")
    return 10.0 * math.log10(watts * 1000.0)


def friis_received_power(tx_power_w: float, frequency_hz: float,
                         distance_m: float, tx_gain: float = 1.0,
                         rx_gain: float = 1.0) -> float:
    """Free-space (Friis) received power in watts."""
    if distance_m <= 0:
        return tx_power_w
    wavelength = SPEED_OF_LIGHT / frequency_hz
    factor = (wavelength / (4.0 * math.pi * distance_m)) ** 2
    return tx_power_w * tx_gain * rx_gain * factor


@dataclass
class ConstantSupply:
    """A bench supply: effectively unlimited charging power."""

    power_w: float = 0.5

    def power_at(self, t: float) -> float:
        return self.power_w


@dataclass
class SquareWaveHarvester:
    """Periodic power with hard outages (the paper's 1 Hz RF trace replay).

    ``on_power_w`` flows for ``duty`` of each ``period_s``; the rest is a
    true outage (zero input).
    """

    on_power_w: float = 5e-3
    period_s: float = 1.0
    duty: float = 0.5

    def power_at(self, t: float) -> float:
        phase = (t % self.period_s) / self.period_s
        return self.on_power_w if phase < self.duty else 0.0


@dataclass
class RFHarvester:
    """Powercast-style RF harvesting: Friis path loss + rectifier efficiency.

    Defaults model the paper's §VII-B4 setup: a 3 W transmitter at 915 MHz
    a short distance from the board.
    """

    tx_power_w: float = 3.0
    frequency_hz: float = 915e6
    distance_m: float = 0.6
    rectifier_efficiency: float = 0.5
    tx_gain: float = 8.0   # patch-antenna transmitter

    def power_at(self, t: float) -> float:
        received = friis_received_power(
            self.tx_power_w, self.frequency_hz, self.distance_m,
            tx_gain=self.tx_gain,
        )
        return received * self.rectifier_efficiency


@dataclass
class TraceHarvester:
    """Replay recorded harvested-power samples at a fixed rate."""

    samples_w: Sequence[float] = field(default_factory=lambda: [1e-3])
    sample_period_s: float = 0.01
    loop: bool = True

    def power_at(self, t: float) -> float:
        index = int(t / self.sample_period_s)
        if self.loop:
            index %= len(self.samples_w)
        elif index >= len(self.samples_w):
            return 0.0
        return self.samples_w[index]


def synthetic_rf_trace(seed: int = 7, length: int = 200,
                       mean_power_w: float = 2e-3) -> List[float]:
    """A deterministic bursty RF power trace (weak-input regime, §III).

    A small LCG drives burst/fade alternation; mean power lands near
    ``mean_power_w`` with occasional deep fades, like a walk-by RF source.
    """
    state = seed & 0xFFFFFFFF
    samples: List[float] = []
    level = mean_power_w
    for _ in range(length):
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        u = state / 0x7FFFFFFF
        if u < 0.1:
            level = 0.0                     # deep fade
        elif u < 0.3:
            level = mean_power_w * 0.25     # weak
        elif u < 0.9:
            level = mean_power_w            # nominal
        else:
            level = mean_power_w * 3.0      # burst
        samples.append(level)
    return samples
