"""Voltage monitors: the component EMI attacks subvert (§II-C).

Both monitor types digitise the capacitor voltage *plus* whatever the
attack tone induces on their input trace, then compare against the
``V_backup`` / ``V_on`` thresholds:

* :class:`ADCMonitor` — a 10-bit successive-approximation ADC sampling
  the supply and comparing in firmware.  Quantisation gives it slight
  noise immunity.
* :class:`ComparatorMonitor` — an analog comparator with hysteresis acting
  as a 1-bit ADC.  It reacts to the instantaneous superimposed waveform,
  which is why the paper measures comparator boards as orders of magnitude
  more attackable (Table I, Comp-R_min ~ 1e-2 %).

A monitor produces :class:`MonitorEvent` signals; the simulator routes them
to the active crash-consistency runtime — unless that runtime has closed
the attack surface by disabling the monitor (GECKO's countermeasure).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from ..emi.signal import induced_waveform_sample


class MonitorEvent(enum.Enum):
    """Digital outputs of a voltage monitor."""

    NONE = "none"
    CHECKPOINT = "checkpoint"   # supply looks like it is failing
    WAKE = "wake"               # supply looks restored


@dataclass
class ADCMonitor:
    """ADC-based monitor (Fig. 2a)."""

    v_backup: float = 2.6
    v_on: float = 3.0
    _sample_index: int = field(default=0, repr=False)

    bits = 10
    v_ref = 3.6
    #: ADC conversions are periodic, not continuous: between conversions
    #: the core makes progress even under attack.
    continuous = False

    def quantise(self, volts: float) -> float:
        levels = (1 << self.bits) - 1
        clamped = min(max(volts, 0.0), self.v_ref)
        return round(clamped / self.v_ref * levels) / levels * self.v_ref

    def read(self, v_true: float, emi_amplitude: float,
             emi_frequency: float, t: float) -> float:
        """One (possibly EMI-corrupted) voltage reading."""
        induced = induced_waveform_sample(
            emi_amplitude, emi_frequency, t, self._sample_index
        )
        self._sample_index += 1
        return self.quantise(v_true + induced)

    def sample(self, v_true: float, emi_amplitude: float,
               emi_frequency: float, t: float, powered: bool) -> MonitorEvent:
        reading = self.read(v_true, emi_amplitude, emi_frequency, t)
        if powered and reading < self.v_backup:
            return MonitorEvent.CHECKPOINT
        if not powered and reading >= self.v_on:
            return MonitorEvent.WAKE
        return MonitorEvent.NONE


@dataclass
class ComparatorMonitor:
    """Comparator-based monitor (Fig. 2b): a 1-bit ADC with hysteresis."""

    v_backup: float = 2.6
    v_on: float = 3.0
    _sample_index: int = field(default=0, repr=False)

    hysteresis = 0.05
    #: The comparator output is a continuous interrupt line: it latches the
    #: first excursion after wake-up, before the core runs a single quantum
    #: (Table I: comparator boards show R_min orders below ADC boards).
    continuous = True

    def sample(self, v_true: float, emi_amplitude: float,
               emi_frequency: float, t: float, powered: bool) -> MonitorEvent:
        # The worst instantaneous excursion in the reaction window: the
        # comparator responds to the waveform peak, not an averaged
        # sample, so superimpose the full swing.
        swing = emi_amplitude
        self._sample_index += 1
        if powered and v_true - swing < self.v_backup - self.hysteresis:
            return MonitorEvent.CHECKPOINT
        if not powered and v_true + swing >= self.v_on + self.hysteresis:
            return MonitorEvent.WAKE
        return MonitorEvent.NONE


Monitor = object  # duck-typed: anything with .sample(...)


def make_monitor(kind: str, v_backup: float, v_on: float):
    """Factory for a monitor by kind name ('adc' or 'comp')."""
    if kind == "adc":
        return ADCMonitor(v_backup=v_backup, v_on=v_on)
    if kind == "comp":
        return ComparatorMonitor(v_backup=v_backup, v_on=v_on)
    raise ValueError(f"unknown monitor kind {kind!r}")
