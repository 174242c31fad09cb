"""ISR-aware attack planning: golden traces and phase-locked EMI.

Reactive firmware concentrates its critical work inside interrupt
handlers, and the hub's frame push / sentinel pop around every activation
is itself state an EMI glitch can catch mid-flight.  This module turns
one *golden* (stable-power, attack-free) run of a reactive workload into
attack material:

* :func:`isr_trace` — the delivery trace of one golden iteration
  (read off :func:`repro.faultsim.golden.capture_trace`): every
  :class:`~repro.periph.hub.IsrSpan` plus the iteration's total cycle
  count;
* :func:`isr_arrivals` — handler-entry times as fractions of the
  iteration, the phase reference an attacker who has profiled the
  device's interrupt cadence would lock onto;
* :func:`phase_locked_windows` — EMI burst windows placed at a fixed
  phase offset around each arrival (the timing-precise analogue of the
  paper's fixed-minute tones).

Handler-resident fault injections are drawn by
``FaultCampaignSpec(isr_window=True)`` (:mod:`repro.faultsim.explorer`).

All cycle→second conversions use the simulated MCU clock
(:data:`MCU_CLOCK_HZ`, the :class:`~repro.energy.power_system.MCUPowerModel`
default), so windows line up with what the energy system simulates.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..energy.power_system import MCUPowerModel
from ..errors import ReproError
from .hub import IsrSpan

#: Simulated MCU clock (``MCUPowerModel.clock_hz``'s default).
MCU_CLOCK_HZ = MCUPowerModel.clock_hz


class PeriphError(ReproError):
    """A peripheral trace or attack plan that cannot be produced."""


def isr_trace(linked) -> Tuple[List[IsrSpan], int]:
    """One stable-power iteration's delivery trace and total cycle count.

    Args:
        linked: a :class:`~repro.isa.program.LinkedProgram` with at least
            one registered ISR vector.

    Returns:
        ``(spans, total_cycles)`` where every span is closed (a handler
        still open at HALT is closed at the final step/cycle).
    """
    from ..faultsim.golden import capture_trace

    trace = capture_trace(linked)
    if not trace.has_periph:
        raise PeriphError("program has no peripherals (no isr declarations "
                          "and no MMIO intrinsics)")
    return list(trace.isr_spans), trace.golden_cycles


def isr_arrivals(spans: Sequence[IsrSpan], total_cycles: int,
                 vector: Optional[int] = None) -> Tuple[float, ...]:
    """Handler-entry times as fractions of the iteration window.

    Args:
        vector: restrict to one interrupt source; ``None`` keeps all.
    """
    if total_cycles <= 0:
        return ()
    return tuple(
        min(1.0, span.entry_cycles / total_cycles)
        for span in spans
        if vector is None or span.vector == vector)


def phase_locked_windows(arrivals: Sequence[float], phase: float,
                         width: float) -> Tuple[Tuple[float, float], ...]:
    """EMI bursts at a fixed phase offset around each interrupt arrival.

    Each burst covers ``[a + phase - width/2, a + phase + width/2)``
    (fractions of the run window) around arrival ``a``; overlapping
    bursts merge and everything clips to ``[0, 1]``.  ``phase`` may be
    negative — a burst *before* the arrival attacks the main-line code
    whose state the handler is about to use.
    """
    if width <= 0.0:
        return ()
    raw = sorted((max(0.0, a + phase - width / 2.0),
                  min(1.0, a + phase + width / 2.0))
                 for a in arrivals)
    merged: List[Tuple[float, float]] = []
    for start, end in raw:
        if end - start <= 0.0:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return tuple(merged)
