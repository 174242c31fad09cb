"""Deterministic peripheral models and the interrupt controller.

Reactive intermittent firmware — the glucose-monitor class of
applications — spends its life in interrupt handlers, so a faithful
reproduction needs interrupts that (a) arrive deterministically, (b)
survive snapshot/restore and power failure, and (c) behave identically
under the interpreter and the threaded backend.  This package provides:

* :class:`~repro.periph.hub.PeriphHub` — the interrupt controller plus
  four cycle-driven peripheral models (timer, sensor ADC, GPIO edge
  detector, DMA engine), all of whose state lives in linker-allocated
  NVM words so checkpoint/rollback machinery sees it for free;
* :mod:`~repro.periph.attack` — golden-trace extraction and the
  ISR-aware attack vocabulary: EMI bursts phase-locked to interrupt
  arrival.
"""

from .attack import (
    MCU_CLOCK_HZ,
    PeriphError,
    isr_arrivals,
    isr_trace,
    phase_locked_windows,
)
from .hub import IsrSpan, PeriphHub

__all__ = [
    "IsrSpan", "MCU_CLOCK_HZ", "PeriphError", "PeriphHub", "isr_arrivals",
    "isr_trace", "phase_locked_windows",
]
