"""ISR-aware attack planning: golden traces, phase-locked EMI, ISR faults.

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
  paper's fixed-minute tones);
* :func:`isr_fault_specs` — architectural :class:`~repro.faultsim.
  models.FaultSpec` injections whose trigger steps land *inside* ISR
  bodies, tagged ``isr:<vector>`` so vulnerability maps separate
  handler-resident faults from main-line ones.

All cycle→second conversions use the simulated MCU clock
(:data:`MCU_CLOCK_HZ`, the :class:`~repro.energy.power_system.MCUParams`
default), so windows line up with what the energy system simulates.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..isa.operands import NUM_REGS
from ..seeds import spawn_rng
from .hub import IsrSpan

#: Simulated MCU clock (matches ``MCUParams.clock_hz``).
MCU_CLOCK_HZ = 8e6


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


def isr_fault_specs(spans: Sequence[IsrSpan], points: int,
                    seed: int = 0,
                    models: Sequence[str] = ("reg_flip", "instr_skip")
                    ) -> List["FaultSpec"]:
    """Architectural faults whose trigger steps land inside ISR bodies.

    Draws ``points`` injections per model from a seeded RNG, uniformly
    over the union of handler activation step ranges, each tagged
    ``isr:<vector>`` for map attribution.  Duplicate draws collapse, so
    fewer than ``len(models) * points`` specs may come back.
    """
    from ..faultsim.models import STEP_MODELS, FaultSpec

    closed = [s for s in spans if s.closed and s.exit_step > s.entry_step]
    if not closed:
        raise PeriphError("no closed isr activations to target")
    for model in models:
        if model not in STEP_MODELS:
            raise PeriphError(
                f"isr fault specs need step-triggered models, got {model!r}")
    # Flatten activation ranges into a cumulative step lattice so one
    # randrange picks uniformly over every handler-resident step.
    lattice: List[Tuple[int, IsrSpan]] = []
    total = 0
    for span in closed:
        lattice.append((total, span))
        total += span.exit_step - span.entry_step
    specs: List[FaultSpec] = []
    seen = set()
    for model in models:
        # Per-model spawned stream: the reg_flip draws never shift the
        # instr_skip draws (and vice versa) when points change.
        rng = spawn_rng(seed, "periph.attack", "model", model)
        for _ in range(points):
            flat = rng.randrange(total)
            span = next(s for base, s in reversed(lattice) if flat >= base)
            base = next(b for b, s in lattice if s is span)
            step = span.entry_step + (flat - base)
            region = f"isr:{span.vector}"
            if model == "reg_flip":
                spec = FaultSpec(model=model, trigger_step=step,
                                 target=rng.randrange(NUM_REGS),
                                 bit=rng.randrange(32), region=region)
            else:
                spec = FaultSpec(model=model, trigger_step=step,
                                 region=region)
            if spec not in seen:
                seen.add(spec)
                specs.append(spec)
    return specs


def spans_seconds(spans: Sequence[IsrSpan],
                  clock_hz: float = MCU_CLOCK_HZ
                  ) -> Tuple[Tuple[float, float], ...]:
    """Each closed activation as an (entry, exit) wall-time pair."""
    return tuple((span.entry_cycles / clock_hz, span.exit_cycles / clock_hz)
                 for span in spans if span.closed)
