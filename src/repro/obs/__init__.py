"""Unified observability: event bus, metrics, exporters, and profiling.

One :class:`Observability` object travels through a simulation and gives
every layer the same three capabilities:

* ``obs.emit(kind, detail)`` — publish a typed, timestamped event to the
  :class:`~repro.obs.events.EventBus` (subscribers + bounded ring);
* ``obs.metrics`` — a :class:`~repro.obs.metrics.MetricsRegistry` of
  labelled counters/histograms, exported as a flat dict;
* ``obs.profiler`` — an optional :class:`~repro.obs.profiler.Profiler`
  attributing wall time per phase and simulated cycles per opcode class.

The simulator binds the bus clock to its own simulated time at attach, so
producers never pass timestamps by hand.  Everything is opt-in: components
guard on ``obs is not None``, the bus and registry each have near-zero
disabled paths, and an absent profiler costs one identity check.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from .events import (
    ADVERSARY_CANDIDATE,
    ADVERSARY_ROUND,
    BROWNOUT,
    CHECKPOINT_BEGIN,
    CHECKPOINT_FAILED,
    CHECKPOINT_OK,
    COMPLETION,
    DETECTION,
    EMI_OFF,
    EMI_ON,
    EVENT_KINDS,
    Event,
    EventBus,
    FAULT,
    FAULT_INJECTED,
    JIT_RESTORE,
    MODE_SWITCH,
    MONITOR_TRIP,
    REBOOT,
    REGION_COMMIT,
    ROLLBACK_RESTORE,
    Sample,
)
from .export import (
    read_jsonl,
    to_perfetto,
    validate_perfetto,
    write_jsonl,
    write_perfetto,
)
from .metrics import (
    CAMPAIGN_RETRIES,
    CAMPAIGN_TIMEOUTS,
    CAMPAIGN_WORKER_RESTARTS,
    MetricsRegistry,
    merge_flat,
    qualified_name,
)
from .profiler import Profiler

__all__ = [
    "ADVERSARY_CANDIDATE", "ADVERSARY_ROUND",
    "BROWNOUT", "CAMPAIGN_RETRIES", "CAMPAIGN_TIMEOUTS",
    "CAMPAIGN_WORKER_RESTARTS",
    "CHECKPOINT_BEGIN", "CHECKPOINT_FAILED", "CHECKPOINT_OK",
    "COMPLETION", "DETECTION", "EMI_OFF", "EMI_ON", "EVENT_KINDS", "Event",
    "EventBus", "FAULT", "FAULT_INJECTED", "JIT_RESTORE", "MODE_SWITCH",
    "MONITOR_TRIP", "MetricsRegistry", "Observability", "Profiler", "REBOOT",
    "REGION_COMMIT", "ROLLBACK_RESTORE", "Sample", "merge_flat",
    "qualified_name", "read_jsonl", "to_perfetto", "validate_perfetto",
    "write_jsonl", "write_perfetto",
]


class Observability:
    """The bundle a simulation carries: bus + metrics + optional profiler."""

    def __init__(self, bus: Optional[EventBus] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 profiler: Optional[Profiler] = None) -> None:
        self.bus = bus if bus is not None else EventBus()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profiler = profiler
        self._clock: Optional[Callable[[], float]] = None

    # -- construction ---------------------------------------------------
    @classmethod
    def for_tracing(cls, ring: int = 4096,
                    sample_ring: int = 65536) -> "Observability":
        """Bus + metrics on, no profiler: the `--trace-out` configuration."""
        return cls(bus=EventBus(ring=ring, sample_ring=sample_ring),
                   metrics=MetricsRegistry())

    @classmethod
    def for_telemetry(cls, ring: int = 128) -> "Observability":
        """Campaign-worker configuration: metrics plus a small event ring,
        no voltage samples retained (they dominate memory at scale)."""
        return cls(bus=EventBus(ring=ring, sample_ring=1),
                   metrics=MetricsRegistry())

    @classmethod
    def for_profiling(cls) -> "Observability":
        return cls(bus=EventBus(), metrics=MetricsRegistry(),
                   profiler=Profiler())

    @classmethod
    def disabled(cls) -> "Observability":
        """Everything off — for measuring the guarded no-op overhead."""
        return cls(bus=EventBus(enabled=False),
                   metrics=MetricsRegistry(enabled=False))

    # -- clock ----------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulated-time source (the simulator's ``t``)."""
        self._clock = clock

    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    # -- publishing -----------------------------------------------------
    def emit(self, kind: str, detail: str = "",
             t: Optional[float] = None) -> None:
        """Publish one event at ``t`` (default: the bound clock's now),
        and bump the ``events{kind=...}`` counter."""
        if not self.bus.enabled:
            return
        self.bus.emit(self.now() if t is None else t, kind, detail)
        self.metrics.count("events", kind=kind)

    def sample(self, voltage: float, state: str,
               t: Optional[float] = None) -> None:
        if not self.bus.enabled:
            return
        self.bus.sample(self.now() if t is None else t, voltage, state)

    # -- export ---------------------------------------------------------
    def flat_metrics(self) -> Dict[str, Union[int, float]]:
        return self.metrics.as_dict()

    def event_tail(self, n: int = 32) -> list:
        """The last ``n`` ring-retained events as JSON-safe dicts."""
        return [event.to_dict() for event in self.bus.tail(n)]
