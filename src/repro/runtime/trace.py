"""Execution tracing for simulated devices.

A :class:`Tracer` subscribed to the event bus of an
:class:`~repro.runtime.IntermittentSimulator`'s ``obs`` bundle
(``Tracer(...).subscribe(obs.bus)``) records the capacitor-voltage
timeline, device-state transitions, and discrete events (checkpoints,
reboots, detections, completions, faults).
It renders an ASCII strip chart — the closest thing this repo has to the
oscilloscope screenshots in the paper's Fig. 9/13 — and supports simple
queries for tests and examples.

Since the observability subsystem (:mod:`repro.obs`) landed, the Tracer
is a thin :class:`~repro.obs.events.EventBus` subscriber: the simulator
publishes every event and voltage sample to the bus, and a subscribed
Tracer records the oscilloscope-relevant subset.  The direct ``sample``/
``event`` recording API is unchanged, so standalone use keeps working.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class TraceEvent:
    """A discrete occurrence at an instant."""

    t: float
    kind: str          # "checkpoint", "checkpoint_failed", "reboot",
    detail: str = ""   # "detection", "completion", "brownout", "fault", ...


@dataclass
class Tracer:
    """Collects voltage samples and events during a simulation."""

    #: The oscilloscope-relevant event kinds a bus-subscribed Tracer
    #: records (the bus also carries finer-grained runtime events).
    EVENT_KINDS = ("checkpoint", "checkpoint_failed", "reboot", "detection",
                   "completion", "brownout", "fault")

    sample_period_s: float = 1e-3
    max_samples: int = 100_000
    samples: List[Tuple[float, float, str]] = field(default_factory=list)
    events: List[TraceEvent] = field(default_factory=list)
    #: True once samples were dropped because ``max_samples`` was reached.
    #: Queries over a truncated trace see only the window's beginning.
    truncated: bool = False
    _next_sample: float = 0.0

    # -- recording ------------------------------------------------------
    def sample(self, t: float, voltage: float, state: str) -> None:
        """Record (t, V, device state), rate-limited to the sample period."""
        if t < self._next_sample:
            return
        if len(self.samples) >= self.max_samples:
            self.truncated = True
            return
        self.samples.append((t, voltage, state))
        # Snap the next deadline onto the sampling grid: advancing by
        # ``t + period`` instead would let irregular arrivals drift the
        # whole timeline off-phase over a long trace.
        if self.sample_period_s > 0:
            period = self.sample_period_s
            deadline = (math.floor(t / period) + 1) * period
            if deadline <= t:  # floating-point floor landed on t itself
                deadline += period
            self._next_sample = deadline
        else:
            self._next_sample = t

    def event(self, t: float, kind: str, detail: str = "") -> None:
        self.events.append(TraceEvent(t=t, kind=kind, detail=detail))

    # -- event-bus integration ------------------------------------------
    def subscribe(self, bus) -> "Tracer":
        """Attach to an :class:`~repro.obs.events.EventBus`: record its
        voltage samples and the oscilloscope-relevant events."""
        bus.subscribe(self._on_bus_event, kinds=self.EVENT_KINDS)
        bus.subscribe_samples(self._on_bus_sample)
        return self

    def _on_bus_event(self, event) -> None:
        self.event(event.t, event.kind, event.detail)

    def _on_bus_sample(self, point) -> None:
        self.sample(point.t, point.voltage, point.state)

    # -- queries ----------------------------------------------------------
    def events_of(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def count(self, kind: str) -> int:
        return len(self.events_of(kind))

    def voltage_at(self, t: float) -> Optional[float]:
        """The recorded voltage at (or just before) time ``t``."""
        times = [s[0] for s in self.samples]
        index = bisect.bisect_right(times, t) - 1
        if index < 0:
            return None
        return self.samples[index][1]

    def state_occupancy(self) -> Dict[str, float]:
        """Fraction of samples spent in each device state."""
        if not self.samples:
            return {}
        counts: Dict[str, int] = {}
        for _, _, state in self.samples:
            counts[state] = counts.get(state, 0) + 1
        total = len(self.samples)
        return {state: count / total for state, count in counts.items()}

    # -- rendering ----------------------------------------------------------
    def render(self, width: int = 72, v_min: float = 1.5,
               v_max: float = 3.4, thresholds: Sequence[float] = ()) -> str:
        """ASCII strip chart: voltage over time plus an event lane.

        State glyphs on the baseline: ``r`` running, ``s`` sleeping,
        ``.`` off, ``X`` failed.  Event lane: ``C`` checkpoint,
        ``!`` failed checkpoint, ``^`` reboot, ``D`` detection,
        ``o`` completion, ``v`` brownout.
        """
        if not self.samples:
            return "(no samples)"
        t0 = self.samples[0][0]
        t1 = self.samples[-1][0]
        span = max(t1 - t0, 1e-12)

        def column(t: float) -> int:
            return min(width - 1, int((t - t0) / span * width))

        height = 8
        grid = [[" "] * width for _ in range(height)]
        state_row = [" "] * width
        for t, voltage, state in self.samples:
            col = column(t)
            level = (voltage - v_min) / (v_max - v_min)
            row = height - 1 - int(max(0.0, min(0.999, level)) * height)
            grid[row][col] = "*"
            state_row[col] = {"running": "r", "sleeping": "s",
                              "off": ".", "failed": "X"}.get(state, "?")
        for threshold in thresholds:
            level = (threshold - v_min) / (v_max - v_min)
            row = height - 1 - int(max(0.0, min(0.999, level)) * height)
            for col in range(width):
                if grid[row][col] == " ":
                    grid[row][col] = "-"

        event_row = [" "] * width
        glyphs = {"checkpoint": "C", "checkpoint_failed": "!",
                  "reboot": "^", "detection": "D", "completion": "o",
                  "brownout": "v", "fault": "X"}
        priority = ["fault", "detection", "checkpoint_failed", "brownout",
                    "checkpoint", "reboot", "completion"]
        rank = {kind: i for i, kind in enumerate(priority)}
        best: Dict[int, TraceEvent] = {}
        for event in self.events:
            col = column(event.t)
            current = best.get(col)
            if current is None or rank.get(event.kind, 99) < \
                    rank.get(current.kind, 99):
                best[col] = event
        for col, event in best.items():
            event_row[col] = glyphs.get(event.kind, "*")

        lines = ["".join(row) for row in grid]
        lines.append("".join(state_row))
        lines.append("".join(event_row))
        footer = (f"t: {t0*1000:.1f}ms .. {t1*1000:.1f}ms   "
                  f"V: {v_min:.1f}..{v_max:.1f}")
        if self.truncated:
            footer += f"   [TRUNCATED at {self.max_samples} samples]"
        lines.append(footer)
        return "\n".join(lines)
