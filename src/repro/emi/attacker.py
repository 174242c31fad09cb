"""Attack scheduling: when the adversary transmits, at what tone and power.

Fig. 9 (real-time frequency hopping to modulate the victim's progress) and
Fig. 13 (attacks switched on at chosen minutes) both reduce to a timeline
of transmission windows; :class:`AttackSchedule` models that.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .signal import EMISource


@dataclass(frozen=True)
class AttackWindow:
    """One transmission interval of a single tone."""

    start_s: float
    end_s: float
    source: EMISource

    def __post_init__(self) -> None:
        # An inverted, zero-length, or NaN interval would silently build a
        # window that never fires; ``not (a < b)`` also catches NaNs, whose
        # every comparison is false.
        if not (self.start_s < self.end_s):
            raise ValueError(
                f"attack window needs start_s < end_s, got "
                f"[{self.start_s!r}, {self.end_s!r})")

    def active_at(self, t: float) -> bool:
        return self.start_s <= t < self.end_s

    def to_dict(self) -> dict:
        return {"start_s": self.start_s,
                # JSON has no Infinity; an open-ended window travels as null.
                "end_s": None if self.end_s == float("inf") else self.end_s,
                "source": self.source.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "AttackWindow":
        end = data["end_s"]
        return cls(start_s=data["start_s"],
                   end_s=float("inf") if end is None else end,
                   source=EMISource.from_dict(data["source"]))


@dataclass
class AttackSchedule:
    """A timeline of attack windows, kept sorted by start time.

    The windows' edges cut the timeline into segments on which the active
    tone cannot change; :meth:`source_at` and :meth:`segment_at` bisect one
    table of those edges, O(log n) however the windows overlap (where they
    do, the latest-starting active window wins, and :meth:`add` places a
    window after those with an equal start).  ``windows`` is a tuple:
    :meth:`add` rebuilds it and the edge table together.
    """

    windows: Tuple[AttackWindow, ...] = ()

    def __post_init__(self) -> None:
        self.windows = tuple(sorted(self.windows,
                                    key=lambda window: window.start_s))
        self._reindex()

    def _reindex(self) -> None:
        # _sources[i] is the tone on [_edges[i-1], _edges[i]) (unbounded at
        # either end).  The sweep heaps the started windows, latest in start
        # order on top, and drops ended ones when they surface.
        windows = self.windows
        self._edges = sorted({w.start_s for w in windows}
                             | {w.end_s for w in windows})
        self._sources = [None]
        started: List[Tuple[int, float]] = []
        index = 0
        for edge in self._edges:
            while index < len(windows) and windows[index].start_s <= edge:
                heapq.heappush(started, (-index, windows[index].end_s))
                index += 1
            while started and started[0][1] <= edge:
                heapq.heappop(started)
            self._sources.append(
                windows[-started[0][0]].source if started else None)

    @classmethod
    def always(cls, source: EMISource,
               until_s: float = float("inf")) -> "AttackSchedule":
        """A continuous attack from t=0 (the sweep experiments)."""
        return cls([AttackWindow(0.0, until_s, source)])

    @classmethod
    def silent(cls) -> "AttackSchedule":
        """No attack at all (baseline runs)."""
        return cls([])

    @classmethod
    def from_intervals(cls, intervals: Sequence[Tuple[float, float]],
                       source: EMISource) -> "AttackSchedule":
        """Same tone transmitted over several (start, end) intervals.

        Raises :class:`ValueError` on inverted, zero-length, or NaN
        intervals (see :class:`AttackWindow`).
        """
        return cls([AttackWindow(a, b, source) for a, b in intervals])

    def add(self, start_s: float, end_s: float, source: EMISource) -> None:
        """Insert one window; raises :class:`ValueError` unless
        ``start_s < end_s`` (NaNs included)."""
        window = AttackWindow(start_s, end_s, source)
        index = bisect.bisect_right([w.start_s for w in self.windows], start_s)
        self.windows = self.windows[:index] + (window,) + self.windows[index:]
        self._reindex()

    def source_at(self, t: float) -> Optional[EMISource]:
        """The active tone at time ``t`` (or None when the air is quiet)."""
        return self._sources[bisect.bisect_right(self._edges, t)]

    def segment_at(self, t: float) -> Tuple[float, float, Optional[EMISource]]:
        """``(lo, hi, source)``: :meth:`source_at` is ``source`` for every
        time in ``[lo, hi)``, the consecutive window edges around ``t``
        (``-inf``/``inf`` beyond the first/last edge)."""
        edges = self._edges
        index = bisect.bisect_right(edges, t)
        lo = edges[index - 1] if index else -math.inf
        hi = edges[index] if index < len(edges) else math.inf
        return lo, hi, self._sources[index]

    @property
    def ever_active(self) -> bool:
        return bool(self.windows)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-safe dict, round-trippable via :meth:`from_dict` — the
        same contract :class:`~repro.runtime.SimResult` offers, so a
        discovered attack can be saved and replayed by any harness."""
        return {"windows": [window.to_dict() for window in self.windows]}

    @classmethod
    def from_dict(cls, data: dict) -> "AttackSchedule":
        return cls([AttackWindow.from_dict(w) for w in data["windows"]])
