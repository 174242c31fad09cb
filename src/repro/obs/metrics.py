"""Labelled counters and histograms with a near-zero no-op path.

A :class:`MetricsRegistry` is the numeric side of the observability
subsystem: where the :class:`~repro.obs.events.EventBus` carries *what
happened*, the registry accumulates *how much* — cycles per opcode class,
joules harvested and consumed, checkpoints by status — under Prometheus-
style ``name{label=value}`` identities, so the same metric names compare
across schemes, workloads, and devices.

Design constraints, in order:

1. **Disabled must cost nothing.**  A disabled registry hands out shared
   no-op instruments; instrumented hot paths cache the instrument once and
   pay a single method call (or guard it behind an ``is not None`` check
   and pay nothing at all).
2. **Deterministic serialization.**  :meth:`MetricsRegistry.as_dict`
   renders a flat, sorted ``{qualified_name: value}`` dict — the payload
   merged into :meth:`SimResult.to_dict` and fingerprinted by the campaign
   engine to prove serial and parallel sweeps identical.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Default histogram bucket upper bounds (generic log-ish spread).
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
                   1000.0)

#: Campaign-runner resilience counters.  These live on the *runner's*
#: registry, never in per-run result metrics — a clean sweep and a
#: crash-resumed one must fingerprint identically.
CAMPAIGN_RETRIES = "campaign.retries"
CAMPAIGN_TIMEOUTS = "campaign.timeouts"
CAMPAIGN_WORKER_RESTARTS = "campaign.worker_restarts"


def qualified_name(name: str, labels: Dict[str, object]) -> str:
    """Prometheus-style flat identity: ``name{k=v,k2=v2}`` (sorted keys)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing value (float increments allowed)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics: le bounds)."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(sorted(buckets))
        self.counts: List[int] = [0] * (len(self.bounds) + 1)  # +inf last
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: Number) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1


class _NullInstrument:
    """Shared do-nothing counter/histogram for disabled registries."""

    __slots__ = ()
    value = 0
    sum = 0.0
    count = 0

    def inc(self, amount: Number = 1) -> None:
        pass

    def observe(self, value: Number) -> None:
        pass


#: The one no-op instrument every disabled registry hands out.
NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Instrument factory + store, keyed by (name, sorted labels)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument factories ------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        key = qualified_name(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None,
                  **labels) -> Histogram:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        key = qualified_name(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(
                buckets if buckets is not None else DEFAULT_BUCKETS)
        return instrument

    # -- shorthands -----------------------------------------------------
    def count(self, name: str, amount: Number = 1, **labels) -> None:
        """One-shot increment (cold paths; hot paths cache the counter)."""
        if self.enabled:
            self.counter(name, **labels).inc(amount)

    # -- serialization --------------------------------------------------
    def as_dict(self) -> Dict[str, Number]:
        """Flat, sorted, JSON-safe view of every instrument.

        Histograms expand Prometheus-style into ``_bucket{le=..}``,
        ``_sum`` and ``_count`` entries.
        """
        flat: Dict[str, Number] = {}
        for key, counter in self._counters.items():
            flat[key] = counter.value
        for key, histogram in self._histograms.items():
            name, labels = _split_key(key)
            for bound, count in zip(histogram.bounds, histogram.counts):
                flat[_requalify(name, labels, "_bucket", f"le={bound:g}")] \
                    = count
            flat[_requalify(name, labels, "_bucket", "le=+Inf")] = \
                sum(histogram.counts)
            flat[_requalify(name, labels, "_sum", None)] = histogram.sum
            flat[_requalify(name, labels, "_count", None)] = histogram.count
        return dict(sorted(flat.items()))

    def clear(self) -> None:
        self._counters.clear()
        self._histograms.clear()


def merge_flat(into: Dict[str, Number],
               flat: Dict[str, Number]) -> Dict[str, Number]:
    """Sum one flat metrics dict into another (campaign aggregation)."""
    for key, value in flat.items():
        into[key] = into.get(key, 0) + value
    return into


def _split_key(key: str) -> Tuple[str, Optional[str]]:
    if key.endswith("}") and "{" in key:
        name, _, inner = key.partition("{")
        return name, inner[:-1]
    return key, None


def _requalify(name: str, labels: Optional[str], suffix: str,
               extra: Optional[str]) -> str:
    parts = [p for p in (labels, extra) if p]
    if parts:
        return f"{name}{suffix}{{{','.join(parts)}}}"
    return f"{name}{suffix}"
