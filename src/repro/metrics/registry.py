"""A lightweight metrics registry: counters, gauges, and timers.

Hot components (the batch executor, fuzzing campaigns, the core's run
loop) publish counters and timings into the registry attached with
:func:`repro.metrics.attach`, and ``repro bench --metrics-out`` writes
its JSON snapshot.  Nothing is measured unless a registry is attached.
A forked pool worker inherits a *copy* of its parent's, so the job
runner (:mod:`repro.bench.jobs`) gives every job it runs a fresh
registry and ships its snapshot back, and the parent folds it in with
:meth:`MetricsRegistry.merge`.

Timers keep count, sum, min, max and mean: O(1) per observation, no
allocation, and exact under merge.

The registry is deliberately not thread-safe: the reproduction
parallelizes with *processes*, and each process owns (at most) one
registry.
"""

from __future__ import annotations

import json
import math
from typing import Dict


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Timer:
    """Count, sum, min and max of durations (seconds)."""

    __slots__ = ("name", "count", "sum", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, seconds: float) -> None:
        seconds = float(seconds)
        self.count += 1
        self.sum += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def merge(self, payload: Dict) -> None:
        """Fold in another timer's :meth:`to_dict`."""
        if not payload["count"]:
            return
        self.count += payload["count"]
        self.sum += payload["sum"]
        self.min = min(self.min, payload["min"])
        self.max = max(self.max, payload["max"])

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }


class MetricsRegistry:
    """A named collection of counters, gauges, and timers.

    Metric names are dotted paths (``executor.spec_seconds``).
    Accessors create on first use, so instrumentation sites never need
    to pre-declare what they measure.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def timer(self, name: str) -> Timer:
        metric = self._timers.get(name)
        if metric is None:
            metric = self._timers[name] = Timer(name)
        return metric

    def merge(self, snapshot: Dict) -> None:
        """Fold another registry's :meth:`snapshot` in: counters and
        timers add, gauges take the merged value (so merging snapshots
        in submission order leaves each gauge where a serial run
        would)."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, payload in snapshot.get("timers", {}).items():
            self.timer(name).merge(payload)

    # -- export --------------------------------------------------------

    def snapshot(self) -> Dict:
        """JSON-safe dict of every metric's current state."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self._gauges.items())},
            "timers": {name: t.to_dict()
                       for name, t in sorted(self._timers.items())},
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)
