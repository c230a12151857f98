"""A lightweight metrics registry: counters, gauges, and timers.

Hot components (the batch executor, fuzzing campaigns, the core's run
loop) publish counters and timings into an attached
:class:`MetricsRegistry`, and ``repro bench --metrics-out`` writes its
snapshot as JSON and as Prometheus text.

Attachment follows the same opt-in pattern as
:class:`repro.uarch.trace.PipelineTracer`: nothing is measured unless a
registry is attached, and detached code paths pay at most a single
``is not None`` check per batch/spec/run — never per cycle.  A registry
is attached per process via :func:`set_registry`.  A forked pool worker
inherits a *copy* of its parent's, so the job runner
(:mod:`repro.bench.jobs`) gives every job it runs a fresh registry and
ships its snapshot back, and the parent folds it in with
:meth:`MetricsRegistry.merge`.

Timers are fixed-bucket histograms (log-spaced seconds), so percentile
estimates are O(buckets) with zero per-observation allocation, and the
bucket layout exports directly as a Prometheus histogram.

The registry is deliberately not thread-safe: the reproduction
parallelizes with *processes*, and each process owns (at most) one
registry.

Exports:

* :meth:`MetricsRegistry.snapshot` — a JSON-safe dict.
* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  format (``# TYPE`` comments, ``_bucket{le=...}`` histogram series).
"""

from __future__ import annotations

import bisect
import json
import math
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Default timer buckets (seconds), log-spaced from 0.1 ms to 10 min.
#: Observations above the last edge land in the implicit +Inf bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    600.0,
)

#: Short descriptions for the metrics the reproduction emits, keyed by
#: dotted metric name; the Prometheus export renders them as ``# HELP``
#: lines.  Accessors never require an entry here — an undescribed
#: metric simply exports without HELP — so instrumentation sites stay
#: declaration-free.
METRIC_HELP: Dict[str, str] = {
    "executor.batches": "run_batch invocations",
    "executor.specs": "specs requested across all batches",
    "executor.simulated": "specs actually simulated (cache misses)",
    "executor.retried": "spec attempts re-queued after a crash/timeout",
    "executor.timeouts": "pool workers killed by the per-spec alarm",
    "executor.requeues": "re-queue events (crash, timeout, or error)",
    "executor.batch_seconds": "wall time of each run_batch call",
    "executor.spec_seconds": "worker-side simulation time per spec",
    "executor.queue_wait_seconds":
        "time a spec waited for a pool worker",
    "cache.memory_hits": "specs served from the in-process cache",
    "cache.disk_hits": "specs served from benchmarks/.cache/",
    "cache.misses": "specs that had to simulate",
    "fuzz.campaigns": "fuzzing campaign cells run",
    "fuzz.programs": "generated programs fuzzed",
    "fuzz.checks": "contract-pair checks executed",
    "fuzz.violations": "contract violations observed",
    "fuzz.false_positives": "defense-attributed false positives",
    "fuzz.invalid_pairs": "input pairs rejected before checking",
    "fuzz.witnesses": "leak witnesses captured",
    "fuzz.campaign_seconds": "wall time per campaign cell",
    "fuzz.program_seconds": "worker-side wall time per fuzzed program",
    "fuzz.programs_per_sec": "campaign throughput in programs/second",
    "fuzz.checks_per_sec": "campaign throughput in checks/second",
    "uarch.sim_cycles": "core cycles simulated across all runs",
    "uarch.runs": "simulations completed (any engine)",
    "uarch.run_seconds": "host wall time per simulation",
    "uarch.sim_cycles_per_sec":
        "simulation throughput (reference or compiled engine)",
    "uarch.compiled_cycles_per_sec":
        "compiled-engine simulation throughput",
    "uarch.compiled_runs": "simulations served by the compiled backend",
    "uarch.compile_fallbacks.tracer":
        "compiled-engine runs served by the reference: tracer attached",
    "uarch.compile_fallbacks.empty_program":
        "compiled-engine runs served by the reference: empty program",
    "uarch.compile_seconds": "wall time spent generating/loading "
        "compiled artifacts",
    "uarch.compile_cache_hits": "compiled artifacts reused in-process",
    "uarch.compile_cache_disk_hits": "compiled artifacts reused from disk",
    "uarch.compile_cache_misses": "programs compiled from scratch",
    "uarch.fast_forward_cycles":
        "idle cycles the compiled engine fast-forwarded over",
    "uarch.fast_forward_jumps": "compiled-engine fast-forward jumps taken",
    "uarch.defense_interventions":
        "defense-hook intervention episodes across all runs",
    "uarch.defense_delay_cycles":
        "cycles of defense-imposed delay across all runs",
    "uarch.transient_uops": "fetched-but-never-committed uops "
        "across all runs",
}


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
    """A fixed-bucket histogram of durations (seconds).

    ``observe`` is O(buckets) worst case with no allocation; percentile
    estimates return the upper edge of the bucket containing the target
    rank (clamped to the observed max, so ``percentile(100)`` is exact).
    """

    __slots__ = ("name", "buckets", "bucket_counts", "count", "sum",
                 "min", "max")

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError(f"timer {name!r} buckets must be strictly "
                             f"increasing")
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)
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
        for index, edge in enumerate(self.buckets):
            if seconds <= edge:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1  # +Inf bucket

    @contextmanager
    def time(self) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - started)

    def merge(self, payload: Dict) -> None:
        """Fold in another timer's :meth:`to_dict`, bucket by bucket
        (an edge this layout lacks lands in the next larger bucket)."""
        if not payload["count"]:
            return
        self.count += payload["count"]
        self.sum += payload["sum"]
        self.min = min(self.min, payload["min"])
        self.max = max(self.max, payload["max"])
        for edge, count in payload["buckets"]:
            index = len(self.buckets) if edge == "+Inf" \
                else bisect.bisect_left(self.buckets, edge)
            self.bucket_counts[index] += count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Bucket-resolution estimate of the ``p``-th percentile."""
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        if self.count == 0:
            return 0.0
        target = math.ceil(self.count * p / 100.0)
        seen = 0
        for index, edge in enumerate(self.buckets):
            seen += self.bucket_counts[index]
            if seen >= target:
                return min(edge, self.max)
        return self.max  # target rank lies in the +Inf bucket

    def to_dict(self) -> Dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "buckets": [[edge, count] for edge, count
                        in zip(self.buckets, self.bucket_counts)
                        if count] + ([["+Inf", self.bucket_counts[-1]]]
                                     if self.bucket_counts[-1] else []),
        }


class MetricsRegistry:
    """A named collection of counters, gauges, and timers.

    Metric names are dotted paths (``executor.spec_seconds``); the
    Prometheus export mangles them to ``repro_executor_spec_seconds``.
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

    def timer(self, name: str,
              buckets: Sequence[float] = DEFAULT_BUCKETS) -> Timer:
        metric = self._timers.get(name)
        if metric is None:
            metric = self._timers[name] = Timer(name, buckets)
        return metric

    def merge(self, snapshot: Dict) -> None:
        """Fold another registry's :meth:`snapshot` in: counters add,
        timers merge bucket by bucket, gauges take the merged value (so
        merging snapshots in submission order leaves each gauge where a
        serial run would)."""
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

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (one scrape's worth):
        ``# HELP`` (when :data:`METRIC_HELP` describes the metric),
        ``# TYPE``, then the sample lines."""
        lines: List[str] = []

        def describe(name: str, metric: str) -> None:
            help_text = METRIC_HELP.get(name)
            if help_text:
                lines.append(f"# HELP {metric} {help_text}")

        for name, counter in sorted(self._counters.items()):
            metric = _prom_name(name) + "_total"
            describe(name, metric)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {counter.value}")
        for name, gauge in sorted(self._gauges.items()):
            metric = _prom_name(name)
            describe(name, metric)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prom_value(gauge.value)}")
        for name, timer in sorted(self._timers.items()):
            metric = _prom_name(name)
            describe(name, metric)
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for edge, count in zip(timer.buckets, timer.bucket_counts):
                cumulative += count
                lines.append(f'{metric}_bucket{{le="{_prom_value(edge)}"}} '
                             f"{cumulative}")
            cumulative += timer.bucket_counts[-1]
            lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{metric}_sum {_prom_value(timer.sum)}")
            lines.append(f"{metric}_count {timer.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_name(name: str) -> str:
    mangled = "".join(ch if ch.isalnum() else "_" for ch in name)
    return f"repro_{mangled}"


def _prom_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


# ----------------------------------------------------------------------
# Process-wide attachment (the PipelineTracer pattern, lifted to a
# process scope): instrumented components consult get_registry() once
# per batch/spec/run and skip all accounting when it returns None.
# ----------------------------------------------------------------------

_ACTIVE: Optional[MetricsRegistry] = None


def set_registry(registry: Optional[MetricsRegistry]
                 ) -> Optional[MetricsRegistry]:
    """Attach ``registry`` process-wide; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


def get_registry() -> Optional[MetricsRegistry]:
    """The attached registry, or None (the zero-overhead default)."""
    return _ACTIVE


@contextmanager
def attached(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Attach a registry for the duration of a ``with`` block."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
