"""repro.metrics — host-side measurement of the simulator.

* :mod:`.telemetry` — the one attach point: :func:`attach` makes a
  :class:`Telemetry` handle (a registry and/or a span recorder) current
  for a ``with`` block, and instrumented code reads it with
  :func:`current`; detached code pays one ``is not None`` check per
  batch/spec/run (the ``PipelineTracer`` pattern).
* :mod:`.registry` — counters/gauges/timers with a JSON snapshot.
* :mod:`.spans` — campaign tracing: spans with cross-process
  trace-context propagation to pool workers and a deterministic
  Chrome-trace merger.
* :mod:`.profiler` — host-side cProfile wrapper aggregating hotspots
  by simulator subsystem, with collapsed-stack flamegraph output.
* :mod:`.ledger` — the provenance stamp (git SHA, host fingerprint)
  perfbench records with each result; not re-exported here.
"""

from .registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    Timer,
)
from .spans import (
    TRACE_SCHEMA,
    Span,
    SpanRecorder,
    merged_trace,
    nesting_violations,
    write_merged_trace,
)
from .telemetry import Telemetry, attach, current
from .profiler import (
    HOST_SUBSYSTEM,
    ProfileEntry,
    ProfileReport,
    SUBSYSTEM_RULES,
    classify_module,
    profile_spec,
    report_from_stats,
)

__all__ = [
    "Counter", "Gauge", "MetricsRegistry", "Timer",
    "TRACE_SCHEMA", "Span", "SpanRecorder",
    "merged_trace", "nesting_violations", "write_merged_trace",
    "Telemetry", "attach", "current",
    "HOST_SUBSYSTEM", "ProfileEntry", "ProfileReport", "SUBSYSTEM_RULES",
    "classify_module", "profile_spec", "report_from_stats",
]
