"""repro.metrics — host-side measurement of the simulator.

* :mod:`.registry` — counters/gauges/timers with JSON + Prometheus
  export, attached per process with :func:`set_registry` (detached
  code pays one ``is not None`` check, the ``PipelineTracer`` pattern).
* :mod:`.spans` — campaign tracing: spans with cross-process
  trace-context propagation to pool workers and a deterministic
  Chrome-trace merger (attached per process with :func:`set_recorder`,
  same zero-overhead contract).
* :mod:`.profiler` — host-side cProfile wrapper aggregating hotspots
  by simulator subsystem, with collapsed-stack flamegraph output.
* :mod:`.ledger` — the provenance stamp (git SHA, host fingerprint)
  perfbench records with each result; not re-exported here.
"""

from .registry import (
    DEFAULT_BUCKETS,
    METRIC_HELP,
    Counter,
    Gauge,
    MetricsRegistry,
    Timer,
    attached,
    get_registry,
    set_registry,
)
from .spans import (
    TRACE_SCHEMA,
    Span,
    SpanRecorder,
    get_recorder,
    merged_trace,
    nesting_violations,
    recording,
    set_recorder,
    write_merged_trace,
)
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
    "DEFAULT_BUCKETS", "METRIC_HELP", "Counter", "Gauge",
    "MetricsRegistry", "Timer",
    "attached", "get_registry", "set_registry",
    "TRACE_SCHEMA", "Span", "SpanRecorder", "get_recorder",
    "merged_trace", "nesting_violations", "recording", "set_recorder",
    "write_merged_trace",
    "HOST_SUBSYSTEM", "ProfileEntry", "ProfileReport", "SUBSYSTEM_RULES",
    "classify_module", "profile_spec", "report_from_stats",
]
