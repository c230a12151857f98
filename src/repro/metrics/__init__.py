"""repro.metrics — the measure -> record -> compare loop.

* :mod:`.registry` — counters/gauges/timers with JSON + Prometheus
  export, attached per process with :func:`set_registry` (detached
  code pays one ``is not None`` check, the ``PipelineTracer`` pattern).
* :mod:`.spans` — campaign tracing: spans with cross-process
  trace-context propagation to pool workers and a deterministic
  Chrome-trace merger (attached per process with :func:`set_recorder`,
  same zero-overhead contract).
* :mod:`.profiler` — host-side cProfile wrapper aggregating hotspots
  by simulator subsystem, with collapsed-stack flamegraph output.
* :mod:`.ledger` — the persistent SQLite run ledger behind
  ``repro history`` and ``repro compare``.
"""

from .registry import (
    DEFAULT_BUCKETS,
    METRIC_HELP,
    Counter,
    Gauge,
    MetricsRegistry,
    Timer,
    attached,
    flatten_snapshot,
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
from .ledger import (
    LEDGER_SCHEMA,
    Comparison,
    Delta,
    LedgerError,
    LedgerRecord,
    append_record,
    compare_records,
    config_digest,
    current_git_sha,
    default_ledger_path,
    host_fingerprint,
    ledger_enabled,
    load_records,
    make_record,
    render_history,
    resolve_record,
    summarize_tables,
)

__all__ = [
    "DEFAULT_BUCKETS", "METRIC_HELP", "Counter", "Gauge",
    "MetricsRegistry", "Timer",
    "attached", "flatten_snapshot", "get_registry", "set_registry",
    "TRACE_SCHEMA", "Span", "SpanRecorder", "get_recorder",
    "merged_trace", "nesting_violations", "recording", "set_recorder",
    "write_merged_trace",
    "HOST_SUBSYSTEM", "ProfileEntry", "ProfileReport", "SUBSYSTEM_RULES",
    "classify_module", "profile_spec", "report_from_stats",
    "LEDGER_SCHEMA", "Comparison", "Delta", "LedgerError", "LedgerRecord",
    "append_record", "compare_records", "config_digest",
    "current_git_sha", "default_ledger_path", "host_fingerprint",
    "ledger_enabled", "load_records", "make_record", "render_history",
    "resolve_record", "summarize_tables",
]
