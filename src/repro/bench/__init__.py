"""repro.bench — the experiment harness: cached runs, normalized
runtimes, and builders for every table and figure in the paper."""

from .runner import (
    CLASS_BASELINE,
    DEFENSES,
    RunSpec,
    baseline_norm,
    clear_caches,
    compiled,
    execute_spec,
    geomean,
    norm_runtime,
    protean_norm,
    render_table,
)
from .executor import (
    BatchStats,
    ExecutorError,
    RunSummary,
    cache_info,
    resolve_jobs,
    run_batch,
    wipe_cache,
)
from .tables import (
    ARCH_WASM,
    CT_CRYPTO,
    CTS_CRYPTO,
    NGINX,
    PARSEC,
    SPEC,
    MITIGATION_SCHEMES,
    SPEC_INT_FAST,
    TableResult,
    UNR_CRYPTO,
    figure_5,
    figure_6,
    mitigation_table,
    overhead_attribution,
    speculation_anatomy,
    table_i,
    table_ii,
    table_iv,
    table_v,
)
from .report import (
    compare_reports,
    format_run_stats,
    load_report,
    table_to_dict,
    write_report,
)
from .fabric import (
    Broker,
    Spool,
    WorkerStats,
    run_worker,
)
from .ablations import (
    access_mechanisms,
    bugfix_overhead,
    control_model,
    l1d_tag_variants,
    protcc_overhead,
)

__all__ = [
    "CLASS_BASELINE", "DEFENSES", "RunSpec", "baseline_norm",
    "clear_caches", "compiled", "execute_spec", "geomean", "norm_runtime",
    "protean_norm", "render_table",
    "BatchStats", "ExecutorError", "RunSummary", "cache_info",
    "resolve_jobs", "run_batch", "wipe_cache",
    "ARCH_WASM", "CT_CRYPTO", "CTS_CRYPTO", "NGINX", "PARSEC", "SPEC",
    "MITIGATION_SCHEMES", "SPEC_INT_FAST", "TableResult", "UNR_CRYPTO",
    "figure_5", "figure_6", "mitigation_table", "overhead_attribution",
    "speculation_anatomy", "table_i", "table_ii", "table_iv", "table_v",
    "access_mechanisms", "bugfix_overhead", "control_model",
    "l1d_tag_variants", "protcc_overhead",
    "compare_reports", "format_run_stats", "load_report", "table_to_dict",
    "write_report",
    "Broker", "Spool", "WorkerStats", "run_worker",
]
