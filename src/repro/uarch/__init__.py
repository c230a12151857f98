"""repro.uarch — the speculative out-of-order core (the gem5 stand-in):
configs, caches, branch prediction, back-end structures, pipeline."""

from .config import (
    CacheConfig,
    CoreConfig,
    E_CORE,
    L1DTagMode,
    P_CORE,
    SpeculationModel,
)
from .caches import Cache, CacheHierarchy, TLB
from .branch_predictor import BranchPredictor
from .pipeline import Core, CoreResult, STALL_CAUSES, simulate
from .refcore import DiffReport, compare_results
from .multicore import MultiCore, MultiCoreResult, TID_REG, simulate_mt
from .speculation import (
    InterventionEvent,
    InterventionLedger,
    intervention_summary,
    ledger_chrome_events,
    transient_summary,
)
from .trace import (
    PipelineTracer,
    chrome_trace,
    text_pipeline,
    write_chrome_trace,
)
from .uop import Uop

__all__ = [
    "CacheConfig", "CoreConfig", "E_CORE", "L1DTagMode", "P_CORE",
    "SpeculationModel",
    "Cache", "CacheHierarchy", "TLB",
    "BranchPredictor",
    "Core", "CoreResult", "STALL_CAUSES", "simulate",
    "DiffReport", "compare_results",
    "MultiCore", "MultiCoreResult", "TID_REG", "simulate_mt",
    "InterventionEvent", "InterventionLedger", "intervention_summary",
    "ledger_chrome_events", "transient_summary",
    "PipelineTracer", "chrome_trace", "text_pipeline", "write_chrome_trace",
    "Uop",
]
