"""Experiment runner: one cached entry point for every (workload,
defense, instrumentation, core, knob...) combination the paper's tables
and figures need.

Normalization follows the paper (SVIII-A): every defense's runtime —
including ProtCC instrumentation overhead, since Protean runs the
instrumented binary — is divided by the *unsafe baseline running the
base binary* on the same core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..defenses import (
    AccessDelay,
    AccessTrack,
    ProtDelay,
    ProtTrack,
    SPT,
    SPTSB,
    Unsafe,
)
from ..isa.program import Program
from ..protcc import CompiledProgram, compile_program, mitigate_program
from ..uarch.config import CoreConfig, E_CORE, L1DTagMode, P_CORE, SpeculationModel
from ..uarch.pipeline import CoreResult, simulate
from ..workloads import get_workload

#: Defense factories by harness name.  ``delay-raw``/``track-raw`` are
#: the paper's SIX-A4 ablation: AccessDelay/AccessTrack applied to
#: ProtISA directly (selective wakeup / access predictor disabled).
DEFENSES: Dict[str, Callable[..., object]] = {
    "unsafe": Unsafe,
    "nda": AccessDelay,
    "stt": AccessTrack,
    "spt": SPT,
    "spt-sb": SPTSB,
    "delay": ProtDelay,
    "track": ProtTrack,
    "delay-raw": lambda: ProtDelay(selective_wakeup=False),
    "track-raw": lambda: ProtTrack(use_predictor=False),
}

#: Which secure baseline targets each vulnerable-code class (Tab. I).
CLASS_BASELINE = {"arch": "stt", "cts": "spt", "ct": "spt", "unr": "spt-sb"}

CORES = {"P": P_CORE, "E": E_CORE}

#: Sentinel for an infinitely-sized access predictor (Fig. 5).
INFINITE = "inf"


@dataclass(frozen=True)
class RunSpec:
    """A fully-specified simulation to run (hashable cache key)."""

    workload: str
    defense: str = "unsafe"
    #: None: base binary.  "auto": the workload's own class(es).
    #: Otherwise: a single ProtCC class name.
    instrument: Optional[str] = None
    #: Software mitigation pass (``repro.protcc.MITIGATIONS``) applied
    #: to the (possibly instrumented) binary; None runs it unmitigated.
    mitigation: Optional[str] = None
    core: str = "P"
    l1d_tags: str = "l1d"
    speculation: str = "atcommit"
    buggy_squash: bool = False
    div_transmitter: bool = True
    predictor_entries: Union[int, str, None] = 1024

    def core_config(self) -> CoreConfig:
        config = CORES[self.core]
        return config.replace(
            l1d_tag_mode=L1DTagMode(self.l1d_tags),
            speculation_model=SpeculationModel(self.speculation),
            buggy_squash_notify=self.buggy_squash,
            div_is_transmitter=self.div_transmitter,
        )

    def defense_instance(self):
        if self.defense == "track":
            entries = self.predictor_entries
            if entries == INFINITE:
                entries = None
            return ProtTrack(predictor_entries=entries)
        return DEFENSES[self.defense]()


_compile_cache: Dict[Tuple[str, Optional[str]], CompiledProgram] = {}

_mitigate_cache: Dict[Tuple[str, Optional[str], str], "Program"] = {}


def compiled(workload_name: str, instrument: Optional[str]) -> CompiledProgram:
    """ProtCC-compile a workload (cached)."""
    key = (workload_name, instrument)
    if key not in _compile_cache:
        workload = get_workload(workload_name)
        if instrument is None:
            classes: Union[str, Dict[str, str]] = "arch"  # no-op pass
        elif instrument == "auto":
            classes = workload.classes
        else:
            classes = instrument
        _compile_cache[key] = compile_program(workload.program, classes)
    return _compile_cache[key]


def mitigated(workload_name: str, instrument: Optional[str],
              mitigation: str) -> "Program":
    """The workload's (possibly ProtCC-instrumented) binary with one
    software mitigation pass applied (cached)."""
    key = (workload_name, instrument, mitigation)
    if key not in _mitigate_cache:
        if instrument is None:
            program = get_workload(workload_name).program
        else:
            program = compiled(workload_name, instrument).program
        _mitigate_cache[key] = mitigate_program(program, mitigation).program
    return _mitigate_cache[key]


def execute_spec(spec: RunSpec, tracer=None,
                 engine: str = "compiled") -> CoreResult:
    """Simulate one configuration, uncached (the raw primitive the
    batch executor builds on), returning the full result.

    ``tracer`` (a :class:`repro.uarch.trace.PipelineTracer`) records
    per-uop pipeline events and every defense-intervention episode for
    ``repro trace`` and ``repro speculation``, and pins the per-cycle
    interpreter; None — the default — is the zero-overhead path.

    ``engine`` picks the simulation engine (see
    :func:`repro.uarch.pipeline.simulate`).
    """
    workload = get_workload(spec.workload)
    if spec.mitigation is not None:
        program = mitigated(spec.workload, spec.instrument, spec.mitigation)
    elif spec.instrument is None:
        program = workload.program
    else:
        program = compiled(spec.workload, spec.instrument).program
    result = simulate(program, spec.defense_instance(),
                      spec.core_config(), workload.memory, workload.regs,
                      tracer=tracer, engine=engine)
    if result.halt_reason != "halt":
        raise RuntimeError(
            f"{spec} did not run to completion: {result.halt_reason}")
    return result


def clear_caches() -> None:
    from ..uarch.compiled import clear_compile_cache
    from .executor import clear_summary_cache

    _compile_cache.clear()
    _mitigate_cache.clear()
    clear_summary_cache()
    clear_compile_cache()


def norm_runtime(workload: str, defense: str,
                 instrument: Optional[str] = None, core: str = "P",
                 **knobs) -> float:
    """Runtime normalized to the unsafe baseline on the base binary."""
    from .executor import run_batch

    base = RunSpec(workload=workload, core=core)
    this = RunSpec(workload=workload, defense=defense,
                   instrument=instrument, core=core, **knobs)
    summaries = run_batch([base, this], jobs=1)
    return summaries[this].cycles / summaries[base].cycles


def protean_norm(workload: str, mechanism: str, core: str = "P",
                 **knobs) -> float:
    """Protean (delay/track) on the workload's own-class binary."""
    return norm_runtime(workload, mechanism, instrument="auto", core=core,
                        **knobs)


def baseline_norm(workload: str, core: str = "P", **knobs) -> float:
    """The workload's most performant applicable secure baseline."""
    name = get_workload(workload).baseline.lower()
    if name not in DEFENSES:
        raise ValueError(
            f"workload {workload!r} declares unknown baseline {name!r}; "
            f"known defenses: {sorted(DEFENSES)}")
    return norm_runtime(workload, name, core=core, **knobs)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; rejects empty and non-positive input up front
    (instead of returning NaN or raising a bare ``math`` domain error
    deep inside a table builder)."""
    values = list(values)
    if not values:
        raise ValueError("geomean of an empty sequence is undefined")
    bad = [v for v in values if not v > 0]
    if bad:
        raise ValueError(
            f"geomean requires positive values; got {bad[:5]!r}"
            + (" ..." if len(bad) > 5 else ""))
    return math.exp(sum(math.log(v) for v in values) / len(values))


def render_table(title: str, headers: List[str],
                 rows: List[List[object]]) -> str:
    """Simple fixed-width ASCII table renderer."""
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.3f}"
        return str(cell)

    text_rows = [[fmt(c) for c in row] for row in rows]
    widths = [max(len(headers[i]),
                  max((len(r[i]) for r in text_rows), default=0))
              for i in range(len(headers))]
    lines = [title]
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(row[i].ljust(widths[i])
                               for i in range(len(row))))
    return "\n".join(lines)
