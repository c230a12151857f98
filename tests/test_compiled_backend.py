"""The compiled simulation backend: engine selection, compile-memo
keying, fallback behaviour, and metrics.

Cycle-identity of the compiled engine against the reference
interpreter is proven by the differential harness
(``tests/test_refcore_diff.py`` runs a grid subset; ``repro diff`` and
the CI ``diff-twoway`` job run the full sweep).  This module covers
everything *around* that proof: that the in-process compile memo
misses exactly when it must, that the default engine and the
documented fallbacks pick the right engine, and that the backend
reports its compile costs.
"""

import pytest

from repro.arch import run_program
from repro.bench.runner import DEFENSES
from repro.defenses import ProtDelay, ProtTrack, Unsafe
from repro.fixtures import build
from repro.isa import assemble
from repro.metrics import MetricsRegistry, attached
from repro.uarch import P_CORE, simulate
from repro.uarch.compiled import (
    CompiledCore,
    CompileUnsupported,
    clear_compile_cache,
    compile_key,
    compile_step,
    generate_source,
)
from repro.uarch.pipeline import ENGINES
from repro.uarch.refcore import ENGINE_PAIR, run_engines
from repro.uarch.trace import PipelineTracer


@pytest.fixture()
def v1_program():
    return build("v1-gadget")[0]


@pytest.fixture(autouse=True)
def _fresh_compile_cache(tmp_path, monkeypatch):
    """Start every test from an empty compile memo, with the result
    cache pointed at a fresh directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_compile_cache()
    yield
    clear_compile_cache()


# ---------------------------------------------------------------------
# Cache-key invalidation: anything behavioural must miss.
# ---------------------------------------------------------------------

def test_compile_key_stable_for_equal_triples(v1_program):
    key_a = compile_key(v1_program, P_CORE, ProtTrack())
    key_b = compile_key(v1_program, P_CORE, ProtTrack())
    assert key_a == key_b


def test_compile_key_misses_on_defense_param_change(v1_program):
    keys = {
        compile_key(v1_program, P_CORE, ProtTrack()),
        compile_key(v1_program, P_CORE, ProtTrack(predictor_entries=64)),
        compile_key(v1_program, P_CORE, ProtTrack(use_predictor=False)),
        compile_key(v1_program, P_CORE, ProtDelay()),
        compile_key(v1_program, P_CORE, ProtDelay(selective_wakeup=False)),
    }
    assert len(keys) == 5, "behavioural defense params must not share keys"


def test_compile_key_misses_on_core_config_change(v1_program):
    keys = {
        compile_key(v1_program, P_CORE, Unsafe()),
        compile_key(v1_program, P_CORE.replace(rob_size=24), Unsafe()),
        compile_key(v1_program, P_CORE.replace(width=2), Unsafe()),
        compile_key(v1_program, P_CORE.replace(buggy_squash_notify=True),
                    Unsafe()),
    }
    assert len(keys) == 4, "core-config fields must not share keys"


def test_compile_key_misses_on_program_change(v1_program):
    other = build("div-channel")[0]
    assert compile_key(v1_program, P_CORE, Unsafe()) \
        != compile_key(other, P_CORE, Unsafe())


# ---------------------------------------------------------------------
# compile_step: the in-process memo and its counters.
# ---------------------------------------------------------------------

def test_compile_step_cache_traffic(v1_program, tmp_path):
    registry = MetricsRegistry()
    with attached(registry):
        first = compile_step(v1_program, P_CORE, ProtTrack())
        second = compile_step(v1_program, P_CORE, ProtTrack())
        # The memo is the only store: once it is dropped, the triple
        # compiles again.
        clear_compile_cache()
        third = compile_step(v1_program, P_CORE, ProtTrack())
    counters = registry.snapshot()["counters"]
    assert counters["uarch.compile_cache_misses"] == 2
    assert counters["uarch.compile_cache_hits"] == 1
    assert first is second  # memory hit returns the same function
    assert callable(third) and third is not first
    assert not list(tmp_path.rglob("*.py")), "compiling must write no file"


def test_compile_timer_observed(v1_program):
    registry = MetricsRegistry()
    with attached(registry):
        compile_step(v1_program, P_CORE, Unsafe())
    timers = registry.snapshot()["timers"]
    assert timers["uarch.compile_seconds"]["count"] == 1


# ---------------------------------------------------------------------
# Engine selection and fallbacks.
# ---------------------------------------------------------------------

def _compiled_runs(registry) -> int:
    return registry.snapshot()["counters"].get("uarch.compiled_runs", 0)


def _fallbacks(registry):
    return {name: value
            for name, value in registry.snapshot()["counters"].items()
            if name.startswith("uarch.compile_fallbacks.")}


def test_default_engine_picks_compiled():
    program, memory = build("v1-gadget")
    registry = MetricsRegistry()
    with attached(registry):
        result = simulate(program, ProtTrack(), P_CORE, memory)
    assert result.halt_reason == "halt"
    assert _compiled_runs(registry) == 1
    assert not _fallbacks(registry)


def test_tracer_pins_the_interpreter():
    program, memory = build("v1-gadget")
    registry = MetricsRegistry()
    tracer = PipelineTracer()
    with attached(registry):
        traced = simulate(program, ProtTrack(), P_CORE, memory,
                          tracer=tracer)
    assert _compiled_runs(registry) == 0
    assert tracer.uops, "the tracer must actually have recorded events"
    assert traced.halt_reason == "halt"


def test_ref_engine_pins_the_reference():
    program, memory = build("v1-gadget")
    registry = MetricsRegistry()
    with attached(registry):
        simulate(program, ProtTrack(), P_CORE, memory, engine="ref")
    assert _compiled_runs(registry) == 0
    assert registry.snapshot()["counters"]["uarch.runs"] == 1


def test_explicit_compiled_engine_with_tracer_falls_back():
    program, memory = build("v1-gadget")
    tracer = PipelineTracer()
    fallback = simulate(program, ProtTrack(), P_CORE, memory,
                        tracer=tracer, engine="compiled")
    reference = simulate(program, ProtTrack(), P_CORE,
                         build("v1-gadget")[1], engine="ref")
    assert fallback.cycles == reference.cycles
    assert fallback.stats == reference.stats


def test_tracer_fallback_is_counted():
    program, memory = build("v1-gadget")
    registry = MetricsRegistry()
    with attached(registry):
        simulate(program, ProtTrack(), P_CORE, memory,
                 tracer=PipelineTracer(), engine="compiled")
        # The reference engine asked for by name is no fallback.
        simulate(program, ProtTrack(), P_CORE, build("v1-gadget")[1],
                 tracer=PipelineTracer(), engine="ref")
    assert _fallbacks(registry) == {"uarch.compile_fallbacks.tracer": 1}


def test_empty_program_fallback_is_counted():
    registry = MetricsRegistry()
    with attached(registry):
        result = simulate(assemble(""), Unsafe(), P_CORE,
                          no_progress_limit=50, engine="compiled")
    assert result.halt_reason == "no_progress"
    assert _fallbacks(registry) == {
        "uarch.compile_fallbacks.empty_program": 1}


def test_compiled_core_rejects_tracer():
    program, memory = build("v1-gadget")
    with pytest.raises(CompileUnsupported):
        CompiledCore(program, ProtTrack(), P_CORE, memory,
                     tracer=PipelineTracer())


def test_unknown_engine_rejected(v1_program):
    with pytest.raises(ValueError):
        simulate(v1_program, Unsafe(), P_CORE, engine="hyperspeed")
    # Retired engine names fail loudly, naming the valid ones.
    for stale in ("fast", "auto"):
        with pytest.raises(ValueError, match="ref, compiled"):
            simulate(v1_program, Unsafe(), P_CORE, engine=stale)


def test_engines_constant_covers_cli_choices():
    # ``repro diff``, the one command that names engines, compares
    # exactly the engines simulate() accepts.
    assert ENGINES == ("ref", "compiled")
    assert ENGINE_PAIR == ENGINES


def test_compiled_cycles_per_sec_gauge():
    program, memory = build("v1-gadget")
    registry = MetricsRegistry()
    with attached(registry):
        simulate(program, Unsafe(), P_CORE, memory, engine="compiled")
    gauges = registry.snapshot()["gauges"]
    assert gauges.get("uarch.compiled_cycles_per_sec", 0) > 0
    assert gauges.get("uarch.sim_cycles_per_sec", 0) > 0


# ---------------------------------------------------------------------
# Three-way equivalence smoke: the sequential machine, the reference
# core, and the compiled core (the full sweep lives in `repro diff`).
# ---------------------------------------------------------------------

@pytest.mark.parametrize("defense", ["unsafe", "track", "delay", "stt"])
def test_threeway_fixture_equivalence(defense):
    program, memory = build("v1-gadget")
    results, report = run_engines(
        program, DEFENSES[defense],
        memory_factory=lambda: build("v1-gadget")[1],
        label=f"v1-gadget/{defense}")
    assert report.identical, report.render()
    seq = run_program(program, memory)
    assert results["ref"].final_regs == seq.final_regs
    assert results["ref"].committed_pcs == [s.pc for s in seq.steps]


def test_generated_source_is_deterministic(v1_program):
    first = generate_source(v1_program, P_CORE, ProtTrack())
    second = generate_source(v1_program, P_CORE, ProtTrack())
    assert first == second
