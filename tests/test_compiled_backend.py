"""The compiled simulation backend: engine selection, compile-memo
keying, fallback behaviour, and metrics.

Cycle-identity of the compiled engine against the reference
interpreter is proven by the differential harness
(``tests/test_refcore_diff.py`` runs a grid subset; ``repro diff`` and
the CI ``diff-twoway`` job run the full sweep).  This module covers
everything *around* that proof: that the in-process compile memo
misses exactly when it must and is shared by programs of one shape,
that the default engine and the tracer fallback pick the right engine,
that the backend reports its compile costs, and that small programs
unlike any workload (no branches, loads or ``HALT``) run the shared
code as the reference runs them.
"""

import pytest

from repro.arch import Memory, run_program
from repro.bench.runner import DEFENSES
from repro.defenses import ProtDelay, ProtTrack, Unsafe
from repro.fixtures import build
from repro.isa import assemble
from repro.metrics import MetricsRegistry, attach
from repro.uarch import P_CORE, simulate
from repro.uarch.config import E_CORE, SpeculationModel
from repro.uarch.compiled import (
    CompiledCore,
    clear_compile_cache,
    compile_key,
    compile_step,
    generate_source,
)
from repro.uarch.pipeline import ENGINES
from repro.uarch.refcore import Case, compare_results, run_engines
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


# Two programs of one shape (stores, no divide or fence) that share
# little else: different lengths, opcode kinds, condition codes and
# immediates, and only the second has a NOP and a JMP.
SUM_LOOP = """
    movi r1, 0x1000
    movi r2, 0
    movi r3, 0
loop:
    load r4, [r1 + r2]
    add r3, r3, r4
    addi r2, r2, 8
    cmpi r2, 64
    blt loop
    store [r1 + 0x100], r3
    halt
"""
MIX_LOOP = """
    movi r5, 0x2000
    movi r6, 5
again:
    nop
    load r7, [r5 + 0]
    xor r7, r7, r6
    muli r7, r7, 3
    store [r5 + 8], r7
    subi r6, r6, 1
    cmpi r6, 0
    bne again
    jmp out
    movi r8, 1
out:
    halt
"""


def _memory():
    memory = Memory()
    memory.write_words(0x1000, range(3, 11))
    memory.write_word(0x2000, 0x1234)
    return memory


def test_programs_of_one_shape_share_a_key_and_a_compile():
    first, second = assemble(SUM_LOOP), assemble(MIX_LOOP)
    assert first.instructions != second.instructions
    assert compile_key(first, P_CORE, ProtTrack()) \
        == compile_key(second, P_CORE, ProtTrack())
    assert generate_source(first, P_CORE, ProtTrack()) \
        == generate_source(second, P_CORE, ProtTrack())
    registry = MetricsRegistry()
    with attach(registry):
        shared = compile_step(first, P_CORE, ProtTrack())
        assert compile_step(second, P_CORE, ProtTrack()) is shared
    counters = registry.snapshot()["counters"]
    assert counters["uarch.compile_cache_misses"] == 1
    assert counters["uarch.compile_cache_hits"] == 1


def test_compile_key_misses_on_shape_change():
    # A divide or a fence changes the shape; a load does not, so the
    # plain and the load variants share a key.
    base = "movi r1, 0x40\naddi r1, r1, 8\n{}halt\n"
    variants = [base.format(extra) for extra in (
        "", "div r2, r1, r1\n", "mfence\n", "load r3, [r1 + 0]\n")]
    registry = MetricsRegistry()
    with attach(registry):
        for source in variants:
            compile_step(assemble(source), P_CORE, Unsafe())
    assert len({compile_key(assemble(source), P_CORE, Unsafe())
                for source in variants}) == 3
    assert registry.snapshot()["counters"]["uarch.compile_cache_misses"] == 3


def test_shared_code_reads_each_programs_own_columns():
    # The second program runs on code compiled for the first: a decode
    # column or program length captured at that compile would change
    # its result.
    programs = [assemble(SUM_LOOP), assemble(MIX_LOOP)]

    def run(program):
        return CompiledCore(program, ProtTrack(), P_CORE, _memory()).run()

    shared = [run(program) for program in programs]
    fresh = []
    for program in programs:
        clear_compile_cache()
        fresh.append(run(program))
    assert shared == fresh
    assert [r.halt_reason for r in shared] == ["halt", "halt"]
    results, report = run_engines(Case("mix-loop", programs[1], ProtTrack,
                                       memory=_memory()))
    assert report.identical, report.render()
    assert results["compiled"] == shared[1]


# ---------------------------------------------------------------------
# compile_step: the in-process memo and its counters.
# ---------------------------------------------------------------------

def test_compile_step_cache_traffic(v1_program, tmp_path):
    registry = MetricsRegistry()
    with attach(registry):
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
    with attach(registry):
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
    with attach(registry):
        result = simulate(program, ProtTrack(), P_CORE, memory)
    assert result.halt_reason == "halt"
    assert _compiled_runs(registry) == 1
    assert not _fallbacks(registry)


def test_tracer_pins_the_interpreter():
    program, memory = build("v1-gadget")
    registry = MetricsRegistry()
    tracer = PipelineTracer()
    with attach(registry):
        traced = simulate(program, ProtTrack(), P_CORE, memory,
                          tracer=tracer)
    assert _compiled_runs(registry) == 0
    assert tracer.uops, "the tracer must actually have recorded events"
    assert traced.halt_reason == "halt"


def test_ref_engine_pins_the_reference():
    program, memory = build("v1-gadget")
    registry = MetricsRegistry()
    with attach(registry):
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
    with attach(registry):
        simulate(program, ProtTrack(), P_CORE, memory,
                 tracer=PipelineTracer(), engine="compiled")
        # The reference engine asked for by name is no fallback.
        simulate(program, ProtTrack(), P_CORE, build("v1-gadget")[1],
                 tracer=PipelineTracer(), engine="ref")
    assert _fallbacks(registry) == {"uarch.compile_fallbacks.tracer": 1}


def test_empty_program_runs_compiled():
    registry = MetricsRegistry()
    with attach(registry):
        result = simulate(assemble(""), Unsafe(), P_CORE,
                          no_progress_limit=50, engine="compiled")
    assert result.halt_reason == "no_progress"
    assert _compiled_runs(registry) == 1
    assert not _fallbacks(registry)
    reference = simulate(assemble(""), Unsafe(), P_CORE,
                         no_progress_limit=50, engine="ref")
    compare_results(result, reference).raise_if_different()


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


def test_compiled_cycles_per_sec_gauge():
    program, memory = build("v1-gadget")
    registry = MetricsRegistry()
    with attach(registry):
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
    results, report = run_engines(Case(f"v1-gadget/{defense}", program,
                                       DEFENSES[defense], memory=memory))
    assert report.identical, report.render()
    seq = run_program(program, memory)
    assert results["ref"].final_regs == seq.final_regs
    assert results["ref"].committed_pcs == [s.pc for s in seq.steps]


def test_generated_source_is_deterministic(v1_program):
    first = generate_source(v1_program, P_CORE, ProtTrack())
    second = generate_source(v1_program, P_CORE, ProtTrack())
    assert first == second


# ---------------------------------------------------------------------
# Programs unlike any workload: every registered workload and fuzz
# program has branches, loads, control transfers, HALT and BR, and the
# code for them is emitted for every shape.  These small programs lack
# them, one class at a time, and must run that code as the reference
# runs them.
# ---------------------------------------------------------------------

EDGE_PROGRAMS = {
    "empty": "",
    "alu-off-end": "movi r1, 5\naddi r2, r1, 3\nxor r3, r2, r1\n",
    "alu-halt": "movi r1, 5\nmuli r2, r1, 3\nsub r3, r2, r1\nhalt\n",
    "loads-only": "load r3, [r1 + 0]\nload r4, [r1 + 8]\n"
                  "load r5, [r1 + r4]\n",
    "stores-only": "store [r1 + 0], r2\nstore [r1 + 8], r3\n"
                   "store [r1 + r2], r1\n",
    "div-rem-only": "div r4, r2, r3\nrem r5, r2, r3\ndiv r6, r4, r5\n"
                    "rem r7, r6, r4\n",
    "mfence-only": "mfence\nmfence\n",
    "call-ret-no-br": "call f\ncall f\nhalt\nf:\n    ret\n",
    "jmpi-past-end": "movi r1, 100\njmpi r1\n",
}

#: Source registers: r1 an address in ``_memory()``, r2 and r3 values.
EDGE_REGS = {1: 0x1000, 2: 0x4D2, 3: 7}

EDGE_CONFIGS = {
    "P": P_CORE,
    "E": E_CORE,
    "control": P_CORE.replace(speculation_model=SpeculationModel.CONTROL),
    "buggy-squash": P_CORE.replace(buggy_squash_notify=True),
}


@pytest.mark.parametrize("config", sorted(EDGE_CONFIGS))
@pytest.mark.parametrize("name", sorted(EDGE_PROGRAMS))
def test_programs_unlike_any_workload_run_identically(name, config):
    program = assemble(EDGE_PROGRAMS[name])
    diverged = []
    for defense, factory in DEFENSES.items():
        _, report = run_engines(Case(
            f"{name}/{config}/{defense}", program, factory,
            EDGE_CONFIGS[config], memory=_memory(), regs=EDGE_REGS))
        if not report.identical:
            diverged.append(report.render())
    assert not diverged, "\n".join(diverged)
