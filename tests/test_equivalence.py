"""Property-based correctness: on random programs, the out-of-order
core's committed behaviour must equal the sequential reference machine,
for every defense, under every speculation model — Spectre defenses may
slow execution down but never change architectural results."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch import Memory, run_program
from repro.defenses import (
    AccessDelay,
    AccessTrack,
    ProtDelay,
    ProtTrack,
    SPT,
    SPTSB,
    Unsafe,
)
from repro.fuzzing import generate_program
from repro.fuzzing.inputs import generate_input
from repro.isa import assemble
from repro.protcc import compile_program
from repro.uarch import E_CORE, P_CORE, simulate
from repro.uarch.config import SpeculationModel
from repro.uarch.pipeline import ENGINES

DEFENSES = {
    "unsafe": Unsafe,
    "nda": AccessDelay,
    "stt": AccessTrack,
    "spt": SPT,
    "spt-sb": SPTSB,
    "delay": ProtDelay,
    "track": ProtTrack,
}


def assert_equivalent(program, memory, regs, defense, config=P_CORE):
    seq = run_program(program, memory, regs)
    assert seq.halt_reason == "halt"
    hw = simulate(program, defense, config, memory, regs,
                  max_cycles=2_000_000)
    assert hw.halt_reason == "halt"
    assert hw.final_regs == seq.final_regs
    assert hw.committed_pcs == [s.pc for s in seq.steps]
    assert hw.memory == seq.memory


def fuzz_case(seed):
    program = generate_program(seed)
    test_input = generate_input(random.Random(seed ^ 0xF00D))
    return program, test_input.build_memory(), test_input.build_regs()


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_unsafe_core_equivalent_on_random_programs(seed):
    program, memory, regs = fuzz_case(seed)
    assert_equivalent(program, memory, regs, Unsafe())


@pytest.mark.parametrize("name", sorted(DEFENSES))
@pytest.mark.parametrize("seed", [3, 17])
def test_defenses_preserve_architecture(name, seed):
    program, memory, regs = fuzz_case(seed)
    assert_equivalent(program, memory, regs, DEFENSES[name]())


@pytest.mark.parametrize("name", ["track", "delay"])
def test_protean_on_instrumented_random_programs(name, seed=9):
    program, memory, regs = fuzz_case(seed)
    compiled = compile_program(program, "rand", rng=random.Random(seed))
    assert_equivalent(compiled.program, memory, regs, DEFENSES[name]())


@pytest.mark.parametrize("seed", [2, 8])
def test_e_core_equivalent(seed):
    program, memory, regs = fuzz_case(seed)
    assert_equivalent(program, memory, regs, Unsafe(), E_CORE)


@pytest.mark.parametrize("seed", [4, 11])
def test_control_model_equivalent(seed):
    program, memory, regs = fuzz_case(seed)
    config = P_CORE.replace(speculation_model=SpeculationModel.CONTROL)
    assert_equivalent(program, memory, regs, AccessTrack(), config)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       clazz=st.sampled_from(["arch", "cts", "ct", "unr", "rand"]))
def test_protcc_preserves_semantics_on_random_programs(seed, clazz):
    program = generate_program(seed, size=25)
    test_input = generate_input(random.Random(seed))
    memory = test_input.build_memory()
    regs = test_input.build_regs()
    base = run_program(program, memory, regs)
    compiled = compile_program(program, clazz, rng=random.Random(seed))
    result = run_program(compiled.program, memory, regs)
    assert result.final_regs == base.final_regs
    assert result.halt_reason == base.halt_reason
    # Memory must match except the stack region: instrumentation shifts
    # PCs, so pushed *return addresses* legitimately differ.
    from repro.arch.executor import STACK_TOP

    def data_bytes(seq_result):
        return {addr: value
                for addr, value in seq_result.memory.snapshot().items()
                if value and not STACK_TOP - 0x2000 <= addr < STACK_TOP}

    assert data_bytes(result) == data_bytes(base)


def test_squashed_pop_sp_restores_the_stack_pointer():
    # ``pop sp`` renames SP twice; a squash must undo the second rename
    # before the first, or SP is left on a freed register.
    program = assemble("""
        movi r1, 0
        cmpi r1, 0
        beq skip                   ; taken; cold-predicted not taken
        pop sp                     ; squashed
    skip:
        movi r3, 5
        mov r4, sp
        halt
    """)
    seq = run_program(program, Memory(), {})
    for engine in ENGINES:
        hw = simulate(program, Unsafe(), P_CORE, Memory(), {}, engine=engine)
        assert hw.stats["squashes"] == 1, engine
        assert hw.halt_reason == "halt", engine
        assert hw.final_regs == seq.final_regs, engine


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_determinism(seed):
    program, memory, regs = fuzz_case(seed)
    a = simulate(program, ProtTrack(), P_CORE, memory, regs)
    b = simulate(program, ProtTrack(), P_CORE, memory, regs)
    assert a.cycles == b.cycles
    assert a.adversary_cache_state == b.adversary_cache_state
    assert a.timing_trace == b.timing_trace
