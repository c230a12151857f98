"""Defense-mechanism unit behaviour: taint propagation, the access
predictor, and per-defense gating decisions on crafted pipelines."""

import pytest

from repro.arch import Memory
from repro.defenses import (
    AccessDelay,
    AccessPredictor,
    AccessTrack,
    ProtDelay,
    ProtTrack,
    SPT,
    SPTSB,
    Unsafe,
)
from repro.isa import assemble
from repro.uarch import Core, P_CORE, PipelineTracer


# ---------------------------------------------------------------- predictor

def test_predictor_defaults_to_access():
    p = AccessPredictor(entries=16)
    assert p.predict_access(0x40) is True


def test_predictor_learns_no_access():
    p = AccessPredictor(entries=16)
    p.predict_access(5)
    p.train(5, was_access=False, predicted=True)
    assert p.predict_access(5) is False
    assert p.mispredictions == 1


def test_predictor_aliasing():
    p = AccessPredictor(entries=4)
    p.train(1, was_access=False, predicted=True)
    assert p.predict_access(5) is False  # 5 aliases 1


def test_infinite_predictor_no_aliasing():
    p = AccessPredictor(entries=None)
    p.train(1, was_access=False, predicted=True)
    assert p.predict_access(5) is True


def test_predictor_false_negative_counted():
    p = AccessPredictor(entries=16)
    p.train(3, was_access=False, predicted=True)
    p.train(3, was_access=True, predicted=False)
    assert p.false_negatives == 1


def test_predictor_rejects_zero_entries():
    with pytest.raises(ValueError):
        AccessPredictor(entries=0)


def test_predictor_rate():
    p = AccessPredictor(entries=16)
    assert p.misprediction_rate == 0.0
    p.predict_access(0)
    p.train(0, was_access=False, predicted=True)
    assert p.misprediction_rate == 1.0


# ---------------------------------------------------------------- taint

def run_with(defense, src, memory=None):
    """The finished core and its committed uops, from the run's tracer."""
    tracer = PipelineTracer()
    core = Core(assemble(src).linked(), defense, P_CORE, memory,
                tracer=tracer)
    result = core.run()
    assert result.halt_reason == "halt"
    return core, [u for u in tracer.uops if u.committed]


def test_stt_taints_load_outputs():
    mem = Memory()
    mem.write_word(0x100, 3)
    defense = AccessTrack()
    core, committed = run_with(defense, """
        movi r1, 0x100
        load r2, [r1]
        add r3, r2, r2
        halt
    """, mem)
    load = next(u for u in committed if u.pc == 1)
    add = next(u for u in committed if u.pc == 2)
    # Taint roots propagate: the add's output carries the load's seq.
    assert core.prf.yrot[add.pdests[0][1]] == load.seq


def test_stt_does_not_taint_alu_roots():
    defense = AccessTrack()
    core, committed = run_with(defense, "movi r1, 1\nadd r2, r1, r1\nhalt\n")
    add = next(u for u in committed if u.pc == 1)
    assert core.prf.yrot[add.pdests[0][1]] is None


def test_prottrack_protected_source_taints_unprefixed_output():
    defense = ProtTrack()
    core, committed = run_with(defense, """
        prot movi r1, 5
        add r2, r1, r1
        prot add r3, r1, r1
        halt
    """)
    unprefixed = next(u for u in committed if u.pc == 1)
    prefixed = next(u for u in committed if u.pc == 2)
    assert core.prf.yrot[unprefixed.pdests[0][1]] == unprefixed.seq
    # The PROT-prefixed output is covered by its protection tag instead.
    assert core.prf.yrot[prefixed.pdests[0][1]] is None
    assert core.prf.prot[prefixed.pdests[0][1]]


def test_prottrack_trains_predictor_at_commit():
    defense = ProtTrack()
    mem = Memory()
    mem.write_word(0x100, 1)
    run_with(defense, """
        movi r1, 0x100
        load r2, [r1]
        halt
    """, mem)
    assert defense.predictor.predictions >= 1


def test_spt_publicness_via_transmission():
    defense = SPT()
    core, committed = run_with(defense, """
        movi r1, 0x200
        movi r2, 1
        store [r1], r2
        halt
    """)
    store = next(u for u in committed if u.pc == 2)
    addr_preg = store.phys_for(1)
    assert core.prf.public[addr_preg]  # transmitted as a store address


def test_spt_lossy_op_blocks_publicness():
    defense = SPT()
    core, committed = run_with(defense, """
        movi r1, 0x200
        store [r1], r1
        andi r2, r1, 0xF8
        mul r3, r1, r1
        addi r4, r1, 8
        halt
    """)

    def get(pc):
        return next(u for u in committed if u.pc == pc)

    assert not core.prf.public[get(2).pdests[0][1]]  # AND is lossy
    assert not core.prf.public[get(3).pdests[0][1]]  # MUL is lossy
    assert core.prf.public[get(4).pdests[0][1]]      # ADDI is invertible


def test_defense_names():
    assert Unsafe().name == "Unsafe"
    assert AccessDelay().binary == "base"
    assert ProtDelay().binary == "protcc"
    assert ProtDelay(selective_wakeup=False).name == "AccessDelay-on-ProtISA"
    assert ProtTrack(use_predictor=False).name == "AccessTrack-on-ProtISA"
    assert SPTSB().name == "SPT-SB"
