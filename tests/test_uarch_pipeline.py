"""Out-of-order core behaviour."""

from repro.arch import Memory, run_program
from repro.isa import assemble
from repro.uarch import Core, E_CORE, P_CORE, PipelineTracer, simulate
from repro.uarch.config import SpeculationModel


def check_equivalence(src, memory=None, regs=None, config=P_CORE):
    program = assemble(src).linked()
    seq = run_program(program, memory, regs)
    hw = simulate(program, None, config, memory, regs)
    assert hw.halt_reason == seq.halt_reason
    assert hw.final_regs == seq.final_regs
    assert hw.committed_pcs == [s.pc for s in seq.steps]
    assert hw.memory == seq.memory
    return hw


def test_straightline_arithmetic():
    hw = check_equivalence("""
        movi r1, 6
        movi r2, 7
        mul r3, r1, r2
        div r4, r3, r1
        halt
    """)
    assert hw.final_regs[3] == 42


def test_store_to_load_forwarding_correctness():
    check_equivalence("""
        movi r1, 0x4000
        movi r2, 99
        store [r1], r2
        load r3, [r1]
        add r4, r3, r3
        halt
    """)


def test_partial_overlap_handled():
    check_equivalence("""
        movi r1, 0x4000
        movi r2, -1
        store [r1], r2
        movi r3, 0
        store [r1 + 4], r3
        load r4, [r1]
        halt
    """)


def test_branchy_loop():
    hw = check_equivalence("""
        movi r1, 0
        movi r2, 0
    loop:
        add r2, r2, r1
        addi r1, r1, 1
        cmpi r1, 50
        blt loop
        halt
    """)
    assert hw.final_regs[2] == sum(range(50))


def test_data_dependent_branches():
    mem = Memory()
    for i in range(32):
        mem.write_word(0x1000 + 8 * i, i * 37 % 11)
    check_equivalence("""
        movi r1, 0x1000
        movi r2, 0
        movi r5, 0
    loop:
        load r3, [r1 + r2]
        cmpi r3, 5
        blt small
        addi r5, r5, 100
        jmp next
    small:
        addi r5, r5, 1
    next:
        addi r2, r2, 8
        cmpi r2, 256
        blt loop
        halt
    """, mem)


def test_call_ret_nesting():
    check_equivalence("""
        movi sp, 0x9000
        call outer
        halt
    outer:
        movi r1, 1
        call inner
        addi r1, r1, 16
        ret
    inner:
        addi r1, r1, 4
        ret
    """)


def test_jmpi_through_btb():
    check_equivalence("""
        movi r1, 4
        movi r2, 0
    spin:
        jmpi r1
        nop
    target:
        addi r2, r2, 1
        cmpi r2, 10
        blt spin
        halt
    """.replace("jmpi r1", "jmpi r1"), regs={})


def test_off_end_halt():
    hw = simulate(assemble("movi r1, 1\n").linked(), None)
    assert hw.halt_reason == "off_end"


def test_bad_pc_halt():
    hw = simulate(assemble("movi r1, 500\njmpi r1\n").linked(), None)
    assert hw.halt_reason == "bad_pc"


def test_timeout():
    hw = simulate(assemble("x: jmp x\n").linked(), None, max_cycles=500)
    assert hw.halt_reason == "timeout"


def test_timing_monotonic_per_uop():
    program = assemble("""
        movi r1, 0x2000
        movi r2, 3
        store [r1], r2
        load r3, [r1]
        div r4, r3, r2
        halt
    """).linked()
    tracer = PipelineTracer()
    core = Core(program, None, P_CORE, tracer=tracer)
    core.run()
    for uop in [u for u in tracer.uops if u.committed]:
        if uop.issue_cycle >= 0:
            assert (uop.fetch_cycle <= uop.rename_cycle <= uop.issue_cycle
                    <= uop.complete_cycle <= uop.commit_cycle)


def test_mfence_serializes():
    check_equivalence("""
        movi r1, 1
        mfence
        movi r2, 2
        halt
    """)


def test_e_core_config_runs():
    check_equivalence("""
        movi r1, 0
    loop:
        addi r1, r1, 1
        cmpi r1, 40
        blt loop
        halt
    """, config=E_CORE)


def test_control_speculation_model_runs():
    config = P_CORE.replace(speculation_model=SpeculationModel.CONTROL)
    check_equivalence("""
        movi r1, 0
    loop:
        addi r1, r1, 1
        cmpi r1, 30
        blt loop
        halt
    """, config=config)


def test_mispredicted_branch_recovers_rename_state():
    # Heavy misprediction traffic; final state must still be exact.
    mem = Memory()
    for i in range(64):
        mem.write_word(0x3000 + 8 * i, (i * 7919) % 3)
    check_equivalence("""
        movi r1, 0x3000
        movi r2, 0
        movi r6, 0
    loop:
        load r3, [r1 + r2]
        cmpi r3, 1
        beq one
        addi r6, r6, 2
        jmp next
    one:
        addi r6, r6, 5
    next:
        addi r2, r2, 8
        cmpi r2, 512
        blt loop
        halt
    """, mem)


def test_wrong_path_does_not_write_memory():
    # A store on the wrong path must never reach memory.
    mem = Memory()
    mem.write_word(0x100, 0)       # branch selector (cold -> late resolve)
    program = assemble("""
        movi r1, 0x100
        movi r2, 0x200
        movi r3, 0xDEAD
        load r4, [r1]
        test r4, r4
        beq skip
        store [r2], r3
    skip:
        halt
    """).linked()
    hw = simulate(program, None, P_CORE, mem)
    assert hw.memory.read_word(0x200) == 0


def test_stats_populated():
    hw = simulate(assemble("""
        movi r1, 0
    l:
        addi r1, r1, 1
        cmpi r1, 10
        blt l
        halt
    """).linked(), None)
    assert hw.stats["committed_branches"] == 10
    assert "l1d_hits" in hw.stats
    assert hw.instructions == 31  # HALT not counted
