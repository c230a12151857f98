"""Sequential machine semantics, one behaviour per test."""

from repro.arch import Memory, SequentialMachine, STACK_TOP, run_program
from repro.isa import assemble


def run(src, memory=None, regs=None, fuel=10000):
    return run_program(assemble(src).linked(), memory, regs, fuel=fuel)


def test_movi_and_halt():
    r = run("movi r1, 99\nhalt\n")
    assert r.halt_reason == "halt"
    assert r.final_regs[1] == 99


def test_negative_immediate():
    r = run("movi r1, -1\nhalt\n")
    assert r.final_regs[1] == (1 << 64) - 1


def test_arithmetic_chain():
    r = run("""
        movi r1, 10
        movi r2, 3
        add r3, r1, r2
        sub r4, r1, r2
        mul r5, r1, r2
        div r6, r1, r2
        rem r7, r1, r2
        halt
    """)
    assert r.final_regs[3:8] == (13, 7, 30, 3, 1)


def test_load_store():
    r = run("""
        movi r1, 0x2000
        movi r2, 0xABCD
        store [r1 + 8], r2
        load r3, [r1 + 8]
        halt
    """)
    assert r.final_regs[3] == 0xABCD
    assert r.memory.read_word(0x2008) == 0xABCD


def test_base_plus_index_addressing():
    mem = Memory()
    mem.write_word(0x3010, 77)
    r = run("""
        movi r1, 0x3000
        movi r2, 0x10
        load r3, [r1 + r2]
        halt
    """, mem)
    assert r.final_regs[3] == 77


def test_branch_taken_and_not_taken():
    r = run("""
        movi r1, 1
        cmpi r1, 1
        beq yes
        movi r2, 100
    yes:
        cmpi r1, 2
        beq no
        movi r3, 200
    no:
        halt
    """)
    assert r.final_regs[2] == 0 and r.final_regs[3] == 200


def test_call_ret_stack():
    r = run("""
        movi sp, 0x8000
        call f
        movi r2, 2
        halt
    f:
        movi r1, 1
        ret
    """)
    assert r.final_regs[1] == 1 and r.final_regs[2] == 2
    assert r.final_regs[15] == 0x8000  # sp restored


def test_push_pop():
    r = run("""
        movi sp, 0x8000
        movi r1, 42
        push r1
        movi r1, 0
        pop r2
        halt
    """)
    assert r.final_regs[2] == 42
    assert r.final_regs[15] == 0x8000


def test_jmpi():
    r = run("""
        movi r1, 3
        jmpi r1
        movi r2, 1
        halt
    """)
    assert r.final_regs[2] == 0
    assert r.halt_reason == "halt"


def test_default_stack_pointer():
    machine = SequentialMachine(assemble("halt\n").linked())
    assert machine.regs[15] == STACK_TOP


def test_off_end():
    assert run("nop\n").halt_reason == "off_end"


def test_bad_pc():
    r = run("movi r1, 1000\njmpi r1\n")
    assert r.halt_reason == "bad_pc"


def test_fuel_exhaustion():
    r = run("x: jmp x\n", fuel=50)
    assert r.halt_reason == "fuel"
    assert r.instruction_count == 50


def test_step_records():
    mem = Memory()
    mem.write_word(0x100, 5)
    r = run("movi r1, 0x100\nload r2, [r1]\nstore [r1 + 8], r2\nhalt\n",
            mem)
    load_step = r.steps[1]
    assert load_step.mem_read == (0x100, 5)
    assert load_step.addr_reg_values == ((1, 0x100),)
    store_step = r.steps[2]
    assert store_step.mem_write == (0x108, 5)


def test_div_operands_recorded():
    r = run("movi r1, 10\nmovi r2, 2\ndiv r3, r1, r2\nhalt\n")
    assert r.steps[2].div_operands == (10, 2)


def test_initial_regs_applied():
    r = run("add r2, r0, r1\nhalt\n", regs={0: 3, 1: 4})
    assert r.final_regs[2] == 7
