"""Additional sequential-machine behaviours: addressing corners,
control-flow edge cases, and record completeness."""

from repro.arch import Memory, run_program
from repro.arch.semantics import ADDR_MASK, MASK64
from repro.isa import assemble


def run(src, memory=None, regs=None, fuel=20000):
    return run_program(assemble(src).linked(), memory, regs, fuel=fuel)


def test_address_wraps_at_32_bits():
    mem = Memory()
    mem.write_word(8, 77)
    r = run("load r2, [r1 + 16]\nhalt\n", mem, {1: ADDR_MASK - 7})
    assert r.final_regs[2] == 77


def test_negative_displacement():
    mem = Memory()
    mem.write_word(0x0FF8, 5)
    r = run("movi r1, 0x1000\nload r2, [r1 - 8]\nhalt\n", mem)
    assert r.final_regs[2] == 5


def test_store_then_overlapping_load():
    r = run("""
        movi r1, 0x2000
        movi r2, -1
        store [r1], r2
        load r3, [r1 + 4]
        halt
    """)
    assert r.final_regs[3] == 0x00000000FFFFFFFF


def test_self_modifying_register_addressing():
    # load into its own base register (pointer chase step)
    mem = Memory()
    mem.write_word(0x100, 0x200)
    mem.write_word(0x200, 0x300)
    r = run("""
        movi r1, 0x100
        load r1, [r1]
        load r1, [r1]
        halt
    """, mem)
    assert r.final_regs[1] == 0x300


def test_jmp_backward_with_counter():
    r = run("""
        movi r1, 5
        movi r2, 0
    top:
        addi r2, r2, 2
        subi r1, r1, 1
        cmpi r1, 0
        bne top
        halt
    """)
    assert r.final_regs[2] == 10


def test_call_depth_three():
    r = run("""
        movi sp, 0x8000
        call a
        halt
    a:
        addi r1, r1, 1
        call b
        ret
    b:
        addi r1, r1, 10
        call c
        ret
    c:
        addi r1, r1, 100
        ret
    """)
    assert r.final_regs[1] == 111
    assert r.final_regs[15] == 0x8000


def test_jmpi_computed_dispatch():
    r = run("""
        movi r1, 2
        muli r2, r1, 2
        addi r2, r2, 1
        jmpi r2
        nop
        movi r3, 7
        halt
    """)
    assert r.final_regs[3] == 7


def test_flags_preserved_across_unrelated_ops():
    r = run("""
        movi r1, 1
        movi r2, 2
        cmp r1, r2
        add r3, r1, r2
        mul r4, r3, r3
        blt less
        movi r5, 0
        halt
    less:
        movi r5, 1
        halt
    """)
    assert r.final_regs[5] == 1  # ALU ops do not clobber flags


def test_shift_by_register_mod_64():
    r = run("""
        movi r1, 1
        movi r2, 65
        shl r3, r1, r2
        halt
    """)
    assert r.final_regs[3] == 2


def test_mul_wraparound():
    r = run(f"""
        movi r1, -1
        movi r2, 2
        mul r3, r1, r2
        halt
    """)
    assert r.final_regs[3] == MASK64 - 1
