"""Dataflow analyses behind the ProtCC passes."""

from repro.isa import FLAGS, SP, assemble
from repro.protcc.analyses import (
    ReachingDefinitions,
    bound_to_leak,
    cts_sensitive_regs,
    full_transmit_regs,
    past_leaked,
    past_leaked_after,
    solve,
    unprotectable,
    unprotectable_after,
)
from repro.protcc.cfg import FunctionGraph, function_regions


def graph_of(src):
    program = assemble(src).linked()
    region = function_regions(program)[0]
    return FunctionGraph(program, region)


def has(mask, reg):
    return bool((mask >> reg) & 1)


def test_full_transmit_set():
    g = graph_of(".func f\nload r1, [r2 + r3]\nret\n.endfunc\n")
    inst = g.instruction(0)
    assert set(full_transmit_regs(inst)) == {2, 3}
    br = graph_of(".func f\nx: beq x\nret\n.endfunc\n").instruction(0)
    assert full_transmit_regs(br) == (FLAGS,)
    div = graph_of(".func f\ndiv r1, r2, r3\nret\n.endfunc\n").instruction(0)
    assert full_transmit_regs(div) == ()          # partial only
    assert set(cts_sensitive_regs(div)) == {2, 3}  # but CTS-typed public


def test_past_leaked_constants():
    g = graph_of("""
    .func f
        movi r1, 5
        addi r2, r1, 1
        load r3, [r4]
        nop
        ret
    .endfunc
    """)
    pl = past_leaked(g)
    after_load = past_leaked_after(g, pl, 2)
    assert has(after_load, 1)     # constant
    assert has(after_load, 2)     # derived from constant
    assert has(after_load, 4)     # transmitted as an address
    assert not has(after_load, 3)  # loaded data is unknown


def test_past_leaked_meet_is_intersection():
    g = graph_of("""
    .func f
        cmpi r0, 0
        beq other
        movi r1, 1
        jmp join
    other:
        load r1, [r2]
    join:
        nop
        ret
    .endfunc
    """)
    pl = past_leaked(g)
    join_pc = 5
    assert not has(pl[join_pc], 1)   # constant on one path only
    assert not has(pl[join_pc], 2)   # transmitted on one path only
    assert has(pl[join_pc], FLAGS)   # the branch leaked flags on both


def test_bound_to_leak_through_transmitter():
    g = graph_of("""
    .func f
        movi r1, 0
        load r2, [r3]
        ret
    .endfunc
    """)
    btl = bound_to_leak(g)
    assert has(btl[0], 3)      # r3 will be transmitted by the load
    assert not has(btl[0], 2)


def test_bound_to_leak_invertible_backprop():
    g = graph_of("""
    .func f
        mov r1, r0
        addi r1, r1, 8
        load r2, [r1]
        ret
    .endfunc
    """)
    btl = bound_to_leak(g)
    assert has(btl[0], 0)  # r0 flows invertibly into a leaked address


def test_bound_to_leak_killed_by_lossy_op():
    g = graph_of("""
    .func f
        andi r1, r0, 248
        load r2, [r1]
        ret
    .endfunc
    """)
    btl = bound_to_leak(g)
    assert has(btl[1], 1)
    assert not has(btl[0], 0)  # masking is not invertible


def test_bound_to_leak_must_over_paths():
    g = graph_of("""
    .func f
        cmpi r4, 0
        beq skip
        load r2, [r1]
    skip:
        ret
    .endfunc
    """)
    btl = bound_to_leak(g)
    assert not has(btl[0], 1)  # leaks on one path only


def test_unprotectable_tracks_constant_derivations():
    g = graph_of("""
    .func f
        movi r1, 4
        add r2, r1, sp
        load r3, [r2]
        mul r4, r3, r1
        ret
    .endfunc
    """)
    u = unprotectable(g)
    assert has(unprotectable_after(g, u, 1), 2)   # const + sp
    assert not has(unprotectable_after(g, u, 2), 3)  # loaded data
    assert not has(unprotectable_after(g, u, 3), 4)  # derived from load
    assert has(u[0], SP)


def test_call_clobbers_caller_saved():
    g = graph_of("""
    .func f
        movi r1, 4
        movi r9, 4
        call g
        nop
        ret
    .endfunc
    .func g
    g:
        ret
    .endfunc
    """)
    u = unprotectable(g)
    after_call = u[3]
    assert not has(after_call, 1)   # caller-saved clobbered
    assert has(after_call, 9)       # callee-saved survives
    assert has(after_call, SP)


def test_reaching_definitions_basic():
    g = graph_of("""
    .func f
        movi r1, 1
        cmpi r0, 0
        beq skip
        movi r1, 2
    skip:
        mov r2, r1
        ret
    .endfunc
    """)
    rd = ReachingDefinitions(g)
    reaching = rd.reaching(4, 1)
    pcs = {d.pc for d in reaching}
    assert pcs == {0, 3}


def test_reaching_definitions_entry_defs():
    g = graph_of(".func f\nmov r2, r1\nret\n.endfunc\n")
    rd = ReachingDefinitions(g)
    defs = rd.reaching(0, 1)
    assert len(defs) == 1 and defs[0].kind == "entry"


def test_reaching_definitions_call_defs():
    g = graph_of("""
    .func f
        call g
        mov r2, r0
        ret
    .endfunc
    .func g
    g:
        ret
    .endfunc
    """)
    rd = ReachingDefinitions(g)
    kinds = {d.kind for d in rd.reaching(1, 0)}
    assert kinds == {"call"}


def test_solve_may_forward_unions_around_a_loop():
    g = graph_of("""
    .func f
    top:
        nop
        cmpi r0, 0
        beq top
        ret
    .endfunc
    """)
    # Each pc adds its own bit: the loop head's own bit comes back
    # along the back edge, and the boundary holds only at the entry.
    ins = solve(g, lambda pc, value: value | (1 << pc), 1 << 8, must=False)
    assert ins[0] == ins[3] == (1 << 8) | 0b111
    ins = solve(g, lambda pc, value: value | (1 << pc), 0, must=False)
    assert ins[0] == 0b111


def test_solve_must_backward_holds_boundary_at_exits():
    g = graph_of("""
    .func f
        cmpi r0, 0
        beq other
        ret
    other:
        halt
    .endfunc
    """)
    assert g.exits == [2, 3]
    # Each pc removes its own bit: OUT sets meet by intersection.
    outs = solve(g, lambda pc, value: value & ~(1 << pc), 0b1111,
                 must=True, backward=True)
    assert outs[2] == outs[3] == 0b1111
    assert outs[1] == 0b0011
    assert outs[0] == 0b0001
