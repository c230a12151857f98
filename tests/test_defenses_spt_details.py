"""SPT mechanism details: backward invertible declassification, the
shadow-memory analogue, and first-transmission delays."""

from repro.arch import Memory
from repro.defenses import SPT
from repro.isa import assemble
from repro.uarch import Core, P_CORE, PipelineTracer


def run_spt(src, memory=None):
    defense = SPT()
    core = Core(assemble(src).linked(), defense, P_CORE, memory,
                tracer=PipelineTracer())
    result = core.run()
    assert result.halt_reason == "halt"
    return core, defense


def preg_of(core, pc, which=0):
    uop = next(u for u in core.tracer.uops if u.committed and u.pc == pc)
    return uop.pdests[which][1]


def test_backward_closure_through_invertible_chain():
    # r1 -> addi -> transmitted: both the sum and r1 become public.
    core, _ = run_spt("""
        movi r9, 0x4000
        load r1, [r9]         ; not public (fresh load)
        addi r2, r1, 8
        store [r2], r1        ; transmits r2 (and, invertibly, r1)
        halt
    """, Memory({0x4000: 0x40, 0x4001: 0x00}))
    assert core.prf.public[preg_of(core, 1)]   # r1, via the closure
    assert core.prf.public[preg_of(core, 2)]   # r2, directly


def test_backward_closure_stops_at_lossy_op():
    core, _ = run_spt("""
        movi r9, 0x4000
        load r1, [r9]
        andi r2, r1, 0xF8     ; lossy
        movi r10, 0x5000
        store [r10 + r2], r1  ; transmits r2 only
        halt
    """, Memory({0x4000: 0x40}))
    assert core.prf.public[preg_of(core, 2)]       # the mask itself
    assert not core.prf.public[preg_of(core, 1)]   # r1 stays private


def test_transmitted_load_declassifies_its_bytes():
    # Once a loaded value is transmitted, the bytes it came from are
    # public: a later load of the same word is public at execute.
    core, defense = run_spt("""
        movi r9, 0x4000
        load r1, [r9]         ; pointer stored in memory
        movi r10, 0x5000
        store [r10 + r1], r1  ; transmits r1 -> declassifies 0x4000
        load r2, [r9]         ; now reads public bytes
        mul r3, r2, r2
        mul r3, r3, r3
        mul r3, r3, r3
        mul r3, r3, r3
        load r4, [r9]         ; well after the declassifying commit
        halt
    """, Memory({0x4000: 0x40}))
    assert any(0x4000 + i in defense._public_mem for i in range(8))


def test_branch_on_fresh_flags_resolves_at_nonspec_only():
    # Flags are never "already transmitted" when freshly computed from
    # non-public data: a mispredicting branch pays the full window.
    src = """
        movi r9, 0x4000
        movi r8, 0x6000
        load r0, [r8]          ; chained cold head-blockers keep the
        load r0, [r8 + r0 + 64]  ; branch speculative when it completes
        load r1, [r9]          ; data feeding the branch
        cmpi r1, 5
        beq over
        movi r2, 1
    over:
        halt
    """
    core, defense = run_spt(src, Memory({0x4000: 0x05}))
    assert defense.stats["resolve_interventions"] > 0
