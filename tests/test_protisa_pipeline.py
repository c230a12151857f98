"""ProtISA's microarchitectural tag plumbing through the pipeline
(paper SIV-C): rename-map bits on physical registers, LSQ bits at
execute, L1D bits at commit."""

from repro.arch import Memory
from repro.isa import assemble
from repro.uarch import Core, P_CORE, PipelineTracer


def run_core(src, memory=None):
    core = Core(assemble(src).linked(), None, P_CORE, memory,
                tracer=PipelineTracer())
    result = core.run()
    assert result.halt_reason == "halt"
    return core


def committed(core, pc):
    return next(u for u in core.tracer.uops if u.committed and u.pc == pc)


def test_prot_prefix_tags_physical_register():
    core = run_core("prot movi r1, 5\nmovi r2, 6\nhalt\n")
    prot_uop = committed(core, 0)
    unprot_uop = committed(core, 1)
    assert core.prf.prot[prot_uop.pdests[0][1]] is True
    assert core.prf.prot[unprot_uop.pdests[0][1]] is False


def test_store_lsq_bit_follows_data_operand():
    core = run_core("""
        movi r1, 0x2000
        prot movi r2, 7
        store [r1], r2
        movi r3, 8
        store [r1 + 8], r3
        halt
    """)
    assert committed(core, 2).lsq_prot is True
    assert committed(core, 4).lsq_prot is False


def test_store_commit_updates_l1d_tags():
    core = run_core("""
        movi r1, 0x2000
        prot movi r2, 7
        store [r1], r2
        movi r3, 8
        store [r1 + 8], r3
        halt
    """)
    assert core.mem_tags.word_protected(0x2000)
    assert not core.mem_tags.word_protected(0x2008)


def test_load_lsq_bit_reads_l1d_tags():
    mem = Memory()
    mem.write_word(0x3000, 1)
    # The second load's address depends on a long multiply chain so it
    # cannot execute until the first load has committed (unprotection
    # happens at commit, paper SIV-C2b).
    core = run_core("""
        movi r1, 0x3000
        load r2, [r1]
        mul r4, r2, r2
        mul r4, r4, r4
        mul r4, r4, r4
        mul r4, r4, r4
        mul r4, r4, r4
        andi r4, r4, 0
        add r5, r1, r4
        load r3, [r5]
        halt
    """, mem)
    # First load reads never-written (protected) memory...
    assert committed(core, 1).lsq_prot is True
    # ...its unprefixed commit unprotects the bytes for the second.
    assert committed(core, 9).lsq_prot is False
    assert not core.mem_tags.word_protected(0x3000)


def test_prot_load_does_not_unprotect_memory():
    mem = Memory()
    mem.write_word(0x3000, 1)
    core = run_core("""
        movi r1, 0x3000
        prot load r2, [r1]
        halt
    """, mem)
    assert core.mem_tags.word_protected(0x3000)


def test_forwarded_load_copies_store_bit():
    core = run_core("""
        movi r1, 0x4000
        prot movi r2, 9
        store [r1], r2
        load r3, [r1]
        halt
    """)
    load = committed(core, 3)
    assert load.forwarded_from is not None
    assert load.lsq_prot is True


def test_call_return_address_unprotected():
    core = run_core("""
        movi sp, 0x9000
        call f
        halt
    f:
        ret
    """)
    call = committed(core, 1)
    assert call.lsq_prot is False
