"""Per-defense gating decisions observed through pipeline behaviour:
which mechanism delays what, on minimal crafted programs."""

from repro.arch import Memory
from repro.defenses import (
    AccessDelay,
    AccessTrack,
    ProtDelay,
    ProtTrack,
    SPT,
    SPTSB,
    Unsafe,
)
from repro.isa import assemble
from repro.uarch import Core, P_CORE


def run(defense, src, memory=None):
    core = Core(assemble(src).linked(), defense, P_CORE, memory)
    result = core.run()
    assert result.halt_reason == "halt"
    return core, result


# A dependent-load pair over *warmed* (unprotected) memory.
WARM_CHAIN = """
    movi r8, 0x4000
    movi r7, 0
w:
    load r0, [r8 + r7]
    addi r7, r7, 8
    cmpi r7, 256
    blt w
    movi r5, 0
    movi r7, 0
l:
    andi r0, r7, 0xF8
    load r1, [r8 + r0]
    andi r1, r1, 0xF8
    load r2, [r8 + r1]
    add r5, r5, r2
    addi r7, r7, 8
    cmpi r7, 512
    blt l
    halt
"""


def _mem():
    memory = Memory()
    for i in range(32):
        memory.write_word(0x4000 + 8 * i, (i * 72) % 256)
    return memory


def test_stt_pays_on_warm_chains_protean_does_not():
    _, unsafe = run(Unsafe(), WARM_CHAIN, _mem())
    _, stt = run(AccessTrack(), WARM_CHAIN, _mem())
    _, track = run(ProtTrack(), WARM_CHAIN, _mem())
    assert stt.cycles > unsafe.cycles * 1.2
    # The data is unprotected after the warm pass: ProtTrack's predictor
    # learns no-access and the chain flows freely.
    assert track.cycles < stt.cycles


def test_sptsb_serializes_every_transmitter():
    _, unsafe = run(Unsafe(), WARM_CHAIN, _mem())
    _, sptsb = run(SPTSB(), WARM_CHAIN, _mem())
    assert sptsb.cycles > unsafe.cycles * 1.5


def test_access_delay_blocks_dependent_wakeups():
    _, unsafe = run(Unsafe(), WARM_CHAIN, _mem())
    _, nda = run(AccessDelay(), WARM_CHAIN, _mem())
    assert nda.cycles > unsafe.cycles * 1.2


def test_spt_first_transmission_cost_then_free():
    # The same masked address value is transmitted repeatedly: SPT pays
    # on fresh values, so a loop with fresh masks every iteration is
    # slower than the unsafe core while STT (untainted counters) is not.
    src = """
        movi r8, 0x4000
        movi r7, 0
    w:
        load r0, [r8 + r7]
        addi r7, r7, 8
        cmpi r7, 256
        blt w
        movi r7, 0
    l:
        andi r0, r7, 0xF8
        load r1, [r8 + r0]
        addi r7, r7, 8
        cmpi r7, 512
        blt l
        halt
    """
    _, unsafe = run(Unsafe(), src, _mem())
    _, spt = run(SPT(), src, _mem())
    assert spt.cycles > unsafe.cycles * 1.1


def test_protdelay_prot_prefixed_access_wakes_immediately():
    # A PROT-prefixed load of protected memory may wake its dependents
    # (they are access instructions themselves); an unprefixed one may
    # not (paper SVI-B1).  An older cold chain keeps the ROB head busy
    # so the wakeup-delay difference is visible.
    prot_src = """
        movi r9, 0x9000
        load r3, [r9]
        load r3, [r9 + r3 + 64]
        movi r8, 0x7000
        prot load r1, [r8]
        prot add r2, r1, r1
        prot add r2, r2, r2
        prot add r2, r2, r2
        prot add r2, r2, r2
        prot add r2, r2, r2
        prot add r2, r2, r2
        prot add r2, r2, r2
        prot add r2, r2, r2
        halt
    """
    unprot_src = prot_src.replace("prot load", "load")
    _, with_prot = run(ProtDelay(), prot_src)
    _, without = run(ProtDelay(), unprot_src)
    assert with_prot.cycles < without.cycles


def test_prottrack_false_negative_fallback():
    # Train the predictor to no-access, then make the same load PC read
    # protected memory: the fallback delays dependents until retire.
    src = """
        movi r8, 0x4000
        movi r9, 0x7000       ; never-written: protected
        movi r7, 0
    w:
        load r0, [r8 + r7]    ; trains this PC to no-access? no: below
        addi r7, r7, 8
        cmpi r7, 128
        blt w
        mov r10, r8
        movi r7, 0
    l:
        load r1, [r10]        ; same PC, protected on the last iteration
        add r2, r1, r1
        addi r7, r7, 1
        cmpi r7, 10
        beq swap
        cmpi r7, 12
        blt l
        jmp out
    swap:
        mov r10, r9           ; switch the PC to protected memory
        jmp l
    out:
        halt
    """
    defense = ProtTrack()
    core, result = run(defense, src, _mem())
    assert defense.predictor.false_negatives >= 1


def test_spt_sb_delays_branch_resolution():
    # The branch completes while an older cold load still blocks the
    # ROB head, so XmitDelay must defer its resolution.
    src = """
        movi r9, 0x9000
        load r3, [r9]
        movi r1, 0
    l:
        addi r1, r1, 1
        cmpi r1, 30
        blt l
        halt
    """
    core, _ = run(SPTSB(), src)
    assert core.defense.stats["resolve_interventions"] > 0
