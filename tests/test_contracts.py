"""Contract checking and adversary models."""

from types import SimpleNamespace

from repro.contracts import (
    AdversaryModel,
    Contract,
    InvalidReason,
    TestInput,
    Verdict,
    check_contract_pair,
    observe,
)
from repro.defenses import ProtTrack, Unsafe
from repro.isa import assemble
from repro.arch import ObserverMode

LEAKY = """
main:
    movi r1, 0x1000
    movi r9, 0x20000
    movi r2, 0x80000
    load r8, [r9]
    load r8, [r9 + r8 + 64]
    test r8, r8
    beq safe
    load r3, [r1 + 800]
    shli r3, r3, 9
    load r4, [r2 + r3]
safe:
    halt
"""


def inputs(secret):
    return TestInput(memory_words=((0x1000 + 800, secret),))


def test_contract_observer_mapping():
    assert Contract.ARCH_SEQ.observer is ObserverMode.ARCH
    assert Contract.CT_SEQ.observer is ObserverMode.CT
    assert Contract.CTS_SEQ.observer is ObserverMode.CTS
    assert Contract.UNPROT_SEQ.observer is ObserverMode.UNPROT


def test_unsafe_violates_arch_seq():
    program = assemble(LEAKY).linked()
    outcome = check_contract_pair(program, Unsafe, Contract.ARCH_SEQ,
                                  inputs(3), inputs(57))
    assert outcome.verdict is Verdict.VIOLATION


def test_prottrack_upholds_arch_seq():
    program = assemble(LEAKY).linked()
    outcome = check_contract_pair(program, ProtTrack, Contract.ARCH_SEQ,
                                  inputs(3), inputs(57))
    assert outcome.verdict is Verdict.PASS


def test_architecturally_distinguishable_pair_rejected():
    program = assemble("""
        load r1, [r2]
        cmpi r1, 0
        beq done
        movi r3, 1
    done:
        halt
    """).linked()
    a = TestInput(memory_words=((0, 0),), regs=((2, 0),))
    b = TestInput(memory_words=((0, 1),), regs=((2, 0),))
    outcome = check_contract_pair(program, Unsafe, Contract.ARCH_SEQ, a, b)
    assert outcome.verdict is Verdict.INVALID_PAIR


def test_nonterminating_pair_rejected():
    program = assemble("x: jmp x\n").linked()
    outcome = check_contract_pair(program, Unsafe, Contract.CT_SEQ,
                                  TestInput(), TestInput(), fuel=100)
    assert outcome.verdict is Verdict.INVALID_PAIR


def test_adversary_observation_shapes():
    from repro.uarch import simulate
    program = assemble("movi r1, 1\nhalt\n").linked()
    result = simulate(program, None)
    cache_view = observe(result, AdversaryModel.CACHE_TLB)
    timing_view = observe(result, AdversaryModel.TIMING)
    # l1d, l2, l3, tlb tag states: the L3 is part of the probing
    # surface (shared-LLC channel).
    assert len(cache_view) == 4
    assert timing_view[0] == result.cycles


def test_identical_inputs_always_pass():
    program = assemble(LEAKY).linked()
    outcome = check_contract_pair(program, Unsafe, Contract.ARCH_SEQ,
                                  inputs(3), inputs(3))
    assert outcome.verdict is Verdict.PASS


def test_violation_carries_localized_divergence():
    program = assemble(LEAKY).linked()
    outcome = check_contract_pair(program, Unsafe, Contract.ARCH_SEQ,
                                  inputs(3), inputs(57))
    assert outcome.verdict is Verdict.VIOLATION
    assert outcome.divergence is not None
    assert outcome.divergence.adversary == outcome.adversary.value
    assert outcome.divergence.label in outcome.detail


def test_invalid_pair_reasons_are_reported():
    looping = assemble("x: jmp x\n").linked()
    outcome = check_contract_pair(looping, Unsafe, Contract.CT_SEQ,
                                  TestInput(), TestInput(), fuel=100)
    assert outcome.invalid_reason is InvalidReason.NONTERMINATING

    distinguishable = assemble("""
        load r1, [r2]
        cmpi r1, 0
        beq done
        movi r3, 1
    done:
        halt
    """).linked()
    a = TestInput(memory_words=((0, 0),), regs=((2, 0),))
    b = TestInput(memory_words=((0, 1),), regs=((2, 0),))
    outcome = check_contract_pair(distinguishable, Unsafe,
                                  Contract.ARCH_SEQ, a, b)
    assert outcome.invalid_reason is InvalidReason.DISTINGUISHABLE


def test_hw_timeout_reported_as_invalid_reason(monkeypatch):
    from repro.contracts import checker

    def timed_out(*args, **kwargs):
        return SimpleNamespace(halt_reason="timeout")

    monkeypatch.setattr(checker, "simulate", timed_out)
    program = assemble("movi r1, 1\nhalt\n").linked()
    outcome = check_contract_pair(program, Unsafe, Contract.ARCH_SEQ,
                                  TestInput(), TestInput())
    assert outcome.verdict is Verdict.INVALID_PAIR
    assert outcome.invalid_reason is InvalidReason.HW_TIMEOUT


def test_false_positive_filter_flags_sequential_divergence(monkeypatch):
    """A divergence whose committed streams differ is the AMuLeT*
    sequential-leakage artifact, not a transient violation.  Honest runs
    with equal contract traces cannot produce one, so doctor the
    microarchitectural results directly."""
    from repro.contracts import checker

    empty = frozenset()
    doctored = [
        SimpleNamespace(halt_reason="halt",
                        adversary_cache_state=(frozenset({(0, 1)}), empty,
                                               empty, empty),
                        cycles=10, timing_trace=[],
                        committed_pcs=[0, 1], committed_accesses=[]),
        SimpleNamespace(halt_reason="halt",
                        adversary_cache_state=(frozenset({(0, 2)}), empty,
                                               empty, empty),
                        cycles=10, timing_trace=[],
                        committed_pcs=[0, 2], committed_accesses=[]),
    ]
    monkeypatch.setattr(checker, "simulate",
                        lambda *args, **kwargs: doctored.pop(0))
    program = assemble("movi r1, 1\nhalt\n").linked()
    # Two distinct inputs (the program never reads r2): the checker
    # simulates each distinct input once, so equal inputs would share
    # one doctored run.
    outcome = check_contract_pair(
        program, Unsafe, Contract.ARCH_SEQ, TestInput(),
        TestInput(regs=((2, 1),)),
        adversaries=(AdversaryModel.CACHE_TLB,))
    assert outcome.verdict is Verdict.FALSE_POSITIVE
    assert outcome.adversary is AdversaryModel.CACHE_TLB
    # The localized divergence is attached to false positives too.
    assert outcome.divergence is not None
    assert outcome.divergence.kind == "cache_tag"
