"""Security-contract violation checking (paper SII-C, SVII-B).

A microarchitecture *violates* a contract if two victim executions with
equal contract traces (computed on the sequential reference machine
under an observer mode) are distinguishable under an adversary model.

The checker also implements AMuLeT*'s automated false-positive
filtering (paper SVII-B1e): a detected divergence whose committed
instruction streams differ in PCs or accessed addresses indicates
*sequential* (not transient) leakage — a generator/contract artifact,
not a defense bug.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from ..arch.executor import SeqResult, run_program
from ..arch.memory import Memory
from ..arch.observers import ObserverMode, contract_trace
from ..isa.registers import reg_name
from ..uarch.config import CoreConfig, P_CORE
from ..uarch.pipeline import CoreResult, simulate
from .adversary import AdversaryModel, Divergence, first_divergence, observe


class Contract(enum.Enum):
    """The SEQ-execution-mode contracts the paper evaluates (Tab. II)."""

    ARCH_SEQ = "arch-seq"
    CTS_SEQ = "cts-seq"
    CT_SEQ = "ct-seq"
    UNPROT_SEQ = "unprot-seq"

    @property
    def observer(self) -> ObserverMode:
        return {
            Contract.ARCH_SEQ: ObserverMode.ARCH,
            Contract.CTS_SEQ: ObserverMode.CTS,
            Contract.CT_SEQ: ObserverMode.CT,
            Contract.UNPROT_SEQ: ObserverMode.UNPROT,
        }[self]


class Verdict(enum.Enum):
    #: The input pair is contract-distinguishable: not a valid test.
    INVALID_PAIR = "invalid_pair"
    #: Adversary observations match: no leak observed.
    PASS = "pass"
    #: Divergence whose committed streams differ: sequential artifact.
    FALSE_POSITIVE = "false_positive"
    #: Transient leakage: a genuine contract violation.
    VIOLATION = "violation"


class InvalidReason(enum.Enum):
    """Why an input pair was rejected (the ``INVALID_PAIR`` breakdown
    campaign telemetry reports)."""

    #: One victim run exhausted its sequential fuel.
    NONTERMINATING = "nonterminating"
    #: The contract traces differ: the contract itself exposes the diff.
    DISTINGUISHABLE = "contract-distinguishable"
    #: The microarchitectural simulation hit its cycle limit.
    HW_TIMEOUT = "hw-timeout"


#: The budgets of one check: sequential fuel per victim run, and the
#: cycle limit of each hardware run.  Witnesses record them, so that a
#: replay runs under the limits the campaign used.
CHECK_FUEL = 60_000
CHECK_MAX_CYCLES = 400_000

#: Hardware halt reasons of a run cut short by its cycle budget.
#: "no_progress" is the early-abort flavour of a timeout: the core
#: proved the machine wedged instead of burning ``max_cycles``.
_HW_CUT_SHORT = ("timeout", "no_progress")


class ArchitecturalMismatch(Exception):
    """A hardware run disagrees architecturally with the sequential run
    of the same input: an engine bug, never a verdict."""


@dataclass(frozen=True)
class TestInput:
    """One victim input: initial memory words and registers."""

    #: Not a test class, whatever its name tells pytest's collector.
    __test__ = False

    memory_words: Tuple[Tuple[int, int], ...] = ()
    regs: Tuple[Tuple[int, int], ...] = ()

    def build_memory(self) -> Memory:
        memory = Memory()
        write_word = memory.write_word
        for addr, value in self.memory_words:
            write_word(addr, value)
        return memory

    def build_regs(self) -> Dict[int, int]:
        return dict(self.regs)


@dataclass
class CheckOutcome:
    verdict: Verdict
    adversary: Optional[AdversaryModel] = None
    detail: str = ""
    #: Set for INVALID_PAIR verdicts: the rejection reason.
    invalid_reason: Optional[InvalidReason] = None
    #: Set for VIOLATION / FALSE_POSITIVE verdicts: the first adversary
    #: observation element the two runs disagree on.
    divergence: Optional[Divergence] = None


def check_contract_pair(
    program,
    defense_factory: Callable[[], object],
    contract: Contract,
    input_a: TestInput,
    input_b: TestInput,
    config: CoreConfig = P_CORE,
    adversaries: Tuple[AdversaryModel, ...] = (AdversaryModel.CACHE_TLB,
                                               AdversaryModel.TIMING),
    public_def_pcs: Optional[Set[int]] = None,
    fuel: int = CHECK_FUEL,
    max_cycles: int = CHECK_MAX_CYCLES,
    hw_runs: Optional[Dict[TestInput, CoreResult]] = None,
) -> CheckOutcome:
    """Run one AMuLeT*-style test: two inputs, one contract, one or more
    adversary models.

    ``hw_runs`` memoizes the hardware runs, ``TestInput -> CoreResult``:
    an input is simulated the first time a pair that reaches the
    hardware stage needs it.  Pairs of one program (same program,
    defense factory, config and ``max_cycles``) may share one memo, so
    that an input they have in common is simulated once; without one,
    each check simulates both of its inputs.

    Each new hardware run that ends is checked against this check's
    sequential run of the same input (:func:`check_equivalent`): a
    mismatch raises :class:`ArchitecturalMismatch`."""
    seq_a = run_program(program, input_a.build_memory(),
                        input_a.build_regs(), fuel=fuel)
    seq_b = run_program(program, input_b.build_memory(),
                        input_b.build_regs(), fuel=fuel)
    if seq_a.halt_reason == "fuel" or seq_b.halt_reason == "fuel":
        return CheckOutcome(Verdict.INVALID_PAIR, detail="nonterminating",
                            invalid_reason=InvalidReason.NONTERMINATING)

    trace_a = contract_trace(seq_a, contract.observer, public_def_pcs)
    trace_b = contract_trace(seq_b, contract.observer, public_def_pcs)
    if trace_a != trace_b:
        return CheckOutcome(Verdict.INVALID_PAIR,
                            detail="contract-distinguishable inputs",
                            invalid_reason=InvalidReason.DISTINGUISHABLE)

    if hw_runs is None:
        hw_runs = {}
    for test_input, seq in ((input_a, seq_a), (input_b, seq_b)):
        if test_input not in hw_runs:
            hw = hw_runs[test_input] = simulate(
                program, defense_factory(), config,
                test_input.build_memory(), test_input.build_regs(),
                max_cycles=max_cycles)
            if hw.halt_reason not in _HW_CUT_SHORT:
                check_equivalent(seq, hw)
    hw_a, hw_b = hw_runs[input_a], hw_runs[input_b]
    if (hw_a.halt_reason in _HW_CUT_SHORT
            or hw_b.halt_reason in _HW_CUT_SHORT):
        return CheckOutcome(Verdict.INVALID_PAIR, detail="hw timeout",
                            invalid_reason=InvalidReason.HW_TIMEOUT)

    for adversary in adversaries:
        if observe(hw_a, adversary) != observe(hw_b, adversary):
            divergence = first_divergence(hw_a, hw_b, adversary)
            if _is_false_positive(hw_a, hw_b):
                return CheckOutcome(Verdict.FALSE_POSITIVE, adversary,
                                    "sequential divergence in committed "
                                    "streams", divergence=divergence)
            detail = f"distinguishable under {adversary.value}"
            if divergence is not None:
                detail += f"; first divergence: {divergence.label}"
            return CheckOutcome(Verdict.VIOLATION, adversary, detail,
                                divergence=divergence)
    return CheckOutcome(Verdict.PASS)


def check_equivalent(seq: SeqResult, hw: CoreResult) -> None:
    """Raise :class:`ArchitecturalMismatch` unless the hardware run
    ``hw`` ended as the sequential run ``seq`` of the same input did,
    committed the PCs ``seq`` stepped through, and left the same
    registers and memory (the assertions of
    ``tests/test_equivalence.py::assert_equivalent``).  The message
    names the first differing halt reason, committed PC, register or
    memory byte."""
    seq_pcs = [step.pc for step in seq.steps]
    if hw.halt_reason != seq.halt_reason:
        problem = (f"the hardware run ended {hw.halt_reason!r}, the "
                   f"sequential run {seq.halt_reason!r}")
    elif hw.committed_pcs != seq_pcs:
        hw_pcs = hw.committed_pcs
        i = next((i for i, (a, b) in enumerate(zip(hw_pcs, seq_pcs))
                  if a != b), min(len(hw_pcs), len(seq_pcs)))
        problem = (f"committed instruction {i}: hardware pc "
                   f"{_pc_at(hw_pcs, i)}, sequential pc "
                   f"{_pc_at(seq_pcs, i)}")
    elif hw.final_regs != seq.final_regs:
        r = next(r for r, (a, b) in enumerate(zip(hw.final_regs,
                                                  seq.final_regs))
                 if a != b)
        problem = (f"register {reg_name(r)}: hardware "
                   f"{hw.final_regs[r]:#x}, sequential "
                   f"{seq.final_regs[r]:#x}")
    elif hw.memory != seq.memory:
        hw_bytes, seq_bytes = hw.memory.snapshot(), seq.memory.snapshot()
        addr = min(a for a in set(hw_bytes) | set(seq_bytes)
                   if hw_bytes.get(a, 0) != seq_bytes.get(a, 0))
        problem = (f"memory byte {addr:#x}: hardware "
                   f"{hw_bytes.get(addr, 0):#04x}, sequential "
                   f"{seq_bytes.get(addr, 0):#04x}")
    else:
        return
    raise ArchitecturalMismatch(
        f"architectural mismatch (an engine bug, not a verdict): {problem}")


def _pc_at(pcs, i):
    return pcs[i] if i < len(pcs) else "none"


def _is_false_positive(a: CoreResult, b: CoreResult) -> bool:
    """AMuLeT*'s post-processing filter: committed microcode sequences
    differing in PCs or accessed addresses indicate sequential leakage
    (paper SVII-B1e)."""
    return (a.committed_pcs != b.committed_pcs
            or a.committed_accesses != b.committed_accesses)
