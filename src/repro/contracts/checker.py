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

from ..arch.executor import run_program
from ..arch.memory import Memory
from ..arch.observers import ObserverMode, contract_trace
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
    each check simulates both of its inputs."""
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
    for test_input in (input_a, input_b):
        if test_input not in hw_runs:
            hw_runs[test_input] = simulate(
                program, defense_factory(), config,
                test_input.build_memory(), test_input.build_regs(),
                max_cycles=max_cycles)
    hw_a, hw_b = hw_runs[input_a], hw_runs[input_b]
    # "no_progress" is the early-abort flavour of a timeout: the core
    # proved the machine wedged instead of burning max_cycles.
    if (hw_a.halt_reason in ("timeout", "no_progress")
            or hw_b.halt_reason in ("timeout", "no_progress")):
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


def _is_false_positive(a: CoreResult, b: CoreResult) -> bool:
    """AMuLeT*'s post-processing filter: committed microcode sequences
    differing in PCs or accessed addresses indicate sequential leakage
    (paper SVII-B1e)."""
    return (a.committed_pcs != b.committed_pcs
            or a.committed_accesses != b.committed_accesses)
