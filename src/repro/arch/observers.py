"""Observer modes and contract traces (paper SII-C, SVII-B1).

An observer mode defines what architectural state a security contract
exposes at each step of the SEQ execution.  Two victim runs whose
contract traces are equal must be indistinguishable to the adversary on
secure hardware; a microarchitecture that lets an adversary distinguish
them *violates* the contract.

Modes:

* ``ARCH``  — exposes all accessed data (non-secret-accessing code).
* ``CT``    — exposes transmitter operands: individual address registers
  (the AMuLeT* refinement), branch flags, indirect targets, division
  operands (constant-time code).
* ``CTS``   — CT plus all data written by publicly-*typed* definitions.
* ``UNPROT``— CT plus all data held in ProtISA-unprotected registers.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import List, Optional, Sequence, Set, Tuple

from ..isa.operations import Op
from .executor import SeqResult, StepRecord

Observation = Tuple

#: The value of a ``(register, value)`` or ``(address, value)`` pair.
_value = itemgetter(1)


class ObserverMode(enum.Enum):
    ARCH = "arch"
    CT = "ct"
    CTS = "cts"
    UNPROT = "unprot"


def _ct_observation(step: StepRecord) -> Observation:
    """The CT-mode projection of one step."""
    pc, inst, next_pc = step.pc, step.inst, step.next_pc
    if inst.is_mem:
        # AMuLeT* exposes each address register individually, not just
        # their sum (paper SVII-B1b).  A memory op reads or writes.
        values = tuple(map(_value, step.addr_reg_values))
        read = step.mem_read
        if read is None:
            return (pc, next_pc, values, ("waddr", step.mem_write[0]))
        if inst.op is Op.RET:
            return (pc, next_pc, values, ("raddr", read[0]),
                    ("target", read[1]))
        return (pc, next_pc, values, ("raddr", read[0]))
    op = inst.op
    if op is Op.BR:
        return (pc, next_pc, ("flags", step.reg_reads[0][1]))
    if op is Op.JMPI:
        return (pc, next_pc, ("target", step.reg_reads[0][1]))
    if step.div_operands is not None:
        return (pc, next_pc, ("div", step.div_operands))
    return (pc, next_pc)


def _arch_observation(step: StepRecord) -> Observation:
    """ARCH mode: everything the program touches is exposed."""
    obs = (step.pc, step.next_pc, tuple(map(_value, step.reg_reads)))
    if step.mem_read is not None:
        obs += (step.mem_read,)
    if step.mem_write is not None:
        obs += (step.mem_write,)
    return obs


def contract_trace(
    result: SeqResult,
    mode: ObserverMode,
    public_defs: Optional[Set[int]] = None,
) -> List[Observation]:
    """Project a sequential run into a contract trace.

    ``public_defs`` (CTS mode) is the set of PCs whose output definition
    is publicly typed, as computed by ProtCC-CTS's type inference.
    """
    if mode is ObserverMode.ARCH:
        return [_arch_observation(step) for step in result.steps]
    cts = mode is ObserverMode.CTS
    unprot = mode is ObserverMode.UNPROT
    trace: List[Observation] = []
    append = trace.append
    for step in result.steps:
        obs = _ct_observation(step)
        if cts:
            if public_defs is not None and step.pc in public_defs:
                obs += (("pubdef", tuple(map(_value, step.reg_writes))),)
        elif unprot and not step.inst.prot:
            obs += (("unprot", tuple(map(_value, step.reg_writes))),)
        append(obs)
    return trace


def traces_equal(
    a: Sequence[Observation], b: Sequence[Observation]
) -> bool:
    """Whether two contract traces are indistinguishable."""
    return list(a) == list(b)
