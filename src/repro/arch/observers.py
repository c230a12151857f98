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
from typing import List, Optional, Sequence, Set, Tuple

from ..isa.operations import Op
from .executor import SeqResult, StepRecord

Observation = Tuple


class ObserverMode(enum.Enum):
    ARCH = "arch"
    CT = "ct"
    CTS = "cts"
    UNPROT = "unprot"


def _ct_observation(step: StepRecord) -> Observation:
    """The CT-mode projection of one step."""
    inst = step.inst
    obs: List = [step.pc, step.next_pc]
    if inst.is_mem:
        # AMuLeT* exposes each address register individually, not just
        # their sum (paper SVII-B1b).
        obs.append(tuple(value for _, value in step.addr_reg_values))
        if step.mem_read is not None:
            obs.append(("raddr", step.mem_read[0]))
        if step.mem_write is not None:
            obs.append(("waddr", step.mem_write[0]))
    if inst.op is Op.BR:
        obs.append(("flags", step.reg_reads[0][1]))
    if inst.op is Op.JMPI:
        obs.append(("target", step.reg_reads[0][1]))
    if inst.op is Op.RET and step.mem_read is not None:
        obs.append(("target", step.mem_read[1]))
    if step.div_operands is not None:
        obs.append(("div", step.div_operands))
    return tuple(obs)


def _arch_observation(step: StepRecord) -> Observation:
    """ARCH mode: everything the program touches is exposed."""
    obs: List = [step.pc, step.next_pc,
                 tuple(value for _, value in step.reg_reads)]
    if step.mem_read is not None:
        obs.append(step.mem_read)
    if step.mem_write is not None:
        obs.append(step.mem_write)
    return tuple(obs)


def contract_trace(
    result: SeqResult,
    mode: ObserverMode,
    public_defs: Optional[Set[int]] = None,
) -> List[Observation]:
    """Project a sequential run into a contract trace.

    ``public_defs`` (CTS mode) is the set of PCs whose output definition
    is publicly typed, as computed by ProtCC-CTS's type inference.
    """
    trace: List[Observation] = []
    for step in result.steps:
        if mode is ObserverMode.ARCH:
            trace.append(_arch_observation(step))
            continue
        obs = _ct_observation(step)
        if mode is ObserverMode.CTS:
            if public_defs is not None and step.pc in public_defs:
                obs = obs + (("pubdef",
                              tuple(v for _, v in step.reg_writes)),)
        elif mode is ObserverMode.UNPROT and not step.inst.prot:
            obs = obs + (("unprot", tuple(v for _, v in step.reg_writes)),)
        trace.append(obs)
    return trace


def traces_equal(
    a: Sequence[Observation], b: Sequence[Observation]
) -> bool:
    """Whether two contract traces are indistinguishable."""
    return list(a) == list(b)
