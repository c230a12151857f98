"""Operation and condition codes for the repro ISA.

Every micro-op class the Protean paper's threat model cares about is
present: loads and stores (transmit their address registers at execute),
conditional and indirect branches (transmit flags / target at resolve),
and division (partially transmits both inputs at execute — the new gem5
transmitter AMuLeT* discovered, paper SVII-B4b).
"""

from __future__ import annotations

import enum


class Op(enum.Enum):
    """Micro-op opcodes."""

    # Data movement
    MOVI = "movi"      # rd <- imm
    MOV = "mov"        # rd <- ra (identity moves are ProtISA's unprotect idiom)

    # Three-operand ALU (register-register)
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    MUL = "mul"

    # Two-operand ALU (register-immediate)
    ADDI = "addi"
    SUBI = "subi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SHLI = "shli"
    SHRI = "shri"
    MULI = "muli"

    # Division: operand-dependent latency makes it a transmitter.
    DIV = "div"
    REM = "rem"

    # Flag-setting compares
    CMP = "cmp"        # flags <- compare(ra, rb)
    CMPI = "cmpi"      # flags <- compare(ra, imm)
    TEST = "test"      # flags <- zero-test(ra & rb)

    # Control flow
    BR = "br"          # conditional branch on flags
    JMP = "jmp"        # direct unconditional jump
    JMPI = "jmpi"      # indirect jump through ra (transmits target)
    CALL = "call"      # push return pc, jump to target
    RET = "ret"        # pop return pc, jump to it (load + indirect jump)

    # Stack sugar (single micro-ops that touch memory)
    PUSH = "push"      # sp -= 8; mem[sp] <- ra
    POP = "pop"        # rd <- mem[sp]; sp += 8

    # Memory
    LOAD = "load"      # rd <- mem[ra + rb + imm]
    STORE = "store"    # mem[ra + rb + imm] <- rs (rs carried in rd field)

    MFENCE = "mfence"  # serializing fence (used by software baselines)
    NOP = "nop"
    HALT = "halt"


class Cond(enum.Enum):
    """Branch conditions, evaluated against the flags register."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"   # signed less-than
    LE = "le"
    GT = "gt"
    GE = "ge"
    B = "b"     # unsigned below
    AE = "ae"   # unsigned at-or-above


#: Flags register encoding (a small bitfield value held in ``flags``).
FLAG_ZF = 1 << 0   # equal
FLAG_LT = 1 << 1   # signed less-than
FLAG_B = 1 << 2    # unsigned below


def encode_flags(a, b):
    """Compute the flags bitfield for ``compare(a, b)`` on 64-bit values."""
    mask = (1 << 64) - 1
    a &= mask
    b &= mask
    signed_a = a - (1 << 64) if a >= (1 << 63) else a
    signed_b = b - (1 << 64) if b >= (1 << 63) else b
    flags = 0
    if a == b:
        flags |= FLAG_ZF
    if signed_a < signed_b:
        flags |= FLAG_LT
    if a < b:
        flags |= FLAG_B
    return flags


def eval_cond(cond, flags):
    """Evaluate a branch condition against a flags bitfield."""
    zf = bool(flags & FLAG_ZF)
    lt = bool(flags & FLAG_LT)
    below = bool(flags & FLAG_B)
    if cond is Cond.EQ:
        return zf
    if cond is Cond.NE:
        return not zf
    if cond is Cond.LT:
        return lt
    if cond is Cond.LE:
        return lt or zf
    if cond is Cond.GT:
        return not (lt or zf)
    if cond is Cond.GE:
        return not lt
    if cond is Cond.B:
        return below
    if cond is Cond.AE:
        return not below
    raise ValueError(f"unknown condition: {cond!r}")


#: ALU ops of the form ``rd <- ra OP rb``.
REG_ALU_OPS = frozenset({
    Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.MUL,
})

#: ALU ops of the form ``rd <- ra OP imm``.
IMM_ALU_OPS = frozenset({
    Op.ADDI, Op.SUBI, Op.ANDI, Op.ORI, Op.XORI, Op.SHLI, Op.SHRI, Op.MULI,
})

#: Ops that write the flags register.
FLAG_WRITERS = frozenset({Op.CMP, Op.CMPI, Op.TEST})

#: Division-class ops (the operand-dependent-latency transmitters).
DIV_OPS = frozenset({Op.DIV, Op.REM})

#: Ops that read memory.
MEM_READ_OPS = frozenset({Op.LOAD, Op.POP, Op.RET})

#: Ops that write memory.
MEM_WRITE_OPS = frozenset({Op.STORE, Op.PUSH, Op.CALL})

#: Ops that may redirect control flow.
CONTROL_OPS = frozenset({Op.BR, Op.JMP, Op.JMPI, Op.CALL, Op.RET})

#: Control ops whose next pc is known only at execute: the branches the
#: pipeline resolves (and may squash behind).
BRANCH_OPS = frozenset({Op.BR, Op.JMPI, Op.RET})
