"""Programmatic assembly builder used by the workload generators.

Workloads in :mod:`repro.workloads` are synthesized in Python; this
builder gives them a fluent way to emit instructions, place labels, and
declare function regions without string formatting::

    asm = Builder()
    with asm.func("memset_like"):
        asm.movi(R0, 0)
        loop = asm.fresh_label("loop")
        asm.label(loop)
        asm.store_at(R1, None, 0, R0)
        asm.addi(R1, R1, 8)
        asm.subi(R2, R2, 1)
        asm.cmpi(R2, 0)
        asm.br(Cond.NE, loop)
        asm.ret()
    program = asm.build()
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Dict, List

from .instruction import Instruction
from .operations import Op
from .program import FunctionRegion, Program


class Builder:
    """Accumulates instructions into a :class:`Program`."""

    def __init__(self) -> None:
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._functions: List[FunctionRegion] = []
        self._entry = 0
        self._label_counter = itertools.count()

    # -- structure -----------------------------------------------------

    def fresh_label(self, stem: str = "L") -> str:
        return f"{stem}_{next(self._label_counter)}"

    def label(self, name: str) -> str:
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)
        return name

    def entry_here(self) -> None:
        self._entry = len(self._instructions)

    @contextlib.contextmanager
    def func(self, name: str):
        start = len(self._instructions)
        self.label(name)
        yield
        self._functions.append(
            FunctionRegion(name, start, len(self._instructions)))

    def emit(self, inst: Instruction) -> None:
        self._instructions.append(inst)

    def build(self) -> Program:
        return Program(list(self._instructions), dict(self._labels),
                       list(self._functions), self._entry).linked()

    @property
    def here(self) -> int:
        return len(self._instructions)

    # -- instruction emitters -------------------------------------------

    def movi(self, rd, imm, prot=False):
        self.emit(Instruction(Op.MOVI, rd=rd, imm=imm, prot=prot))

    def mov(self, rd, ra, prot=False):
        self.emit(Instruction(Op.MOV, rd=rd, ra=ra, prot=prot))

    def _alu(self, op, rd, ra, rb, prot):
        self.emit(Instruction(op, rd=rd, ra=ra, rb=rb, prot=prot))

    def add(self, rd, ra, rb, prot=False):
        self._alu(Op.ADD, rd, ra, rb, prot)

    def sub(self, rd, ra, rb, prot=False):
        self._alu(Op.SUB, rd, ra, rb, prot)

    def and_(self, rd, ra, rb, prot=False):
        self._alu(Op.AND, rd, ra, rb, prot)

    def or_(self, rd, ra, rb, prot=False):
        self._alu(Op.OR, rd, ra, rb, prot)

    def xor(self, rd, ra, rb, prot=False):
        self._alu(Op.XOR, rd, ra, rb, prot)

    def shl(self, rd, ra, rb, prot=False):
        self._alu(Op.SHL, rd, ra, rb, prot)

    def shr(self, rd, ra, rb, prot=False):
        self._alu(Op.SHR, rd, ra, rb, prot)

    def mul(self, rd, ra, rb, prot=False):
        self._alu(Op.MUL, rd, ra, rb, prot)

    def div(self, rd, ra, rb, prot=False):
        self._alu(Op.DIV, rd, ra, rb, prot)

    def rem(self, rd, ra, rb, prot=False):
        self._alu(Op.REM, rd, ra, rb, prot)

    def _alui(self, op, rd, ra, imm, prot):
        self.emit(Instruction(op, rd=rd, ra=ra, imm=imm, prot=prot))

    def addi(self, rd, ra, imm, prot=False):
        self._alui(Op.ADDI, rd, ra, imm, prot)

    def subi(self, rd, ra, imm, prot=False):
        self._alui(Op.SUBI, rd, ra, imm, prot)

    def andi(self, rd, ra, imm, prot=False):
        self._alui(Op.ANDI, rd, ra, imm, prot)

    def ori(self, rd, ra, imm, prot=False):
        self._alui(Op.ORI, rd, ra, imm, prot)

    def xori(self, rd, ra, imm, prot=False):
        self._alui(Op.XORI, rd, ra, imm, prot)

    def shli(self, rd, ra, imm, prot=False):
        self._alui(Op.SHLI, rd, ra, imm, prot)

    def shri(self, rd, ra, imm, prot=False):
        self._alui(Op.SHRI, rd, ra, imm, prot)

    def muli(self, rd, ra, imm, prot=False):
        self._alui(Op.MULI, rd, ra, imm, prot)

    def cmp(self, ra, rb, prot=False):
        self.emit(Instruction(Op.CMP, ra=ra, rb=rb, prot=prot))

    def cmpi(self, ra, imm, prot=False):
        self.emit(Instruction(Op.CMPI, ra=ra, imm=imm, prot=prot))

    def test(self, ra, rb, prot=False):
        self.emit(Instruction(Op.TEST, ra=ra, rb=rb, prot=prot))

    def load(self, rd, base, index=None, disp=0, prot=False):
        self.emit(Instruction(Op.LOAD, rd=rd, ra=base, rb=index, imm=disp,
                              prot=prot))

    def store(self, base, index, disp, rs, prot=False):
        self.emit(Instruction(Op.STORE, rd=rs, ra=base, rb=index, imm=disp,
                              prot=prot))

    def br(self, cond, target, prot=False):
        self.emit(Instruction(Op.BR, cond=cond, target=target, prot=prot))

    def jmp(self, target):
        self.emit(Instruction(Op.JMP, target=target))

    def jmpi(self, ra, prot=False):
        self.emit(Instruction(Op.JMPI, ra=ra, prot=prot))

    def call(self, target, prot=False):
        self.emit(Instruction(Op.CALL, target=target, prot=prot))

    def ret(self, prot=False):
        self.emit(Instruction(Op.RET, prot=prot))

    def push(self, ra, prot=False):
        self.emit(Instruction(Op.PUSH, ra=ra, prot=prot))

    def pop(self, rd, prot=False):
        self.emit(Instruction(Op.POP, rd=rd, prot=prot))

    def nop(self):
        self.emit(Instruction(Op.NOP))

    def mfence(self):
        self.emit(Instruction(Op.MFENCE))

    def halt(self):
        self.emit(Instruction(Op.HALT))
