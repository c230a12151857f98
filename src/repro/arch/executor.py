"""Sequential (in-order, non-speculative) reference machine.

This is the machine software *thinks* it runs on: the SEQ execution mode
of hardware-software security contracts (paper SII-C).  It produces rich
per-step records that the observer modes in :mod:`repro.arch.observers`
project into contract traces, and that the equivalence property tests
compare against the O3 core's committed state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..isa.instruction import Instruction
from ..isa.operations import (
    DIV_OPS,
    FLAG_WRITERS,
    IMM_ALU_OPS,
    Op,
    REG_ALU_OPS,
    eval_cond,
)
from ..isa.program import Program
from ..isa.registers import FLAGS, NUM_REGS, SP
from .memory import Memory
from .semantics import MASK64, alu, compare_flags, effective_address

#: Default initial stack pointer (grows downward).
STACK_TOP = 0x0010_0000

#: Default execution fuel (steps) before the run is declared divergent.
DEFAULT_FUEL = 200_000


@dataclass(frozen=True)
class StepRecord:
    """Everything that happened during one architectural step."""

    pc: int
    inst: Instruction
    next_pc: int
    reg_reads: Tuple[Tuple[int, int], ...] = ()
    reg_writes: Tuple[Tuple[int, int], ...] = ()
    mem_read: Optional[Tuple[int, int]] = None    # (address, value)
    mem_write: Optional[Tuple[int, int]] = None   # (address, value)
    addr_reg_values: Tuple[Tuple[int, int], ...] = ()
    branch: Optional[Tuple[bool, int]] = None     # (taken, target)
    div_operands: Optional[Tuple[int, int]] = None


@dataclass
class SeqResult:
    """Outcome of a sequential run."""

    steps: List[StepRecord]
    final_regs: Tuple[int, ...]
    memory: Memory
    halt_reason: str

    @property
    def instruction_count(self) -> int:
        return len(self.steps)


class SequentialMachine:
    """Executes a linked program one instruction at a time."""

    def __init__(
        self,
        program: Program,
        memory: Optional[Memory] = None,
        regs: Optional[Dict[int, int]] = None,
    ) -> None:
        if not program.is_linked:
            program = program.linked()
        self.program = program
        self.memory = memory.copy() if memory is not None else Memory()
        self.regs: List[int] = [0] * NUM_REGS
        self.regs[SP] = STACK_TOP
        if regs:
            for index, value in regs.items():
                self.regs[index] = value & MASK64
        self.pc = program.entry

    # ------------------------------------------------------------------

    def run(self, fuel: int = DEFAULT_FUEL) -> SeqResult:
        """Run until HALT, fall-off-end, a bad PC, or fuel exhaustion."""
        steps: List[StepRecord] = []
        halt_reason = "fuel"
        for _ in range(fuel):
            if not 0 <= self.pc < len(self.program):
                halt_reason = "bad_pc" if self.pc != len(self.program) \
                    else "off_end"
                break
            inst = self.program[self.pc]
            if inst.op is Op.HALT:
                halt_reason = "halt"
                break
            step = self._step(inst)
            steps.append(step)
            self.pc = step.next_pc
        return SeqResult(steps, tuple(self.regs), self.memory, halt_reason)

    # ------------------------------------------------------------------

    def _step(self, inst: Instruction) -> StepRecord:
        """Execute one instruction, returning its step record."""
        op = inst.op
        pc = self.pc
        regs = self.regs
        reads: List[Tuple[int, int]] = [(r, regs[r]) for r in inst.src_regs()]
        writes: List[Tuple[int, int]] = []
        mem_read = mem_write = None
        addr_vals: Tuple[Tuple[int, int], ...] = ()
        branch = None
        div_ops = None
        next_pc = pc + 1

        def write_reg(index: int, value: int) -> None:
            value &= MASK64
            regs[index] = value
            writes.append((index, value))

        if op is Op.MOVI:
            write_reg(inst.rd, inst.imm)
        elif op is Op.MOV:
            write_reg(inst.rd, regs[inst.ra])
        elif op in REG_ALU_OPS:
            write_reg(inst.rd, alu(op, regs[inst.ra], regs[inst.rb]))
        elif op in IMM_ALU_OPS:
            write_reg(inst.rd, alu(op, regs[inst.ra], inst.imm & MASK64))
        elif op in DIV_OPS:
            div_ops = (regs[inst.ra], regs[inst.rb])
            write_reg(inst.rd, alu(op, regs[inst.ra], regs[inst.rb]))
        elif op in FLAG_WRITERS:
            b = inst.imm & MASK64 if op is Op.CMPI else regs[inst.rb]
            write_reg(FLAGS, compare_flags(op, regs[inst.ra], b))
        elif op is Op.LOAD:
            addr_vals = tuple((r, regs[r]) for r in inst.addr_regs())
            index_val = regs[inst.rb] if inst.rb is not None else 0
            addr = effective_address(regs[inst.ra], index_val, inst.imm)
            value = self.memory.read_word(addr)
            mem_read = (addr, value)
            write_reg(inst.rd, value)
        elif op is Op.STORE:
            addr_vals = tuple((r, regs[r]) for r in inst.addr_regs())
            index_val = regs[inst.rb] if inst.rb is not None else 0
            addr = effective_address(regs[inst.ra], index_val, inst.imm)
            value = regs[inst.rd]
            self.memory.write_word(addr, value)
            mem_write = (addr, value)
        elif op is Op.PUSH:
            addr_vals = ((SP, regs[SP]),)
            new_sp = (regs[SP] - 8) & MASK64
            addr = effective_address(new_sp, 0, 0)
            self.memory.write_word(addr, regs[inst.ra])
            mem_write = (addr, regs[inst.ra])
            write_reg(SP, new_sp)
        elif op is Op.POP:
            addr_vals = ((SP, regs[SP]),)
            addr = effective_address(regs[SP], 0, 0)
            value = self.memory.read_word(addr)
            mem_read = (addr, value)
            write_reg(inst.rd, value)
            write_reg(SP, (regs[SP] + 8) & MASK64)
        elif op is Op.BR:
            taken = eval_cond(inst.cond, regs[FLAGS])
            target = inst.target if taken else pc + 1
            branch = (taken, target)
            next_pc = target
        elif op is Op.JMP:
            next_pc = inst.target
            branch = (True, next_pc)
        elif op is Op.JMPI:
            next_pc = regs[inst.ra] & MASK64
            branch = (True, next_pc)
        elif op is Op.CALL:
            addr_vals = ((SP, regs[SP]),)
            new_sp = (regs[SP] - 8) & MASK64
            addr = effective_address(new_sp, 0, 0)
            self.memory.write_word(addr, pc + 1)
            mem_write = (addr, pc + 1)
            write_reg(SP, new_sp)
            next_pc = inst.target
            branch = (True, next_pc)
        elif op is Op.RET:
            addr_vals = ((SP, regs[SP]),)
            addr = effective_address(regs[SP], 0, 0)
            target = self.memory.read_word(addr)
            mem_read = (addr, target)
            write_reg(SP, (regs[SP] + 8) & MASK64)
            next_pc = target
            branch = (True, next_pc)
        elif op in (Op.NOP, Op.MFENCE):
            pass
        else:  # pragma: no cover - HALT handled by run()
            raise ValueError(f"cannot step {op!r}")

        return StepRecord(
            pc=pc, inst=inst, next_pc=next_pc,
            reg_reads=tuple(reads), reg_writes=tuple(writes),
            mem_read=mem_read, mem_write=mem_write,
            addr_reg_values=addr_vals, branch=branch, div_operands=div_ops)


def run_program(
    program: Program,
    memory: Optional[Memory] = None,
    regs: Optional[Dict[int, int]] = None,
    fuel: int = DEFAULT_FUEL,
) -> SeqResult:
    """Convenience wrapper: run ``program`` on a fresh machine."""
    return SequentialMachine(program, memory, regs).run(fuel)
