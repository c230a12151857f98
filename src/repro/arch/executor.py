"""Sequential (in-order, non-speculative) reference machine.

This is the machine software *thinks* it runs on: the SEQ execution mode
of hardware-software security contracts (paper SII-C).  It produces rich
per-step records that the observer modes in :mod:`repro.arch.observers`
project into contract traces, and that the equivalence property tests
compare against the O3 core's committed state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..isa.instruction import Instruction
from ..isa.operations import IMM_ALU_OPS, Op, REG_ALU_OPS, eval_cond
from ..isa.program import Program
from ..isa.registers import FLAGS, NUM_REGS, SP
from .memory import Memory
from .semantics import MASK64, alu, compare_flags, effective_address

#: Default initial stack pointer (grows downward).
STACK_TOP = 0x0010_0000

#: Default execution fuel (steps) before the run is declared divergent.
DEFAULT_FUEL = 200_000

#: The ALU op classes as tuples.  ``op in`` a tuple compares identities
#: in C; ``op in`` a frozenset calls the Python-level ``Enum.__hash__``.
_REG_ALU = tuple(sorted(REG_ALU_OPS, key=lambda op: op.value))
_IMM_ALU = tuple(sorted(IMM_ALU_OPS, key=lambda op: op.value))


class StepRecord(NamedTuple):
    """Everything that happened during one architectural step.

    A named tuple, built positionally: the field order is part of the
    API.  ``reg_reads`` lists the registers of ``inst.src_regs()``, in
    order, with the values they held before the step."""

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
        instructions = self.program.instructions
        end = len(instructions)
        step = self._step
        steps: List[StepRecord] = []
        append = steps.append
        halt_reason = "fuel"
        pc = self.pc
        for _ in range(fuel):
            if not 0 <= pc < end:
                halt_reason = "bad_pc" if pc != end else "off_end"
                break
            inst = instructions[pc]
            if inst.op is Op.HALT:
                halt_reason = "halt"
                break
            record = step(inst, pc)
            append(record)
            self.pc = pc = record.next_pc
        return SeqResult(steps, tuple(self.regs), self.memory, halt_reason)

    # ------------------------------------------------------------------

    def _step(self, inst: Instruction, pc: int) -> StepRecord:
        """Execute the instruction at ``pc``, returning its step record.

        Registers, memory words and the results of ``alu`` and
        ``compare_flags`` are all within 64 bits, so of the values an
        op writes only MOVI's immediate and the stack arithmetic need a
        mask.  Each op reads its registers before it writes any."""
        op = inst.op
        regs = self.regs
        # The five most frequent kinds of a fuzz program come first.
        if op is Op.BR:
            flags = regs[FLAGS]
            taken = eval_cond(inst.cond, flags)
            target = inst.target if taken else pc + 1
            return StepRecord(pc, inst, target, ((FLAGS, flags),), (),
                              None, None, (), (taken, target), None)
        if op is Op.LOAD:
            rd, ra, rb = inst.rd, inst.ra, inst.rb
            base = regs[ra]
            if rb is None:
                reads = ((ra, base),)
                addr = effective_address(base, 0, inst.imm)
            else:
                index = regs[rb]
                reads = ((ra, base), (rb, index))
                addr = effective_address(base, index, inst.imm)
            value = self.memory.read_word(addr)
            regs[rd] = value
            return StepRecord(pc, inst, pc + 1, reads, ((rd, value),),
                              (addr, value), None, reads, None, None)
        if op is Op.CMPI:
            ra = inst.ra
            a = regs[ra]
            flags = compare_flags(op, a, inst.imm & MASK64)
            regs[FLAGS] = flags
            return StepRecord(pc, inst, pc + 1, ((ra, a),),
                              ((FLAGS, flags),))
        if op is Op.STORE:
            rd, ra, rb = inst.rd, inst.ra, inst.rb
            base = regs[ra]
            value = regs[rd]
            if rb is None:
                addr_vals = ((ra, base),)
                addr = effective_address(base, 0, inst.imm)
            else:
                index = regs[rb]
                addr_vals = ((ra, base), (rb, index))
                addr = effective_address(base, index, inst.imm)
            self.memory.write_word(addr, value)
            return StepRecord(pc, inst, pc + 1, addr_vals + ((rd, value),),
                              (), None, (addr, value), addr_vals, None, None)
        if op is Op.ADDI or op in _IMM_ALU:
            rd, ra = inst.rd, inst.ra
            a = regs[ra]
            value = alu(op, a, inst.imm & MASK64)
            regs[rd] = value
            return StepRecord(pc, inst, pc + 1, ((ra, a),), ((rd, value),))
        if op in _REG_ALU or inst.is_div:
            rd, ra, rb = inst.rd, inst.ra, inst.rb
            a, b = regs[ra], regs[rb]
            value = alu(op, a, b)
            regs[rd] = value
            return StepRecord(pc, inst, pc + 1, ((ra, a), (rb, b)),
                              ((rd, value),), None, None, (), None,
                              (a, b) if inst.is_div else None)
        if inst.writes_flags:  # CMP and TEST
            ra, rb = inst.ra, inst.rb
            a, b = regs[ra], regs[rb]
            flags = compare_flags(op, a, b)
            regs[FLAGS] = flags
            return StepRecord(pc, inst, pc + 1, ((ra, a), (rb, b)),
                              ((FLAGS, flags),))
        if op is Op.MOVI:
            value = inst.imm & MASK64
            regs[inst.rd] = value
            return StepRecord(pc, inst, pc + 1, (), ((inst.rd, value),))
        if op is Op.MOV:
            ra = inst.ra
            value = regs[ra]
            regs[inst.rd] = value
            return StepRecord(pc, inst, pc + 1, ((ra, value),),
                              ((inst.rd, value),))
        if op is Op.JMP:
            target = inst.target
            return StepRecord(pc, inst, target, (), (), None, None, (),
                              (True, target))
        if op is Op.JMPI:
            ra = inst.ra
            target = regs[ra]
            return StepRecord(pc, inst, target, ((ra, target),), (), None,
                              None, (), (True, target))
        if op is Op.NOP or op is Op.MFENCE:
            return StepRecord(pc, inst, pc + 1)
        # The stack ops read SP, and address memory through it alone.
        sp = regs[SP]
        sp_read = ((SP, sp),)
        if op is Op.PUSH:
            ra = inst.ra
            value = regs[ra]
            new_sp = (sp - 8) & MASK64
            addr = effective_address(new_sp, 0, 0)
            self.memory.write_word(addr, value)
            regs[SP] = new_sp
            return StepRecord(pc, inst, pc + 1, ((SP, sp), (ra, value)),
                              ((SP, new_sp),), None, (addr, value), sp_read)
        if op is Op.POP:
            rd = inst.rd
            addr = effective_address(sp, 0, 0)
            value = self.memory.read_word(addr)
            regs[rd] = value
            # ``pop sp`` increments the loaded value.
            new_sp = (regs[SP] + 8) & MASK64
            regs[SP] = new_sp
            return StepRecord(pc, inst, pc + 1, sp_read,
                              ((rd, value), (SP, new_sp)), (addr, value),
                              None, sp_read)
        if op is Op.CALL:
            new_sp = (sp - 8) & MASK64
            addr = effective_address(new_sp, 0, 0)
            self.memory.write_word(addr, pc + 1)
            regs[SP] = new_sp
            target = inst.target
            return StepRecord(pc, inst, target, sp_read, ((SP, new_sp),),
                              None, (addr, pc + 1), sp_read, (True, target))
        if op is Op.RET:
            addr = effective_address(sp, 0, 0)
            target = self.memory.read_word(addr)
            new_sp = (sp + 8) & MASK64
            regs[SP] = new_sp
            return StepRecord(pc, inst, target, sp_read, ((SP, new_sp),),
                              (addr, target), None, sp_read, (True, target))
        raise ValueError(f"cannot step {op!r}")  # pragma: no cover - HALT


def run_program(
    program: Program,
    memory: Optional[Memory] = None,
    regs: Optional[Dict[int, int]] = None,
    fuel: int = DEFAULT_FUEL,
) -> SeqResult:
    """Convenience wrapper: run ``program`` on a fresh machine."""
    return SequentialMachine(program, memory, regs).run(fuel)
