"""Program rewriting for ProtCC instrumentation.

Supports the three shapes of edit ProtCC performs:

* replacing instructions in place (PROT prefixing),
* inserting instruction sequences before a PC (entry identity moves,
  post-CALL declassification moves, fall-through edge moves), and
* splitting a branch's *taken* edge with a trampoline (the edge moves
  of ProtCC-CT, paper SV-A3).

All labels, branch targets, the entry point, and function regions are
remapped.  Inserted instructions execute exactly on the path they were
requested for, so instrumentation never changes architectural results —
a property the test suite checks on random programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..isa.instruction import Instruction
from ..isa.operations import Op
from ..isa.program import FunctionRegion, Program


@dataclass
class EdgeSplit:
    branch_pc: int
    target_pc: int
    instructions: List[Instruction]


@dataclass
class RewriteResult:
    """A rebuilt program plus the layout maps passes use to translate
    per-PC metadata (e.g. ProtCC-CTS's publicly-typed definition set)
    into final-program coordinates."""

    program: Program
    #: old pc -> new position of that same instruction
    inst_pos: Dict[int, int]
    #: old pc -> new position of the insertion point just before it
    point_pos: Dict[int, int]

    def before_positions(self, pc: int, count: int) -> List[int]:
        """Final positions of the ``count`` instructions inserted before
        ``pc`` (in insertion order)."""
        start = self.point_pos[pc]
        return list(range(start, start + count))


class Rewriter:
    """Accumulates edits against a linked program, then rebuilds it."""

    def __init__(self, program: Program) -> None:
        if not program.is_linked:
            program = program.linked()
        self.program = program
        self._replacements: Dict[int, Instruction] = {}
        #: Anchored inserts: executed by every path entering the point,
        #: including jumps targeting it (entry/argument declassification).
        self._before: Dict[int, List[Instruction]] = {}
        #: Fall-through inserts: executed only when control falls into
        #: the point from the previous instruction; jumps targeting the
        #: point skip them (not-taken edge moves, post-CALL moves).
        self._fall: Dict[int, List[Instruction]] = {}
        self._splits: List[EdgeSplit] = []

    # -- edit registration -------------------------------------------------

    def replace(self, pc: int, inst: Instruction) -> None:
        self._replacements[pc] = inst

    def set_prot(self, pc: int, prot: bool) -> None:
        base = self._replacements.get(pc, self.program[pc])
        self.replace(pc, base.with_prot(prot))

    def insert_before(self, pc: int, instructions: Sequence[Instruction]) -> None:
        """Insert on the straight-line path entering ``pc`` (``pc`` may
        be ``len(program)`` to append)."""
        self._before.setdefault(pc, []).extend(instructions)

    def insert_after(self, pc: int, instructions: Sequence[Instruction]) -> None:
        """Insert on the fall-through path leaving ``pc``.

        For a conditional branch this is its not-taken edge; for any
        other instruction it is the path that just executed it.  Jumps
        targeting ``pc + 1`` do *not* execute these instructions."""
        self._fall.setdefault(pc + 1, []).extend(instructions)

    def split_taken_edge(self, branch_pc: int, instructions: Sequence[Instruction]) -> None:
        """Insert on the taken edge of the conditional branch at
        ``branch_pc`` via a trampoline block."""
        inst = self.program[branch_pc]
        if inst.op is not Op.BR:
            raise ValueError("split_taken_edge requires a conditional branch")
        self._splits.append(
            EdgeSplit(branch_pc, inst.target, list(instructions)))

    # -- rebuild -------------------------------------------------------------

    def build(self) -> RewriteResult:
        program = self.program
        old_len = len(program)

        # Pass 1: lay out new positions.  Per point: fall-through
        # inserts, then the (jump-targetable) anchor with its anchored
        # inserts, then the original instruction.
        point_pos: Dict[int, int] = {}   # old pc -> jump-target anchor
        inst_pos: Dict[int, int] = {}    # old pc -> position of the inst
        cursor = 0
        for pc in range(old_len):
            cursor += len(self._fall.get(pc, ()))
            point_pos[pc] = cursor
            cursor += len(self._before.get(pc, ()))
            inst_pos[pc] = cursor
            cursor += 1
        cursor += len(self._fall.get(old_len, ()))
        point_pos[old_len] = cursor
        cursor += len(self._before.get(old_len, ()))
        body_end = cursor

        # Trampolines go after the body, tagged with fresh labels.
        split_pos: List[int] = []
        for split in self._splits:
            split_pos.append(cursor)
            cursor += len(split.instructions) + 1  # + jmp

        def remap_target(target) -> int:
            if not isinstance(target, int):
                raise ValueError(f"program must be linked, got {target!r}")
            return point_pos.get(target, body_end)

        # Pass 2: emit.
        retargeted: Dict[int, int] = {
            split.branch_pc: split_pos[i]
            for i, split in enumerate(self._splits)}
        new_instructions: List[Instruction] = []
        for pc in range(old_len):
            new_instructions.extend(self._fall.get(pc, ()))
            new_instructions.extend(self._before.get(pc, ()))
            inst = self._replacements.get(pc, program[pc])
            if inst.target is not None:
                new_target = (retargeted[pc] if pc in retargeted
                              else remap_target(inst.target))
                inst = Instruction(op=inst.op, rd=inst.rd, ra=inst.ra,
                                   rb=inst.rb, imm=inst.imm,
                                   target=new_target, cond=inst.cond,
                                   prot=inst.prot)
            new_instructions.append(inst)
        new_instructions.extend(self._fall.get(old_len, ()))
        new_instructions.extend(self._before.get(old_len, ()))
        for split in self._splits:
            new_instructions.extend(split.instructions)
            new_instructions.append(
                Instruction(Op.JMP, target=remap_target(split.target_pc)))

        labels = {name: point_pos.get(pc, body_end)
                  for name, pc in program.labels.items()}

        # Trampolines land after the body and stay unattributed; regions
        # are only consumed by ProtCC itself, which always edits against
        # the original (pre-rewrite) program.
        functions: List[FunctionRegion] = []
        for region in program.functions:
            start = point_pos[region.start]
            end = point_pos.get(region.end, body_end)
            functions.append(FunctionRegion(region.name, start, end))

        entry = point_pos[program.entry]
        rebuilt = Program(new_instructions, labels, functions, entry)
        return RewriteResult(rebuilt, inst_pos, point_pos)


def identity_move(reg: int, prot: bool = False) -> Instruction:
    """The ProtISA (un)protect idiom: ``mov r, r`` (paper SIV-B3)."""
    return Instruction(Op.MOV, rd=reg, ra=reg, prot=prot)
