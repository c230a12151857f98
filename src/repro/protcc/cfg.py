"""Instruction-level control-flow graphs for ProtCC's analyses.

ProtCC is a per-function machine-IR pass (paper SVIII-A), so the graph
here is intraprocedural: CALL falls through to its return point (the
callee is analyzed separately under its own class), RET and indirect
jumps end the function-local flow.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..isa.instruction import Instruction
from ..isa.operations import Op
from ..isa.program import FunctionRegion, Program


class FunctionGraph:
    """Successor/predecessor maps over the PCs of one function region."""

    def __init__(self, program: Program, region: FunctionRegion) -> None:
        self.program = program
        self.region = region
        self.pcs: List[int] = list(range(region.start, region.end))
        self.succs: Dict[int, List[int]] = {}
        self.preds: Dict[int, List[int]] = {pc: [] for pc in self.pcs}
        self.exits: List[int] = []
        for pc in self.pcs:
            succs = self._successors(pc)
            self.succs[pc] = succs
            if not succs:
                self.exits.append(pc)
            for succ in succs:
                self.preds[succ].append(pc)
        self.entry = region.start

    def _successors(self, pc: int) -> List[int]:
        inst = self.program[pc]
        op = inst.op
        inside = self.region.__contains__

        def local(target: int) -> List[int]:
            return [target] if inside(target) else []

        if op is Op.BR:
            succs = local(pc + 1) + local(inst.target)
            return succs
        if op is Op.JMP:
            return local(inst.target)
        if op in (Op.RET, Op.HALT, Op.JMPI):
            # Function exit (JMPI targets are statically unknown; our
            # workloads only use them as computed-goto exits).
            return []
        if op is Op.CALL:
            # Intraprocedural: flow continues at the return point.
            return local(pc + 1)
        if pc + 1 < self.region.end:
            return [pc + 1]
        return []

    def instruction(self, pc: int) -> Instruction:
        return self.program[pc]

    def reverse_postorder(self) -> List[int]:
        """RPO from the entry (unreachable pcs appended afterwards, so
        every instruction is still instrumented)."""
        seen = set()
        stack: List[Tuple[int, int]] = [(self.entry, 0)]
        seen.add(self.entry)
        # Iterative DFS computing postorder.
        post: List[int] = []
        while stack:
            pc, idx = stack[-1]
            succs = self.succs[pc]
            if idx < len(succs):
                stack[-1] = (pc, idx + 1)
                nxt = succs[idx]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, 0))
            else:
                stack.pop()
                post.append(pc)
        order: List[int] = list(reversed(post))
        for pc in self.pcs:
            if pc not in seen:
                order.append(pc)
        return order


def function_regions(program: Program) -> List[FunctionRegion]:
    """The program's declared function regions, plus synthesized regions
    covering any instructions outside every declared function (so that
    whole programs without ``.func`` markers are still compilable)."""
    regions = sorted(program.functions, key=lambda r: r.start)
    covered: List[FunctionRegion] = []
    cursor = 0
    counter = 0
    for region in regions:
        if region.start > cursor:
            covered.append(
                FunctionRegion(f"__toplevel{counter}__", cursor,
                               region.start))
            counter += 1
        covered.append(region)
        cursor = max(cursor, region.end)
    if cursor < len(program):
        covered.append(
            FunctionRegion(f"__toplevel{counter}__", cursor, len(program)))
    return covered
