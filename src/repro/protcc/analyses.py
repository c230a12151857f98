"""Register-level dataflow analyses backing the ProtCC passes (SV-A).

All analyses are intraprocedural over a :class:`FunctionGraph`, with
conservative call-boundary assumptions (caller-saved registers are
clobbered by CALL; callees preserve the rest).  Register sets are int
bitmasks over the 17 architectural registers; reaching definitions use
bitmasks over function-local definition ids.  Each analysis is a
transfer function plus one :func:`solve` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_, or_
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..isa.instruction import Instruction
from ..isa.operations import DIV_OPS, FLAG_WRITERS, IMM_ALU_OPS, Op, REG_ALU_OPS
from ..isa.registers import FLAGS, NUM_REGS, SP
from .cfg import FunctionGraph

ALL_REGS_MASK = (1 << NUM_REGS) - 1

#: Registers a CALL may clobber (callees preserve the rest).
CALLER_SAVED = tuple(range(0, 8)) + (FLAGS,)
CALLER_SAVED_MASK = sum(1 << r for r in CALLER_SAVED)

SP_MASK = 1 << SP

#: Ops whose output is a pure function of their register sources (the
#: "derived" rule: known inputs yield a known output).
_DERIVED_OPS = (frozenset({Op.MOV}) | REG_ALU_OPS | IMM_ALU_OPS
                | FLAG_WRITERS | DIV_OPS)

#: Single-source invertible ops for bound-to-leak back-propagation.
_INVERTIBLE_OPS = frozenset({Op.MOV, Op.ADDI, Op.SUBI, Op.XORI})


def regs_mask(regs: Sequence[int]) -> int:
    mask = 0
    for reg in regs:
        mask |= 1 << reg
    return mask


def full_transmit_regs(inst: Instruction) -> Tuple[int, ...]:
    """Register operands *fully* transmitted by this instruction: memory
    address registers, a conditional branch's flags, an indirect jump's
    target.  Division inputs transmit only partially and are excluded
    (paper SIX-B2)."""
    return inst.addr_regs() + inst.transmit_regs_at_resolve()


def cts_sensitive_regs(inst: Instruction) -> Tuple[int, ...]:
    """Register operands the secrecy-typing rules require to be public:
    all transmitter-sensitive operands, including division's."""
    regs = full_transmit_regs(inst)
    if inst.is_div:
        regs = regs + (inst.ra, inst.rb)
    return regs


def _dests_mask(inst: Instruction) -> int:
    return regs_mask(inst.dest_regs())


# ======================================================================
# The dataflow solver (bitmask lattice)
# ======================================================================

def solve(graph: FunctionGraph, transfer: Callable[[int, int], int],
          boundary: int, must: bool, backward: bool = False
          ) -> Dict[int, int]:
    """Solve one dataflow problem over ``graph`` to its fixed point.

    ``transfer(pc, value)`` is the effect of the instruction at ``pc``
    on the value flowing into it.  A *must* analysis meets by
    intersection from ``ALL_REGS_MASK``, a *may* analysis by union from
    0.  ``boundary`` holds at the entry (forward) or at every exit
    (backward) and meets whatever flows there along edges.  Returns the
    value flowing into each pc: its IN set forward, its OUT set
    backward."""
    top = ALL_REGS_MASK if must else 0
    meet = and_ if must else or_
    order = graph.reverse_postorder()
    if backward:
        order.reverse()
        flows_from, bounded = graph.succs, set(graph.exits)
    else:
        flows_from, bounded = graph.preds, {graph.entry}
    values = {pc: boundary if pc in bounded else top for pc in graph.pcs}
    changed = True
    while changed:
        changed = False
        for pc in order:
            value = boundary if pc in bounded else top
            for src in flows_from[pc]:
                value = meet(value, transfer(src, values[src]))
            if value != values[pc]:
                values[pc] = value
                changed = True
    return values


# ======================================================================
# Past-leaked (ProtCC-CT, forward)
# ======================================================================

def past_leaked_transfer(inst: Instruction, state: int) -> int:
    """One instruction's effect on the past-leaked set: registers whose
    current value has already been fully transmitted or is constant.
    Once ``inst`` transmits its operands, the set propagates exactly as
    the unprotectable one does: constants and values derived solely
    from past-leaked registers join it, loaded values leave it."""
    return unprotectable_transfer(
        inst, state | regs_mask(full_transmit_regs(inst)))


def past_leaked(graph: FunctionGraph, entry_extra: int = 0
                ) -> Dict[int, int]:
    """IN sets: registers past-leaked on every path reaching each pc.
    At entry only the stack pointer (plus any user-annotated public
    registers, paper SV-C) is assumed already-transmitted."""
    return solve(graph, lambda pc, state: past_leaked_transfer(
        graph.instruction(pc), state), SP_MASK | entry_extra, must=True)


def past_leaked_after(graph: FunctionGraph, in_sets: Dict[int, int],
                      pc: int) -> int:
    return past_leaked_transfer(graph.instruction(pc), in_sets[pc])


# ======================================================================
# Bound-to-leak (ProtCC-CT, backward)
# ======================================================================

def bound_to_leak_transfer(inst: Instruction, out_set: int) -> int:
    """IN = effect of executing ``inst`` before ``out_set`` holds."""
    state = out_set
    dests = _dests_mask(inst)
    if inst.op is Op.CALL:
        dests |= CALLER_SAVED_MASK
    state &= ~dests
    if inst.op in _INVERTIBLE_OPS and (out_set >> inst.rd) & 1:
        # The (invertible image of the) source is bound to leak too.
        state |= 1 << inst.ra
    state |= regs_mask(full_transmit_regs(inst))
    return state


def bound_to_leak(graph: FunctionGraph) -> Dict[int, int]:
    """IN sets: registers whose current value is fully transmitted along
    *all* forward paths.  Nothing is assumed to leak after the function
    returns (conservative)."""
    out_sets = solve(graph, lambda pc, out: bound_to_leak_transfer(
        graph.instruction(pc), out), 0, must=True, backward=True)
    return {pc: bound_to_leak_transfer(graph.instruction(pc), out)
            for pc, out in out_sets.items()}


# ======================================================================
# Never-secret registers (ProtCC-UNR, forward)
# ======================================================================

def unprotectable_transfer(inst: Instruction, state: int) -> int:
    """Registers that provably never hold program secrets: the stack
    pointer, constants, and values computed solely from them (SV-A4)."""
    op = inst.op
    dests = _dests_mask(inst)
    if op is Op.MOVI:
        state |= dests
    elif op in _DERIVED_OPS:
        srcs = regs_mask(inst.src_regs())
        if srcs & ~state:
            state &= ~dests
        else:
            state |= dests
    elif op in (Op.PUSH, Op.RET):
        pass  # SP updates derive from SP
    elif op is Op.CALL:
        state &= ~CALLER_SAVED_MASK
    elif op is Op.POP:
        state &= ~(dests & ~SP_MASK)
    else:
        state &= ~dests
    return state


def unprotectable(graph: FunctionGraph, entry_extra: int = 0
                  ) -> Dict[int, int]:
    return solve(graph, lambda pc, state: unprotectable_transfer(
        graph.instruction(pc), state), SP_MASK | entry_extra, must=True)


def unprotectable_after(graph: FunctionGraph, in_sets: Dict[int, int],
                        pc: int) -> int:
    return unprotectable_transfer(graph.instruction(pc), in_sets[pc])


# ======================================================================
# Transient taint (Blade-style source -> transmitter reachability)
# ======================================================================

def transient_taint_transfer(inst: Instruction, state: int) -> int:
    """One instruction's effect on the transient-taint set: registers
    whose value may have been produced (or derived from a value
    produced) by a load on the current path.  Those are exactly the
    values that can be *transient* — created by wrong-path execution
    and rolled back at squash — so a transmitter consuming one is a
    Blade cut point (PAPERS.md: Beyond Over-Protection).

    An MFENCE clears the whole set: the frontend stalls behind the
    fence until it executes non-speculatively, so every register value
    live after it is architectural ("stable" in Blade's terms)."""
    op = inst.op
    if op is Op.MFENCE:
        return 0
    dests = _dests_mask(inst)
    if op is Op.LOAD or op is Op.POP:
        # The loaded value is a taint source; POP's SP update derives
        # from SP and stays clean.
        state |= 1 << inst.rd
    elif op is Op.CALL:
        # The callee may leave loaded data in any caller-saved register.
        state |= CALLER_SAVED_MASK & ~SP_MASK
    elif op in _DERIVED_OPS:
        srcs = regs_mask(inst.src_regs())
        if srcs & state:
            state |= dests
        else:
            state &= ~dests
    elif op in (Op.PUSH, Op.RET):
        pass  # SP := SP +/- 8, derived from SP
    else:
        state &= ~dests  # MOVI, JMP, ...: constants and no-ops
    return state


def transient_taint(graph: FunctionGraph, entry_tainted: int = 0
                    ) -> Dict[int, int]:
    """IN sets of the forward *may*-analysis: registers possibly
    load-derived on some path reaching each pc.  ``entry_tainted`` seeds
    the function entry (callees must assume argument registers carry
    loaded data; the program entry starts clean)."""
    return solve(graph, lambda pc, state: transient_taint_transfer(
        graph.instruction(pc), state), entry_tainted, must=False)


# ======================================================================
# Reaching definitions (ProtCC-CTS)
# ======================================================================

@dataclass(frozen=True)
class Definition:
    """One register definition site within a function."""

    def_id: int
    pc: Optional[int]       # None for function-entry pseudo-defs
    reg: int
    kind: str               # "inst" | "entry" | "call"


class ReachingDefinitions:
    """Classic GEN/KILL reaching definitions over one function."""

    def __init__(self, graph: FunctionGraph) -> None:
        self.graph = graph
        self.defs: List[Definition] = []
        self._defs_at: Dict[Optional[int], List[Definition]] = {}
        self._defs_of_reg = [0] * NUM_REGS

        def add(pc: Optional[int], reg: int, kind: str) -> Definition:
            definition = Definition(len(self.defs), pc, reg, kind)
            self.defs.append(definition)
            self._defs_at.setdefault(pc, []).append(definition)
            self._defs_of_reg[reg] |= 1 << definition.def_id
            return definition

        for reg in range(NUM_REGS):
            add(None, reg, "entry")
        for pc in graph.pcs:
            inst = graph.instruction(pc)
            for reg in inst.dest_regs():
                add(pc, reg, "inst")
            if inst.op is Op.CALL:
                for reg in CALLER_SAVED:
                    add(pc, reg, "call")

        self._gen: Dict[int, int] = {}
        self._kill: Dict[int, int] = {}
        for pc in graph.pcs:
            gen = 0
            kill = 0
            for definition in self._defs_at.get(pc, ()):
                gen |= 1 << definition.def_id
                kill |= self._defs_of_reg[definition.reg]
            self._gen[pc] = gen
            self._kill[pc] = kill & ~gen

        entry_mask = sum(1 << d.def_id for d in self._defs_at[None])
        self.in_sets: Dict[int, int] = solve(
            graph, lambda pc, value: (self._gen[pc]
                                      | (value & ~self._kill[pc])),
            entry_mask, must=False)

    def reaching(self, pc: int, reg: int) -> List[Definition]:
        """Definitions of ``reg`` that may reach ``pc``."""
        mask = self.in_sets[pc] & self._defs_of_reg[reg]
        return [d for d in self.defs if (mask >> d.def_id) & 1]

    def defs_at(self, pc: Optional[int]) -> List[Definition]:
        return list(self._defs_at.get(pc, ()))

    def def_source_regs(self, definition: Definition) -> Tuple[int, ...]:
        """Register sources a definition's *value* derives from (used by
        the secrecy-typing closure: a public output needs public
        inputs).  Loads, entry defs, and call clobbers are opaque."""
        if definition.kind != "inst":
            return ()
        inst = self.graph.instruction(definition.pc)
        op = inst.op
        if op in _DERIVED_OPS:
            return inst.src_regs()
        if op in (Op.PUSH, Op.POP, Op.CALL, Op.RET) and definition.reg == SP:
            return (SP,)
        return ()
