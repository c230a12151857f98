"""Software Spectre mitigations as first-class compiler passes.

The pass family the software-defense SoK catalogues (PAPERS.md),
implemented against the same :class:`Rewriter` the ProtCC classes use,
so mitigated programs run unchanged on both engines with the
``Unsafe`` hardware defense:

* ``fence`` — the LFENCE analogue: an MFENCE on *both* edges of every
  conditional branch, so no wrong-path instruction younger than a
  misprediction ever issues.
* ``slh`` — speculative load hardening: a poison register is set to
  all-ones on every mispredicted edge (data-dependently on the same
  FLAGS the branch reads, so hardware speculation cannot skip it) and
  OR-masked into every loaded value.  Secrets enter registers only
  through loads in this model, so every transiently-loaded value a
  transmitter could leak is forced to -1.
* ``mask`` — index masking: loads whose index is bounds-checked by a
  ``cmpi idx, K`` branch are rewritten to use ``idx & (next_pow2(K)-1)``.
  Deliberately pattern-limited (like the real -mspeculative-load-
  hardening ``__builtin_speculation_safe_value`` idiom): gadgets that
  bounds-check with ``cmp`` or leak through non-load channels stay
  vulnerable, which the fuzz matrix proves.
* ``blade`` — Beyond-Over-Protection-style targeted cuts: a fence only
  where the :func:`transient_taint` analysis finds a load-to-transmitter
  def-use chain, instead of on every branch edge.

Every pass preserves architectural results: the sequential reference
executor treats MFENCE as a NOP, SLH's poison is provably zero on the
committed path, and masking only applies where ``idx < K`` is
architecturally guaranteed.  The equivalence test suite checks this on
random programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..isa.instruction import Instruction
from ..isa.operations import Cond, FLAG_WRITERS, Op
from ..isa.program import Program
from ..isa.registers import FLAGS, NUM_REGS, SP
from .analyses import (
    ALL_REGS_MASK,
    CALLER_SAVED,
    ReachingDefinitions,
    SP_MASK,
    cts_sensitive_regs,
    regs_mask,
    transient_taint,
)
from .cfg import FunctionGraph, function_regions
from .rewriter import Rewriter


class MitigationError(ValueError):
    """A pass cannot be applied to this program (e.g. no free register
    is available for SLH's poison)."""


@dataclass
class MitigatedProgram:
    """A software-mitigated binary plus static instrumentation stats."""

    program: Program
    mitigation: str
    base_size: int
    #: Pass-specific counters (fences inserted, loads hardened, ...).
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def code_size_overhead(self) -> float:
        if self.base_size == 0:
            return 0.0
        extra = len(self.program.instructions) - self.base_size
        return extra / self.base_size


def _fence() -> Instruction:
    return Instruction(Op.MFENCE)


def free_registers(program: Program) -> List[int]:
    """Registers never read or written by ``program`` (highest first),
    excluding SP and FLAGS which are implicitly live everywhere."""
    used = 0
    for inst in program.instructions:
        used |= (regs_mask(inst.src_regs()) | regs_mask(inst.dest_regs())
                 | regs_mask(inst.addr_regs()))
    return [reg for reg in range(NUM_REGS - 1, -1, -1)
            if reg not in (SP, FLAGS) and not (used >> reg) & 1]


# ======================================================================
# fence: serialize every conditional-branch edge
# ======================================================================

def mitigate_fence(rewriter: Rewriter, program: Program) -> Dict[str, int]:
    """MFENCE on both edges of every conditional branch.

    Idempotent: if an edge already begins with a fence (because the
    pass ran before — the not-taken successor, or the trampoline a
    previous run left at the branch target), it is left alone.
    """
    fences = 0
    for pc, inst in enumerate(program.instructions):
        if inst.op is not Op.BR:
            continue
        if pc + 1 < len(program) and program[pc + 1].op is not Op.MFENCE:
            rewriter.insert_after(pc, [_fence()])
            fences += 1
        if program[inst.target].op is not Op.MFENCE:
            rewriter.split_taken_edge(pc, [_fence()])
            fences += 1
    return {"fences": fences}


# ======================================================================
# slh: poison register threaded through branch conditions
# ======================================================================

#: FLAGS-indicator recipes: instruction templates leaving T = 1 iff the
#: condition holds, given the flag encoding ZF=1, LT=2, B=4.
def _indicator(cond: Cond, temp: int) -> List[Instruction]:
    def op3(op: Op, ra: int, imm: int) -> Instruction:
        return Instruction(op, rd=temp, ra=ra, imm=imm)

    if cond is Cond.EQ:
        return [op3(Op.ANDI, FLAGS, 1)]
    if cond is Cond.NE:
        return [op3(Op.ANDI, FLAGS, 1), op3(Op.XORI, temp, 1)]
    if cond is Cond.LT:
        return [op3(Op.SHRI, FLAGS, 1), op3(Op.ANDI, temp, 1)]
    if cond is Cond.GE:
        return _indicator(Cond.LT, temp) + [op3(Op.XORI, temp, 1)]
    if cond is Cond.B:
        return [op3(Op.SHRI, FLAGS, 2), op3(Op.ANDI, temp, 1)]
    if cond is Cond.AE:
        return _indicator(Cond.B, temp) + [op3(Op.XORI, temp, 1)]
    if cond is Cond.LE:
        # (flags & 3) in {0..3}; +3 then >>2 maps 0 -> 0, 1..3 -> 1.
        return [op3(Op.ANDI, FLAGS, 3), op3(Op.ADDI, temp, 3),
                op3(Op.SHRI, temp, 2)]
    if cond is Cond.GT:
        return _indicator(Cond.LE, temp) + [op3(Op.XORI, temp, 1)]
    raise MitigationError(f"no indicator recipe for {cond!r}")


_NEGATE = {Cond.EQ: Cond.NE, Cond.NE: Cond.EQ, Cond.LT: Cond.GE,
           Cond.GE: Cond.LT, Cond.LE: Cond.GT, Cond.GT: Cond.LE,
           Cond.B: Cond.AE, Cond.AE: Cond.B}


def _poison_update(wrong_if: Cond, poison: int, temp: int
                   ) -> List[Instruction]:
    """T := 1 iff ``wrong_if`` holds (i.e. this edge is the wrong
    path); then P |= -T.  Architecturally T is always 0 here, so the
    update is an identity; transiently it forces P to all-ones."""
    return _indicator(wrong_if, temp) + [
        Instruction(Op.MULI, rd=temp, ra=temp, imm=-1),
        Instruction(Op.OR, rd=poison, ra=poison, rb=temp),
    ]


def mitigate_slh(rewriter: Rewriter, program: Program) -> Dict[str, int]:
    """Speculative load hardening (value-hardening variant).

    Needs two registers the program never touches: the poison P (must
    be callee-saved so leaf calls preserve it across the wrong path)
    and a scratch T.  P is zeroed once at the program entry; on each
    branch edge the wrong-path indicator — computed from the very FLAGS
    the branch resolved on — is multiplied to 0/-1 and OR-ed into P;
    and every loaded value is OR-masked with P.  None of the inserted
    ALU ops write FLAGS, so the program's own control flow is
    undisturbed.
    """
    free = free_registers(program)
    callee_saved = [reg for reg in free if reg not in CALLER_SAVED]
    if not callee_saved or len(free) < 2:
        raise MitigationError(
            "slh needs one free callee-saved register (poison) and one "
            f"free scratch register; free set is {free}")
    poison = callee_saved[0]
    temp = next(reg for reg in free if reg != poison)

    rewriter.insert_before(program.entry,
                           [Instruction(Op.MOVI, rd=poison, imm=0)])
    edges = 0
    loads = 0
    for pc, inst in enumerate(program.instructions):
        if inst.op is Op.BR:
            # Fall-through edge is wrong iff the condition held; the
            # taken edge is wrong iff it did not.
            rewriter.insert_after(pc, _poison_update(inst.cond, poison,
                                                     temp))
            rewriter.split_taken_edge(pc, _poison_update(
                _NEGATE[inst.cond], poison, temp))
            edges += 2
        elif inst.op is Op.LOAD:
            rewriter.insert_after(pc, [Instruction(Op.OR, rd=inst.rd,
                                                   ra=inst.rd, rb=poison)])
            loads += 1
    return {"poison_reg": poison, "temp_reg": temp,
            "edges_hardened": edges, "loads_hardened": loads}


# ======================================================================
# mask: index masking on bounds-checked loads
# ======================================================================

#: How far the pass walks a straight-line chain (backward to find the
#: bounds check, forward to find protected loads).
_SCAN_LIMIT = 32


def _find_bounds_check(graph: FunctionGraph, branch_pc: int
                       ) -> Optional[Instruction]:
    """Walk the unique straight-line path into ``branch_pc`` to the
    flag-writer it branches on; None unless that is a ``cmpi`` whose
    checked index is not redefined between check and branch."""
    cur = branch_pc
    clobbered = 0
    for _ in range(_SCAN_LIMIT):
        preds = graph.preds.get(cur, ())
        if len(preds) != 1:
            return None
        cur = preds[0]
        inst = graph.instruction(cur)
        if inst.op in FLAG_WRITERS:
            if inst.op is Op.CMPI and not (clobbered >> inst.ra) & 1:
                return inst
            return None
        if inst.op is Op.CALL:
            return None  # clobbers FLAGS by convention
        clobbered |= regs_mask(inst.dest_regs())
    return None


def _index_nonneg(graph: FunctionGraph, rdefs: ReachingDefinitions,
                  cmp_inst: Instruction, branch_pc: int) -> bool:
    """True when the checked index provably fits in the signed-positive
    range, making a signed ``blt idx, K`` a real upper bound."""
    defs = rdefs.reaching(branch_pc, cmp_inst.ra)
    if len(defs) != 1 or defs[0].kind != "inst":
        return False
    definition = graph.instruction(defs[0].pc)
    if definition.op is Op.MOVI:
        return definition.imm >= 0
    if definition.op is Op.ANDI:
        return definition.imm >= 0
    if definition.op is Op.SHRI:
        return definition.imm >= 1
    return False


def _protected_loads(graph: FunctionGraph, branch_pc: int, start: int,
                     index: int) -> List[int]:
    """Loads indexed by ``index`` on the straight-line chain entered
    only through the branch edge at ``start`` (unique predecessors all
    the way, so the bound holds on every execution)."""
    loads: List[int] = []
    cur = start
    prev = branch_pc
    for _ in range(_SCAN_LIMIT):
        if graph.preds.get(cur, None) != [prev]:
            break
        inst = graph.instruction(cur)
        if inst.op is Op.LOAD and index in inst.addr_regs():
            loads.append(cur)
        if index in inst.dest_regs() or inst.op is Op.CALL:
            break
        if inst.is_control or inst.op is Op.HALT:
            break
        prev, cur = cur, cur + 1
    return loads


def mitigate_mask(rewriter: Rewriter, program: Program) -> Dict[str, int]:
    """Index masking: after a ``cmpi idx, K`` bounds check branches to
    the in-bounds side, rewrite in-bounds loads to index with
    ``idx & (next_pow2(K) - 1)`` — architecturally the identity, and a
    hard cap on how far a transient out-of-bounds index can reach.

    Only the unambiguous pattern is rewritten: an unsigned check (or a
    signed one whose index is provably non-negative), a unique
    flag-definition, and loads dominated by the checked edge.  Anything
    else — ``cmp``-based checks, multi-predecessor joins, non-load
    transmitters — is left untouched, so mask alone is *not* a complete
    defense; the fuzz matrix demonstrates exactly that.
    """
    free = free_registers(program)
    if not free:
        raise MitigationError("mask needs one free scratch register")
    temp = free[0]
    masked = 0
    rewritten: set = set()
    for region in function_regions(program):
        graph = FunctionGraph(program, region)
        rdefs = ReachingDefinitions(graph)
        for pc in graph.pcs:
            inst = graph.instruction(pc)
            if inst.op is not Op.BR:
                continue
            if inst.cond in (Cond.B, Cond.LT):
                start, via_split = inst.target, True
            elif inst.cond in (Cond.AE, Cond.GE):
                start, via_split = pc + 1, False
            else:
                continue
            flag_defs = rdefs.reaching(pc, FLAGS)
            if len(flag_defs) != 1 or flag_defs[0].kind != "inst":
                continue
            cmp_inst = _find_bounds_check(graph, pc)
            if cmp_inst is None or cmp_inst.imm <= 0:
                continue
            if inst.cond in (Cond.LT, Cond.GE) and not _index_nonneg(
                    graph, rdefs, cmp_inst, pc):
                continue
            index = cmp_inst.ra
            mask = (1 << (cmp_inst.imm - 1).bit_length()) - 1
            if not via_split and start not in graph.preds:
                continue
            for load_pc in _protected_loads(graph, pc, start, index):
                if load_pc in rewritten:
                    continue
                rewritten.add(load_pc)
                old = program[load_pc]
                rewriter.insert_before(load_pc, [
                    Instruction(Op.ANDI, rd=temp, ra=index, imm=mask)])
                rewriter.replace(load_pc, Instruction(
                    Op.LOAD, rd=old.rd,
                    ra=temp if old.ra == index else old.ra,
                    rb=temp if old.rb == index else old.rb,
                    imm=old.imm, prot=old.prot))
                masked += 1
    return {"masked_loads": masked, "temp_reg": temp}


# ======================================================================
# blade: fence only the load -> transmitter chains
# ======================================================================

def mitigate_blade(rewriter: Rewriter, program: Program) -> Dict[str, int]:
    """Cut every load-to-transmitter def-use chain with one fence,
    leaving untainted code unfenced (Beyond Over-Protection's
    may-transient criterion over :func:`transient_taint`).

    Callee entries conservatively assume every register but SP carries
    loaded data (the caller may pass a loaded value in any register);
    the program entry starts clean because harness-provided inputs are
    public by the contract construction.  Division operands count as
    transmitters (the DIV timing channel).  Idempotent: a fence the
    pass inserted clears the taint that demanded it.
    """
    fences = 0
    for region in function_regions(program):
        graph = FunctionGraph(program, region)
        entry_tainted = 0 if program.entry in region \
            else ALL_REGS_MASK & ~SP_MASK
        taint = transient_taint(graph, entry_tainted)
        for pc in graph.pcs:
            inst = graph.instruction(pc)
            sensitive = regs_mask(cts_sensitive_regs(inst)) & ~SP_MASK
            if sensitive & taint[pc]:
                rewriter.insert_before(pc, [_fence()])
                fences += 1
    return {"fences": fences}


# ======================================================================
# Registry and driver
# ======================================================================

MITIGATIONS = {
    "fence": mitigate_fence,
    "slh": mitigate_slh,
    "mask": mitigate_mask,
    "blade": mitigate_blade,
}

#: Passes that claim full ARCH-SEQ contract security on their own.
#: ``mask`` is deliberately absent: it only hardens the bounds-checked
#: load patterns it can prove, so the fuzzer is expected to find leaks
#: it does not cover.  CI gates on this set — a member recording a
#: violation is a bug in the pass, not in the test.
SECURE_MITIGATIONS = frozenset({"fence", "slh", "blade"})


def mitigate_program(program: Program, mitigation: str) -> MitigatedProgram:
    """Apply one registered software mitigation to ``program``.

    Mirrors :func:`compile_program`: all edits are registered against
    the original program through one :class:`Rewriter` and applied in a
    single rebuild, so labels, branch targets, entry point, and
    function regions stay consistent.  To combine with ProtCC classes,
    compile first and mitigate the compiled program.
    """
    if mitigation not in MITIGATIONS:
        raise MitigationError(
            f"unknown mitigation {mitigation!r}; "
            f"registered: {', '.join(sorted(MITIGATIONS))}")
    if not program.is_linked:
        program = program.linked()
    rewriter = Rewriter(program)
    stats = MITIGATIONS[mitigation](rewriter, program)
    built = rewriter.build()
    return MitigatedProgram(program=built.program, mitigation=mitigation,
                            base_size=len(program.instructions),
                            stats=dict(stats))
