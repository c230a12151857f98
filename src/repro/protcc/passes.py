"""The ProtCC instrumentation passes (paper SV-A).

Each pass decides, per function, which instructions get a PROT prefix
and where declassifying identity moves are inserted.  Passes register
their edits against a shared :class:`Rewriter` keyed by *original* PCs,
so a multi-class program is compiled with one rebuild
(:func:`repro.protcc.driver.compile_program`).

* ``ProtCC-ARCH`` — no-op: unmodified binaries already program the
  all-unaccessed-memory ProtSet.
* ``ProtCC-CTS``  — Serberus-style secrecy-type inference: start with
  everything secret, force transmitter-sensitive operands (and,
  transitively, their sources) public, PROT-prefix secret definitions,
  and unprotect publicly-typed arguments/call results with identity
  moves.
* ``ProtCC-CT``   — past-leaked + bound-to-leak must-analyses;
  PROT-prefix definitions that are neither; declassify registers on the
  control-flow edges where they become newly bound-to-leak.
* ``ProtCC-UNR``  — protect everything except registers that provably
  never hold program data (stack pointer, constants, derivations).
* ``ProtCC-RAND`` — random prefixes, for fuzzing ProtISA hardware
  against the UNPROT-SEQ contract (paper SVII-B4b).
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Set, Tuple

from ..isa.instruction import Instruction
from ..isa.operations import Op
from ..isa.registers import NUM_REGS, SP
from .analyses import (
    ReachingDefinitions,
    bound_to_leak_transfer,
    cts_sensitive_regs,
    past_leaked,
    past_leaked_after,
    regs_mask,
    solve,
    unprotectable,
    unprotectable_after,
)
from .cfg import FunctionGraph
from .rewriter import Rewriter, identity_move

#: The four vulnerable code classes plus the fuzzing pseudo-class.
CLASSES = ("arch", "cts", "ct", "unr", "rand")


def apply_arch(rewriter: Rewriter, graph: FunctionGraph) -> None:
    """ProtCC-ARCH is a no-op (paper SV-A1): unprefixed binaries unprotect
    exactly what they architecturally access."""


def _moves(regs: Iterable[int]) -> List[Instruction]:
    return [identity_move(reg) for reg in regs]


def _prot_unsafe(rewriter: Rewriter, pc: int,
                 outputs: Iterable[Tuple[int, bool]]) -> None:
    """PROT-prefix the definition at ``pc`` if any of its ``(register,
    safe)`` outputs is unsafe, then re-unprotect its safe co-outputs
    with identity moves (e.g. the stack pointer of a PROT-prefixed
    POP)."""
    outputs = list(outputs)
    if all(safe for _, safe in outputs):
        return
    rewriter.set_prot(pc, True)
    fixes = _moves(reg for reg, safe in outputs if safe)
    if fixes:
        rewriter.insert_after(pc, fixes)


# ======================================================================
# ProtCC-CTS
# ======================================================================

def apply_cts(rewriter: Rewriter, graph: FunctionGraph,
              entry_public: Tuple[int, ...] = ()) -> None:
    rd = ReachingDefinitions(graph)

    # Worklist closure: sensitive operands must be publicly typed, and a
    # public definition needs public sources.
    public: Set[int] = set()
    worklist: List[int] = []

    def force(def_ids) -> None:
        for definition in def_ids:
            if definition.def_id not in public:
                public.add(definition.def_id)
                worklist.append(definition.def_id)

    # Axioms of the typing rules: immediates are public, and the stack
    # pointer's +/-8 updates inherit its (public) type.
    for definition in rd.defs:
        if definition.kind != "inst":
            continue
        inst = graph.instruction(definition.pc)
        if inst.op is Op.MOVI or (
                definition.reg == SP
                and inst.op in (Op.PUSH, Op.POP, Op.CALL, Op.RET)):
            public.add(definition.def_id)
    # User annotations (paper SV-C): declared-public arguments.
    for definition in rd.defs_at(None):
        if definition.reg in entry_public:
            public.add(definition.def_id)

    for pc in graph.pcs:
        inst = graph.instruction(pc)
        for reg in cts_sensitive_regs(inst):
            force(rd.reaching(pc, reg))

    while worklist:
        def_id = worklist.pop()
        definition = rd.defs[def_id]
        if definition.kind != "inst":
            continue  # entry/call defs: public by class assumption
        for src in rd.def_source_regs(definition):
            force(rd.reaching(definition.pc, src))

    # Instrumentation: prefix secret definitions.
    for pc in graph.pcs:
        _prot_unsafe(rewriter, pc, ((d.reg, d.def_id in public)
                                    for d in rd.defs_at(pc)
                                    if d.kind == "inst"))

    # Declassify publicly-typed arguments at entry (only those actually
    # consumed before redefinition, to bound code growth).
    used_entry_regs = _entry_used_regs(graph, rd, public)
    used_entry_regs |= set(entry_public)
    if used_entry_regs:
        rewriter.insert_before(graph.entry, _moves(sorted(used_entry_regs)))

    # Declassify publicly-typed call results after each CALL.
    for pc in graph.pcs:
        call_defs = [d for d in rd.defs_at(pc) if d.kind == "call"]
        pub_regs = sorted({d.reg for d in call_defs if d.def_id in public})
        if pub_regs:
            rewriter.insert_after(pc, _moves(pub_regs))


def _entry_used_regs(graph: FunctionGraph, rd: ReachingDefinitions,
                     public: Set[int]) -> Set[int]:
    entry_public = {d.def_id: d.reg for d in rd.defs_at(None)
                    if d.def_id in public}
    used: Set[int] = set()
    for pc in graph.pcs:
        for reg in graph.instruction(pc).src_regs():
            for definition in rd.reaching(pc, reg):
                if definition.def_id in entry_public:
                    used.add(reg)
    return used


# ======================================================================
# ProtCC-CT
# ======================================================================

def apply_ct(rewriter: Rewriter, graph: FunctionGraph,
             entry_public: Tuple[int, ...] = ()) -> None:
    pl_in = past_leaked(graph, regs_mask(entry_public))
    btl_out = solve(graph, lambda pc, out: bound_to_leak_transfer(
        graph.instruction(pc), out), 0, must=True, backward=True)

    def btl_in(pc: int) -> int:
        return bound_to_leak_transfer(graph.instruction(pc), btl_out[pc])

    if entry_public:
        rewriter.insert_before(graph.entry, _moves(sorted(entry_public)))

    for pc in graph.pcs:
        inst = graph.instruction(pc)
        safe = past_leaked_after(graph, pl_in, pc) | btl_out[pc]
        _prot_unsafe(rewriter, pc, ((reg, (safe >> reg) & 1)
                                    for reg in inst.dest_regs()))

        # Edge declassification: a register newly bound-to-leak along
        # one successor edge (but not all) gets an identity move there.
        if inst.op is Op.BR and len(graph.succs[pc]) == 2:
            already = btl_out[pc] | past_leaked_after(graph, pl_in, pc)
            fall_new = btl_in(pc + 1) & ~already
            taken_new = btl_in(inst.target) & ~already
            if fall_new:
                rewriter.insert_after(pc, _moves(_bits(fall_new)))
            if taken_new:
                rewriter.split_taken_edge(pc, _moves(_bits(taken_new)))

    # Declassify bound-to-leak registers at function entry (public
    # arguments, Fig. 3d line 1).
    entry_btl = btl_in(graph.entry) & ~(1 << SP)
    if entry_btl:
        rewriter.insert_before(graph.entry, _moves(_bits(entry_btl)))


def _bits(mask: int) -> List[int]:
    return [reg for reg in range(NUM_REGS) if (mask >> reg) & 1]


# ======================================================================
# ProtCC-UNR
# ======================================================================

def apply_unr(rewriter: Rewriter, graph: FunctionGraph,
              entry_public: Tuple[int, ...] = ()) -> None:
    in_sets = unprotectable(graph, regs_mask(entry_public))
    if entry_public:
        rewriter.insert_before(graph.entry, _moves(sorted(entry_public)))
    for pc in graph.pcs:
        safe = unprotectable_after(graph, in_sets, pc)
        _prot_unsafe(rewriter, pc, ((reg, (safe >> reg) & 1)
                                    for reg in graph.instruction(pc)
                                    .dest_regs()))


# ======================================================================
# ProtCC-RAND (testing only)
# ======================================================================

def apply_rand(rewriter: Rewriter, graph: FunctionGraph,
               rng: Optional[random.Random] = None,
               density: float = 0.5) -> None:
    """PROT-prefix a random subset of instructions: exercises arbitrary
    ProtISA binaries against the UNPROT-SEQ contract (paper SVII-B4b)."""
    rng = rng or random.Random(0)
    for pc in graph.pcs:
        if graph.instruction(pc).dest_regs() and rng.random() < density:
            rewriter.set_prot(pc, True)
