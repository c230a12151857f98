"""ProtCC compilation driver (paper SV-A, SVIII-B3).

Multi-class programs are compiled by assigning each function region a
vulnerable-code class, exactly as the paper does for nginx (main
executable: ARCH; OpenSSL: UNR except its hottest ARCH/CTS/CT
functions).  All per-function edits are registered against the original
program and applied in a single rebuild.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple, Union

from ..isa.program import Program
from .cfg import FunctionGraph, function_regions
from .passes import CLASSES, apply_ct, apply_cts, apply_rand, apply_unr
from .rewriter import Rewriter

ClassMap = Union[str, Dict[str, str]]

#: The passes that honour public-register annotations (paper SV-C).
#: ProtCC-ARCH is a no-op and ProtCC-RAND draws from the caller's RNG.
_ANNOTATED_PASSES = {"cts": apply_cts, "ct": apply_ct, "unr": apply_unr}


@dataclass
class CompiledProgram:
    """A ProtCC-instrumented binary plus observer metadata."""

    program: Program
    #: function name -> class it was compiled as
    classes: Dict[str, str]
    #: Final PCs whose output definitions are publicly typed (feeds the
    #: CTS-SEQ observer mode, paper SVII-B1c).
    public_def_pcs: Set[int] = field(default_factory=set)
    #: Static instrumentation metrics (paper SIX-A2).
    base_size: int = 0
    inserted_moves: int = 0
    prot_prefixes: int = 0

    @property
    def code_size_overhead(self) -> float:
        if self.base_size == 0:
            return 0.0
        extra = (len(self.program.instructions) - self.base_size
                 + 0.25 * self.prot_prefixes)
        return extra / self.base_size


def compile_program(
    program: Program,
    classes: ClassMap = "arch",
    default_class: str = "unr",
    rng: Optional[random.Random] = None,
    public_annotations: Optional[Dict[str, Tuple[int, ...]]] = None,
) -> CompiledProgram:
    """Instrument ``program`` with ProtCC.

    ``classes`` is either a single class applied to every function or a
    mapping from function name to class; unmapped functions get
    ``default_class`` (the guaranteed-secure choice, paper SV-B).

    ``public_annotations`` optionally maps a function name to registers
    the user asserts hold public data at its entry (the manual
    refinement hook of paper SV-C); the passes then declassify them
    instead of conservatively protecting them.
    """
    if not program.is_linked:
        program = program.linked()
    regions = function_regions(program)

    if isinstance(classes, str):
        class_of = {region.name: classes for region in regions}
    else:
        unknown = set(classes) - {region.name for region in regions}
        if unknown:
            raise ValueError(f"unknown functions in class map: {unknown}")
        class_of = {region.name: classes.get(region.name, default_class)
                    for region in regions}
    for name, cls in class_of.items():
        if cls not in CLASSES:
            raise ValueError(f"unknown class {cls!r} for {name!r}")

    annotations = public_annotations or {}
    unknown_notes = set(annotations) - {r.name for r in regions}
    if unknown_notes:
        raise ValueError(
            f"annotations for unknown functions: {unknown_notes}")

    rewriter = Rewriter(program)
    for region in regions:
        graph = FunctionGraph(program, region)
        cls = class_of[region.name]
        if cls in _ANNOTATED_PASSES:
            _ANNOTATED_PASSES[cls](
                rewriter, graph,
                entry_public=tuple(annotations.get(region.name, ())))
        elif cls == "rand":
            apply_rand(rewriter, graph, rng)

    built = rewriter.build()
    compiled = CompiledProgram(
        program=built.program,
        classes=class_of,
        base_size=len(program.instructions),
        inserted_moves=(len(built.program.instructions)
                        - len(program.instructions)),
        prot_prefixes=built.program.prot_count(),
    )

    # CTS observer metadata: publicly-typed definitions are exactly the
    # unprefixed definitions inside CTS-compiled regions (the pass
    # prefixes every secret definition), plus inserted identity moves.
    for region in regions:
        if class_of[region.name] != "cts":
            continue
        start = built.point_pos[region.start]
        end = built.point_pos.get(region.end,
                                  len(built.program.instructions))
        for pc in range(start, end):
            inst = built.program[pc]
            if inst.dest_regs() and not inst.prot:
                compiled.public_def_pcs.add(pc)
    return compiled
