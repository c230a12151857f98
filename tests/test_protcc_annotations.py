"""SV-C extension: user secrecy annotations refine the inferred
ProtSets — a declared-public argument is declassified instead of
conservatively protected."""

import pytest

from repro.arch import run_program
from repro.isa import Op, assemble
from repro.protcc import compile_program

SRC = """
main:
    movi r0, 21
    call f
    halt
.func f
f:
    mul r1, r0, r0      ; r0 never reaches a transmitter: inferred secret
    ret
.endfunc
"""


def body(compiled):
    region = compiled.program.function_named("f")
    return compiled.program.instructions[region.start:region.end]


def test_unr_annotation_unprotects_argument():
    program = assemble(SRC).linked()
    plain = compile_program(program, {"f": "unr"}, default_class="arch")
    muls = [i for i in body(plain) if i.op is Op.MUL]
    assert muls[0].prot  # r0 conservatively treated as possibly-secret

    hinted = compile_program(program, {"f": "unr"}, default_class="arch",
                             public_annotations={"f": (0,)})
    muls = [i for i in body(hinted) if i.op is Op.MUL]
    assert not muls[0].prot
    moves = [i for i in body(hinted) if i.op is Op.MOV and i.rd == i.ra]
    assert any(m.rd == 0 for m in moves)  # declassifying identity move


def test_ct_annotation_adds_entry_move():
    program = assemble(SRC).linked()
    hinted = compile_program(program, {"f": "ct"}, default_class="arch",
                             public_annotations={"f": (0,)})
    moves = [i for i in body(hinted) if i.op is Op.MOV and i.rd == i.ra]
    assert any(m.rd == 0 for m in moves)


def test_cts_annotation_publicizes_entry_def():
    program = assemble(SRC).linked()
    plain = compile_program(program, {"f": "cts"}, default_class="arch")
    hinted = compile_program(program, {"f": "cts"}, default_class="arch",
                             public_annotations={"f": (0,)})
    assert hinted.prot_prefixes <= plain.prot_prefixes
    moves = [i for i in body(hinted) if i.op is Op.MOV and i.rd == i.ra]
    assert any(m.rd == 0 for m in moves)


def test_annotation_preserves_semantics():
    program = assemble(SRC).linked()
    base = run_program(program)
    hinted = compile_program(program, {"f": "unr"}, default_class="arch",
                             public_annotations={"f": (0,)})
    result = run_program(hinted.program)
    assert result.final_regs == base.final_regs


def test_annotation_unknown_function_rejected():
    program = assemble(SRC).linked()
    with pytest.raises(ValueError):
        compile_program(program, "unr", public_annotations={"zzz": (0,)})


@pytest.mark.parametrize("clazz", ["unr", "ct"])
def test_repeated_annotation_names_one_register(clazz):
    # The entry set is the union of the annotated registers: naming r0
    # twice must not mark some other register (bit 0 + bit 0 = bit 1).
    program = assemble(SRC).linked()
    twice = compile_program(program, {"f": clazz}, default_class="arch",
                            public_annotations={"f": (0, 0)})
    assert [i.prot for i in body(twice) if i.op is Op.MUL] == [False]
