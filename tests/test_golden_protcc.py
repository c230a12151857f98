"""Golden-fixture regression test for ProtCC and mitigation output.

``tests/golden/protcc.json`` pins one entry per compile: every
registered workload under ``cts``, ``ct``, ``unr`` and its own classes,
every workload through the ``blade`` and ``mask`` mitigations (the
passes that run ``transient_taint`` and ``ReachingDefinitions``), and
the three security fixtures under ``cts``, ``ct`` and ``unr``.  An entry
records the instruction count, the PROT-prefix count, the public-def-PC
count (class compiles) or the pass stats (mitigations), and the sha256
of the encoded instruction list, so any change to an analysis or a pass
that moves a single prefix or identity move shows up here.

An intended change regenerates the file with::

    PYTHONPATH=src python tests/test_golden_protcc.py

and the delta is reviewed with the change.
"""

import hashlib
import json
import pathlib

from repro.fixtures import FIXTURES, build
from repro.protcc import compile_program, mitigate_program
from repro.workloads import get_workload, workload_names

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "protcc.json"

CLASSES = ("cts", "ct", "unr")
MITIGATIONS = ("blade", "mask")


def _digest(program) -> str:
    lines = []
    for inst in program.instructions:
        lines.append("|".join((
            inst.op.name, str(inst.rd), str(inst.ra), str(inst.rb),
            str(inst.imm), str(inst.target),
            inst.cond.name if inst.cond is not None else "None",
            "P" if inst.prot else "-")))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _compiled_entry(program, classes):
    compiled = compile_program(program, classes)
    return {"instructions": len(compiled.program.instructions),
            "prot_prefixes": compiled.prot_prefixes,
            "public_defs": len(compiled.public_def_pcs),
            "sha256": _digest(compiled.program)}


def _mitigated_entry(program, mitigation):
    mitigated = mitigate_program(program, mitigation)
    return {"instructions": len(mitigated.program.instructions),
            "prot_prefixes": mitigated.program.prot_count(),
            "stats": mitigated.stats,
            "sha256": _digest(mitigated.program)}


def current_entries():
    """Label -> entry for every pinned compile, built from this tree."""
    entries = {}
    for name in workload_names():
        workload = get_workload(name)
        for cls in CLASSES:
            entries[f"workload/{name}/{cls}"] = _compiled_entry(
                workload.program, cls)
        entries[f"workload/{name}/own"] = _compiled_entry(
            workload.program, workload.classes)
        for mitigation in MITIGATIONS:
            entries[f"mitigation/{name}/{mitigation}"] = _mitigated_entry(
                workload.program, mitigation)
    for fixture in FIXTURES:
        program, _ = build(fixture)
        for cls in CLASSES:
            entries[f"fixture/{fixture}/{cls}"] = _compiled_entry(
                program, cls)
    return entries


def test_protcc_output_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    actual = current_entries()
    problems = []
    for label in sorted(set(golden) | set(actual)):
        want, got = golden.get(label), actual.get(label)
        if want is None or got is None:
            problems.append(f"  {label}: golden={want} actual={got}")
            continue
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                problems.append(f"  {label}: {key} golden={want.get(key)} "
                                f"actual={got.get(key)}")
    assert not problems, "\n".join(
        ["ProtCC output diverges from tests/golden/protcc.json:"]
        + problems
        + ["  (intended change? regenerate with `PYTHONPATH=src python "
           "tests/test_golden_protcc.py` and review the delta)"])


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(current_entries(), indent=1, sort_keys=True) + "\n")
