"""Golden-fixture regression test for the sequential machine.

``tests/golden/seq_traces.json`` pins one entry per sequential run:

* every registered workload, compiled under its own classes and run on
  its own memory and registers;
* the three security fixtures, compiled under ``cts``;
* the base input and the four mutated inputs of the first 8 programs of
  fuzz campaign seeds 1 and 7, compiled under ``rand``, ``ct`` and
  ``cts``, built exactly as a campaign builds them.

An entry records the step count and the halt reason, the sha256 of the
step records (all ten ``StepRecord`` fields), the sha256 of the final
registers and the non-zero memory bytes, and one sha256 per
``ObserverMode`` of the run's contract trace (CTS with the compile's
public-definition PCs).  Any change to what one step reads, writes or
records, or to what an observer exposes, shows up here.

An intended change regenerates the file with::

    PYTHONPATH=src python tests/test_golden_seq.py

and the delta is reviewed with the change.
"""

import hashlib
import json
import pathlib
import random

from repro.arch import ObserverMode, contract_trace, run_program
from repro.contracts.checker import CHECK_FUEL
from repro.fixtures import FIXTURES, build
from repro.fuzzing import generate_program
from repro.fuzzing.inputs import generate_input, mutate_input
from repro.protcc import compile_program
from repro.workloads import get_workload, workload_names

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "seq_traces.json"

FUZZ_SEEDS = (1, 7)
FUZZ_PROGRAMS = 8
FUZZ_SIZE = 40
FUZZ_PAIRS = 4
FUZZ_CLASSES = ("rand", "ct", "cts")


def _encode_inst(inst) -> str:
    """One instruction, encoded as ``test_golden_protcc`` encodes it."""
    return "|".join((
        inst.op.name, str(inst.rd), str(inst.ra), str(inst.rb),
        str(inst.imm), str(inst.target),
        inst.cond.name if inst.cond is not None else "None",
        "P" if inst.prot else "-"))


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _step_fields(step):
    return (step.pc, _encode_inst(step.inst), step.next_pc, step.reg_reads,
            step.reg_writes, step.mem_read, step.mem_write,
            step.addr_reg_values, step.branch, step.div_operands)


def _entry(program, public_defs, memory, regs, fuel):
    seq = run_program(program, memory, regs, fuel=fuel)
    nonzero = sorted((a, v) for a, v in seq.memory.snapshot().items() if v)
    return {
        "steps": len(seq.steps),
        "halt": seq.halt_reason,
        "steps_sha256": _sha([_step_fields(step) for step in seq.steps]),
        "state_sha256": _sha((seq.final_regs, nonzero)),
        "trace_sha256": {
            mode.value: _sha(contract_trace(seq, mode, public_defs))
            for mode in ObserverMode},
    }


def _fuzz_program_seeds(seed):
    """The first program seeds a campaign with master seed ``seed``
    draws."""
    master = random.Random(seed)
    return [master.randrange(1 << 30) for _ in range(FUZZ_PROGRAMS)]


def current_entries():
    """Label -> entry for every pinned run, built from this tree."""
    entries = {}
    for name in workload_names():
        workload = get_workload(name)
        compiled = compile_program(workload.program, workload.classes)
        entries[f"workload/{name}"] = _entry(
            compiled.program, compiled.public_def_pcs, workload.memory,
            workload.regs, fuel=200_000)
    for fixture in FIXTURES:
        program, memory = build(fixture)
        compiled = compile_program(program, "cts")
        entries[f"fixture/{fixture}"] = _entry(
            compiled.program, compiled.public_def_pcs, memory, None,
            fuel=200_000)
    for seed in FUZZ_SEEDS:
        for index, program_seed in enumerate(_fuzz_program_seeds(seed)):
            program = generate_program(program_seed, FUZZ_SIZE)
            input_rng = random.Random(program_seed ^ 0xF00D)
            inputs = [generate_input(input_rng)]
            for pair_index in range(FUZZ_PAIRS):
                inputs.append(mutate_input(
                    input_rng, inputs[0], public_flips=pair_index % 3 == 2))
            for cls in FUZZ_CLASSES:
                compiled = compile_program(
                    program, cls, rng=random.Random(program_seed ^ 0xC0DE))
                for k, test_input in enumerate(inputs):
                    entries[f"fuzz/{seed}/{index}/{cls}/{k}"] = _entry(
                        compiled.program, compiled.public_def_pcs,
                        test_input.build_memory(), test_input.build_regs(),
                        fuel=CHECK_FUEL)
    return entries


def test_sequential_runs_match_golden():
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
        ["sequential runs diverge from tests/golden/seq_traces.json:"]
        + problems
        + ["  (intended change? regenerate with `PYTHONPATH=src python "
           "tests/test_golden_seq.py` and review the delta)"])


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(current_entries(), indent=1, sort_keys=True) + "\n")
