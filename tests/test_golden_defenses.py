"""Golden-fixture regression test for every protection mechanism.

Both engines call the same defense hooks, so ``repro diff`` cannot see a
hook that changed meaning: both sides would move together.
``tests/golden/defense_runs.json`` pins one entry per run on the
compiled engine:

* every ``DEFENSES`` entry on the three security fixtures under the
  P-core, the E-core, the P-core under the CONTROL speculation model
  and the P-core with the buggy squash notification;
* every ``DEFENSES`` entry on ``ossl.dh``, ``mcf.s`` and ``nginx.c2r2``,
  each on its ``default_instrument`` binary, under the P-core and the
  P-core under CONTROL.

An entry records the cycle count, the halt reason, and one sha256 over
the sorted stats, the committed PCs, the timing trace, the committed
memory accesses and the final registers.  Any change to what a
mechanism allows, refuses or counts shows up here.

An intended change regenerates the file with::

    PYTHONPATH=src python tests/test_golden_defenses.py

and the delta is reviewed with the change.
"""

import hashlib
import json
import pathlib

from repro.bench.runner import DEFENSES, compiled, default_instrument
from repro.fixtures import FIXTURES, build
from repro.uarch import P_CORE, E_CORE, SpeculationModel, simulate
from repro.workloads import get_workload

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "defense_runs.json"

CONTROL = P_CORE.replace(speculation_model=SpeculationModel.CONTROL)

FIXTURE_CONFIGS = {
    "P": P_CORE,
    "E": E_CORE,
    "P-CONTROL": CONTROL,
    "P-buggy-squash": P_CORE.replace(buggy_squash_notify=True),
}

WORKLOADS = ("ossl.dh", "mcf.s", "nginx.c2r2")
WORKLOAD_CONFIGS = {"P": P_CORE, "P-CONTROL": CONTROL}


def _entry(program, factory, config, memory, regs=None):
    result = simulate(program, factory(), config, memory, regs)
    digest = hashlib.sha256(repr((
        sorted(result.stats.items()), result.committed_pcs,
        result.timing_trace, result.committed_accesses,
        tuple(result.final_regs))).encode()).hexdigest()
    return {"cycles": result.cycles, "halt": result.halt_reason,
            "sha256": digest}


def current_entries():
    """Label -> entry for every pinned run, built from this tree."""
    entries = {}
    for name in FIXTURES:
        program, memory = build(name)
        for config_name, config in FIXTURE_CONFIGS.items():
            for defense, factory in DEFENSES.items():
                entries[f"fixture/{name}/{config_name}/{defense}"] = _entry(
                    program, factory, config, memory)
    for name in WORKLOADS:
        workload = get_workload(name)
        for defense, factory in DEFENSES.items():
            instrument = default_instrument(defense)
            program = workload.program if instrument is None \
                else compiled(name, instrument).program
            for config_name, config in WORKLOAD_CONFIGS.items():
                entries[f"workload/{name}/{config_name}/{defense}"] = _entry(
                    program, factory, config, workload.memory, workload.regs)
    return entries


def test_defense_runs_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    actual = current_entries()
    assert len(actual) == 162
    problems = []
    for label in sorted(set(golden) | set(actual)):
        want, got = golden.get(label), actual.get(label)
        if want != got:
            problems.append(f"  {label}: golden={want} actual={got}")
    assert not problems, "\n".join(
        ["defense runs diverge from tests/golden/defense_runs.json:"]
        + problems
        + ["  (intended change? regenerate with `PYTHONPATH=src python "
           "tests/test_golden_defenses.py` and review the delta)"])


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(current_entries(), indent=1, sort_keys=True) + "\n")
