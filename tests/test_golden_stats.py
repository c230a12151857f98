"""Golden-fixture regression tests for ``CoreResult.stats``.

The checked-in ``tests/golden/core_stats.json`` pins the exact cycle
count and every stat counter for the security fixtures under their
signature configurations.  Any uarch change that shifts a counter
shows up here as a readable per-key diff — if the shift is intended,
regenerate the golden file (each entry is plain JSON) and review the
delta in the PR.
"""

import json
import pathlib

import pytest

from repro.bench.runner import DEFENSES
from repro.fixtures import build
from repro.protcc import mitigate_program
from repro.uarch import P_CORE, simulate
from repro.uarch.refcore import Case

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "core_stats.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: label -> (fixture, defense, config, software mitigation or None).
#: The fence-mitigated case pins the *software* overhead baseline: any
#: change to fence placement or MFENCE frontend serialization shifts
#: its cycle count and shows up here.
CASES = {
    "div-channel/unsafe": ("div-channel", "unsafe", P_CORE, None),
    "div-channel/track": ("div-channel", "track", P_CORE, None),
    "squash-bug/track": ("squash-bug", "track", P_CORE, None),
    "squash-bug/track-buggy": ("squash-bug", "track",
                               P_CORE.replace(buggy_squash_notify=True),
                               None),
    "v1-gadget/unsafe+fence": ("v1-gadget", "unsafe", P_CORE, "fence"),
}


def format_stat_diff(label, expected, actual) -> str:
    lines = [f"{label}: stats diverge from tests/golden/core_stats.json"]
    for key in sorted(set(expected) | set(actual)):
        want, got = expected.get(key), actual.get(key)
        if want != got:
            lines.append(f"  {key}: golden={want} actual={got}")
    lines.append("  (intended change? regenerate the golden file and "
                 "review the delta)")
    return "\n".join(lines)


def test_golden_file_covers_every_case():
    assert set(GOLDEN) == set(CASES)


def _case(label) -> Case:
    fixture, defense, config, mitigation = CASES[label]
    program, memory = build(fixture)
    if mitigation is not None:
        program = mitigate_program(program, mitigation).program
    return Case(label, program, DEFENSES[defense], config, memory)


@pytest.mark.parametrize("label", sorted(CASES))
def test_stats_match_golden(label):
    case = _case(label)
    result = simulate(case.program, case.defense(), case.config, case.memory)
    assert result.halt_reason == "halt"
    golden = GOLDEN[label]
    actual = dict(sorted(result.stats.items()))
    assert result.cycles == golden["cycles"], (
        f"{label}: cycles golden={golden['cycles']} "
        f"actual={result.cycles}")
    assert actual == golden["stats"], \
        format_stat_diff(label, golden["stats"], actual)


@pytest.mark.parametrize("label", sorted(CASES))
def test_golden_runs_identical_on_reference_engine(label):
    # The goldens pin the *observable* behaviour, which by the
    # differential contract is engine-independent.
    case = _case(label)
    result = simulate(case.program, case.defense(), case.config, case.memory,
                      engine="ref")
    golden = GOLDEN[label]
    assert result.cycles == golden["cycles"]
    assert dict(sorted(result.stats.items())) == golden["stats"]
