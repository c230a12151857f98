"""The differential proof layer: compiled-vs-reference runs.

Every test here executes the same simulation twice — once on the
compiled engine, once on the reference interpreter (``Core``) — and
asserts the two ``CoreResult`` outcomes identical in every observable
(cycles, stats, timing trace, adversary cache state, committed
streams)."""

import pytest

from repro.bench.runner import DEFENSES
from repro.fixtures import build
from repro.uarch import P_CORE, simulate
from repro.uarch.config import SpeculationModel
from repro.uarch.refcore import (
    DiffCase,
    compare_results,
    diff_cases,
    fixture_cases,
    run_case,
    run_engines,
)

ALL_DEFENSES = tuple(DEFENSES)


# ----------------------------------------------------------------------
# Harness plumbing
# ----------------------------------------------------------------------

def test_compare_results_reports_per_stat_key():
    program, memory = build("v1-gadget")
    a = simulate(program, None, P_CORE, memory)
    b = simulate(program, None, P_CORE, memory)
    b.stats = dict(b.stats)
    b.stats["squashes"] += 1
    b.cycles += 7
    report = compare_results(a, b, label="forced")
    assert not report.identical
    rendered = report.render()
    assert "stats[squashes]" in rendered
    assert "cycles" in rendered
    assert "got=" in rendered and "ref=" in rendered
    with pytest.raises(AssertionError, match="reference engine"):
        report.raise_if_different()


def test_identical_results_render_clean():
    program, memory = build("v1-gadget")
    a = simulate(program, None, P_CORE, memory)
    report = compare_results(a, a)
    assert report.identical
    report.raise_if_different()
    assert "identical" in report.render()


def test_diff_cases_cover_every_defense_and_core():
    cases = list(diff_cases(programs=2))
    assert {c.defense for c in cases} == set(ALL_DEFENSES)
    assert {c.core for c in cases} == {"P", "E"}
    assert {c.instrument for c in cases} == {
        "rand", "arch", "cts", "ct", "unr"}
    # Seed rotation sweeps the Table III hardware variants.
    models = {c.config().speculation_model for c in cases}
    assert models == {SpeculationModel.ATCOMMIT, SpeculationModel.CONTROL}


# ----------------------------------------------------------------------
# The grid: every defense x instrumentation class x core config.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("defense", ALL_DEFENSES)
@pytest.mark.parametrize("instrument", ["rand", "arch", "ct"])
def test_random_program_identical(defense, instrument):
    for core in ("P", "E"):
        report = run_case(DiffCase(defense, instrument, core, seed=11))
        report.raise_if_different()


@pytest.mark.parametrize("defense", ["track", "stt", "spt", "nda"])
def test_control_speculation_identical(defense):
    # seed % 3 == 1 rotates in the CONTROL speculation model.
    report = run_case(DiffCase(defense, "arch", "P", seed=4))
    assert (DiffCase(defense, "arch", "P", seed=4).config()
            .speculation_model is SpeculationModel.CONTROL)
    report.raise_if_different()


@pytest.mark.parametrize("defense", ["track", "stt"])
def test_buggy_squash_notify_identical(defense):
    # seed % 4 == 2 rotates in the squash-notification bug.
    case = DiffCase(defense, "arch", "P", seed=6)
    assert case.config().buggy_squash_notify
    run_case(case).raise_if_different()


# ----------------------------------------------------------------------
# Security fixtures under their signature configs.
# ----------------------------------------------------------------------

def test_fixture_runs_identical():
    reports = list(fixture_cases())
    assert len(reports) == 3 * len(DEFENSES)
    for _, report in reports:
        report.raise_if_different()


@pytest.mark.parametrize("defense", ["unsafe", "spt", "spt-sb", "track"])
def test_workload_identical(defense):
    from repro.workloads import get_workload
    from repro.protcc import compile_program

    workload = get_workload("mcf.s")
    factory = DEFENSES[defense]
    program = workload.program
    if factory().binary == "protcc":
        program = compile_program(workload.program,
                                  workload.classes).program
    _, report = run_engines(program, factory,
                            memory_factory=lambda: workload.memory,
                            regs=workload.regs,
                            label=f"mcf.s/{defense}")
    report.raise_if_different()
