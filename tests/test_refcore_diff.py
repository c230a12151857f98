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
    REQUIRED_TELEMETRY,
    compare_results,
    fixture_cases,
    grid_case,
    grid_cases,
    run_engines,
    workload_cases,
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


def test_telemetry_missing_on_both_sides_is_a_divergence():
    # Equal stats dicts both lacking a REQUIRED_TELEMETRY key must not
    # compare identical: an engine that stopped emitting a counter
    # would otherwise pass unnoticed.
    program, memory = build("v1-gadget")
    result = simulate(program, None, P_CORE, memory)
    key = REQUIRED_TELEMETRY[0]
    result.stats = {k: v for k, v in result.stats.items() if k != key}
    report = compare_results(result, result)
    assert not report.identical
    assert f"stats[{key}] present" in report.render()


def test_grid_cases_cover_every_defense_and_core():
    cases = list(grid_cases(programs=2))
    cells = [case.label.split("/") for case in cases]
    assert {cell[0] for cell in cells} == set(ALL_DEFENSES)
    assert {cell[1] for cell in cells} == {"rand", "arch", "cts", "ct", "unr"}
    assert {cell[2] for cell in cells} == {"P", "E"}
    # Seed rotation sweeps the Table III hardware variants.
    models = {case.config.speculation_model for case in cases}
    assert models == {SpeculationModel.ATCOMMIT, SpeculationModel.CONTROL}


# ----------------------------------------------------------------------
# The grid: every defense x instrumentation class x core config.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("defense", ALL_DEFENSES)
@pytest.mark.parametrize("instrument", ["rand", "arch", "ct"])
def test_random_program_identical(defense, instrument):
    for core in ("P", "E"):
        run_engines(grid_case(defense, instrument, core, seed=11))[1] \
            .raise_if_different()


@pytest.mark.parametrize("defense", ["track", "stt", "spt", "nda"])
def test_control_speculation_identical(defense):
    # seed % 3 == 1 rotates in the CONTROL speculation model.
    case = grid_case(defense, "arch", "P", seed=4)
    assert case.config.speculation_model is SpeculationModel.CONTROL
    run_engines(case)[1].raise_if_different()


@pytest.mark.parametrize("defense", ["track", "stt"])
def test_buggy_squash_notify_identical(defense):
    # seed % 4 == 2 rotates in the squash-notification bug.
    case = grid_case(defense, "arch", "P", seed=6)
    assert case.config.buggy_squash_notify
    run_engines(case)[1].raise_if_different()


# ----------------------------------------------------------------------
# Security fixtures under their signature configs.
# ----------------------------------------------------------------------

def test_fixture_runs_identical():
    cases = list(fixture_cases())
    assert len(cases) == 3 * len(DEFENSES)
    for case in cases:
        run_engines(case)[1].raise_if_different()


@pytest.mark.parametrize("defense", ["unsafe", "spt", "spt-sb", "track"])
def test_workload_identical(defense):
    case, = workload_cases(("mcf.s",), (defense,))
    run_engines(case)[1].raise_if_different()
