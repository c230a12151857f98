"""Workload registry: every benchmark halts, matches the sequential
machine on the O3 core, and survives its own ProtCC instrumentation."""

import pytest

from repro.arch import run_program
from repro.protcc import CLASSES, compile_program
from repro.uarch import simulate
from repro.workloads import get_workload, workload_names

ALL = workload_names()


def test_registry_nonempty_and_suites():
    assert len(ALL) >= 38
    suites = {get_workload(n).suite for n in ALL}
    assert suites == {"spec2017", "parsec", "parsec-mt", "arch-wasm",
                      "cts-crypto", "ct-crypto", "unr-crypto", "nginx"}


def test_suite_filter():
    nginx = workload_names("nginx")
    assert all(name.startswith("nginx.") for name in nginx)
    assert len(nginx) == 5


def test_unknown_workload():
    with pytest.raises(KeyError):
        get_workload("quake3")


@pytest.mark.parametrize("name", ALL)
def test_workload_halts_and_matches_o3(name):
    w = get_workload(name)
    seq = run_program(w.program, w.memory, w.regs)
    assert seq.halt_reason == "halt", name
    assert 200 < seq.instruction_count < 60_000, name
    hw = simulate(w.program, None, memory=w.memory, regs=w.regs)
    assert hw.halt_reason == "halt"
    assert hw.final_regs == seq.final_regs
    assert hw.committed_pcs == [s.pc for s in seq.steps]
    assert hw.memory == seq.memory


@pytest.mark.parametrize("name", ALL)
def test_workload_survives_own_instrumentation(name):
    w = get_workload(name)
    seq = run_program(w.program, w.memory, w.regs)
    compiled = compile_program(w.program, w.classes)
    result = run_program(compiled.program, w.memory, w.regs)
    assert result.final_regs == seq.final_regs, name
    assert result.halt_reason == "halt"


def test_classes_valid():
    for name in ALL:
        w = get_workload(name)
        if isinstance(w.classes, str):
            assert w.classes in CLASSES
        else:
            assert set(w.classes.values()) <= set(CLASSES)
            assert w.is_multiclass


def test_baselines_assigned():
    for name in ALL:
        assert get_workload(name).baseline in ("STT", "SPT", "SPT-SB")


def test_workloads_cached():
    assert get_workload("mcf.s") is get_workload("mcf.s")
