"""A finished run leaves nothing for the cyclic garbage collector.

A uop's state ends where the modelled hardware ends it, at commit or
squash: the core records what ``CoreResult`` reports as it commits and
keeps no committed uop.  No reference cycle outlives a run either: the
defense's back-reference to its core goes once the result is built,
the L1D's eviction listener does not hold the tags that hold the L1D,
and the multicore write-invalidation broadcast holds caches, not
cores.  Dropping a result therefore frees the whole core by reference
counting, and the collector finds nothing.
"""

import gc

import pytest

from repro.bench.runner import DEFENSES
from repro.defenses import ProtTrack
from repro.isa import assemble
from repro.uarch import simulate, simulate_mt
from repro.uarch.compiled import compile_step
from repro.uarch.config import P_CORE
from repro.uarch.pipeline import ENGINES
from repro.workloads import get_workload


def cyclic_garbage(run) -> int:
    """Objects only the cyclic collector frees once ``run()`` returned
    and its result is dropped."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture(scope="module", autouse=True)
def warm_engines():
    """The first run of each engine imports modules, whose import
    machinery leaves garbage of its own."""
    program = assemble("movi r1, 1\nhalt\n").linked()
    for engine in ENGINES:
        simulate(program, engine=engine)


@pytest.fixture(scope="module")
def mcf():
    return get_workload("mcf.s")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("defense", sorted(DEFENSES))
def test_finished_run_leaves_no_cyclic_garbage(mcf, engine, defense):
    factory = DEFENSES[defense]
    if engine == "compiled":
        # Compile outside the measured run: a full in-process compile
        # memo is emptied on a miss, and the dropped functions are
        # cyclic (each one's globals hold it).
        compile_step(mcf.program, P_CORE, factory())

    def run():
        result = simulate(mcf.program, factory(), memory=mcf.memory,
                          regs=mcf.regs, engine=engine)
        assert result.halt_reason == "halt"

    assert cyclic_garbage(run) == 0


def test_finished_multicore_run_leaves_no_cyclic_garbage():
    workload = get_workload("blackscholes.mt")

    def run():
        result = simulate_mt(workload.program, ProtTrack, workload.memory,
                             threads=4, p_cores=2)
        assert result.halt_reasons == ["halt"] * 4
        assert result.invalidations > 0

    assert cyclic_garbage(run) == 0
