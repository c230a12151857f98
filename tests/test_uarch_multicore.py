"""Multi-core simulation (paper SVIII-A4): shared memory + L3, private
L1/L2 with write-invalidation, hybrid P/E scheduling."""

import pytest

from repro.arch import run_program
from repro.arch.executor import STACK_TOP
from repro.defenses import ProtTrack, SPTSB, Unsafe
from repro.defenses.base import Defense
from repro.uarch import MultiCore, TID_REG, simulate, simulate_mt
from repro.uarch.multicore import STACK_STRIDE
from repro.uarch.pipeline import DEFAULT_NO_PROGRESS_LIMIT, ENGINES
from repro.workloads import get_workload

MT_NAMES = ("blackscholes.mt", "swaptions.mt", "canneal.mt")


@pytest.mark.parametrize("name", MT_NAMES)
def test_all_threads_halt(name):
    w = get_workload(name)
    result = simulate_mt(w.program, Unsafe, w.memory, threads=4, p_cores=2)
    assert result.halt_reasons == ["halt"] * 4
    assert result.cycles == max(result.per_thread_cycles)


@pytest.mark.parametrize("name", MT_NAMES)
def test_threads_match_sequential_shards(name):
    # Shards are disjoint: each thread's committed work must equal its
    # own single-thread sequential run.
    w = get_workload(name)
    mc = MultiCore(w.program, Unsafe, w.memory, threads=4, p_cores=2)
    mc.run()
    for tid, core in enumerate(mc.cores):
        seq = run_program(w.program, w.memory,
                          {TID_REG: tid,
                           15: STACK_TOP + tid * STACK_STRIDE})
        hw = core._result()
        assert hw.final_regs == seq.final_regs, (name, tid)
        assert hw.committed_pcs == [s.pc for s in seq.steps]


def test_false_sharing_generates_invalidations():
    w = get_workload("blackscholes.mt")
    result = simulate_mt(w.program, Unsafe, w.memory, threads=4, p_cores=2)
    assert result.invalidations > 0


def test_single_thread_has_no_invalidations():
    w = get_workload("blackscholes.mt")
    result = simulate_mt(w.program, Unsafe, w.memory, threads=1)
    assert result.invalidations == 0


def test_hybrid_scheduling_p_cores_faster():
    w = get_workload("swaptions.mt")
    result = simulate_mt(w.program, Unsafe, w.memory, threads=4, p_cores=2)
    p_time = max(result.per_thread_cycles[:2])
    e_time = max(result.per_thread_cycles[2:])
    assert p_time <= e_time


def test_defenses_order_preserved_mt():
    w = get_workload("blackscholes.mt")
    base = simulate_mt(w.program, Unsafe, w.memory, threads=4, p_cores=2)
    track = simulate_mt(w.program, ProtTrack, w.memory, threads=4,
                        p_cores=2)
    sptsb = simulate_mt(w.program, SPTSB, w.memory, threads=4, p_cores=2)
    assert base.cycles <= track.cycles <= sptsb.cycles


def test_shared_l3_is_shared():
    w = get_workload("canneal.mt")
    mc = MultiCore(w.program, Unsafe, w.memory, threads=2, p_cores=2)
    mc.run()
    assert mc.cores[0].caches.l3 is mc.cores[1].caches.l3


class RefuseAll(Defense):
    """A gate that refuses every uop, so nothing ever commits."""

    def may_execute(self, uop):
        return False


def test_wedged_threads_stop_at_the_no_progress_limit():
    # Both single-core engines stop a core that commits nothing for
    # ``no_progress_limit`` cycles; the lockstep loop applies the same
    # per-core check instead of running every thread to max_cycles.
    w = get_workload("lbm.s")
    for engine in ENGINES:
        single = simulate(w.program, RefuseAll(), memory=w.memory,
                          regs=w.regs, engine=engine)
        assert single.halt_reason == "no_progress", engine
        assert single.cycles == DEFAULT_NO_PROGRESS_LIMIT, engine
    result = simulate_mt(w.program, RefuseAll, w.memory, threads=2,
                         max_cycles=4 * DEFAULT_NO_PROGRESS_LIMIT)
    assert result.halt_reasons == ["no_progress"] * 2
    assert result.per_thread_cycles == [DEFAULT_NO_PROGRESS_LIMIT] * 2


def test_thread_count_validation():
    w = get_workload("canneal.mt")
    with pytest.raises(ValueError):
        MultiCore(w.program, Unsafe, w.memory, threads=0)


# ----------------------------------------------------------------------
# Speculation-observatory telemetry on the multi-core substrate
# ----------------------------------------------------------------------

def test_per_core_telemetry_is_isolated():
    # Each core owns its stats dict and defense instance: telemetry
    # from one thread must never bleed into a sibling's counters.
    w = get_workload("blackscholes.mt")
    mc = MultiCore(w.program, ProtTrack, w.memory, threads=4, p_cores=2)
    mc.run()
    assert len({id(core.stats) for core in mc.cores}) == 4
    assert len({id(core.defense) for core in mc.cores}) == 4
    results = [core._result() for core in mc.cores]
    for result in results:
        stats = result.stats
        assert stats["fetched_uops"] >= stats["committed_uops"] > 0
        assert stats["issued_uops"] >= stats["committed_uops"]
        # _result is idempotent: private accounting keys never escape.
        assert not [k for k in stats if k.startswith("_")]
    # Shards differ, so per-core transient behaviour may too; at
    # minimum the totals are per-core, not one shared accumulator.
    total = sum(r.stats["fetched_uops"] for r in results)
    assert all(r.stats["fetched_uops"] < total for r in results)


def test_per_core_interventions_stay_per_defense_instance():
    w = get_workload("blackscholes.mt")
    mc = MultiCore(w.program, ProtTrack, w.memory, threads=2, p_cores=2)
    mc.run()
    results = [core._result() for core in mc.cores]
    for result in results:
        stats = result.stats
        assert stats["defense_exec_interventions"] >= 0
        # Every episode spans at least one cycle.
        assert stats["defense_exec_delay_cycles"] >= \
            stats["defense_exec_interventions"]
    # The cores run under separate defense instances; each result
    # reports its own instance's episodes, not a pooled total.
    assert len({id(core.defense) for core in mc.cores}) == len(mc.cores)
    for core, result in zip(mc.cores, results):
        assert result.stats["defense_exec_interventions"] == \
            core.defense.stats["exec_interventions"]


def test_shared_l3_counters_are_shared_while_l1d_is_private():
    w = get_workload("canneal.mt")
    mc = MultiCore(w.program, Unsafe, w.memory, threads=2, p_cores=2)
    mc.run()
    results = [core._result() for core in mc.cores]
    # One shared L3: every per-core export reports the same (global)
    # L3 counters...
    assert results[0].stats["l3_hits"] == results[1].stats["l3_hits"]
    assert results[0].stats["l3_misses"] == results[1].stats["l3_misses"]
    # ...backed by the same object, while the private L1Ds diverge.
    assert mc.cores[0].caches.l3 is mc.cores[1].caches.l3
    assert mc.cores[0].caches.l1d is not mc.cores[1].caches.l1d
    l1d = [(r.stats["l1d_hits"], r.stats["l1d_misses"]) for r in results]
    assert all(hits + misses > 0 for hits, misses in l1d)


def test_invalidations_counted_on_multicore_result():
    w = get_workload("blackscholes.mt")
    result = simulate_mt(w.program, ProtTrack, w.memory, threads=4,
                         p_cores=2)
    assert result.invalidations >= 0
    assert result.threads == 4
