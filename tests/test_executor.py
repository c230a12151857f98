"""The parallel batch executor and its persistent result cache."""

import os
import pathlib

import pytest

from repro.bench import (
    ExecutorError,
    RunSpec,
    RunSummary,
    baseline_norm,
    clear_caches,
    execute_spec,
    run_batch,
)
from repro.bench import executor
from repro.bench import runner
from repro.bench.executor import (
    cache_load,
    clear_summary_cache,
    spec_cache_key,
    summarize,
)
from repro.bench.jobs import KIND_SPEC, Job, JobResult, run_job
from repro.contracts import Contract
from repro.defenses import Unsafe
from repro.fuzzing import CampaignConfig, run_campaign

FAST = RunSpec(workload="ossl.ecadd")
FAST_SPTSB = RunSpec(workload="ossl.ecadd", defense="spt-sb")


@pytest.fixture()
def isolated_cache(monkeypatch, tmp_path):
    """Point the persistent cache at a fresh directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_PROGRESS", "0")
    clear_caches()
    yield tmp_path / "cache"
    clear_caches()


# ----------------------------------------------------------------------
# RunSummary / keys
# ----------------------------------------------------------------------

def test_summary_round_trip():
    summary = RunSummary(cycles=100, instructions=40, halt_reason="halt",
                         stats=(("squashes", 3),))
    assert RunSummary.from_dict(summary.to_dict()) == summary
    assert summary.ipc == pytest.approx(0.4)
    assert summary.stat == {"squashes": 3}


def test_summarize_matches_full_result(isolated_cache):
    result = execute_spec(FAST)
    summary = summarize(result)
    assert summary.cycles == result.cycles
    assert summary.instructions == result.instructions
    assert summary.stat == result.stats


def test_cache_key_depends_on_spec_and_workload(isolated_cache):
    assert spec_cache_key(FAST) != spec_cache_key(FAST_SPTSB)
    assert spec_cache_key(FAST) != spec_cache_key(
        RunSpec(workload="ossl.dh"))
    assert spec_cache_key(FAST) == spec_cache_key(
        RunSpec(workload="ossl.ecadd"))


def test_cache_key_invalidates_on_version_change(isolated_cache,
                                                 monkeypatch):
    before = spec_cache_key(FAST)
    monkeypatch.setattr(executor, "code_version_hash",
                        lambda: "simulator-changed")
    assert spec_cache_key(FAST) != before


# ----------------------------------------------------------------------
# Cache hit/miss/invalidation through run_batch
# ----------------------------------------------------------------------

def test_batch_miss_then_memory_then_disk_hits(isolated_cache):
    specs = [FAST, FAST_SPTSB]
    first = run_batch(specs, jobs=1)
    assert executor.LAST_BATCH.simulated == 2
    assert executor.LAST_BATCH.hits == 0

    second = run_batch(specs, jobs=1)
    assert executor.LAST_BATCH.memory_hits == 2
    assert executor.LAST_BATCH.simulated == 0

    clear_summary_cache()
    third = run_batch(specs, jobs=1)
    assert executor.LAST_BATCH.disk_hits == 2
    assert executor.LAST_BATCH.simulated == 0
    assert first == second == third


def test_version_change_forces_resimulation(isolated_cache, monkeypatch):
    run_batch([FAST], jobs=1)
    assert executor.LAST_BATCH.simulated == 1
    monkeypatch.setattr(executor, "code_version_hash",
                        lambda: "new-simulator")
    clear_summary_cache()
    run_batch([FAST], jobs=1)
    assert executor.LAST_BATCH.simulated == 1  # old entry not reused



# ----------------------------------------------------------------------
# Parallel == serial
# ----------------------------------------------------------------------

def test_parallel_results_bit_identical_to_serial(isolated_cache,
                                                  monkeypatch, tmp_path):
    specs = [FAST, FAST_SPTSB,
             RunSpec(workload="ossl.dh"),
             RunSpec(workload="ossl.dh", defense="track",
                     instrument="unr")]
    serial = run_batch(specs, jobs=1)
    assert executor.LAST_BATCH.jobs == 1

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache2"))
    clear_caches()
    parallel = run_batch(specs, jobs=2)
    assert executor.LAST_BATCH.simulated == 4
    assert serial == parallel


def test_repro_jobs_env_sets_default(isolated_cache, monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert executor.resolve_jobs() == 3
    assert executor.resolve_jobs(1) == 1
    monkeypatch.delenv("REPRO_JOBS")
    assert executor.resolve_jobs() == (os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Worker timeout / retry / crash paths (stub workers must be
# module-level so the pool can pickle them by reference)
# ----------------------------------------------------------------------

def _always_timeout_worker(job, timeout_s, parent=None, metrics=False):
    return JobResult("timeout")


def _always_error_worker(job, timeout_s, parent=None, metrics=False):
    return JobResult("error", error="injected failure")


def _always_crash_worker(job, timeout_s, parent=None, metrics=False):
    os._exit(3)


def _marker(job):
    return pathlib.Path(os.environ["REPRO_TEST_MARKER_DIR"]) \
        / job.payload.workload.replace("/", "_")


def _fail_once_worker(job, timeout_s, parent=None, metrics=False):
    marker = _marker(job)
    if not marker.exists():
        marker.write_text("failed once")
        return JobResult("error", error="injected transient failure")
    return run_job(job, timeout_s, parent, metrics)


def _crash_once_worker(job, timeout_s, parent=None, metrics=False):
    marker = _marker(job)
    if not marker.exists():
        marker.write_text("crashed once")
        os._exit(3)
    return run_job(job, timeout_s, parent, metrics)


def test_worker_timeout_exhausts_retries(isolated_cache):
    with pytest.raises(ExecutorError, match="timed out|attempts"):
        run_batch([FAST, FAST_SPTSB], jobs=2, retries=1,
                  worker=_always_timeout_worker)


def test_worker_error_exhausts_retries(isolated_cache):
    with pytest.raises(ExecutorError, match="injected failure"):
        run_batch([FAST, FAST_SPTSB], jobs=2, retries=1,
                  worker=_always_error_worker)


def test_transient_failure_is_retried(isolated_cache, monkeypatch,
                                      tmp_path):
    markers = tmp_path / "markers"
    markers.mkdir()
    monkeypatch.setenv("REPRO_TEST_MARKER_DIR", str(markers))
    results = run_batch([FAST, FAST_SPTSB], jobs=2, retries=2,
                        worker=_fail_once_worker)
    assert executor.LAST_BATCH.retried >= 1
    assert results[FAST].halt_reason == "halt"
    assert results[FAST_SPTSB].cycles > results[FAST].cycles


def test_crashed_worker_is_requeued(isolated_cache, monkeypatch,
                                    tmp_path):
    markers = tmp_path / "markers"
    markers.mkdir()
    monkeypatch.setenv("REPRO_TEST_MARKER_DIR", str(markers))
    results = run_batch([FAST, FAST_SPTSB], jobs=2, retries=2,
                        worker=_crash_once_worker)
    assert results[FAST].halt_reason == "halt"
    assert len(results) == 2


def test_reliably_crashing_worker_gives_up(isolated_cache):
    with pytest.raises(ExecutorError, match="crashed"):
        run_batch([FAST, FAST_SPTSB], jobs=2, retries=1,
                  worker=_always_crash_worker)


def test_worker_run_reports_simulation_errors(isolated_cache):
    outcome = run_job(Job(KIND_SPEC, RunSpec(workload="no-such-workload")))
    assert outcome.status == "error"
    assert "no-such-workload" in outcome.error
    assert outcome.wall_s >= 0


def test_pool_metrics_match_serial(isolated_cache, monkeypatch, tmp_path):
    """Pool workers record into fresh registries whose snapshots the
    parent merges, so a --jobs 2 batch reports what a serial one does."""
    from repro.metrics import MetricsRegistry, attach

    specs = [FAST, FAST_SPTSB, RunSpec(workload="ossl.dh"),
             RunSpec(workload="ossl.dh", defense="track",
                     instrument="unr")]
    names = ("uarch.sim_cycles", "uarch.runs", "uarch.compile_cache_hits",
             "uarch.compile_cache_misses")

    def counters(jobs):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"c{jobs}"))
        clear_caches()
        registry = MetricsRegistry()
        with attach(registry):
            run_batch(specs, jobs=jobs)
        return {name: registry.counter(name).value for name in names}

    serial, parallel = counters(1), counters(2)
    assert serial == parallel
    assert serial["uarch.sim_cycles"] > 0
    assert (serial["uarch.compile_cache_hits"],
            serial["uarch.compile_cache_misses"]) == (0, len(specs))


def test_pool_writes_each_result_to_disk_once(isolated_cache, monkeypatch,
                                              tmp_path):
    """Each simulated spec reaches the disk cache exactly once, from the
    parent (pool workers are forked, so they would log here too)."""
    log = tmp_path / "stores.log"
    real_store = executor.cache_store

    def logged_store(spec, summary):
        with open(log, "a") as stream:
            stream.write(f"{spec_cache_key(spec)}\n")
        real_store(spec, summary)

    monkeypatch.setattr(executor, "cache_store", logged_store)
    specs = [FAST, FAST_SPTSB, RunSpec(workload="ossl.dh")]
    run_batch(specs, jobs=2)
    assert sorted(log.read_text().split()) == \
        sorted(spec_cache_key(spec) for spec in specs)
    assert all(cache_load(spec) is not None for spec in specs)


# ----------------------------------------------------------------------
# Campaign determinism under parallelism
# ----------------------------------------------------------------------

def test_campaign_parallel_matches_serial():
    config = CampaignConfig(defense_factory=Unsafe,
                            contract=Contract.UNPROT_SEQ,
                            instrumentation="rand",
                            n_programs=4, pairs_per_program=1, seed=7)
    serial = run_campaign(config, jobs=1)
    parallel = run_campaign(config, jobs=4)
    assert (serial.tests, serial.violations, serial.false_positives,
            serial.invalid_pairs, serial.violation_sites) == \
           (parallel.tests, parallel.violations, parallel.false_positives,
            parallel.invalid_pairs, parallel.violation_sites)


def test_campaign_defense_name_enables_lambda_parallelism():
    config = CampaignConfig(defense_factory=None,
                            contract=Contract.UNPROT_SEQ,
                            instrumentation="rand",
                            n_programs=2, pairs_per_program=1, seed=3,
                            defense_name="track-raw")
    result = run_campaign(config, jobs=2)
    assert result.tests == 2
    assert result.violations == 0


def test_unpicklable_factory_falls_back_to_serial():
    config = CampaignConfig(defense_factory=lambda: Unsafe(),
                            contract=Contract.UNPROT_SEQ,
                            instrumentation="rand",
                            n_programs=2, pairs_per_program=1, seed=3)
    result = run_campaign(config, jobs=2)
    assert result.tests == 2
    # The serial fallback must agree exactly with the same cell run in
    # parallel through its registry name.
    named = CampaignConfig(defense_factory=None,
                           contract=Contract.UNPROT_SEQ,
                           instrumentation="rand",
                           n_programs=2, pairs_per_program=1, seed=3,
                           defense_name="unsafe")
    parallel = run_campaign(named, jobs=2)
    assert (result.tests, result.violations, result.false_positives,
            result.invalid_pairs, result.violation_sites) == \
           (parallel.tests, parallel.violations, parallel.false_positives,
            parallel.invalid_pairs, parallel.violation_sites)


def test_every_registered_defense_factory_pickles():
    """A pool ships each fuzzing cell's config, factory included, so
    every harness factory must come back from a pickle as the same
    mechanism."""
    import pickle

    for name, factory in runner.DEFENSES.items():
        built = factory()
        rebuilt = pickle.loads(pickle.dumps(factory))()
        assert type(rebuilt) is type(built), name
        assert _constructor_args(rebuilt) == _constructor_args(built), name


def _constructor_args(defense):
    """The constructor arguments a registered factory can set."""
    predictor = getattr(defense, "predictor", None)
    return (getattr(defense, "selective_wakeup", None),
            getattr(defense, "use_predictor", None),
            None if predictor is None else predictor.entries)


def test_bespoke_core_cell_runs_on_the_pool():
    """A cell on a core configuration of its own ships like any other:
    its programs run in pool workers and tally as a serial run does."""
    from repro.metrics import SpanRecorder, attach
    from repro.uarch import P_CORE

    config = CampaignConfig(defense_factory=runner.DEFENSES["unsafe"],
                            contract=Contract.UNPROT_SEQ,
                            instrumentation="rand", n_programs=3,
                            pairs_per_program=1, program_size=20, seed=7,
                            core=P_CORE.replace(div_is_transmitter=False))
    serial = run_campaign(config, jobs=1)
    recorder = SpanRecorder()
    with attach(recorder=recorder):
        parallel = run_campaign(config, jobs=2)
    programs = [s for s in recorder.spans if s.name == "fuzz.program"]
    assert len(programs) == 3
    assert all(p.attrs["pid"] != os.getpid() for p in programs)
    assert parallel.to_dict() == serial.to_dict()


def _named_cell(n_programs=3):
    return CampaignConfig(defense_factory=None, defense_name="unsafe",
                          contract=Contract.UNPROT_SEQ,
                          instrumentation="rand", n_programs=n_programs,
                          pairs_per_program=1, program_size=20, seed=7)


def test_campaign_pool_retries_a_crashed_program(isolated_cache,
                                                 monkeypatch, tmp_path):
    """A program job that kills its pool worker is requeued like a
    crashed spec, and the campaign still equals the serial one."""
    from repro.fuzzing import campaign

    serial = run_campaign(_named_cell(), jobs=1)
    marker = tmp_path / "crashed"
    real_generate = campaign.generate_program

    def crash_once(seed, size):
        if not marker.exists():
            marker.write_text("crashed once")
            os._exit(3)
        return real_generate(seed, size)

    # Pool workers are forked after the patch, so they inherit it.
    monkeypatch.setattr(campaign, "generate_program", crash_once)
    parallel = run_campaign(_named_cell(), jobs=2)
    assert marker.exists()
    assert parallel.to_dict() == serial.to_dict()


def test_campaign_pool_metrics_match_serial(isolated_cache, monkeypatch,
                                            tmp_path):
    from repro.metrics import MetricsRegistry, attach

    names = ("uarch.sim_cycles", "uarch.runs", "uarch.compile_cache_hits",
             "uarch.compile_cache_misses")

    def counters(jobs):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"c{jobs}"))
        clear_caches()
        registry = MetricsRegistry()
        with attach(registry):
            run_campaign(_named_cell(), jobs=jobs)
        return {name: registry.counter(name).value for name in names}

    serial = counters(1)
    pooled = counters(2)
    assert serial["uarch.runs"] > 0
    for name in ("uarch.sim_cycles", "uarch.runs"):
        assert pooled[name] == serial[name], name
    # Every run asks the compile memo once, in whichever process runs
    # it; each process holds its own memo and compiles each program
    # shape it meets once, so the pool's misses depend on which worker
    # ran which program.
    lookups = [c["uarch.compile_cache_hits"] + c["uarch.compile_cache_misses"]
               for c in (serial, pooled)]
    assert lookups == [serial["uarch.runs"]] * 2
    misses = serial["uarch.compile_cache_misses"]
    assert misses <= pooled["uarch.compile_cache_misses"] <= 2 * misses


def test_serial_on_program_fires_before_the_next_program(isolated_cache,
                                                        monkeypatch):
    from repro.fuzzing import campaign

    events = []
    real_generate = campaign.generate_program

    def generate(seed, size):
        events.append(("start", seed))
        return real_generate(seed, size)

    monkeypatch.setattr(campaign, "generate_program", generate)
    run_campaign(_named_cell(), jobs=1,
                 on_program=lambda seed, partial: events.append(
                     ("done", seed)))
    assert events == [(event, seed)
                      for seed in campaign._program_seeds(_named_cell())
                      for event in ("start", "done")]


def test_pool_on_program_fires_in_program_order(isolated_cache):
    """Programs finish in any order on the pool, but their tallies
    merge and reach ``on_program`` in program order."""
    from repro.fuzzing import campaign

    order = []
    run_campaign(_named_cell(n_programs=4), jobs=2,
                 on_program=lambda seed, partial: order.append(seed))
    assert order == campaign._program_seeds(_named_cell(n_programs=4))


def test_fuzz_programs_report_wall_time_on_every_backend(isolated_cache):
    """Wall time is telemetry outside the tallies, so it comes from the
    runner's result — the run's own seconds, serially and on the pool —
    never the 0.0 a program's own ``CampaignResult`` carries."""
    for jobs in (1, 2):
        walls = []
        result = run_campaign(
            _named_cell(n_programs=2), jobs=jobs,
            on_program=lambda seed, partial: walls.append(partial.wall_time))
        assert len(walls) == 2 and min(walls) > 0
        assert result.wall_time == pytest.approx(sum(walls))


# ----------------------------------------------------------------------
# Satellite fixes in the legacy runner
# ----------------------------------------------------------------------

def test_baseline_norm_rejects_unknown_baseline(monkeypatch):
    class FakeWorkload:
        baseline = "definitely-not-a-defense"

    monkeypatch.setattr(runner, "get_workload", lambda name: FakeWorkload())
    with pytest.raises(ValueError, match="unknown baseline"):
        baseline_norm("whatever")


def test_baseline_norm_resolves_directly(isolated_cache):
    from repro.bench import norm_runtime

    assert baseline_norm("ossl.dh") == norm_runtime("ossl.dh", "spt-sb")


# ----------------------------------------------------------------------
# Cache-format versioning
# ----------------------------------------------------------------------

def test_from_dict_rejects_missing_or_stale_schema():
    summary = RunSummary(cycles=10, instructions=4, halt_reason="halt")
    payload = summary.to_dict()
    payload["schema"] = executor.CACHE_FORMAT - 1
    with pytest.raises(ValueError, match="stale RunSummary payload"):
        RunSummary.from_dict(payload)
    payload.pop("schema")
    with pytest.raises(ValueError, match="stale RunSummary payload"):
        RunSummary.from_dict(payload)


def test_cache_format_bump_invalidates_entries(isolated_cache,
                                               monkeypatch):
    run_batch([FAST], jobs=1)
    assert cache_load(FAST) is not None
    # A format bump changes the cache key: old entries are never even
    # looked up, and the spec re-simulates.
    monkeypatch.setattr(executor, "CACHE_FORMAT",
                        executor.CACHE_FORMAT + 1)
    clear_summary_cache()
    assert cache_load(FAST) is None
    run_batch([FAST], jobs=1)
    assert executor.LAST_BATCH.simulated == 1


def test_cache_load_rejects_stale_payload_at_current_key(isolated_cache):
    import json

    run_batch([FAST], jobs=1)
    path = executor._cache_path(spec_cache_key(FAST))
    payload = json.loads(path.read_text())
    # Old wrapper format at the current key (e.g. a hand-copied cache).
    payload["format"] = executor.CACHE_FORMAT - 1
    path.write_text(json.dumps(payload))
    assert cache_load(FAST) is None
    # Current wrapper, stale embedded summary: from_dict must refuse it
    # rather than silently deserializing an old schema.
    payload["format"] = executor.CACHE_FORMAT
    payload["summary"]["schema"] = executor.CACHE_FORMAT - 1
    path.write_text(json.dumps(payload))
    assert cache_load(FAST) is None


def test_serial_and_parallel_runsummary_json_byte_identical(
        isolated_cache, monkeypatch, tmp_path):
    """Determinism regression: with each batch on its own empty
    persistent cache and the default engine, a serial batch and a
    --jobs 2 batch must produce byte-identical RunSummary JSON."""
    import json

    specs = [FAST, FAST_SPTSB,
             RunSpec(workload="ossl.dh", defense="track",
                     instrument="unr")]

    def batch_json(jobs):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"c{jobs}"))
        clear_caches()
        results = run_batch(specs, jobs=jobs)
        return json.dumps(
            [(repr(spec), results[spec].to_dict()) for spec in specs],
            sort_keys=True)

    serial = batch_json(1)
    parallel = batch_json(2)
    assert executor.LAST_BATCH.simulated == len(specs)  # cache was empty
    assert serial == parallel
    assert serial.encode() == parallel.encode()


def test_runsummary_engine_independent(isolated_cache):
    """The slim perf summary is identical whichever engine produced it
    (the RunSummary-level corollary of the differential harness)."""
    clear_caches()
    clear_summary_cache()
    reference = summarize(execute_spec(FAST_SPTSB, engine="ref"))
    summary = run_batch([FAST_SPTSB], jobs=1)[FAST_SPTSB]
    assert executor.LAST_BATCH.simulated == 1  # the empty cache missed
    assert summary.to_dict() == reference.to_dict()


# ----------------------------------------------------------------------
# Shared jobs resolver (warn-and-fallback at both call sites)
# ----------------------------------------------------------------------

def test_resolve_jobs_malformed_env_warns_and_falls_back(monkeypatch,
                                                         caplog):
    import logging

    monkeypatch.setenv("REPRO_JOBS", "four")
    with caplog.at_level(logging.WARNING, logger="repro.bench.executor"):
        jobs = executor.resolve_jobs()
    assert jobs == (os.cpu_count() or 1)
    assert any("REPRO_JOBS" in record.message
               for record in caplog.records)
    # An explicit argument bypasses the env entirely.
    assert executor.resolve_jobs(2) == 2


# ----------------------------------------------------------------------
# Cache robustness (tmp-file leak, racing wipe)
# ----------------------------------------------------------------------

def test_cache_store_read_only_dir_does_not_leak_tmp(isolated_cache,
                                                     monkeypatch):
    """A failing os.replace must unlink its mkstemp file: a read-only
    or full cache volume must not accumulate orphan .tmp files."""
    summary = run_batch([FAST], jobs=1)[FAST]
    key_dir = executor._cache_path(spec_cache_key(FAST)).parent

    def broken_replace(src, dst):
        raise OSError("injected replace failure")

    monkeypatch.setattr(executor.os, "replace", broken_replace)
    executor.cache_store(FAST_SPTSB, summary)  # must not raise
    assert not list(key_dir.parent.rglob("*.tmp"))


def test_cache_store_tolerates_unwritable_dir(isolated_cache,
                                              monkeypatch):
    summary = run_batch([FAST], jobs=1)[FAST]  # creates the cache dir
    monkeypatch.setattr(executor.tempfile, "mkstemp",
                        lambda **kw: (_ for _ in ()).throw(
                            OSError("read-only file system")))
    executor.cache_store(FAST_SPTSB, summary)  # must not raise
    assert not list(isolated_cache.rglob("*.tmp"))


def _entries(cache):
    return list(cache.rglob("*.json"))


def test_cache_info_tolerates_concurrent_wipe(isolated_cache,
                                              monkeypatch):
    """Result entries deleted between the rglob walk and the stat (a
    racing wipe_cache or writer) are skipped, not crashed on."""
    run_batch([FAST, FAST_SPTSB], jobs=1)
    assert len(_entries(isolated_cache)) == 2
    real_rglob = pathlib.Path.rglob

    def racing_rglob(self, pattern):
        paths = list(real_rglob(self, pattern))
        for path in paths:
            path.unlink()  # the concurrent wipe wins the race
            yield path

    monkeypatch.setattr(pathlib.Path, "rglob", racing_rglob)
    info = executor.cache_info()
    assert info["entries"] == 0
    assert info["bytes"] == 0
    assert not _entries(isolated_cache)


def test_wipe_cache_tolerates_vanished_files(isolated_cache,
                                             monkeypatch):
    run_batch([FAST], jobs=1)
    assert _entries(isolated_cache)
    real_rglob = pathlib.Path.rglob

    def racing_rglob(self, pattern):
        paths = list(real_rglob(self, pattern))
        for path in paths:
            path.unlink()
            yield path

    monkeypatch.setattr(pathlib.Path, "rglob", racing_rglob)
    assert executor.wipe_cache() == 0  # nothing left to remove, no crash
    assert not _entries(isolated_cache)


def test_compile_step_writes_nothing_to_the_cache_dir(isolated_cache):
    """Compiled code lives only in the process that compiled it."""
    from repro.fixtures import build
    from repro.uarch import P_CORE
    from repro.uarch.compiled import compile_step

    isolated_cache.mkdir(parents=True)
    program, _ = build("v1-gadget")
    assert callable(compile_step(program, P_CORE, Unsafe()))
    assert not list(isolated_cache.iterdir())
    assert executor.cache_info()["entries"] == 0


# ----------------------------------------------------------------------
# Queue-wait accounting across a pool rebuild
# ----------------------------------------------------------------------

def _slow_crash_once_worker(job, timeout_s, parent=None, metrics=False):
    import time as _time

    marker = _marker(job)
    if job.payload.defense == "unsafe" and not marker.exists():
        marker.write_text("crashing")
        _time.sleep(0.6)  # make the pre-crash epoch measurably old
        os._exit(3)
    return run_job(job, timeout_s, parent, metrics)


def test_queue_wait_restarts_after_pool_rebuild(isolated_cache,
                                                monkeypatch, tmp_path):
    """A spec resubmitted after a BrokenProcessPool rebuild gets a
    fresh submission stamp: its queue wait is measured from the
    rebuild, not from the doomed pool's epoch (which would be >= the
    0.6s the crashing worker slept)."""
    from repro.metrics import MetricsRegistry, attach

    markers = tmp_path / "markers"
    markers.mkdir()
    monkeypatch.setenv("REPRO_TEST_MARKER_DIR", str(markers))
    registry = MetricsRegistry()
    with attach(registry):
        results = run_batch([FAST, FAST_SPTSB], jobs=2, retries=2,
                            worker=_slow_crash_once_worker)
    assert len(results) == 2
    waited = registry.timer("executor.queue_wait_seconds")
    assert waited.count >= 1
    assert waited.max < 0.5
