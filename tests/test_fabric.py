"""The campaign fabric: spool protocol, broker/worker loop, and the
sharded-equals-serial determinism proof."""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.bench import RunSpec, clear_caches
from repro.bench import executor
from repro.bench.executor import (
    ExecutorError,
    canonical_json,
    run_batch,
    spec_cache_key,
)
from repro.bench.fabric import (
    DONE,
    FAILED,
    LEASED,
    PENDING,
    Broker,
    ResultMismatch,
    Spool,
    SpoolError,
    run_worker,
)
from repro.bench.fabric.broker import spec_job
from repro.bench.fabric.worker import worker_id
from repro.bench.jobs import JobResult

FAST = RunSpec(workload="ossl.ecadd")
FAST_SPTSB = RunSpec(workload="ossl.ecadd", defense="spt-sb")

#: A small cross-defense matrix standing in for a results table.
MATRIX = [RunSpec(workload=w, defense=d)
          for w in ("ossl.ecadd", "ossl.dh")
          for d in ("unsafe", "spt", "track")]


@pytest.fixture()
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_PROGRESS", "0")
    clear_caches()
    yield tmp_path / "cache"
    clear_caches()


def drain(spool_dir, **kwargs):
    """Run one worker loop until the spool is idle (thread-safe args)."""
    kwargs.setdefault("lease_s", 10.0)
    kwargs.setdefault("poll_s", 0.05)
    kwargs.setdefault("idle_timeout_s", 0.2)
    return run_worker(spool_dir, **kwargs)


# ----------------------------------------------------------------------
# Spool protocol
# ----------------------------------------------------------------------

def test_spool_submit_claim_complete_roundtrip(tmp_path):
    with Spool(tmp_path / "spool") as spool:
        outcome = spool.submit([("k1", "spec", {"a": 1}),
                                ("k2", "spec", {"a": 2})])
        assert outcome == {"new": 2, "done": 0, "open": 0}
        assert spool.counts() == {PENDING: 2, LEASED: 0, DONE: 0,
                                  FAILED: 0}
        job = spool.claim("w1", lease_s=30.0)
        assert job.key == "k1"  # oldest first
        assert job.attempts == 1 and not job.reassigned
        assert spool.complete("k1", "w1", '{"r":1}') == "stored"
        stored = spool.job("k1")
        assert stored.state == DONE and stored.result == '{"r":1}'
        # Resubmitting the same keys reuses the finished row.
        again = spool.submit([("k1", "spec", {"a": 1}),
                              ("k2", "spec", {"a": 2})])
        assert again == {"new": 0, "done": 1, "open": 1}


def test_spool_refuses_other_schema(tmp_path):
    directory = tmp_path / "spool"
    with Spool(directory) as spool:
        spool._conn.execute("UPDATE meta SET value='99' "
                            "WHERE key='schema'")
    with pytest.raises(SpoolError, match="schema 99"):
        Spool(directory)


def test_expired_lease_is_reassigned_with_attempt_charged(tmp_path):
    with Spool(tmp_path / "spool") as spool:
        spool.submit([("k1", "spec", {})])
        spool.claim("doomed", lease_s=0.3)
        # Still leased: nobody else can claim before the deadline.
        assert spool.claim("w2", lease_s=30.0) is None
        time.sleep(0.4)
        job = spool.claim("w2", lease_s=30.0)
        assert job is not None and job.reassigned
        assert job.attempts == 2  # the doomed lease stays charged
        assert job.worker == "w2"


def test_reap_expired_returns_leases_to_pending(tmp_path):
    with Spool(tmp_path / "spool") as spool:
        spool.submit([("k1", "spec", {})])
        spool.claim("w1", lease_s=0.05)
        time.sleep(0.1)
        assert spool.reap_expired() == 1
        assert spool.counts() == {PENDING: 1, LEASED: 0, DONE: 0,
                                  FAILED: 0}


def test_heartbeat_extends_only_held_leases(tmp_path):
    with Spool(tmp_path / "spool") as spool:
        spool.submit([("k1", "spec", {})])
        spool.claim("w1", lease_s=0.2)
        assert spool.heartbeat("k1", "w1", lease_s=30.0)
        assert not spool.heartbeat("k1", "w2", lease_s=30.0)
        spool.complete("k1", "w1", "{}")
        assert not spool.heartbeat("k1", "w1", lease_s=30.0)


def test_release_keeps_attempt_and_error(tmp_path):
    with Spool(tmp_path / "spool") as spool:
        spool.submit([("k1", "spec", {})])
        spool.claim("w1", lease_s=30.0)
        assert spool.release("k1", "w1", "injected failure")
        job = spool.job("k1")
        assert job.state == PENDING
        assert job.attempts == 1
        assert job.error == "injected failure"
        # A worker that lost its lease cannot release it.
        spool.claim("w2", lease_s=30.0)
        assert not spool.release("k1", "w1", "stale")


def test_attempt_budget_exhaustion_marks_failed(tmp_path):
    with Spool(tmp_path / "spool") as spool:
        spool.set_retries(1)  # 2 attempts total
        spool.submit([("k1", "spec", {})])
        for _ in range(2):
            spool.claim("w1", lease_s=30.0)
            spool.release("k1", "w1", "injected failure")
        assert spool.claim("w1", lease_s=30.0) is None
        job = spool.job("k1")
        assert job.state == FAILED
        assert "injected failure" in job.error
        assert "2 attempts" in job.error


def test_duplicate_result_first_writer_wins(tmp_path):
    """Two workers racing one job: the first completion is canonical,
    a byte-identical duplicate is tolerated, a different one crashes."""
    with Spool(tmp_path / "spool") as spool:
        spool.submit([("k1", "spec", {})])
        spool.claim("w1", lease_s=0.05)
        time.sleep(0.1)
        spool.claim("w2", lease_s=30.0)  # reassignment race
        assert spool.complete("k1", "w1", '{"r":1}') == "stored"
        assert spool.complete("k1", "w2", '{"r":1}') == "duplicate"
        with pytest.raises(ResultMismatch, match="non-deterministic"):
            spool.complete("k1", "w2", '{"r":2}')


def test_contention_backs_off_then_raises(tmp_path, monkeypatch):
    import sqlite3

    from repro.metrics import MetricsRegistry, attached

    directory = tmp_path / "spool"
    with Spool(directory) as spool:
        contended = Spool(directory, backoff_base_s=0.001,
                          backoff_attempts=3)
        # A second connection holds the write lock for the duration.
        blocker = sqlite3.connect(str(directory / "spool.db"),
                                  isolation_level=None)
        blocker.execute("BEGIN IMMEDIATE")
        try:
            registry = MetricsRegistry()
            with attached(registry):
                with pytest.raises(SpoolError, match="contended"):
                    contended.submit([("k1", "spec", {})])
            assert contended.backoffs >= 3
            assert registry.counter("fabric.backoffs").value >= 3
        finally:
            contended.close()
            blocker.execute("ROLLBACK")
            blocker.close()
        assert spool.submit([("k1", "spec", {})])["new"] == 1


# ----------------------------------------------------------------------
# Worker loop
# ----------------------------------------------------------------------

def test_worker_drains_spool_and_records_itself(isolated_cache,
                                                tmp_path):
    spool_dir = tmp_path / "spool"
    with Broker(spool_dir) as broker:
        broker.submit_specs([FAST, FAST_SPTSB])
    stats = drain(spool_dir, name="w-test")
    assert stats.claimed == 2 and stats.completed == 2
    assert stats.released == 0 and not stats.drained
    with Spool(spool_dir) as spool:
        assert spool.counts() == {PENDING: 0, LEASED: 0, DONE: 2,
                                  FAILED: 0}
        workers = spool.workers()
        assert [w["id"] for w in workers] == ["w-test"]
        assert workers[0]["completed"] == 2
        assert workers[0]["pid"] == os.getpid()


def test_worker_writes_prometheus_textfile(isolated_cache, tmp_path):
    from repro.metrics import MetricsRegistry, attached

    spool_dir = tmp_path / "spool"
    with Broker(spool_dir) as broker:
        broker.submit_specs([FAST])
    with attached(MetricsRegistry()):
        drain(spool_dir, name="w-prom")
    prom = (spool_dir / "metrics" / "w-prom.prom").read_text()
    assert "fabric_worker_claims" in prom
    assert "fabric_worker_completed" in prom


def test_worker_releases_bad_payloads(tmp_path):
    spool_dir = tmp_path / "spool"
    with Spool(spool_dir) as spool:
        spool.set_retries(0)  # one attempt only
        spool.submit([("bad-kind", "no-such-kind", {}),
                      ("bad-spec", "spec", {"not_a_field": 1})])
    stats = drain(spool_dir)
    assert stats.released == 2
    with Spool(spool_dir) as spool:
        spool.fail_exhausted()
        jobs = {job.key: job for job in spool.jobs()}
        assert "unknown job kind" in jobs["bad-kind"].error
        assert "bad spec payload" in jobs["bad-spec"].error


def test_worker_max_jobs_stops_early(isolated_cache, tmp_path):
    spool_dir = tmp_path / "spool"
    with Broker(spool_dir) as broker:
        broker.submit_specs([FAST, FAST_SPTSB])
    stats = drain(spool_dir, max_jobs=1)
    assert stats.claimed == 1
    with Spool(spool_dir) as spool:
        assert spool.counts()[DONE] == 1
        assert spool.counts()[PENDING] == 1


def test_worker_id_is_host_pid():
    assert worker_id().endswith(f"-{os.getpid()}")


# ----------------------------------------------------------------------
# Broker: wait, gauges, failure propagation
# ----------------------------------------------------------------------

def test_broker_wait_raises_on_failed_jobs(isolated_cache, tmp_path):
    """A job that errors on every attempt exhausts its budget and
    surfaces as ExecutorError in the broker, attempts accounted."""
    bogus = RunSpec(workload="ossl.ecadd", defense="no-such-defense")
    spool_dir = tmp_path / "spool"
    with Broker(spool_dir, retries=1, poll_s=0.05) as broker:
        broker.submit_specs([bogus])
        worker = threading.Thread(target=drain, args=(spool_dir,),
                                  kwargs={"idle_timeout_s": 1.0})
        worker.start()
        with pytest.raises(ExecutorError, match="2 attempts"):
            broker.wait(timeout_s=30.0)
        worker.join()


def test_broker_wait_times_out_without_workers(tmp_path):
    spool_dir = tmp_path / "spool"
    with Broker(spool_dir, poll_s=0.02) as broker:
        broker.submit_specs([FAST])
        with pytest.raises(ExecutorError, match="repro work --spool"):
            broker.wait(timeout_s=0.1)


def test_broker_timeout_env_applies(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FABRIC_TIMEOUT", "0.1")
    with Broker(tmp_path / "spool", poll_s=0.02) as broker:
        broker.submit_specs([FAST])
        with pytest.raises(ExecutorError, match="timed out"):
            broker.wait()


def test_broker_gauges_and_per_worker_liveness(isolated_cache, tmp_path):
    from repro.metrics import MetricsRegistry

    spool_dir = tmp_path / "spool"
    registry = MetricsRegistry()
    with Broker(spool_dir) as broker:
        broker.submit_specs([FAST, FAST_SPTSB], registry=registry)
        assert registry.counter("fabric.submitted").value == 2
        drain(spool_dir, name="w-gauge")
        broker.wait(timeout_s=10.0, registry=registry)
    gauges = registry.snapshot()["gauges"]
    assert gauges["fabric.done"] == 2
    assert gauges["fabric.pending"] == 0
    assert gauges["fabric.workers_active"] == 1
    assert gauges["fabric.worker.w-gauge.completed"] == 2
    assert gauges["fabric.worker.w-gauge.heartbeat_age_s"] >= 0.0


def test_spool_resume_after_broker_restart(isolated_cache, tmp_path):
    """A broker restart reuses every finished job in the spool: the
    resubmit reports them done and wait returns without workers."""
    spool_dir = tmp_path / "spool"
    with Broker(spool_dir) as broker:
        broker.submit_specs([FAST, FAST_SPTSB])
    drain(spool_dir)
    # The original broker is gone; a fresh one resumes from the spool.
    with Broker(spool_dir) as broker:
        outcome = broker.submit_specs([FAST, FAST_SPTSB])
        assert outcome == {"new": 0, "done": 2, "open": 0}
        broker.wait(timeout_s=1.0)
        merged = broker.collect_specs([FAST, FAST_SPTSB])
    assert merged[FAST].cycles > 0


# ----------------------------------------------------------------------
# Killed worker -> lease expiry -> reassignment
# ----------------------------------------------------------------------

def test_killed_worker_job_is_reassigned(isolated_cache, tmp_path):
    """A worker subprocess killed mid-lease (SIGKILL: no release, no
    heartbeat) lets its lease expire; the next worker takes the job
    over and completes it, with the dead worker's attempt charged."""
    spool_dir = tmp_path / "spool"
    with Broker(spool_dir) as broker:
        broker.submit_specs([FAST])
        key = broker.keys[0]
    claimer = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, time\n"
         "from repro.bench.fabric import Spool\n"
         "with Spool(sys.argv[1]) as spool:\n"
         "    job = spool.claim('doomed-worker', lease_s=0.5)\n"
         "    assert job is not None\n"
         "print('claimed', flush=True)\n"
         "time.sleep(60)\n",
         str(spool_dir)],
        stdout=subprocess.PIPE, text=True)
    try:
        assert claimer.stdout.readline().strip() == "claimed"
    finally:
        claimer.kill()
        claimer.wait()
    with Spool(spool_dir) as spool:
        assert spool.job(key).state == LEASED  # died holding the lease
    stats = drain(spool_dir, name="survivor", idle_timeout_s=2.0)
    assert stats.reassigned == 1
    assert stats.completed == 1
    with Spool(spool_dir) as spool:
        job = spool.job(key)
        assert job.state == DONE
        assert job.attempts == 2
        assert job.worker == "survivor"


# ----------------------------------------------------------------------
# Determinism: sharded campaign == serial run_batch, byte for byte
# ----------------------------------------------------------------------

def _matrix_json(results, specs):
    return canonical_json([results[spec].to_dict() for spec in specs])


def test_sharded_matrix_byte_identical_to_serial(isolated_cache,
                                                 monkeypatch, tmp_path):
    """Broker + two real worker subprocesses vs a serial run_batch of
    the same matrix, compared as canonical JSON bytes.  The fabric pass
    runs first against its own cache so nothing leaks between them."""
    spool_dir = tmp_path / "spool"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-fabric"))
    # Bound the broker wait so a dead worker fails the test instead of
    # hanging it.
    monkeypatch.setenv("REPRO_FABRIC_TIMEOUT", "180")
    clear_caches()
    env = dict(os.environ)
    workers = [subprocess.Popen(
        [sys.executable, "-m", "repro", "work", "--spool", str(spool_dir),
         "--idle-timeout", "10", "--poll", "0.05", "--lease", "10",
         "--name", f"shard-{n}"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True) for n in range(2)]
    try:
        fabric_results = run_batch(MATRIX, fabric=str(spool_dir))
    finally:
        for proc in workers:
            proc.terminate()
        for proc in workers:
            proc.wait(timeout=30)
    assert executor.LAST_BATCH.simulated == len(MATRIX)
    with Spool(spool_dir) as spool:
        by_worker = {w["id"]: w["completed"] for w in spool.workers()}
    assert sum(by_worker.values()) >= len(MATRIX)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-serial"))
    clear_caches()
    serial_results = run_batch(MATRIX, jobs=1)
    assert executor.LAST_BATCH.simulated == len(MATRIX)

    fabric_bytes = _matrix_json(fabric_results, MATRIX).encode()
    serial_bytes = _matrix_json(serial_results, MATRIX).encode()
    assert fabric_bytes == serial_bytes


def test_run_batch_routes_through_env(isolated_cache, monkeypatch,
                                      tmp_path):
    """REPRO_FABRIC makes run_batch broker a spool with no code change
    at the call site (the builders' path to --fabric)."""
    spool_dir = tmp_path / "spool"
    with Broker(spool_dir) as broker:
        broker.submit_specs([FAST, FAST_SPTSB])
    drain(spool_dir)
    clear_caches()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-env"))
    monkeypatch.setenv("REPRO_FABRIC", str(spool_dir))
    results = run_batch([FAST, FAST_SPTSB])
    assert set(results) == {FAST, FAST_SPTSB}
    # Every spec was already done in the spool: shared-state reuse.
    assert executor.LAST_BATCH.disk_hits == 2
    assert executor.LAST_BATCH.simulated == 0


def test_fabric_results_are_cached_locally(isolated_cache, monkeypatch,
                                           tmp_path):
    """After a fabric batch, the local caches hold the merged results:
    a second (non-fabric) batch never resimulates."""
    spool_dir = tmp_path / "spool"
    worker = threading.Thread(
        target=drain, args=(spool_dir,), kwargs={"idle_timeout_s": 5.0})
    worker.start()
    try:
        run_batch([FAST], fabric=str(spool_dir))
    finally:
        worker.join()
    monkeypatch.delenv("REPRO_FABRIC", raising=False)
    run_batch([FAST])
    assert executor.LAST_BATCH.memory_hits == 1


def test_fuzz_campaign_fabric_identical_to_serial(isolated_cache,
                                                  tmp_path):
    """Per-program fuzz units sharded through the spool merge to the
    exact serial result (wall_time excluded by the wire format)."""
    from repro.bench.runner import DEFENSES
    from repro.contracts import Contract
    from repro.fuzzing import CampaignConfig, run_campaign

    config = CampaignConfig(defense_factory=DEFENSES["unsafe"],
                            contract=Contract.UNPROT_SEQ,
                            instrumentation="rand", n_programs=4,
                            pairs_per_program=2, program_size=20,
                            seed=7, defense_name="unsafe")
    serial = run_campaign(config, jobs=1)
    spool_dir = tmp_path / "spool"
    worker = threading.Thread(
        target=drain, args=(spool_dir,), kwargs={"idle_timeout_s": 5.0})
    worker.start()
    try:
        order = []
        fabric = run_campaign(
            config, jobs=1, fabric=str(spool_dir),
            on_program=lambda seed, partial: order.append(seed))
    finally:
        worker.join()
    assert fabric.to_dict() == serial.to_dict()
    assert canonical_json(fabric.to_dict()) == \
        canonical_json(serial.to_dict())
    # on_program fires in program order, exactly as the serial path.
    from repro.fuzzing.campaign import _program_seeds

    assert order == _program_seeds(config)


def test_fuzz_programs_report_wall_time_on_every_backend(isolated_cache,
                                                         tmp_path):
    """Wall time is telemetry outside the wire format, so it comes from
    the runner's result: the run's own seconds locally, the spool's
    lease-to-result interval on the fabric — never the 0.0 a bare
    ``CampaignResult.from_dict`` leaves."""
    from repro.contracts import Contract
    from repro.fuzzing import CampaignConfig, run_campaign

    config = CampaignConfig(defense_factory=None, defense_name="unsafe",
                            contract=Contract.UNPROT_SEQ,
                            instrumentation="rand", n_programs=2,
                            pairs_per_program=1, program_size=20, seed=3)
    serial_walls, fabric_walls = [], []
    serial = run_campaign(config, jobs=1, on_program=lambda seed, partial:
                          serial_walls.append(partial.wall_time))
    spool_dir = tmp_path / "spool"
    worker = threading.Thread(
        target=drain, args=(spool_dir,), kwargs={"idle_timeout_s": 5.0})
    worker.start()
    try:
        fabric = run_campaign(config, jobs=1, fabric=str(spool_dir),
                              on_program=lambda seed, partial:
                              fabric_walls.append(partial.wall_time))
    finally:
        worker.join()
    for walls, result in ((serial_walls, serial), (fabric_walls, fabric)):
        assert len(walls) == 2 and min(walls) > 0
        assert result.wall_time == pytest.approx(sum(walls))


def test_fuzz_anonymous_cell_falls_back_locally(isolated_cache,
                                                tmp_path, caplog):
    import logging

    from repro.contracts import Contract
    from repro.defenses import Unsafe
    from repro.fuzzing import CampaignConfig, run_campaign

    config = CampaignConfig(defense_factory=lambda: Unsafe(),
                            contract=Contract.UNPROT_SEQ,
                            instrumentation="rand", n_programs=2,
                            pairs_per_program=1, program_size=20, seed=3)
    with caplog.at_level(logging.WARNING, logger="repro.fuzzing.campaign"):
        result = run_campaign(config, jobs=1,
                              fabric=str(tmp_path / "spool"))
    assert result.tests == 2
    assert any("cannot be shipped" in record.message
               for record in caplog.records)


def test_campaign_result_wire_format_round_trips():
    from repro.fuzzing.campaign import CampaignResult

    result = CampaignResult(tests=3, violations=1, wall_time=1.5,
                            violation_sites=[(9, 0, "timing")],
                            witnesses=[{"w": 1}])
    payload = result.to_dict()
    assert "wall_time" not in payload  # telemetry, not identity
    rebuilt = CampaignResult.from_dict(json.loads(canonical_json(payload)))
    assert rebuilt.violation_sites == [(9, 0, "timing")]
    assert rebuilt.tests == 3 and rebuilt.witnesses == [{"w": 1}]


# ----------------------------------------------------------------------
# End-to-end tracing across the fabric
# ----------------------------------------------------------------------

def test_fabric_trace_two_workers_nest_under_broker_spans(
        isolated_cache, monkeypatch, tmp_path):
    """The headline acceptance test: a two-worker fabric campaign
    produces one merged Chrome trace in which every worker-side span
    nests under the broker-side span of the spec it executed."""
    from repro.metrics.spans import (
        SpanRecorder,
        load_shards,
        merged_trace,
        nesting_violations,
        recording,
    )

    spool_dir = tmp_path / "spool"
    monkeypatch.setenv("REPRO_FABRIC_TIMEOUT", "180")
    env = dict(os.environ)
    workers = [subprocess.Popen(
        [sys.executable, "-m", "repro", "work", "--spool", str(spool_dir),
         "--idle-timeout", "10", "--poll", "0.05", "--lease", "10",
         "--name", f"tracer-{n}"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True) for n in range(2)]
    try:
        with recording(SpanRecorder(process="broker-under-test")) \
                as recorder:
            results = run_batch(MATRIX, fabric=str(spool_dir))
    finally:
        for proc in workers:
            proc.terminate()
        for proc in workers:
            proc.wait(timeout=30)
    assert len(results) == len(MATRIX)

    shard_spans, offsets = load_shards(spool_dir)
    spans = list(recorder.spans) + shard_spans
    by_id = {span.span_id: span for span in spans}
    spec_spans = {span.span_id: span for span in recorder.spans
                  if span.name == "spec"}
    assert len(spec_spans) == len(MATRIX)

    worker_spans = [span for span in shard_spans
                    if span.process.startswith("tracer-")]
    assert worker_spans, "workers wrote no span shards"
    assert {s.name for s in worker_spans} >= \
        {"fabric.lease", "fabric.job", "fabric.result-write"}
    for span in worker_spans:
        # Walk up: every worker span reaches a broker-side spec span.
        seen = set()
        node = span
        while node is not None and node.span_id not in spec_spans \
                and node.span_id not in seen:
            seen.add(node.span_id)
            node = by_id.get(node.parent_id)
        assert node is not None and node.span_id in spec_spans, \
            f"{span.name} [{span.span_id}] does not reach a spec span"
        assert span.trace_id == node.trace_id

    # Both workers' clocks were estimated while the broker polled.
    assert set(offsets) >= {s.process for s in worker_spans}

    trace = merged_trace(spans, offsets)
    assert nesting_violations(trace) == []
    # fabric.job slices carry the executing worker + attempt.
    jobs = [e for e in trace["traceEvents"]
            if e.get("ph") == "X" and e["name"] == "fabric.job"]
    assert len(jobs) >= len(MATRIX)
    assert all(e["args"]["worker"].startswith("tracer-") for e in jobs)


def test_fabric_trace_killed_lease_retry_parents_under_same_span(
        isolated_cache, tmp_path):
    """A traced job whose first worker dies mid-lease is reassigned;
    the surviving worker's fabric.job span (attempt 2) must still
    parent under the originally submitted span context."""
    from repro.metrics.spans import SpanRecorder, load_shards

    spool_dir = tmp_path / "spool"
    recorder = SpanRecorder(process="broker")
    submitted = recorder.start("spec")
    with Broker(spool_dir) as broker:
        broker.submit_specs([FAST],
                            traces={spec_cache_key(FAST):
                                    submitted.context()})
    claimer = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, time\n"
         "from repro.bench.fabric import Spool\n"
         "with Spool(sys.argv[1]) as spool:\n"
         "    job = spool.claim('doomed-worker', lease_s=0.5)\n"
         "    assert job is not None and job.trace is not None\n"
         "print('claimed', flush=True)\n"
         "time.sleep(60)\n",
         str(spool_dir)],
        stdout=subprocess.PIPE, text=True)
    try:
        assert claimer.stdout.readline().strip() == "claimed"
    finally:
        claimer.kill()
        claimer.wait()
    stats = drain(spool_dir, name="survivor", idle_timeout_s=2.0)
    assert stats.reassigned == 1 and stats.completed == 1
    shard_spans, _ = load_shards(spool_dir)
    job = [s for s in shard_spans if s.name == "fabric.job"][0]
    assert job.parent_id == submitted.span_id
    assert job.trace_id == submitted.trace_id
    assert job.attrs["attempt"] == 2
    assert job.attrs["worker"] == "survivor"
    lease = [s for s in shard_spans if s.name == "fabric.lease"][0]
    assert lease.attrs["reassigned"] is True


def test_traced_spool_rows_and_resubmission_restamp(tmp_path):
    """Trace context rides a dedicated spool column (never the
    content-addressed payload), and resubmitting an open job with a
    fresh context re-stamps it for the new broker."""
    with Spool(tmp_path / "spool") as spool:
        ctx1 = {"trace_id": "a" * 16, "span_id": "b" * 16}
        ctx2 = {"trace_id": "a" * 16, "span_id": "c" * 16}
        spool.submit([("k1", "spec", {"a": 1})], traces={"k1": ctx1})
        assert spool.job("k1").trace == ctx1
        spool.submit([("k1", "spec", {"a": 1})], traces={"k1": ctx2})
        assert spool.job("k1").trace == ctx2
        job = spool.claim("w1", lease_s=30.0)
        assert job.trace == ctx2 and job.leased_at is not None
        spool.complete("k1", "w1", "{}")
        # Done rows are never re-stamped: their trace is history.
        spool.submit([("k1", "spec", {"a": 1})], traces={"k1": ctx1})
        assert spool.job("k1").trace == ctx2


def test_heartbeat_failures_counted_logged_and_surfaced(
        isolated_cache, tmp_path, monkeypatch, caplog):
    """Heartbeat-thread failures must never kill the job: they are
    caught, logged, counted in the registry and the worker row."""
    import logging

    from repro.bench.fabric import worker as worker_module
    from repro.metrics import MetricsRegistry, attached

    spool_dir = tmp_path / "spool"
    with Broker(spool_dir) as broker:
        broker.submit_specs([FAST])
    monkeypatch.setattr(
        worker_module.Spool, "heartbeat",
        lambda self, *a, **k: (_ for _ in ()).throw(
            RuntimeError("injected heartbeat outage")))

    def slow_run(job, timeout_s, trace_ctx=None, metrics=False):
        time.sleep(0.3)  # long enough for several (failing) beats
        return JobResult("ok", result={})

    monkeypatch.setattr(worker_module, "run_job", slow_run)
    registry = MetricsRegistry()
    with caplog.at_level(logging.WARNING,
                         logger="repro.bench.fabric.worker"):
        with attached(registry):
            stats = drain(spool_dir, name="hb-victim", lease_s=0.2)
    assert stats.completed == 1  # the job itself still finished
    assert stats.heartbeat_errors >= 1
    assert "heartbeat errors" in stats.line()
    assert registry.counter("fabric.heartbeat_errors").value >= 1
    assert any("heartbeat" in record.message
               for record in caplog.records)
    with Spool(spool_dir) as spool:
        row = [w for w in spool.workers() if w["id"] == "hb-victim"][0]
        assert row["heartbeat_errors"] >= 1


def test_top_sample_and_render(tmp_path):
    from repro.bench.fabric import sample, render

    spool_dir = tmp_path / "spool"
    with Spool(spool_dir) as spool:
        spool.submit([("job-a", "spec", {}), ("job-b", "spec", {}),
                      ("job-c", "spec", {})])
        spool.claim("w-busy", lease_s=30.0)
        spool.complete("job-a", "w-busy", "{}")
        spool.claim("w-busy", lease_s=30.0)
        spool.record_worker("w-busy", "host", 1, completed=1,
                            duplicates=0, released=0,
                            heartbeat_errors=2)
        view = sample(spool, window_s=60.0)
    assert view.counts[DONE] == 1
    assert view.recent_done == 1
    assert view.throughput_per_min == pytest.approx(1.0)
    assert view.workers[0]["status"] == "live"
    assert view.workers[0]["heartbeat_errors"] == 2
    assert [job["key"] for job in view.inflight] == ["job-b"]
    body = render(view)
    assert "1 pending, 1 leased, 1 done" in body
    assert "w-busy" in body and "HB ERR" in body
    assert "job-b" in body


def test_top_render_empty_spool_hints_at_workers(tmp_path):
    from repro.bench.fabric import sample, render

    with Spool(tmp_path / "spool") as spool:
        body = render(sample(spool))
    assert "no workers have registered" in body
    assert "no jobs in flight" in body


def test_top_worker_staleness_thresholds(tmp_path):
    from repro.bench.fabric import sample

    with Spool(tmp_path / "spool") as spool:
        now = time.time()
        spool.record_worker("w-live", "h", 1, 0, 0, 0)
        view = sample(spool, now=now + 20.0)
        assert view.workers[0]["status"] == "stale"
        view = sample(spool, now=now + 120.0)
        assert view.workers[0]["status"] == "gone"


def test_run_top_loops_until_interrupt(tmp_path, monkeypatch):
    import io

    from repro.bench.fabric import run_top
    from repro.bench.fabric import top as top_module

    Spool(tmp_path / "spool").close()

    def interrupt(seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr(top_module.time, "sleep", interrupt)
    stream = io.StringIO()
    assert run_top(tmp_path / "spool", interval_s=0.01,
                   stream=stream) == 0
    assert "repro top" in stream.getvalue()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

def test_cli_work_drains_and_reports(isolated_cache, tmp_path, capsys):
    from repro.cli import main

    spool_dir = tmp_path / "spool"
    with Broker(spool_dir) as broker:
        broker.submit_specs([FAST])
    assert main(["work", "--spool", str(spool_dir), "--idle-timeout",
                 "0.2", "--poll", "0.05", "--name", "cli-worker"]) == 0
    out = capsys.readouterr().out
    assert "[worker cli-worker] 1 claimed: 1 completed" in out
    assert (spool_dir / "metrics" / "cli-worker.prom").exists()


def test_cli_work_sigterm_drains_gracefully(isolated_cache, tmp_path):
    """SIGTERM mid-loop: the worker finishes its bookkeeping, reports
    a drain, and exits 0 (the fleet-shutdown path)."""
    spool_dir = tmp_path / "spool"
    Spool(spool_dir).close()  # create the spool so the worker idles
    env = dict(os.environ)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "work", "--spool", str(spool_dir),
         "--poll", "0.1", "--name", "sig-worker"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        with Spool(spool_dir) as spool:
            if spool.workers():
                break
        time.sleep(0.1)
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=30)
    assert proc.returncode == 0
    assert "drained on signal" in out


def test_spec_job_key_matches_cache_key():
    key, kind, payload = spec_job(FAST_SPTSB)
    assert key == spec_cache_key(FAST_SPTSB)
    assert kind == "spec"
    assert payload["defense"] == "spt-sb"
