"""The fabric worker: lease jobs, heartbeat, execute, write back.

``repro work --spool DIR`` runs this loop.  A worker is stateless —
everything it knows lives in the spool — so fleets scale by just
starting more of them, on any host that can reach the spool directory.

Execution is the job runner's :func:`repro.bench.jobs.run_job`, exactly
as in a local pool: same engines, same wall-clock alarm, same result
payloads.  A worker drains gracefully on SIGTERM/SIGINT: it finishes
the job it holds, records its final state, and exits — the lease
protocol covers the impolite shutdowns.
"""

from __future__ import annotations

import logging
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass
from typing import Optional

from ...metrics.registry import get_registry
from ...metrics.spans import SpanRecorder
from ..jobs import DEFAULT_TIMEOUT_S, Job, Telemetry, run_job
from .spool import Spool

logger = logging.getLogger(__name__)

#: How many heartbeats fit in one lease (the slack before a slow
#: heartbeat loses the lease).
HEARTBEATS_PER_LEASE = 3


def worker_id() -> str:
    """Stable-for-the-process worker identity: host + pid."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class WorkerStats:
    """What one worker loop did (the ``repro work`` summary line)."""

    worker: str = ""
    claimed: int = 0
    completed: int = 0
    duplicates: int = 0
    released: int = 0
    reassigned: int = 0
    heartbeat_errors: int = 0
    drained: bool = False
    elapsed_s: float = 0.0

    def line(self) -> str:
        return (f"[worker {self.worker}] {self.claimed} claimed: "
                f"{self.completed} completed, {self.duplicates} "
                f"duplicate, {self.released} released "
                f"({self.reassigned} takeovers), "
                f"{self.elapsed_s:.1f}s"
                + (f", {self.heartbeat_errors} heartbeat errors"
                   if self.heartbeat_errors else "")
                + (", drained on signal" if self.drained else ""))


class _Heartbeat(threading.Thread):
    """Extends one job's lease while the (blocking) execution runs.

    Uses its own spool connection: SQLite connections are not shared
    across threads, and the main thread is busy simulating.  Beat
    failures (a contended or briefly unreachable spool) are caught,
    logged, and counted in :attr:`errors` — a wedged heartbeat must
    surface as ``fabric.heartbeat_errors`` in ``repro top``, not as a
    mystery lease expiry — and never kill the thread, which keeps
    trying until the job finishes.

    When the job carries trace context, each beat is recorded as a
    ``fabric.heartbeat`` span in the thread's *own*
    :class:`SpanRecorder` (recorders are not thread-safe), parented
    explicitly under the worker's job span and merged back after
    :meth:`stop`.
    """

    def __init__(self, spool_dir, key: str, worker: str,
                 lease_s: float, trace_parent=None) -> None:
        super().__init__(daemon=True, name=f"heartbeat-{key[:8]}")
        self.spool_dir = spool_dir
        self.key = key
        self.worker = worker
        self.lease_s = lease_s
        self.interval = max(0.05, lease_s / HEARTBEATS_PER_LEASE)
        self.lost = False
        self.errors = 0
        self.trace_parent = trace_parent
        self.recorder = SpanRecorder(process=worker) \
            if trace_parent is not None else None
        # Taken now: while the job runs, the process-wide registry is
        # the job's own.
        self.registry = get_registry()
        self._halt = threading.Event()

    def run(self) -> None:
        try:
            with Spool(self.spool_dir) as spool:
                while not self._halt.wait(self.interval):
                    self._beat(spool)
        except Exception as exc:  # noqa: BLE001 — count, never raise
            self._count_error(exc)

    def _beat(self, spool: Spool) -> None:
        beat_started = self.recorder.now() \
            if self.recorder is not None else 0.0
        try:
            alive = spool.heartbeat(self.key, self.worker, self.lease_s)
        except Exception as exc:  # noqa: BLE001 — count, keep beating
            self._count_error(exc)
            return
        if self.recorder is not None:
            self.recorder.add("fabric.heartbeat", beat_started,
                              self.recorder.now(),
                              parent=self.trace_parent,
                              attrs={"alive": alive})
        if not alive:
            # Lease lost (expired and reassigned, or already completed
            # elsewhere).  Keep simulating: the dedup protocol decides
            # whose result counts.
            self.lost = True

    def _count_error(self, exc: BaseException) -> None:
        self.errors += 1
        logger.warning("worker %s: heartbeat for %s failed: %s",
                       self.worker, self.key[:12], exc)
        if self.registry is not None:
            self.registry.counter("fabric.heartbeat_errors").inc()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=max(1.0, 2 * self.interval))


def run_worker(spool_dir, *, lease_s: float = 30.0, poll_s: float = 0.5,
               idle_timeout_s: Optional[float] = None,
               max_jobs: Optional[int] = None,
               job_timeout_s: Optional[float] = None,
               name: Optional[str] = None) -> WorkerStats:
    """The worker loop: claim → heartbeat → execute → complete/release.

    Exits when a drain signal arrives (SIGTERM/SIGINT, finishing the
    current job first), after ``max_jobs`` claims, or after
    ``idle_timeout_s`` seconds with nothing claimable.  With an
    attached metrics registry, per-job counters (and each job's own
    metrics) accumulate and a Prometheus textfile lands in
    ``SPOOL/metrics/<worker>.prom`` after every job (the node-exporter
    textfile-collector handoff).

    Tracing is driven entirely by the jobs: a job whose spool row
    carries trace context gets ``fabric.lease`` / ``fabric.job`` /
    ``fabric.heartbeat`` / ``fabric.result-write`` spans parented
    under the submitting side's span, appended to
    ``SPOOL/metrics/spans-<worker>.jsonl`` after the job; untraced
    jobs run with no tracing machinery at all.
    """
    from ..executor import canonical_json

    if job_timeout_s is None:
        job_timeout_s = DEFAULT_TIMEOUT_S
    stats = WorkerStats(worker=name or worker_id())
    drain = threading.Event()
    previous_handlers = {}
    if threading.current_thread() is threading.main_thread():
        def _on_signal(signum, frame):
            logger.info("worker %s: drain requested (signal %d)",
                        stats.worker, signum)
            drain.set()
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous_handlers[signum] = signal.signal(signum, _on_signal)
    tel = Telemetry()
    registry = tel.registry
    recorder: Optional[SpanRecorder] = None
    started = time.monotonic()
    host, pid = socket.gethostname(), os.getpid()
    try:
        with Spool(spool_dir) as spool:
            idle_since = time.monotonic()
            while not drain.is_set():
                if max_jobs is not None and stats.claimed >= max_jobs:
                    break
                claim_started = time.time()
                job = spool.claim(stats.worker, lease_s)
                if job is None:
                    spool.record_worker(stats.worker, host, pid,
                                        stats.completed,
                                        stats.duplicates, stats.released,
                                        stats.heartbeat_errors)
                    if (idle_timeout_s is not None
                            and time.monotonic() - idle_since
                            > idle_timeout_s):
                        break
                    drain.wait(poll_s)
                    continue
                idle_since = time.monotonic()
                stats.claimed += 1
                if job.reassigned:
                    stats.reassigned += 1
                    logger.warning(
                        "worker %s: taking over expired lease on %s "
                        "(attempt %d)", stats.worker, job.key[:12],
                        job.attempts)
                job_span = None
                if job.trace is not None:
                    # Tracing is job-driven: the first traced job
                    # creates this worker's recorder.
                    if recorder is None:
                        recorder = SpanRecorder(process=stats.worker)
                    recorder.add(
                        "fabric.lease", claim_started, recorder.now(),
                        parent=job.trace,
                        attrs={"worker": stats.worker,
                               "attempt": job.attempts,
                               "reassigned": job.reassigned,
                               "key": job.key[:12]})
                    job_span = recorder.start(
                        "fabric.job", parent=job.trace,
                        attrs={"worker": stats.worker, "kind": job.kind,
                               "attempt": job.attempts,
                               "key": job.key[:12]})
                trace_ctx = job_span.context() \
                    if job_span is not None else None
                heartbeat = _Heartbeat(spool_dir, job.key, stats.worker,
                                       lease_s, trace_parent=trace_ctx)
                heartbeat.start()
                try:
                    outcome = run_job(Job(job.kind, job.payload),
                                      job_timeout_s, trace_ctx,
                                      metrics=registry is not None)
                finally:
                    heartbeat.stop()
                    stats.heartbeat_errors += heartbeat.errors
                if registry is not None and outcome.metrics:
                    registry.merge(outcome.metrics)
                write_started = recorder.now() if job_span is not None \
                    else 0.0
                if outcome.status == "ok":
                    written = spool.complete(
                        job.key, stats.worker,
                        canonical_json(outcome.result))
                    if written == "duplicate":
                        stats.duplicates += 1
                    else:
                        stats.completed += 1
                else:
                    written = "released"
                    spool.release(job.key, stats.worker, outcome.error)
                    stats.released += 1
                    logger.warning("worker %s: released %s: %s",
                                   stats.worker, job.key[:12],
                                   outcome.error)
                if job_span is not None:
                    # The run's spans join this worker's shard under
                    # its name, so the trace merger can correct their
                    # clock with this worker's offset.
                    recorder.adopt(dict(span, process=stats.worker)
                                   for span in outcome.spans)
                    recorder.add("fabric.result-write", write_started,
                                 recorder.now(), parent=job_span,
                                 attrs={"outcome": written})
                    recorder.finish(job_span, outcome=written,
                                    heartbeat_errors=heartbeat.errors)
                    if heartbeat.recorder is not None:
                        recorder.spans.extend(heartbeat.recorder.spans)
                    recorder.write_shard(spool.metrics_dir)
                tel.count("fabric.worker_claims")
                tel.count("fabric.worker_completed"
                          if outcome.status == "ok"
                          else "fabric.worker_releases")
                tel.observe("fabric.job_seconds", outcome.wall_s)
                spool.record_worker(stats.worker, host, pid,
                                    stats.completed, stats.duplicates,
                                    stats.released,
                                    stats.heartbeat_errors)
                _write_worker_metrics(spool, stats.worker, registry)
            stats.drained = drain.is_set()
            spool.record_worker(stats.worker, host, pid, stats.completed,
                                stats.duplicates, stats.released,
                                stats.heartbeat_errors)
            _write_worker_metrics(spool, stats.worker, registry)
            if recorder is not None:
                recorder.write_shard(spool.metrics_dir)
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
    stats.elapsed_s = time.monotonic() - started
    logger.info("%s", stats.line())
    return stats


def _write_worker_metrics(spool: Spool, worker: str, registry) -> None:
    """Drop this worker's registry snapshot as a Prometheus textfile
    under ``SPOOL/metrics/`` (best effort: metrics never fail work)."""
    if registry is None:
        return
    try:
        path = spool.metrics_dir / f"{worker}.prom"
        path.write_text(registry.to_prometheus())
    except OSError:
        pass
