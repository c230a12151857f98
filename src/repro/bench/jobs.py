"""The job runner: one way to run bench specs and fuzz programs.

Every paper table walks a matrix of independent simulations, and every
contract-fuzzing cell a list of independent programs.  Both reach this
module as :class:`Job` s — a kind plus a JSON payload (``spec``: a
``RunSpec``'s fields; ``fuzz-program``: one program of a campaign cell)
— and :func:`run_jobs` runs them on one of two backends:

* **serial** — in this process, in order: one worker, one job, or a job
  with an in-process body that cannot be shipped;
* **pool** — a :class:`~concurrent.futures.ProcessPoolExecutor` that
  ships each job's JSON payload to a worker process.

Inside there is one of everything.  :func:`run_job` runs one job in any
process under one wall-clock alarm and returns one :class:`JobResult`.
One retry policy requeues timeouts, errors and crashed pools up to
``retries + 1`` attempts, then raises :class:`ExecutorError`.  And one
place records every finished run — its spans into the attached span
recorder, its metrics snapshot into the attached registry, through a
:class:`Telemetry` handle that does nothing when neither is attached —
and hands results to the caller in submission order.
"""

from __future__ import annotations

import logging
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..metrics.registry import MetricsRegistry, get_registry, set_registry
from ..metrics.spans import SpanRecorder, get_recorder, set_recorder

logger = logging.getLogger(__name__)

#: Job kinds.
KIND_SPEC = "spec"
KIND_FUZZ = "fuzz-program"

#: Default per-job wall-clock budget (seconds).  Simulations carry a
#: cycle-count safety valve already, so this only catches pathological
#: hangs (infinite loops in new defense code, a wedged worker, ...).
DEFAULT_TIMEOUT_S = 600.0

#: How many times a job is re-queued after a timeout, error or crash
#: before the run gives up.
DEFAULT_RETRIES = 2


class ExecutorError(RuntimeError):
    """A job exhausted its retries (worker crash, timeout or error)."""


@dataclass(frozen=True)
class _Kind:
    """How the runner traces and times one job kind."""

    #: Span kept open around a job's attempts on the submitting side
    #: (None: runs parent directly under the caller's span).
    job_span: Optional[str]
    #: Span around one run of the job, in whichever process runs it.
    run_span: str
    #: Payload fields both spans carry as attributes.
    fields: Tuple[str, ...]
    #: Timer of one successful run's wall seconds.
    timer: str


_KINDS = {
    KIND_SPEC: _Kind("spec", "worker.run",
                     ("workload", "defense", "instrument", "core"),
                     "executor.spec_seconds"),
    KIND_FUZZ: _Kind(None, "fuzz.program", ("program_seed",),
                     "fuzz.program_seconds"),
}


@dataclass
class Job:
    """One unit of work: a kind and its JSON payload."""

    kind: str
    payload: Dict
    #: In-process body of a job that cannot be shipped (its payload then
    #: only identifies it); such jobs always run serially.
    local: Optional[Callable[[], Dict]] = None


@dataclass
class JobResult:
    """What one run of a job produced, in whichever process ran it."""

    #: ``"ok"``, ``"timeout"`` or ``"error"``.
    status: str
    #: The job's JSON result (``"ok"`` only).
    result: Optional[Dict] = None
    error: Optional[str] = None
    wall_s: float = 0.0
    #: Span dicts the run recorded (only when it was traced).
    spans: List[Dict] = field(default_factory=list)
    #: Snapshot of the run's own metrics registry (only when asked for).
    metrics: Optional[Dict] = None


def _attrs(kind: _Kind, payload: Dict) -> Dict:
    return {name: payload[name] for name in kind.fields if name in payload}


def _execute(job: Job) -> Dict:
    if job.local is not None:
        return job.local()
    if job.kind == KIND_SPEC:
        from .executor import run_spec_job

        return run_spec_job(job.payload)
    from ..fuzzing.campaign import run_campaign_job

    return run_campaign_job(job.payload)


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def run_job(job: Job, timeout_s: Optional[float] = None,
            trace_ctx: Optional[Dict] = None, metrics: bool = False,
            raise_errors: bool = False) -> JobResult:
    """Run one job in this process under the wall-clock alarm.

    The run records into telemetry of its own: a fresh registry when
    ``metrics`` is set (a forked pool worker would otherwise count into
    a copy of its parent's), and a fresh span recorder whose root span
    parents under ``trace_ctx`` when one is given.  Both come back in
    the result for the submitting side to merge.  SIGALRM only works in
    the main thread, so a run in another thread has no alarm.
    ``raise_errors`` lets an in-process caller see the job's own
    exception instead of an ``"error"`` result.
    """
    kind = _KINDS[job.kind]
    recorder = SpanRecorder() if trace_ctx is not None else None
    registry = MetricsRegistry() if metrics else None
    saved = set_recorder(recorder), set_registry(registry)
    if recorder is not None:
        root = recorder.start(
            kind.run_span, parent=trace_ctx, push=True,
            attrs=dict(_attrs(kind, job.payload), pid=os.getpid()))
    alarm = (bool(timeout_s) and hasattr(signal, "SIGALRM")
             and threading.current_thread() is threading.main_thread())
    if alarm:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    started = time.perf_counter()
    try:
        outcome = JobResult("ok", result=_execute(job))
    except _Timeout:
        outcome = JobResult("timeout", error=f"timed out after {timeout_s}s")
    except Exception as exc:  # noqa: BLE001 — report, the policy decides
        if raise_errors:
            raise
        outcome = JobResult("error", error=f"{type(exc).__name__}: {exc}")
    finally:
        if alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        set_recorder(saved[0])
        set_registry(saved[1])
    outcome.wall_s = time.perf_counter() - started
    if recorder is not None:
        recorder.finish(root, status=outcome.status)
        outcome.spans = recorder.to_dicts()
    if registry is not None:
        outcome.metrics = registry.snapshot()
    return outcome


class Telemetry:
    """The attached metrics registry and span recorder behind one handle.

    Every method does nothing when neither is attached, so instrumented
    code takes one handle per batch, campaign or job and needs no None
    checks of its own.
    """

    def __init__(self) -> None:
        self.registry = get_registry()
        self.recorder = get_recorder()

    def count(self, name: str, amount: int = 1) -> None:
        if self.registry is not None:
            self.registry.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        if self.registry is not None:
            self.registry.gauge(name).set(value)

    def observe(self, name: str, seconds: float) -> None:
        if self.registry is not None:
            self.registry.timer(name).observe(seconds)

    def start(self, name: str, attrs: Optional[Dict] = None, **kwargs):
        if self.recorder is None:
            return None
        return self.recorder.start(name, attrs=attrs, **kwargs)

    def finish(self, span, **attrs) -> None:
        if span is not None:
            self.recorder.finish(span, **attrs)

    def span(self, name: str, attrs: Optional[Dict] = None):
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span(name, attrs=attrs)


@dataclass
class RunStats:
    """What one :func:`run_jobs` call did."""

    #: Processes it ran jobs in: 1 serially, else the pool size.
    workers: int = 1
    #: Attempts the retry policy requeued.
    retried: int = 0


class _Run:
    """One :func:`run_jobs` call: the retry policy, and the one place a
    finished run is recorded and handed on."""

    def __init__(self, jobs: List[Job], on_result, timeout_s, retries):
        self.jobs = jobs
        self.on_result = on_result
        self.timeout_s = timeout_s
        self.retries = retries
        self.tel = Telemetry()
        self.stats = RunStats()
        self.attempts = [0] * len(jobs)
        self.job_spans: List = [None] * len(jobs)
        self.attempt_spans: List = [None] * len(jobs)
        self.succeeded = set()
        self.ready: Dict[int, JobResult] = {}
        self.delivered = 0

    # -- spans ---------------------------------------------------------

    def begin(self, index: int) -> Optional[Dict]:
        """Charge job ``index`` one attempt; returns the trace context
        its run parents under — an ``attempt`` span under the job span
        (opened on first use), or the caller's span for kinds without a
        job span — or None when untraced."""
        self.attempts[index] += 1
        recorder = self.tel.recorder
        if recorder is None:
            return None
        job = self.jobs[index]
        kind = _KINDS[job.kind]
        if kind.job_span is None:
            return recorder.context()
        if self.job_spans[index] is None:
            self.job_spans[index] = recorder.start(
                kind.job_span, attrs=_attrs(kind, job.payload))
        attempt = recorder.start(
            "attempt", attrs={"attempt": self.attempts[index]},
            parent=self.job_spans[index])
        self.attempt_spans[index] = attempt
        return attempt.context()

    # -- the one place results land ------------------------------------

    def end(self, index: int, result: JobResult, queue: List[int],
            submitted: Optional[float] = None) -> None:
        """Record one finished run — spans, timers, metrics — then hand
        an ``ok`` result on, or apply the retry policy."""
        tel = self.tel
        kind = _KINDS[self.jobs[index].kind]
        ok = result.status == "ok"
        why = result.error or result.status
        if tel.recorder is not None:
            tel.recorder.adopt(result.spans)
            attempt = self.attempt_spans[index]
            self.attempt_spans[index] = None
            if attempt is not None:
                run_started = min((span["start_s"] for span in result.spans
                                   if span["name"] == kind.run_span),
                                  default=attempt.start_s)
                if run_started > attempt.start_s:
                    tel.recorder.add("queue.wait", attempt.start_s,
                                     run_started, parent=attempt)
                tel.recorder.finish(attempt, **({} if ok else
                                                {"error": why}))
        if not ok:
            if result.status == "timeout":
                tel.count("executor.timeouts")
            self.requeue(index, why, queue)
            return
        tel.observe(kind.timer, result.wall_s)
        if submitted is not None:
            tel.observe("executor.queue_wait_seconds", max(
                0.0, time.perf_counter() - submitted - result.wall_s))
        tel.finish(self.job_spans[index])
        self.job_spans[index] = None
        self.succeeded.add(index)
        # Results (and with them gauges, last value wins) reach the
        # caller and the registry in submission order, as a serial run
        # would hand them on.
        self.ready[index] = result
        while self.delivered in self.ready:
            done = self.ready.pop(self.delivered)
            if tel.registry is not None and done.metrics:
                tel.registry.merge(done.metrics)
            self.on_result(self.delivered, done)
            self.delivered += 1

    def requeue(self, index: int, why: str, queue: List[int]) -> None:
        """The retry policy: ``retries + 1`` attempts, then give up."""
        job, attempts = self.jobs[index], self.attempts[index]
        if attempts > self.retries:
            raise ExecutorError(f"{job.kind} job {job.payload} failed "
                                f"after {attempts} attempts: {why}")
        logger.warning("requeueing %s job %s (attempt %d/%d): %s",
                       job.kind, job.payload, attempts, self.retries + 1,
                       why)
        self.stats.retried += 1
        self.tel.count("executor.requeues")
        queue.append(index)

    # -- backends ------------------------------------------------------

    def serial(self) -> None:
        metrics = self.tel.registry is not None
        queue = list(range(len(self.jobs)))
        while queue:
            index = queue.pop(0)
            retry: List[int] = []
            self.end(index, run_job(self.jobs[index], self.timeout_s,
                                    self.begin(index), metrics,
                                    raise_errors=True), retry)
            queue[:0] = retry

    def pool(self, workers: int, worker: Callable[..., JobResult]) -> None:
        """Fan the jobs out over a process pool.  A crashed worker
        breaks the pool: it is rebuilt and every unfinished job requeued
        (each charged the attempt), and each (re)submission is stamped
        afresh, so a queue wait after a rebuild counts from the rebuild.
        """
        self.stats.workers = workers
        metrics = self.tel.registry is not None
        submitted: Dict[int, float] = {}
        queue = list(range(len(self.jobs)))
        while queue:
            with ProcessPoolExecutor(
                    max_workers=min(workers, len(queue))) as pool:
                futures = {}
                try:
                    for index in queue:
                        future = pool.submit(worker, self.jobs[index],
                                             self.timeout_s,
                                             self.begin(index), metrics)
                        futures[future] = index
                        submitted[index] = time.perf_counter()
                    queue = []
                    not_done = set(futures)
                    while not_done:
                        done, not_done = wait(not_done,
                                              return_when=FIRST_COMPLETED)
                        for future in done:
                            index = futures[future]
                            self.end(index, future.result(), queue,
                                     submitted[index])
                except BrokenProcessPool:
                    crashed = JobResult("error",
                                        error="worker process crashed")
                    for index in futures.values():
                        if index not in self.succeeded \
                                and index not in queue:
                            self.end(index, crashed, queue)


def run_jobs(jobs: Sequence[Job],
             on_result: Callable[[int, JobResult], None],
             workers: int = 1,
             timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
             retries: int = DEFAULT_RETRIES,
             worker: Optional[Callable[..., JobResult]] = None
             ) -> RunStats:
    """Run ``jobs``, calling ``on_result(index, result)`` for each in
    submission order as soon as it and every earlier job succeeded.

    The backend: serial with one worker, one job, or a job that cannot
    be shipped — there a job's own exception propagates; otherwise a
    pool of ``workers`` processes running ``worker`` (default
    :func:`run_job`; tests inject faulty ones).
    """
    run = _Run(list(jobs), on_result, timeout_s, retries)
    if workers <= 1 or len(jobs) <= 1 \
            or any(job.local is not None for job in jobs):
        run.serial()
    else:
        run.pool(workers, worker or run_job)
    return run.stats
