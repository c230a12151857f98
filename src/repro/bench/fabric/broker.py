"""The broker: shard a job matrix into the spool, watch it drain,
collect the results.

The broker is a client, not a daemon: it submits, polls (reaping
expired leases and updating fabric gauges as it goes), and collects.
The job runner's fabric backend (:mod:`repro.bench.jobs`) drives it and
merges results by job — never by completion order — so a sharded
campaign is byte-identical to a serial ``run_batch`` of the same
matrix: result identity comes from the simulation being a pure
function of its spec, and the merge step adds nothing but transport.
"""

from __future__ import annotations

import json
import logging
import os
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..jobs import DEFAULT_RETRIES, KIND_SPEC, ExecutorError
from .spool import DONE, FAILED, LEASED, PENDING, Job, Spool

logger = logging.getLogger(__name__)

#: Default lease duration.  Workers heartbeat at a third of this, so a
#: worker must miss several heartbeats before its job is reassigned.
DEFAULT_LEASE_S = 30.0

#: Environment override for how long a broker waits for workers before
#: giving up (seconds; unset = wait forever).
FABRIC_TIMEOUT_ENV = "REPRO_FABRIC_TIMEOUT"


def spec_job(spec) -> Tuple[str, str, Dict]:
    """The spool entry for one RunSpec: keyed by the same
    content-addressed hash as the result cache, so respooling the same
    matrix (broker restart, overlapping campaigns) dedups for free and
    a code change automatically respools everything."""
    from ..executor import spec_cache_key, spec_to_payload

    return (spec_cache_key(spec), KIND_SPEC, spec_to_payload(spec))


class Broker:
    """Submit jobs, wait for the spool to drain, collect results."""

    def __init__(self, spool_dir, *, retries: Optional[int] = None,
                 poll_s: float = 0.2) -> None:
        self.spool = Spool(spool_dir)
        self.poll_s = poll_s
        self.spool.set_retries(DEFAULT_RETRIES if retries is None
                               else retries)
        #: Keys this broker submitted (what ``wait`` watches).
        self.keys: List[str] = []
        #: Per-worker clock-offset estimates (worker wall − broker
        #: wall, seconds).  A heartbeat written at worker time ``hb``
        #: and read at broker time ``tb`` satisfies
        #: ``hb − tb = offset − staleness`` with staleness ≥ 0, so the
        #: max of ``hb − tb`` over samples converges on the offset from
        #: below; the trace merger shifts worker spans by it.
        self.clock_offsets: Dict[str, float] = {}

    def close(self) -> None:
        self.spool.close()

    def __enter__(self) -> "Broker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ----------------------------------------------------

    def submit_jobs(self, jobs: Sequence[Tuple[str, str, Dict]],
                    registry=None,
                    traces: Optional[Dict[str, Dict]] = None
                    ) -> Dict[str, int]:
        outcome = self.spool.submit(jobs, traces=traces)
        self.keys.extend(key for key, _, _ in jobs)
        if registry is not None:
            registry.counter("fabric.submitted").inc(outcome["new"])
            registry.counter("fabric.reused").inc(outcome["done"])
        logger.info(
            "fabric submit: %d new, %d already done, %d already open "
            "in %s", outcome["new"], outcome["done"], outcome["open"],
            self.spool.directory)
        return outcome

    def submit_specs(self, specs: Iterable, registry=None,
                     traces: Optional[Dict[str, Dict]] = None
                     ) -> Dict[str, int]:
        return self.submit_jobs([spec_job(spec) for spec in specs],
                                registry=registry, traces=traces)

    # -- progress ------------------------------------------------------

    def wait(self, timeout_s: Optional[float] = None,
             registry=None) -> None:
        """Block until every submitted job is done.

        Broker duties while polling: return expired leases to the pool
        (counting ``fabric.lease_expiries``), mark jobs that exhausted
        their attempt budget failed, and refresh the fabric gauges —
        including one liveness gauge per registered worker.  Raises
        :class:`repro.bench.executor.ExecutorError` on failed jobs or
        timeout.
        """
        if timeout_s is None:
            env = os.environ.get(FABRIC_TIMEOUT_ENV, "")
            timeout_s = float(env) if env else None
        started = time.monotonic()
        while True:
            expired = self.spool.reap_expired()
            if expired and registry is not None:
                registry.counter("fabric.lease_expiries").inc(expired)
            self.spool.fail_exhausted()
            counts = self.spool.counts(self.keys)
            self._update_gauges(registry, counts)
            if counts[FAILED]:
                raise ExecutorError(self._failure_message())
            if counts[PENDING] == 0 and counts[LEASED] == 0:
                return
            if (timeout_s is not None
                    and time.monotonic() - started > timeout_s):
                raise ExecutorError(
                    f"fabric wait timed out after {timeout_s}s with "
                    f"{counts[PENDING]} pending / {counts[LEASED]} "
                    f"leased jobs — are any workers running "
                    f"(`repro work --spool {self.spool.directory}`)?")
            time.sleep(self.poll_s)

    def _update_gauges(self, registry, counts: Dict[str, int]) -> None:
        now = time.time()
        for worker in self.spool.workers():
            sample = worker["heartbeat"] - now
            previous = self.clock_offsets.get(worker["id"])
            if previous is None or sample > previous:
                self.clock_offsets[worker["id"]] = sample
        if registry is None:
            return
        registry.gauge("fabric.pending").set(counts[PENDING])
        registry.gauge("fabric.leased").set(counts[LEASED])
        registry.gauge("fabric.done").set(counts[DONE])
        registry.gauge("fabric.failed").set(counts[FAILED])
        workers = self.spool.workers()
        stale_s = max(10.0, 5 * self.poll_s)
        active = sum(1 for w in workers
                     if now - w["heartbeat"] <= stale_s)
        registry.gauge("fabric.workers_active").set(active)
        for worker in workers:
            prefix = f"fabric.worker.{worker['id']}"
            registry.gauge(f"{prefix}.completed").set(worker["completed"])
            registry.gauge(f"{prefix}.duplicates").set(
                worker["duplicates"])
            registry.gauge(f"{prefix}.heartbeat_age_s").set(
                max(0.0, now - worker["heartbeat"]))

    def _failure_message(self) -> str:
        failed = [job for job in self.spool.jobs(FAILED)
                  if job.key in set(self.keys)]
        lines = [f"{len(failed)} fabric job(s) failed:"]
        for job in failed[:5]:
            lines.append(f"  {job.kind} {job.key[:12]}… after "
                         f"{job.attempts} attempts: {job.error}")
        if len(failed) > 5:
            lines.append(f"  … and {len(failed) - 5} more")
        return "\n".join(lines)

    # -- collection ----------------------------------------------------

    def collect(self, keys: Iterable[str]) -> Dict[str, Job]:
        """The finished spool rows for ``keys`` (every key must be done):
        result text, plus the lease and finish times of the run that
        produced it."""
        results: Dict[str, Job] = {}
        missing: List[str] = []
        for key in keys:
            job = self.spool.job(key)
            if job is None or job.state != DONE or job.result is None:
                missing.append(key)
            else:
                results[key] = job
        if missing:
            raise ExecutorError(
                f"{len(missing)} fabric job(s) have no result "
                f"(first: {missing[0][:12]}…) — collect() before wait()?")
        return results

    def collect_specs(self, specs: Sequence) -> Dict:
        """Deterministic merge: ``{spec: RunSummary}`` for a spec
        matrix, in caller order, byte-identical to a serial run."""
        from ..executor import RunSummary, spec_cache_key

        by_key = self.collect([spec_cache_key(spec) for spec in specs])
        return {spec: RunSummary.from_dict(
                    json.loads(by_key[spec_cache_key(spec)].result))
                for spec in specs}
