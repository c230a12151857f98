"""The durable job spool: one SQLite database on a (shared) filesystem.

The spool is the fabric's only coordination point.  Brokers insert
jobs, workers lease them, results land back in the job rows — every
transition is a single SQLite transaction, so the fabric needs no
message broker, no sockets, and no daemon beyond the workers
themselves: any filesystem both sides can reach (including NFS, which
SQLite locks correctly for the short transactions used here) is a
deployment.

Robustness properties:

* **Leases, not assignments.**  A claim marks the job ``leased`` with a
  deadline; the worker's heartbeat thread extends it while the job
  runs.  A worker that dies (or loses its heartbeat) simply lets the
  deadline pass, after which the job is claimable again — by any
  worker, with no broker intervention.
* **Per-job attempt accounting.**  Every lease charges one attempt
  (exactly the job runner's retry policy: ``retries + 1`` total
  attempts); a job that keeps failing or keeps killing its workers is
  marked ``failed`` instead of looping forever.
* **First writer wins, byte-equality asserted.**  Two workers can race
  the same job (lease expiry is time-based, and a "dead" worker may
  just have been slow).  The first ``done`` transition stores the
  result; a second completion is a ``duplicate`` whose result text must
  be byte-identical — simulations are pure functions of their spec, so
  a mismatch is a determinism bug worth crashing over.
* **Exponential backoff on contention.**  Short SQLite lock conflicts
  are retried with exponential backoff (counted in
  ``fabric.backoffs``), so a burst of workers against one database
  degrades gracefully instead of erroring.
"""

from __future__ import annotations

import json
import pathlib
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ...metrics.registry import get_registry

#: Job states.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"

#: Bumped whenever the spool schema changes; a spool written by a
#: different schema is refused rather than misread.
#: 2: jobs carry a ``trace`` context column (distributed tracing —
#:    deliberately outside the content-addressed payload, so tracing
#:    never perturbs job identity or dedup) and a ``leased_at``
#:    timestamp (in-flight age in ``repro top``); workers report
#:    ``heartbeat_errors``.
SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    key TEXT PRIMARY KEY,
    seq INTEGER NOT NULL,
    kind TEXT NOT NULL,
    payload TEXT NOT NULL,
    state TEXT NOT NULL DEFAULT 'pending',
    attempts INTEGER NOT NULL DEFAULT 0,
    worker TEXT,
    lease_deadline REAL,
    leased_at REAL,
    result TEXT,
    error TEXT,
    trace TEXT,
    created REAL NOT NULL,
    finished REAL
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs(state, seq);
CREATE TABLE IF NOT EXISTS workers (
    id TEXT PRIMARY KEY,
    host TEXT,
    pid INTEGER,
    started REAL NOT NULL,
    heartbeat REAL NOT NULL,
    completed INTEGER NOT NULL DEFAULT 0,
    duplicates INTEGER NOT NULL DEFAULT 0,
    released INTEGER NOT NULL DEFAULT 0,
    heartbeat_errors INTEGER NOT NULL DEFAULT 0
);
"""


class SpoolError(RuntimeError):
    """The spool is unusable (schema mismatch, persistent contention)."""


class ResultMismatch(SpoolError):
    """Two workers produced byte-different results for one job — a
    determinism bug in the simulator, never tolerated silently."""


@dataclass
class Job:
    """One spooled unit of work."""

    key: str
    seq: int
    kind: str
    payload: Dict = field(default_factory=dict)
    state: str = PENDING
    attempts: int = 0
    worker: Optional[str] = None
    lease_deadline: Optional[float] = None
    result: Optional[str] = None
    error: Optional[str] = None
    #: True when this claim took over an expired lease (the previous
    #: worker died or stalled past its heartbeat).
    reassigned: bool = False
    #: Trace wire context (``{"trace_id", "span_id"}``) of the
    #: submitting side's per-job span, or None when the broker ran
    #: without tracing.  Stored in its own column — never in the
    #: content-addressed payload — so tracing cannot change job keys.
    trace: Optional[Dict] = None
    #: When the current lease was taken (in-flight age in ``repro top``).
    leased_at: Optional[float] = None
    #: When the job's result was stored.
    finished: Optional[float] = None


class Spool:
    """Handle on one spool directory (``DIR/spool.db`` + ``DIR/metrics``).

    Every process (broker, each worker, each heartbeat thread) opens
    its own :class:`Spool`; instances are not shared across threads.
    """

    def __init__(self, directory, *,
                 backoff_base_s: float = 0.01,
                 backoff_cap_s: float = 1.0,
                 backoff_attempts: int = 10) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.metrics_dir = self.directory / "metrics"
        self.metrics_dir.mkdir(exist_ok=True)
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.backoff_attempts = backoff_attempts
        self.backoffs = 0
        self._conn = sqlite3.connect(str(self.directory / "spool.db"),
                                     timeout=0.05, isolation_level=None)
        # executescript commits on its own (it ends any open
        # transaction), so schema creation and the version check are
        # separate retried steps rather than one transaction.
        self._retry(lambda: self._conn.executescript(_SCHEMA))
        self._txn(self._check_schema)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Spool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- contention handling -------------------------------------------

    def _retry(self, fn):
        """Run one transaction, backing off exponentially on lock
        contention (``fabric.backoffs`` counts every retry)."""
        delay = self.backoff_base_s
        for attempt in range(self.backoff_attempts):
            try:
                return fn()
            except sqlite3.OperationalError as exc:
                message = str(exc)
                if "locked" not in message and "busy" not in message:
                    raise
                try:
                    self._conn.execute("ROLLBACK")
                except sqlite3.OperationalError:
                    pass
                self.backoffs += 1
                registry = get_registry()
                if registry is not None:
                    registry.counter("fabric.backoffs").inc()
                if attempt == self.backoff_attempts - 1:
                    raise SpoolError(
                        f"spool still contended after "
                        f"{self.backoff_attempts} attempts: {exc}") from exc
                time.sleep(delay)
                delay = min(delay * 2, self.backoff_cap_s)

    def _check_schema(self, conn) -> None:
        row = conn.execute(
            "SELECT value FROM meta WHERE key='schema'").fetchone()
        if row is None:
            conn.execute(
                "INSERT INTO meta (key, value) VALUES ('schema', ?)",
                (str(SCHEMA_VERSION),))
        elif int(row[0]) != SCHEMA_VERSION:
            raise SpoolError(
                f"spool {self.directory} has schema {row[0]}, "
                f"this build expects {SCHEMA_VERSION}")

    def _txn(self, fn):
        """One IMMEDIATE write transaction under backoff."""
        def attempt():
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                value = fn(self._conn)
                self._conn.execute("COMMIT")
                return value
            except BaseException:
                try:
                    self._conn.execute("ROLLBACK")
                except sqlite3.OperationalError:
                    pass
                raise
        return self._retry(attempt)

    # -- meta ----------------------------------------------------------

    def set_retries(self, retries: int) -> None:
        """Persist the per-job retry budget (attempts = retries + 1) so
        every worker applies the same accounting the broker asked for."""
        def txn(conn):
            conn.execute(
                "INSERT INTO meta (key, value) VALUES ('retries', ?) "
                "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                (str(int(retries)),))
        self._txn(txn)

    def retries(self) -> int:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key='retries'").fetchone()
        return int(row[0]) if row is not None else 2

    # -- broker side ---------------------------------------------------

    def submit(self, jobs: Sequence[Tuple[str, str, Dict]],
               traces: Optional[Dict[str, Dict]] = None
               ) -> Dict[str, int]:
        """Insert jobs (``(key, kind, payload)``) that are not already
        spooled.  Returns ``{"new": .., "done": .., "open": ..}`` where
        ``done``/``open`` count keys that already existed — the resume
        path after a broker restart reuses finished work for free.

        ``traces`` maps job keys to span wire contexts; each is stored
        in the job's ``trace`` column (still-open existing jobs are
        re-stamped, so a restarted tracing broker adopts in-flight
        work into its trace).  Trace context never touches the payload,
        so job keys — and therefore dedup — are tracing-blind.
        """
        traces = traces or {}

        def txn(conn):
            outcome = {"new": 0, "done": 0, "open": 0}
            row = conn.execute("SELECT MAX(seq) FROM jobs").fetchone()
            seq = (row[0] or 0)
            now = time.time()
            for key, kind, payload in jobs:
                trace = traces.get(key)
                trace_text = json.dumps(trace, sort_keys=True) \
                    if trace is not None else None
                existing = conn.execute(
                    "SELECT state FROM jobs WHERE key=?", (key,)).fetchone()
                if existing is not None:
                    if existing[0] == DONE:
                        outcome["done"] += 1
                    else:
                        outcome["open"] += 1
                        if trace_text is not None:
                            conn.execute(
                                "UPDATE jobs SET trace=? WHERE key=?",
                                (trace_text, key))
                    continue
                seq += 1
                conn.execute(
                    "INSERT INTO jobs (key, seq, kind, payload, state, "
                    "trace, created) VALUES (?, ?, ?, ?, 'pending', ?, ?)",
                    (key, seq, kind, json.dumps(payload, sort_keys=True),
                     trace_text, now))
                outcome["new"] += 1
            return outcome
        return self._txn(txn)

    def reap_expired(self) -> int:
        """Return expired leases to the pending pool (broker liveness
        duty; workers can also claim expired leases directly, so the
        fabric makes progress even with no broker watching)."""
        def txn(conn):
            cursor = conn.execute(
                "UPDATE jobs SET state='pending', worker=NULL, "
                "lease_deadline=NULL WHERE state='leased' "
                "AND lease_deadline < ?", (time.time(),))
            return cursor.rowcount
        return self._txn(txn)

    def fail_exhausted(self) -> int:
        """Mark pending jobs that have used their whole attempt budget
        as failed (the fabric side of the runner's give-up rule)."""
        max_attempts = self.retries() + 1
        def txn(conn):
            cursor = conn.execute(
                "UPDATE jobs SET state='failed', "
                "error=COALESCE(error, 'no error recorded') "
                "|| ' (gave up after ' || attempts || ' attempts)' "
                "WHERE state='pending' AND attempts >= ?", (max_attempts,))
            return cursor.rowcount
        return self._txn(txn)

    # -- worker side ---------------------------------------------------

    def claim(self, worker: str, lease_s: float) -> Optional[Job]:
        """Lease the oldest claimable job: pending, or leased with an
        expired deadline (the killed-worker reassignment path).  Charges
        one attempt; jobs over budget are marked failed instead."""
        max_attempts = self.retries() + 1

        def txn(conn):
            now = time.time()
            while True:
                row = conn.execute(
                    "SELECT key, seq, kind, payload, state, attempts, "
                    "trace FROM jobs WHERE state='pending' "
                    "OR (state='leased' AND lease_deadline < ?) "
                    "ORDER BY seq LIMIT 1", (now,)).fetchone()
                if row is None:
                    return None
                key, seq, kind, payload, state, attempts, trace = row
                if attempts >= max_attempts:
                    conn.execute(
                        "UPDATE jobs SET state='failed', worker=NULL, "
                        "error=COALESCE(error, 'worker lease expired') "
                        "|| ' (gave up after ' || attempts "
                        "|| ' attempts)' WHERE key=?", (key,))
                    continue
                conn.execute(
                    "UPDATE jobs SET state='leased', worker=?, "
                    "attempts=attempts + 1, lease_deadline=?, "
                    "leased_at=? WHERE key=?",
                    (worker, now + lease_s, now, key))
                return Job(key=key, seq=seq, kind=kind,
                           payload=json.loads(payload), state=LEASED,
                           attempts=attempts + 1, worker=worker,
                           lease_deadline=now + lease_s,
                           reassigned=state == LEASED,
                           trace=json.loads(trace)
                           if trace is not None else None,
                           leased_at=now)
        return self._txn(txn)

    def heartbeat(self, key: str, worker: str, lease_s: float) -> bool:
        """Extend a held lease; False means the lease was lost (the
        job expired and was reassigned, or already completed)."""
        def txn(conn):
            cursor = conn.execute(
                "UPDATE jobs SET lease_deadline=? "
                "WHERE key=? AND worker=? AND state='leased'",
                (time.time() + lease_s, key, worker))
            return cursor.rowcount > 0
        return self._txn(txn)

    def complete(self, key: str, worker: str, result_text: str) -> str:
        """Record a finished job.  First writer wins: returns
        ``"stored"`` for the canonical result, ``"duplicate"`` when
        another worker already finished — in which case the two result
        texts must be byte-identical (:class:`ResultMismatch` otherwise).
        """
        def txn(conn):
            row = conn.execute(
                "SELECT state, result FROM jobs WHERE key=?",
                (key,)).fetchone()
            if row is None:
                raise SpoolError(f"completing unknown job {key!r}")
            state, stored = row
            if state == DONE:
                if stored != result_text:
                    raise ResultMismatch(
                        f"job {key!r}: duplicate result from {worker!r} "
                        f"differs from the stored result — "
                        f"non-deterministic simulation?\n"
                        f"  stored:    {stored[:200]!r}\n"
                        f"  duplicate: {result_text[:200]!r}")
                return "duplicate"
            conn.execute(
                "UPDATE jobs SET state='done', result=?, worker=?, "
                "error=NULL, lease_deadline=NULL, finished=? "
                "WHERE key=?", (result_text, worker, time.time(), key))
            return "stored"
        return self._txn(txn)

    def release(self, key: str, worker: str, error: str) -> bool:
        """Return a failed lease to the pool with its error recorded
        (the attempt stays charged).  No-op if the lease was lost."""
        def txn(conn):
            cursor = conn.execute(
                "UPDATE jobs SET state='pending', worker=NULL, "
                "lease_deadline=NULL, error=? "
                "WHERE key=? AND worker=? AND state='leased'",
                (error, key, worker))
            return cursor.rowcount > 0
        return self._txn(txn)

    def record_worker(self, worker: str, host: str, pid: int,
                      completed: int, duplicates: int,
                      released: int, heartbeat_errors: int = 0) -> None:
        """Upsert one worker's liveness row (its spool-side heartbeat
        plus the counters behind the broker's per-worker gauges and
        ``repro top``)."""
        def txn(conn):
            now = time.time()
            conn.execute(
                "INSERT INTO workers (id, host, pid, started, heartbeat, "
                "completed, duplicates, released, heartbeat_errors) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(id) DO UPDATE SET heartbeat=excluded."
                "heartbeat, completed=excluded.completed, "
                "duplicates=excluded.duplicates, "
                "released=excluded.released, "
                "heartbeat_errors=excluded.heartbeat_errors",
                (worker, host, pid, now, now, completed, duplicates,
                 released, heartbeat_errors))
        self._txn(txn)

    # -- inspection ----------------------------------------------------

    def counts(self, keys: Optional[Iterable[str]] = None
               ) -> Dict[str, int]:
        """Job counts by state, optionally restricted to ``keys``."""
        totals = {PENDING: 0, LEASED: 0, DONE: 0, FAILED: 0}
        if keys is None:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state")
            for state, count in rows:
                totals[state] = count
            return totals
        keys = list(keys)
        for start in range(0, len(keys), 500):
            chunk = keys[start:start + 500]
            marks = ",".join("?" * len(chunk))
            rows = self._conn.execute(
                f"SELECT state, COUNT(*) FROM jobs WHERE key IN ({marks}) "
                f"GROUP BY state", chunk)
            for state, count in rows:
                totals[state] += count
        return totals

    def job(self, key: str) -> Optional[Job]:
        row = self._conn.execute(
            "SELECT key, seq, kind, payload, state, attempts, worker, "
            "lease_deadline, result, error, trace, leased_at, finished "
            "FROM jobs WHERE key=?", (key,)).fetchone()
        return self._job_from_row(row) if row is not None else None

    def jobs(self, state: Optional[str] = None) -> List[Job]:
        query = ("SELECT key, seq, kind, payload, state, attempts, "
                 "worker, lease_deadline, result, error, trace, "
                 "leased_at, finished FROM jobs")
        params: Tuple = ()
        if state is not None:
            query += " WHERE state=?"
            params = (state,)
        rows = self._conn.execute(query + " ORDER BY seq", params)
        return [self._job_from_row(row) for row in rows]

    def finished_since(self, since: float) -> int:
        """Jobs completed at or after ``since`` (wall clock) — the
        throughput window ``repro top`` renders."""
        row = self._conn.execute(
            "SELECT COUNT(*) FROM jobs WHERE state='done' "
            "AND finished >= ?", (since,)).fetchone()
        return int(row[0])

    def workers(self) -> List[Dict]:
        rows = self._conn.execute(
            "SELECT id, host, pid, started, heartbeat, completed, "
            "duplicates, released, heartbeat_errors "
            "FROM workers ORDER BY id")
        return [dict(zip(("id", "host", "pid", "started", "heartbeat",
                          "completed", "duplicates", "released",
                          "heartbeat_errors"), row))
                for row in rows]

    @staticmethod
    def _job_from_row(row) -> Job:
        (key, seq, kind, payload, state, attempts, worker,
         lease_deadline, result, error, trace, leased_at, finished) = row
        return Job(key=key, seq=seq, kind=kind,
                   payload=json.loads(payload), state=state,
                   attempts=attempts, worker=worker,
                   lease_deadline=lease_deadline, result=result,
                   error=error,
                   trace=json.loads(trace) if trace is not None else None,
                   leased_at=leased_at, finished=finished)
