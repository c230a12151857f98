"""repro.bench.fabric — the distributed campaign fabric.

A broker shards a RunSpec (or fuzzing-campaign) matrix into a durable
spool — one SQLite database plus a directory of per-worker metrics
files, so the fabric works over any shared filesystem with no extra
daemons — and workers (``repro work --spool DIR``) lease jobs with
heartbeats and expiry, execute them with the same engines and caches as
a local run, and write results back for a deterministic merge that is
byte-identical to a serial :func:`repro.bench.executor.run_batch`.
"""

from .spool import (
    DONE,
    FAILED,
    Job,
    LEASED,
    PENDING,
    ResultMismatch,
    Spool,
    SpoolError,
)
from .broker import Broker
from .top import TopView, render, run_top, sample
from .worker import WorkerStats, run_worker, worker_id

__all__ = [
    "Broker", "DONE", "FAILED", "Job", "LEASED", "PENDING",
    "ResultMismatch", "Spool", "SpoolError", "TopView", "WorkerStats",
    "render", "run_top", "run_worker", "sample", "worker_id",
]
