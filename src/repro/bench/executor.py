"""Parallel simulation executor with a persistent on-disk result cache.

Every paper table and figure walks a workload x defense x knob matrix of
*independent*, pure-CPU simulations — exactly the embarrassingly
parallel shape AMuLeT exploits to scale countermeasure testing.  This
module provides the two pieces that make the whole evaluation grid scale
with cores instead of wall-clock:

* a **batch API** (:func:`run_batch`): callers declare their full
  :class:`~repro.bench.runner.RunSpec` matrix up front, and the
  executor answers what it can from the caches and hands the misses to
  the job runner (:mod:`repro.bench.jobs`) as ``spec`` jobs — serial
  or over a process pool, with per-spec timeouts, retry/requeue, and a
  progress line;

* a **persistent content-addressed cache** under ``benchmarks/.cache/``
  keyed by the spec plus a version hash of the workload program and the
  simulator-relevant source, storing a slim :class:`RunSummary` (cycles,
  instruction count, defense stats — not the full ``Memory`` image or
  ``timing_trace``) so repeated runs and cross-process workers reuse
  results.

Environment knobs:

* ``REPRO_JOBS`` — default worker count (``--jobs`` overrides; falls
  back to ``os.cpu_count()``).
* ``REPRO_CACHE_DIR`` — override the cache directory.
* ``REPRO_PROGRESS`` — force the progress line on (``1``) or off
  (``0``); default: only when stderr is a tty.

Parallel output is bit-identical to serial output: a simulation is a
pure function of its spec, and results are keyed (not ordered) by spec.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import os
import pathlib
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..isa.program import Program
from ..metrics.spans import span_attrs_for_spec
from ..metrics.telemetry import current
from ..uarch.pipeline import CoreResult
from ..workloads import get_workload
from .jobs import (
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT_S,
    KIND_SPEC,
    ExecutorError,  # noqa: F401 — re-exported: batch callers catch it here
    Job,
    JobResult,
    run_jobs,
)
from .runner import RunSpec, execute_spec

logger = logging.getLogger(__name__)

#: Bumped whenever the cache entry layout changes.  Feeds both the
#: cache *key* (old-format entries are never even looked up) and the
#: ``schema`` field embedded in every payload, which ``RunSummary.
#: from_dict`` checks so a stale payload can never deserialize silently.
#: 2: complete cache/TLB/stall-cause stats schema; step() accounts the
#:    halting cycle (cycle counts shift by one).
#: 3: speculation-observatory schema — transient-uop accounting
#:    (issued_uops, per-cause squash counters), speculation-depth and
#:    squash-cascade histograms, per-hook defense intervention
#:    episode counters; the "defense" stall alias became
#:    "defense_execute".
#: 4: ``RunSpec.mitigation`` (software mitigation passes) joins the
#:    spec cache key; entries written before the field existed would
#:    collide with ``mitigation=None`` under the old asdict payload.
#: 5: stats schema — the per-retry refusal counters are retired in
#:    favour of the per-hook intervention-episode counters.
CACHE_FORMAT = 5

#: Source packages whose content feeds the version hash.  Editing any
#: of these invalidates every cached result; workload *programs* are
#: hashed separately (per workload) so a new kernel only invalidates
#: itself.
_VERSIONED_PACKAGES = ("arch", "uarch", "isa", "defenses", "protcc",
                       "protisa")


@dataclass(frozen=True)
class RunSummary:
    """The slim, picklable outcome of one simulation.

    This is what the persistent cache stores and what the perf paths
    (``norm_runtime``, tables, figures, ablations) consume: cycles,
    instruction count, and the defense/pipeline stats counters — never
    the full ``Memory`` image or ``timing_trace``, which only the
    contracts/fuzzing paths need.
    """

    cycles: int
    instructions: int
    halt_reason: str
    stats: Tuple[Tuple[str, int], ...] = ()

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def stat(self) -> Dict[str, int]:
        return dict(self.stats)

    def to_dict(self) -> Dict:
        return {
            "schema": CACHE_FORMAT,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "halt_reason": self.halt_reason,
            "stats": {k: v for k, v in self.stats},
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "RunSummary":
        schema = payload.get("schema")
        if schema != CACHE_FORMAT:
            raise ValueError(
                f"stale RunSummary payload: schema {schema!r}, "
                f"expected {CACHE_FORMAT} (re-run to regenerate)")
        return cls(
            cycles=int(payload["cycles"]),
            instructions=int(payload["instructions"]),
            halt_reason=str(payload["halt_reason"]),
            stats=tuple(sorted(payload.get("stats", {}).items())),
        )


def summarize(result: CoreResult) -> RunSummary:
    """Project a full :class:`CoreResult` down to its perf summary."""
    return RunSummary(
        cycles=result.cycles,
        instructions=result.instructions,
        halt_reason=result.halt_reason,
        stats=tuple(sorted(result.stats.items())),
    )


@dataclass
class BatchStats:
    """Accounting for one :func:`run_batch` call."""

    total: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    simulated: int = 0
    retried: int = 0
    jobs: int = 1
    elapsed_s: float = 0.0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def line(self) -> str:
        return (f"[executor] {self.total} specs: {self.hits} cached "
                f"({self.memory_hits} mem, {self.disk_hits} disk, "
                f"{100 * self.hit_rate:.0f}% hit rate), "
                f"{self.simulated} simulated, {self.retried} retried, "
                f"jobs={self.jobs}, {self.elapsed_s:.1f}s")


#: Stats of the most recent batch (tests and the bench script read it).
LAST_BATCH = BatchStats()


# ======================================================================
# Version hashing: spec + workload content + simulator source
# ======================================================================

def _hash(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
        digest.update(b"\x00")
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _source_fingerprint() -> str:
    """Hash of every simulator-relevant source file."""
    root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for package in _VERSIONED_PACKAGES:
        for path in sorted((root / package).glob("*.py")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def code_version_hash() -> str:
    """The simulator-source component of every cache key."""
    return _source_fingerprint()


def program_fingerprint(program: Program) -> str:
    """Stable content hash of a program (instructions + layout)."""
    lines = []
    for inst in program.instructions:
        lines.append("|".join((
            inst.op.name,
            str(inst.rd), str(inst.ra), str(inst.rb), str(inst.imm),
            str(inst.target),
            inst.cond.name if inst.cond is not None else "None",
            "P" if inst.prot else "-",
        )))
    lines.append(json.dumps(sorted(program.labels.items())))
    lines.append(json.dumps([(f.name, f.start, f.end)
                             for f in program.functions]))
    lines.append(str(program.entry))
    return _hash("\n".join(lines).encode())


@functools.lru_cache(maxsize=None)
def workload_fingerprint(name: str) -> str:
    """Content hash of a workload: program, initial memory, registers."""
    workload = get_workload(name)
    memory = json.dumps(sorted(workload.memory.snapshot().items()))
    regs = json.dumps(sorted(workload.regs.items()))
    classes = json.dumps(workload.classes, sort_keys=True) \
        if isinstance(workload.classes, dict) else str(workload.classes)
    return _hash(program_fingerprint(workload.program).encode(),
                 memory.encode(), regs.encode(), classes.encode())


def spec_cache_key(spec: RunSpec) -> str:
    """Content-addressed cache key for one spec."""
    payload = json.dumps(dataclasses.asdict(spec), sort_keys=True)
    return _hash(f"v{CACHE_FORMAT}".encode(), payload.encode(),
                 workload_fingerprint(spec.workload).encode(),
                 code_version_hash().encode())


# ======================================================================
# Persistent on-disk cache
# ======================================================================

def cache_dir() -> pathlib.Path:
    override = os.environ.get("REPRO_CACHE_DIR", "")
    if override:
        return pathlib.Path(override)
    # src/repro/bench/executor.py -> repo root is three parents up from
    # the package directory.
    return (pathlib.Path(__file__).resolve().parents[3]
            / "benchmarks" / ".cache")


def _cache_path(key: str) -> pathlib.Path:
    return cache_dir() / key[:2] / f"{key}.json"


def cache_load(spec: RunSpec) -> Optional[RunSummary]:
    """Look a spec up in the on-disk cache (None on miss/corruption)."""
    path = _cache_path(spec_cache_key(spec))
    try:
        payload = json.loads(path.read_text())
        if payload.get("format") != CACHE_FORMAT:
            return None  # stale entry written under an older layout
        return RunSummary.from_dict(payload["summary"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def cache_store(spec: RunSpec, summary: RunSummary) -> None:
    """Persist one result through a temp file and a rename, so
    concurrent writers are safe.  A read-only cache directory must
    never fail a run — but a failed write or rename must not leak its
    temp file either."""
    path = _cache_path(spec_cache_key(spec))
    text = json.dumps({
        "format": CACHE_FORMAT,
        "spec": dataclasses.asdict(spec),
        "summary": summary.to_dict(),
        "created": time.time(),
    })
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def wipe_cache() -> int:
    """Delete every cached result; returns the number removed."""
    removed = 0
    for path in cache_dir().rglob("*.json"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def cache_info() -> Dict:
    """File count and total size of the on-disk cache.

    Files that vanish between the directory walk and the ``stat`` (a
    concurrent ``wipe_cache`` or writer replacing its temp file) are
    skipped rather than crashing the inspection.
    """
    entries = 0
    total_bytes = 0
    for path in cache_dir().rglob("*.json"):
        try:
            total_bytes += path.stat().st_size
        except OSError:
            continue  # deleted mid-walk by a concurrent wipe/writer
        entries += 1
    return {
        "dir": str(cache_dir()),
        "entries": entries,
        "bytes": total_bytes,
    }


# ======================================================================
# The ``spec`` job
# ======================================================================

_summary_cache: Dict[RunSpec, RunSummary] = {}


def run_spec_job(spec: RunSpec) -> RunSummary:
    """The ``spec`` job: simulate one spec and return its
    :class:`RunSummary`.  Caching is the submitting side's business, so
    each result reaches the disk cache exactly once."""
    with current().span("sim", span_attrs_for_spec(spec)):
        return summarize(execute_spec(spec))


def clear_summary_cache() -> None:
    _summary_cache.clear()
    workload_fingerprint.cache_clear()
    _source_fingerprint.cache_clear()


# ======================================================================
# The parallel batch API
# ======================================================================

def resolve_jobs(jobs: Optional[int] = None) -> int:
    """``--jobs`` argument > ``REPRO_JOBS`` env > ``os.cpu_count()``.

    The single warn-and-fallback job resolver shared by the batch
    executor and the fuzzing campaigns: a malformed ``REPRO_JOBS``
    value (``REPRO_JOBS=four``) is warned about and ignored rather
    than crashing the run — the env var is ambient configuration, not
    an argument the caller validated.
    """
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get("REPRO_JOBS", "")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            logger.warning(
                "ignoring malformed REPRO_JOBS=%r (expected an integer); "
                "falling back to cpu count", env)
    return os.cpu_count() or 1


def _progress_enabled() -> bool:
    forced = os.environ.get("REPRO_PROGRESS", "")
    if forced:
        return forced != "0"
    return sys.stderr.isatty()


def _progress(stats: BatchStats, done: int, final: bool = False) -> None:
    if not _progress_enabled():
        return
    sys.stderr.write(f"\r[executor] {done}/{stats.total} "
                     f"({stats.hits} cached, {stats.simulated} simulated, "
                     f"{stats.retried} retried) jobs={stats.jobs}")
    if final:
        sys.stderr.write("\n")
    sys.stderr.flush()


def run_batch(
    specs: Iterable[RunSpec],
    jobs: Optional[int] = None,
    timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
    retries: int = DEFAULT_RETRIES,
    worker: Optional[Callable] = None,
) -> Dict[RunSpec, RunSummary]:
    """Resolve a whole spec matrix, fanning misses out over processes.

    Specs already in the in-memory or on-disk cache are never re-run.
    The misses go to the job runner (:func:`repro.bench.jobs.run_jobs`)
    as ``spec`` jobs: serially in-process with an effective job count
    of 1 (or a single pending spec), over a process pool otherwise.
    Both backends produce bit-identical results, because a simulation
    is a pure function of its spec; each result is written to the disk
    cache once, here.

    ``worker`` overrides the pool's job function (tests use this to
    exercise the timeout/retry/crash paths).
    """
    global LAST_BATCH
    ordered = list(dict.fromkeys(specs))
    stats = BatchStats(total=len(ordered), jobs=resolve_jobs(jobs))
    tel = current()
    recorder = tel.recorder
    batch_span = tel.start("executor.batch", {"specs": len(ordered)},
                           push=True)
    started = time.monotonic()
    results: Dict[RunSpec, RunSummary] = {}
    pending: List[RunSpec] = []

    def store(index: int, outcome: JobResult) -> None:
        spec = pending[index]
        summary = outcome.result
        results[spec] = _summary_cache[spec] = summary
        cache_store(spec, summary)
        stats.simulated += 1
        _progress(stats, len(results))

    try:
        for spec in ordered:
            cached = _summary_cache.get(spec)
            if cached is not None:
                results[spec] = cached
                stats.memory_hits += 1
                if recorder is not None:
                    now = recorder.now()
                    recorder.add("spec", now, now, attrs=dict(
                        span_attrs_for_spec(spec), cache="memory"))
                continue
            lookup_started = recorder.now() if recorder is not None \
                else 0.0
            cached = cache_load(spec)
            if cached is not None:
                results[spec] = _summary_cache[spec] = cached
                stats.disk_hits += 1
                if recorder is not None:
                    recorder.add("spec", lookup_started, recorder.now(),
                                 attrs=dict(span_attrs_for_spec(spec),
                                            cache="disk"))
                continue
            pending.append(spec)
        if pending:
            run = run_jobs([Job(KIND_SPEC, spec) for spec in pending],
                           store, workers=stats.jobs, timeout_s=timeout_s,
                           retries=retries, worker=worker)
            stats.jobs, stats.retried = run.workers, run.retried
        stats.elapsed_s = time.monotonic() - started
    finally:
        tel.finish(batch_span, simulated=stats.simulated,
                   cached=stats.hits, jobs=stats.jobs)
    _progress(stats, len(results), final=True)
    for name, amount in (("executor.batches", 1),
                         ("executor.specs", stats.total),
                         ("cache.memory_hits", stats.memory_hits),
                         ("cache.disk_hits", stats.disk_hits),
                         ("cache.misses", stats.simulated)):
        tel.count(name, amount)
    tel.observe("executor.batch_seconds", stats.elapsed_s)
    logger.info("%s", stats.line())
    LAST_BATCH = stats
    return results
