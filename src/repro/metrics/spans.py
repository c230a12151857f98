"""Campaign tracing: spans, propagation, and the merger.

A campaign is a tree of work that crosses process boundaries:
``run_batch`` fans specs over a process pool, and fuzzing campaigns fan
out per-program cells.  This module gives every piece of that tree one
timeline:

* a **span** is a named interval (``trace_id``/``span_id``/
  ``parent_id``, attrs, start/end) whose timestamps come from a
  per-process monotonic clock anchored to the wall clock once at
  recorder creation — monotone within a process, comparable across
  the processes of one host;
* **propagation**: each job the runner submits carries the submitting
  side's :class:`Span`, so the run's spans parent under it in whichever
  process runs the job; they come back in the job's result and join the
  submitting side's recorder;
* the **merger** (:func:`merged_trace`) assembles the spans into one
  Chrome-trace/Perfetto JSON, clamping children into their parents in
  integer microseconds, so the nesting invariant holds exactly even
  when two processes' wall-clock anchors disagree slightly.

Nothing is recorded unless a recorder is attached with
:func:`repro.metrics.attach`, and detached code paths pay at most one
``is not None`` check per batch/spec/run — ``Core.step`` contains no
span code at all (asserted by test).  The recorder is deliberately not
thread-safe: the reproduction parallelizes with processes.
"""

from __future__ import annotations

import heapq
import json
import os
import pathlib
import socket
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

#: Bumped whenever the merged-trace layout changes; the golden schema
#: test pins it.
TRACE_SCHEMA = 2

#: Sentinel: "parent defaults to the innermost open span".
_CURRENT = object()


def new_id() -> str:
    """A 16-hex-digit random id (span and trace identity)."""
    return uuid.uuid4().hex[:16]


def default_process_label() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class Span:
    """One named interval on the campaign timeline."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start_s: float
    end_s: Optional[float] = None
    process: str = ""
    attrs: Dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return (self.end_s - self.start_s) if self.end_s is not None \
            else 0.0


class SpanRecorder:
    """Collects finished spans for one process.

    Timestamps are ``anchor_wall + (monotonic - anchor_mono)``: the
    wall clock is read exactly once (at construction), so spans never
    jump backwards under NTP slew, yet remain comparable across the
    processes of one host.
    """

    def __init__(self, process: Optional[str] = None) -> None:
        self.process = process or default_process_label()
        #: Finished spans, in finish order (children before parents).
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._anchor_wall = time.time()
        self._anchor_mono = time.monotonic()

    def now(self) -> float:
        """Monotonic seconds anchored to this process's wall clock."""
        return self._anchor_wall + (time.monotonic() - self._anchor_mono)

    # -- span lifecycle ------------------------------------------------

    def _resolve_parent(self, parent) -> Tuple[str, Optional[str]]:
        """(trace_id, parent_id) for a new span."""
        if parent is _CURRENT:
            parent = self._stack[-1] if self._stack else None
        if parent is None:
            return new_id(), None
        return parent.trace_id, parent.span_id

    def start(self, name: str, attrs: Optional[Dict] = None,
              parent=_CURRENT, push: bool = False) -> Span:
        """Open a span.  ``parent`` is the innermost open span by
        default; pass a :class:`Span` (one recorded in another process
        too) or None (a new trace root).  ``push`` makes it the default
        parent for spans opened while it is live."""
        trace_id, parent_id = self._resolve_parent(parent)
        span = Span(name=name, trace_id=trace_id, span_id=new_id(),
                    parent_id=parent_id, start_s=self.now(),
                    process=self.process, attrs=dict(attrs or {}))
        if push:
            self._stack.append(span)
        return span

    def finish(self, span: Span, **attrs) -> Span:
        """Close a span (recording it) and merge ``attrs`` in."""
        if span.end_s is None:
            span.end_s = self.now()
        span.attrs.update(attrs)
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, attrs: Optional[Dict] = None,
             parent=_CURRENT):
        """``with recorder.span("sim"): ...`` — opens, pushes, and
        always finishes (exceptions included)."""
        opened = self.start(name, attrs=attrs, parent=parent, push=True)
        try:
            yield opened
        finally:
            self.finish(opened)

    def add(self, name: str, start_s: float, end_s: float,
            attrs: Optional[Dict] = None, parent=_CURRENT) -> Span:
        """Record an already-completed span with explicit timestamps
        (queue waits, cache lookups: measured around a call)."""
        trace_id, parent_id = self._resolve_parent(parent)
        span = Span(name=name, trace_id=trace_id, span_id=new_id(),
                    parent_id=parent_id, start_s=start_s,
                    end_s=max(start_s, end_s), process=self.process,
                    attrs=dict(attrs or {}))
        self.spans.append(span)
        return span

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None


# ----------------------------------------------------------------------
# The deterministic merger
# ----------------------------------------------------------------------

def assign_lanes(intervals: Iterable[Tuple[int, int, Hashable]]
                 ) -> Dict[Hashable, int]:
    """Interval-partition ``(start, end, key)`` triples, taken in the
    caller's order, onto display lanes (Perfetto "threads") so that
    intervals sharing a lane never overlap; returns each key's lane."""
    lanes: Dict[Hashable, int] = {}
    free: List[Tuple[int, int]] = []  # (free-from, lane)
    next_lane = 0
    for start, end, key in intervals:
        if free and free[0][0] <= start:
            _, lane = heapq.heappop(free)
        else:
            lane = next_lane
            next_lane += 1
        lanes[key] = lane
        heapq.heappush(free, (end + 1, lane))
    return lanes


def merged_trace(spans: Iterable[Span],
                 label: str = "campaign") -> Dict:
    """Assemble spans (one recorder's, with its pool workers' spans)
    into one Chrome-trace JSON dict.

    Deterministic: the same spans always produce the same dict (and,
    via ``json.dumps(..., sort_keys=True)``, the same bytes); a span
    id seen twice counts once.  Every child interval is clamped into
    its parent's in integer microseconds, so the nesting invariant
    (child within parent) holds *exactly* even when a worker process's
    wall-clock anchor disagrees slightly with its parent's.
    """
    spans = sorted(spans, key=lambda s: (s.start_s, s.span_id))
    if not spans:
        return {
            "traceEvents": [],
            "displayTimeUnit": "ms",
            "metadata": {"tool": "repro.metrics.spans",
                         "schema": TRACE_SCHEMA, "epoch_s": 0.0,
                         "processes": {}},
        }

    # 1. Integer microsecond intervals.
    corrected: Dict[str, Dict] = {}
    for span in spans:
        start = span.start_s
        end = span.end_s if span.end_s is not None else start
        corrected[span.span_id] = {
            "span": span, "start": start, "end": max(start, end),
            "unfinished": span.end_s is None,
        }
    epoch = min(entry["start"] for entry in corrected.values())
    for entry in corrected.values():
        entry["ts"] = int(round((entry["start"] - epoch) * 1e6))
        entry["te"] = int(round((entry["end"] - epoch) * 1e6))

    # 2. Clamp children into parents, parents first (spans whose parent
    #    is not in the set are roots and keep their own interval).
    def clamp(entry, seen) -> None:
        span = entry["span"]
        if entry.get("clamped") is not None or span.span_id in seen:
            return
        parent = corrected.get(span.parent_id)
        if parent is None:
            entry["clamped"] = False
            return
        clamp(parent, seen | {span.span_id})
        ts = max(entry["ts"], parent["ts"])
        te = min(entry["te"], parent["te"])
        te = max(te, ts)
        entry["clamped"] = (ts, te) != (entry["ts"], entry["te"])
        entry["ts"], entry["te"] = ts, te

    for entry in corrected.values():
        clamp(entry, frozenset())

    # 3. Stable pid per process, lane (tid) per root tree.
    processes = sorted({span.process for span in spans})
    pid_of = {process: index + 1
              for index, process in enumerate(processes)}
    root_of: Dict[str, str] = {}

    def find_root(span_id: str, seen) -> str:
        cached = root_of.get(span_id)
        if cached is not None:
            return cached
        entry = corrected[span_id]
        parent_id = entry["span"].parent_id
        parent = corrected.get(parent_id)
        if (parent is None
                or parent["span"].process != entry["span"].process
                or parent_id in seen):
            root = span_id
        else:
            root = find_root(parent_id, seen | {span_id})
        root_of[span_id] = root
        return root

    lanes: Dict[str, int] = {}
    for process in processes:
        roots = []
        for span_id, entry in corrected.items():
            if entry["span"].process != process:
                continue
            if find_root(span_id, frozenset({span_id})) == span_id:
                roots.append((entry["ts"], entry["te"], span_id))
        lanes.update(assign_lanes(sorted(roots)))

    # 4. Emit events, deterministically ordered.
    events: List[Dict] = []
    for index, process in enumerate(processes):
        events.append({"name": "process_name", "ph": "M",
                       "pid": index + 1, "tid": 0,
                       "args": {"name": f"{label}: {process}"}})
    slices = []
    for span_id, entry in sorted(corrected.items()):
        span = entry["span"]
        args = {"trace_id": span.trace_id, "span_id": span.span_id,
                "parent_id": span.parent_id, "process": span.process,
                **span.attrs}
        if entry["clamped"]:
            args["clamped"] = True
        if entry["unfinished"]:
            args["unfinished"] = True
        slices.append({
            "name": span.name,
            "cat": "span",
            "ph": "X",
            "ts": entry["ts"],
            "dur": entry["te"] - entry["ts"],
            "pid": pid_of[span.process],
            "tid": lanes[find_root(span_id, frozenset({span_id}))],
            "args": args,
        })
    slices.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], -e["dur"],
                               e["args"]["span_id"]))
    events.extend(slices)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {
            "tool": "repro.metrics.spans",
            "schema": TRACE_SCHEMA,
            "epoch_s": epoch,
            "processes": {str(pid_of[p]): p for p in processes},
        },
    }


def write_merged_trace(path, spans: Iterable[Span],
                       label: str = "campaign") -> pathlib.Path:
    """Write one merged Chrome trace (Perfetto-loadable JSON)."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(merged_trace(spans, label=label),
                               sort_keys=True))
    return path


def nesting_violations(trace: Dict) -> List[str]:
    """Every merged span whose interval escapes its parent's — the
    invariant the merger guarantees (used by tests and the golden
    schema check); empty on a well-formed trace."""
    slices = {event["args"]["span_id"]: event
              for event in trace.get("traceEvents", [])
              if event.get("ph") == "X"}
    problems = []
    for span_id, event in sorted(slices.items()):
        parent = slices.get(event["args"].get("parent_id"))
        if parent is None:
            continue
        if (event["ts"] < parent["ts"]
                or event["ts"] + event["dur"]
                > parent["ts"] + parent["dur"]):
            problems.append(
                f"{event['name']} [{span_id}] "
                f"({event['ts']}+{event['dur']}) escapes parent "
                f"{parent['name']} ({parent['ts']}+{parent['dur']})")
    return problems


def span_attrs_for_spec(spec) -> Dict:
    """The standard attrs a spec-shaped span carries (the executor's
    ``spec`` and ``sim`` spans share them so traces join cleanly)."""
    return {"workload": spec.workload, "defense": spec.defense,
            "instrument": spec.instrument, "core": spec.core}
