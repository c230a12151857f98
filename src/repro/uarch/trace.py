"""Pipeline observability: per-uop event tracing and trace export.

A :class:`PipelineTracer` hooks the core at two points — uop creation at
fetch and the end of every cycle — and records enough to reconstruct
each uop's walk through the pipeline from the per-stage timestamps the
:class:`~repro.uarch.uop.Uop` already carries (fetch/rename/issue/
complete/commit/squash cycles).  Tracing is strictly opt-in: a core
built without a tracer pays only an ``is not None`` test per cycle.

Two export formats:

* :func:`chrome_trace` — a Chrome-trace-format JSON dict (Perfetto and
  ``chrome://tracing`` load it directly): one complete ``"ph": "X"``
  slice per pipeline stage per uop, plus ROB/IQ/LQ/SQ occupancy counter
  tracks sampled every ``occupancy_interval`` cycles.
* :func:`text_pipeline` — a Konata-style ASCII pipeline view, one row
  per uop with stage letters at their cycle columns (``F`` fetch,
  ``r`` rename, ``i`` issue, ``c`` complete, ``C`` commit, ``x``
  squash).
"""

from __future__ import annotations

import heapq
import json
import pathlib
from typing import Dict, List, Optional, Tuple, Union

from .uop import Uop

#: Stage slices emitted per uop: (label, start attribute, end attribute).
_STAGES = (
    ("fetch", "fetch_cycle", "rename_cycle"),
    ("rename", "rename_cycle", "issue_cycle"),
    ("execute", "issue_cycle", "complete_cycle"),
    ("commit-wait", "complete_cycle", "commit_cycle"),
)


class PipelineTracer:
    """Records per-uop pipeline events and periodic occupancy samples.

    ``max_uops`` bounds memory: once reached, later uops are counted in
    ``dropped`` instead of recorded (the trace covers the program's
    head, which is what pipeline debugging usually wants).
    """

    def __init__(self, max_uops: Optional[int] = 100_000,
                 occupancy_interval: int = 64) -> None:
        self.uops: List[Uop] = []
        self.dropped = 0
        self.max_uops = max_uops
        self.occupancy_interval = max(1, occupancy_interval)
        #: (cycle, rob, iq, lq, sq) samples.
        self.occupancy: List[Tuple[int, int, int, int, int]] = []
        #: Cycles the core actually stepped with this tracer attached.
        #: An attached tracer pins the reference interpreter, which
        #: steps every cycle: ``cycles_seen`` equal to the run's
        #: ``CoreResult.cycles`` proves no fast-forwarded window (a
        #: compiled-engine optimization) skipped past the tracer.
        self.cycles_seen = 0

    # -- core hooks --------------------------------------------------------

    def on_fetch(self, uop: Uop) -> None:
        if self.max_uops is not None and len(self.uops) >= self.max_uops:
            self.dropped += 1
            return
        self.uops.append(uop)

    def on_cycle(self, core) -> None:
        self.cycles_seen += 1
        if core.cycle % self.occupancy_interval == 0:
            lq, sq = core.lsq.occupancy
            self.occupancy.append(
                (core.cycle, len(core.rob), core.iq_count, lq, sq))


def _uop_end(uop: Uop) -> int:
    """Last cycle this uop was alive in the pipeline."""
    candidates = [uop.commit_cycle, uop.squash_cycle, uop.complete_cycle,
                  uop.issue_cycle, uop.rename_cycle, uop.fetch_cycle]
    return max(c for c in candidates if c >= 0)


def _assign_lanes(uops: List[Uop]) -> Dict[int, int]:
    """Interval-partition uops onto display lanes (Perfetto "threads")
    so concurrent uops never overlap on one track."""
    lanes: Dict[int, int] = {}
    free: List[Tuple[int, int]] = []  # (free-from cycle, lane)
    next_lane = 0
    for uop in uops:  # already in fetch (seq) order
        start = uop.fetch_cycle
        if free and free[0][0] <= start:
            _, lane = heapq.heappop(free)
        else:
            lane = next_lane
            next_lane += 1
        lanes[uop.seq] = lane
        heapq.heappush(free, (_uop_end(uop) + 1, lane))
    return lanes


def _asm(uop: Uop) -> str:
    from ..isa.assembler import format_instruction

    return format_instruction(uop.inst)


def chrome_trace(tracer: PipelineTracer, label: str = "repro",
                 ledger=None) -> Dict:
    """Project a recorded trace into Chrome trace format (JSON dict).

    Passing an :class:`~repro.uarch.speculation.InterventionLedger`
    merges the defense-intervention overlay (pid 2: one lane per
    gating hook) into the same timeline as the pipeline slices."""
    events: List[Dict] = [
        {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": f"{label}: pipeline"}},
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": f"{label}: occupancy"}},
    ]
    lanes = _assign_lanes(tracer.uops)
    for uop in tracer.uops:
        lane = lanes[uop.seq]
        for stage, start_attr, end_attr in _STAGES:
            start = getattr(uop, start_attr)
            if start < 0:
                break  # never reached this stage
            end = getattr(uop, end_attr)
            if end < 0:
                # Stage never finished: squashed (or still in flight at
                # halt); close the slice at the squash/last-seen cycle.
                end = _uop_end(uop)
            events.append({
                "name": stage,
                "cat": "squashed" if uop.squashed else "committed",
                "ph": "X",
                "ts": start,
                "dur": max(end - start, 1),
                "pid": 0,
                "tid": lane,
                "args": {"seq": uop.seq, "pc": uop.pc, "asm": _asm(uop),
                         "squashed": uop.squashed,
                         "mem_level": uop.mem_level,
                         "block_reason": uop.block_reason},
            })
    for name, index in (("ROB", 1), ("IQ", 2), ("LQ", 3), ("SQ", 4)):
        for sample in tracer.occupancy:
            events.append({
                "name": name, "ph": "C", "ts": sample[0],
                "pid": 1, "tid": 0, "args": {name: sample[index]},
            })
    if ledger is not None:
        from .speculation import ledger_chrome_events

        events.extend(ledger_chrome_events(ledger, label))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",  # 1 "ns" == 1 core cycle
        "metadata": {"tool": "repro.uarch.trace",
                     "dropped_uops": tracer.dropped},
    }


def write_chrome_trace(path: Union[str, pathlib.Path],
                       tracer: PipelineTracer,
                       label: str = "repro",
                       ledger=None) -> pathlib.Path:
    """Write a Perfetto-loadable JSON trace file."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(chrome_trace(tracer, label, ledger=ledger)))
    return path


# ----------------------------------------------------------------------
# Uop-stream differencing (leak forensics)
# ----------------------------------------------------------------------

def timing_signature(uop: Uop) -> Tuple:
    """Everything about a uop's pipeline walk that a co-resident timing
    adversary could in principle resolve: identity plus every per-stage
    timestamp and the squash outcome."""
    return (uop.pc, uop.fetch_cycle, uop.rename_cycle, uop.issue_cycle,
            uop.complete_cycle, uop.commit_cycle, uop.squash_cycle,
            uop.squashed)


def first_uop_divergence(uops_a: List[Uop],
                         uops_b: List[Uop]) -> Optional[int]:
    """Index of the first position where two traced uop streams differ
    in :func:`timing_signature` (or where one stream ends early); None
    if the streams are timing-identical."""
    for index, (a, b) in enumerate(zip(uops_a, uops_b)):
        if timing_signature(a) != timing_signature(b):
            return index
    if len(uops_a) != len(uops_b):
        return min(len(uops_a), len(uops_b))
    return None


#: (stage letter, timestamp attribute) for the text pipeline view.
_TEXT_MARKS = (("F", "fetch_cycle"), ("r", "rename_cycle"),
               ("i", "issue_cycle"), ("c", "complete_cycle"),
               ("C", "commit_cycle"), ("x", "squash_cycle"))


def text_pipeline(tracer: PipelineTracer, max_rows: int = 64,
                  max_cols: int = 160) -> str:
    """A Konata-style ASCII pipeline view of the first uops recorded."""
    uops = tracer.uops[:max_rows]
    if not uops:
        return "(empty trace)"
    origin = min(u.fetch_cycle for u in uops)
    lines = [f"cycle origin: {origin}   "
             "(F fetch, r rename, i issue, c complete, C commit, x squash)"]
    for uop in uops:
        end = min(_uop_end(uop) - origin, max_cols - 1)
        row = [" "] * (end + 1)
        start = uop.fetch_cycle - origin
        for col in range(start, end + 1):
            row[col] = "."
        for letter, attr in _TEXT_MARKS:
            cycle = getattr(uop, attr)
            if cycle >= 0:
                col = cycle - origin
                if 0 <= col < max_cols:
                    row[col] = letter
        label = f"{uop.seq:>5} pc={uop.pc:<4} {_asm(uop):<24}"
        lines.append(f"{label} |{''.join(row)}")
    if len(tracer.uops) > max_rows:
        lines.append(f"... {len(tracer.uops) - max_rows} more uops "
                     f"recorded ({tracer.dropped} dropped)")
    return "\n".join(lines)
