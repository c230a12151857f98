"""Pipeline observability: the per-run tracer and its trace export.

A :class:`PipelineTracer` is the one observer a run takes.  It hooks the
core at three points — uop creation at fetch, the end of every cycle,
and the close of every defense-intervention episode — and records
enough to reconstruct each uop's walk through the pipeline from the
per-stage timestamps the :class:`~repro.uarch.uop.Uop` already carries
(fetch/rename/issue/complete/commit/squash cycles), plus one
:class:`~repro.uarch.speculation.InterventionEvent` per episode.
Tracing is strictly opt-in: a core built without a tracer pays only an
``is not None`` test per cycle and per closed episode.

Two export formats:

* :func:`chrome_trace` — a Chrome-trace-format JSON dict (Perfetto and
  ``chrome://tracing`` load it directly): one complete ``"ph": "X"``
  slice per pipeline stage per uop, ROB/IQ/LQ/SQ occupancy counter
  tracks sampled every ``occupancy_interval`` cycles, and — when the
  defense intervened — one slice per episode on the intervention
  track (pid 2, one lane per gating hook).
* :func:`text_pipeline` — a Konata-style ASCII pipeline view, one row
  per uop with stage letters at their cycle columns (``F`` fetch,
  ``r`` rename, ``i`` issue, ``c`` complete, ``C`` commit, ``x``
  squash).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Dict, List, Optional, Tuple, Union

from .pipeline import HOOKS
from .speculation import InterventionEvent
from .uop import Uop

#: Stage slices emitted per uop: (label, start attribute, end attribute).
_STAGES = (
    ("fetch", "fetch_cycle", "rename_cycle"),
    ("rename", "rename_cycle", "issue_cycle"),
    ("execute", "issue_cycle", "complete_cycle"),
    ("commit-wait", "complete_cycle", "commit_cycle"),
)


class PipelineTracer:
    """Records one run: per-uop pipeline events, periodic occupancy
    samples, and every defense-intervention episode.

    ``max_uops`` bounds memory: once reached, later uops are counted in
    ``dropped`` and later episodes in ``dropped_events`` instead of
    recorded (the trace covers the program's head, which is what
    pipeline debugging usually wants; the aggregate ``defense_*`` stats
    stay exact regardless).
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
        #: One event per closed intervention episode, in close order.
        self.events: List[InterventionEvent] = []
        self.dropped_events = 0
        self.finished = False

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

    def on_episode(self, core, uop: Uop, stem: str, start: int,
                   closed_by: Optional[str] = None) -> None:
        """Record one episode at the ``HOOKS`` hook ``stem``, as
        ``Core._close_episode`` closes it (or :meth:`finish` flushes
        it)."""
        if self.max_uops is not None and len(self.events) >= self.max_uops:
            self.dropped_events += 1
            return
        defense = core.defense
        self.events.append(InterventionEvent(
            seq=uop.seq,
            pc=uop.pc,
            asm=_asm(uop),
            hook=_HOOK_OF_STEM[stem],
            start=start,
            delay=core.cycle - start,
            depth=core.stats["_spec_depth"],
            tainted=any(defense.tainted(preg) for _, preg in uop.psrcs),
            protected=defense.protected_src(uop),
            closed_by=closed_by or ("squash" if uop.squashed else "allow"),
        ))

    def finish(self, core) -> None:
        """Flush episodes still open at end of run (idempotent).

        The aggregate stats fold these into ``*_delay_cycles`` at
        ``Core._result``; the tracer mirrors them as ``closed_by:
        "halt"`` events so the two views stay consistent.  Open
        episodes live on in-flight uops, all of which sit in the ROB.
        """
        if self.finished:
            return
        self.finished = True
        for uop in core.rob.entries:
            for _, stem in HOOKS:
                start = getattr(uop, f"{stem}_block_cycle")
                if start >= 0:
                    self.on_episode(core, uop, stem, start, "halt")


#: ``HOOKS`` stem -> hook name, and hook name -> its Chrome-trace lane.
_HOOK_OF_STEM = {stem: hook for hook, stem in HOOKS}
_LANE_OF_HOOK = {hook: lane for lane, (hook, _) in enumerate(HOOKS)}


def _uop_end(uop: Uop) -> int:
    """Last cycle this uop was alive in the pipeline."""
    candidates = [uop.commit_cycle, uop.squash_cycle, uop.complete_cycle,
                  uop.issue_cycle, uop.rename_cycle, uop.fetch_cycle]
    return max(c for c in candidates if c >= 0)


def _asm(uop: Uop) -> str:
    from ..isa.assembler import format_instruction

    return format_instruction(uop.inst)


def chrome_trace(tracer: PipelineTracer, label: str = "repro") -> Dict:
    """Project a recorded trace into Chrome trace format (JSON dict).

    When the defense intervened, the episodes ride the same timeline as
    the pipeline slices on their own track (pid 2, one lane per gating
    hook), so Perfetto shows each intervention above the uops it
    delayed."""
    from ..metrics.spans import assign_lanes

    events: List[Dict] = [
        {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": f"{label}: pipeline"}},
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": f"{label}: occupancy"}},
    ]
    # In seq order: sorting uops fetched in one cycle would reorder lanes.
    lanes = assign_lanes((uop.fetch_cycle, _uop_end(uop), uop.seq)
                         for uop in tracer.uops)
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
    if tracer.events:
        events.append(
            {"name": "process_name", "ph": "M", "pid": 2, "tid": 0,
             "args": {"name": f"{label}: defense interventions"}})
        for lane, (hook, _) in enumerate(HOOKS):
            events.append(
                {"name": "thread_name", "ph": "M", "pid": 2, "tid": lane,
                 "args": {"name": f"may_{hook}"}})
    for event in tracer.events:
        events.append({
            "name": f"{event.hook}:{event.asm}",
            "cat": event.closed_by,
            "ph": "X",
            "ts": event.start,
            "dur": max(event.delay, 1),
            "pid": 2,
            "tid": _LANE_OF_HOOK[event.hook],
            "args": dataclasses.asdict(event),
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",  # 1 "ns" == 1 core cycle
        "metadata": {"tool": "repro.uarch.trace",
                     "dropped_uops": tracer.dropped,
                     "dropped_events": tracer.dropped_events},
    }


def write_chrome_trace(path: Union[str, pathlib.Path],
                       tracer: PipelineTracer,
                       label: str = "repro") -> pathlib.Path:
    """Write a Perfetto-loadable JSON trace file."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(chrome_trace(tracer, label)))
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
