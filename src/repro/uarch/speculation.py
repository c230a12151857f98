"""The speculation observatory: per-intervention defense attribution.

The always-on aggregate telemetry (``issued_uops``, per-cause squash
counters, speculation-depth and squash-cascade histograms, per-hook
``defense_*_interventions`` / ``defense_*_delay_cycles``) lives in the
core itself and costs a few dict increments at sites the pipeline
already touches.  This module holds the *opt-in* layer on top of it:
an :class:`InterventionLedger` that records one event per defense
intervention episode — which uop, at which hook, delayed how long, how
deep speculation ran, and what the taint/PROT state looked like when
the episode closed.

The attach contract mirrors :class:`~repro.uarch.trace.PipelineTracer`
exactly: a core built without a ledger pays nothing (``Core.step``
never consults it; the episode helpers reach it behind per-uop
``block_cycle >= 0`` guards that are part of the always-on accounting
anyway), and an attached ledger pins the per-cycle reference
interpreter so recorded cycle stamps are exact.

Export: :func:`ledger_chrome_events` projects the ledger onto Chrome
trace format as its own process track (pid 2), and
:func:`repro.uarch.trace.chrome_trace` accepts a ``ledger`` argument to
merge that track into a recorded pipeline timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .uop import Uop

#: The three gating hooks, in pipeline order, with the stats-key stem
#: each one's episode counters use.
HOOKS: Tuple[Tuple[str, str], ...] = (
    ("execute", "exec"),
    ("resolve", "resolve"),
    ("wakeup", "wakeup"),
)

_BLOCK_ATTR = {
    "execute": "exec_block_cycle",
    "resolve": "resolve_block_cycle",
    "wakeup": "wakeup_block_cycle",
}


@dataclass(frozen=True)
class InterventionEvent:
    """One closed defense-intervention episode.

    ``start``/``delay`` are in core cycles; ``depth`` is the number of
    unresolved in-flight branches when the episode closed; ``tainted``
    and ``protected`` capture the YRoT / ProtISA state of the uop's
    renamed sources at close time (the defense's own view of why it
    intervened); ``closed_by`` is ``"allow"``, ``"squash"``, or
    ``"halt"`` for episodes still open when the run ended.
    """

    seq: int
    pc: int
    asm: str
    hook: str
    start: int
    delay: int
    depth: int
    tainted: bool
    protected: bool
    closed_by: str


class InterventionLedger:
    """Records every defense-intervention episode of one run.

    ``max_events`` bounds memory like the tracer's ``max_uops``: once
    reached, later events are counted in ``dropped`` instead of stored
    (the aggregate ``defense_*`` stats remain exact regardless).
    """

    def __init__(self, max_events: Optional[int] = 100_000) -> None:
        self.events: List[InterventionEvent] = []
        self.dropped = 0
        self.max_events = max_events
        self.finished = False

    # -- core hooks ----------------------------------------------------

    def record(self, core, uop: Uop, hook: str, start: int) -> None:
        """Called by the pipeline's episode-close helpers."""
        self._record(core, uop, hook, start,
                     "squash" if uop.squashed else "allow")

    def finish(self, core) -> None:
        """Flush episodes still open at end of run (idempotent).

        The aggregate stats fold these into ``*_delay_cycles`` at
        ``Core._result``; the ledger mirrors them as ``closed_by:
        "halt"`` events so the two views stay consistent.  Open
        episodes live on in-flight uops, all of which sit in the ROB.
        """
        if self.finished:
            return
        self.finished = True
        for uop in core.rob.entries:
            for hook, _ in HOOKS:
                start = getattr(uop, _BLOCK_ATTR[hook])
                if start >= 0:
                    self._record(core, uop, hook, start, "halt")

    # -- internals -----------------------------------------------------

    def _record(self, core, uop: Uop, hook: str, start: int,
                closed_by: str) -> None:
        if self.max_events is not None \
                and len(self.events) >= self.max_events:
            self.dropped += 1
            return
        from ..isa.assembler import format_instruction

        defense = core.defense
        self.events.append(InterventionEvent(
            seq=uop.seq,
            pc=uop.pc,
            asm=format_instruction(uop.inst),
            hook=hook,
            start=start,
            delay=core.cycle - start,
            depth=core.stats["_spec_depth"],
            tainted=any(defense.tainted(preg) for _, preg in uop.psrcs),
            protected=defense.protected_src(uop),
            closed_by=closed_by,
        ))

    # -- queries -------------------------------------------------------

    def by_hook(self) -> Dict[str, List[InterventionEvent]]:
        out: Dict[str, List[InterventionEvent]] = {
            hook: [] for hook, _ in HOOKS}
        for event in self.events:
            out[event.hook].append(event)
        return out

    def total_delay(self) -> int:
        return sum(event.delay for event in self.events)

    def to_dicts(self) -> List[Dict]:
        return [
            {"seq": e.seq, "pc": e.pc, "asm": e.asm, "hook": e.hook,
             "start": e.start, "delay": e.delay, "depth": e.depth,
             "tainted": e.tainted, "protected": e.protected,
             "closed_by": e.closed_by}
            for e in self.events]


# ---------------------------------------------------------------------
# Aggregate-stats projection (shared by CLI / bench tables / forensics)
# ---------------------------------------------------------------------

def intervention_summary(stats: Mapping[str, float]) -> Dict[str, Dict]:
    """Per-hook intervention anatomy from a ``CoreResult.stats`` (or
    ``RunSummary.stats``) mapping: episodes and total delay cycles for
    each gating hook."""
    out: Dict[str, Dict] = {}
    for hook, stem in HOOKS:
        out[hook] = {
            "interventions": int(
                stats.get(f"defense_{stem}_interventions", 0)),
            "delay_cycles": int(
                stats.get(f"defense_{stem}_delay_cycles", 0)),
        }
    return out


def transient_summary(stats: Mapping[str, float]) -> Dict[str, int]:
    """Transient-execution accounting from a stats mapping."""
    fetched = int(stats.get("fetched_uops", 0))
    committed = int(stats.get("committed_uops", 0))
    return {
        "fetched_uops": fetched,
        "issued_uops": int(stats.get("issued_uops", 0)),
        "committed_uops": committed,
        "squashed_uops": int(stats.get("squashed_uops", 0)),
        "transient_uops": max(0, fetched - committed),
        "squashes": int(stats.get("squashes", 0)),
        "squashes_conditional": int(stats.get("squashes_conditional", 0)),
        "squashes_indirect": int(stats.get("squashes_indirect", 0)),
        "squashes_return": int(stats.get("squashes_return", 0)),
    }


def histogram(stats: Mapping[str, float], prefix: str) -> Dict[str, int]:
    """Extract one bucketed histogram (``spec_depth`` or
    ``squash_cascade``) from a stats mapping, in bucket order."""
    from .pipeline import HIST_EDGES

    out: Dict[str, int] = {}
    for edge in HIST_EDGES:
        key = f"{prefix}_le_{edge}"
        out[f"<={edge}"] = int(stats.get(key, 0))
    out[f">{HIST_EDGES[-1]}"] = int(
        stats.get(f"{prefix}_gt_{HIST_EDGES[-1]}", 0))
    return out


# ---------------------------------------------------------------------
# Chrome-trace overlay (pid 2; merged by repro.uarch.trace.chrome_trace)
# ---------------------------------------------------------------------

#: Stable lane per hook on the intervention track.
_HOOK_LANE = {hook: lane for lane, (hook, _) in enumerate(HOOKS)}


def ledger_chrome_events(ledger: InterventionLedger,
                         label: str = "repro") -> List[Dict]:
    """Chrome-trace events for the intervention overlay: one complete
    slice per episode on pid 2, one lane per hook."""
    events: List[Dict] = [
        {"name": "process_name", "ph": "M", "pid": 2, "tid": 0,
         "args": {"name": f"{label}: defense interventions"}},
    ]
    for lane, (hook, _) in enumerate(HOOKS):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 2, "tid": lane,
            "args": {"name": f"may_{hook}"},
        })
    for event in ledger.events:
        events.append({
            "name": f"{event.hook}:{event.asm}",
            "cat": event.closed_by,
            "ph": "X",
            "ts": event.start,
            "dur": max(event.delay, 1),
            "pid": 2,
            "tid": _HOOK_LANE[event.hook],
            "args": {"seq": event.seq, "pc": event.pc,
                     "asm": event.asm, "hook": event.hook,
                     "delay": event.delay, "depth": event.depth,
                     "tainted": event.tainted,
                     "protected": event.protected,
                     "closed_by": event.closed_by},
        })
    return events
