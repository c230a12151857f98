"""The speculation observatory: per-intervention defense attribution.

The always-on aggregate telemetry (``issued_uops``, per-cause squash
counters, speculation-depth and squash-cascade histograms, per-hook
``defense_*_interventions`` / ``defense_*_delay_cycles``) lives in the
core itself and costs a few dict increments at sites the pipeline
already touches.  This module holds the record of one intervention
episode, :class:`InterventionEvent`, which an attached
:class:`~repro.uarch.trace.PipelineTracer` collects once per episode
(and overlays on its Chrome trace), plus the projections that reshape
a stats mapping for the CLI, the bench tables and forensics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from .pipeline import HIST_EDGES, HOOKS


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
    out: Dict[str, int] = {}
    for edge in HIST_EDGES:
        key = f"{prefix}_le_{edge}"
        out[f"<={edge}"] = int(stats.get(key, 0))
    out[f">{HIST_EDGES[-1]}"] = int(
        stats.get(f"{prefix}_gt_{HIST_EDGES[-1]}", 0))
    return out
