"""Campaign telemetry and forensics artifact emission.

Two pieces:

* :class:`CampaignReporter` — a JSONL event log.  Pass its
  :meth:`~CampaignReporter.on_program` bound method as the
  ``on_program`` hook of :func:`repro.fuzzing.run_campaign` and every
  per-program outcome (counts + wall time) lands as one JSON line,
  bracketed by ``campaign_start`` / ``campaign_end`` events.
* :func:`write_forensics_report` — turn a finished
  ``CampaignResult`` (run with ``collect_witnesses=True``) into a
  report directory: one ``witness-*.json`` per violation (minimized
  when possible), plus a human-readable ``REPORT.md`` with the
  disassembly, the first divergent observation, and the transmitter
  explanation for each.
"""

from __future__ import annotations

import json
import logging
import pathlib
import time
from typing import List, Optional, TextIO, Union

from ..metrics.telemetry import current
from .explain import explain_witness
from .minimize import DEFAULT_MAX_CHECKS, minimize_witness
from .witness import LeakWitness, WitnessError

logger = logging.getLogger(__name__)


class CampaignReporter:
    """Appends one JSON object per event to ``<path>`` (JSONL).

    With a span recorder attached, every event also carries the current
    ``trace_id``/``span_id``, so JSONL telemetry lines can be joined
    against the merged campaign trace.
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._stream: Optional[TextIO] = self.path.open("a")

    def _emit(self, event: str, **payload) -> None:
        if self._stream is None:  # pragma: no cover - use after close
            raise ValueError("reporter is closed")
        record = {"event": event, "time": round(time.time(), 3), **payload}
        recorder = current().recorder
        span = recorder.current() if recorder is not None else None
        if span is not None:
            record.setdefault("trace_id", span.trace_id)
            record.setdefault("span_id", span.span_id)
        self._stream.write(json.dumps(record, sort_keys=True) + "\n")
        self._stream.flush()

    def campaign_start(self, config, jobs: int) -> None:
        self._emit(
            "campaign_start",
            contract=config.contract.value,
            instrumentation=config.instrumentation,
            defense=config.defense_name,
            n_programs=config.n_programs,
            pairs_per_program=config.pairs_per_program,
            seed=config.seed,
            jobs=jobs,
        )

    def on_program(self, program_seed: int, partial) -> None:
        """``run_campaign``'s per-program telemetry hook."""
        self._emit(
            "program",
            program_seed=program_seed,
            tests=partial.tests,
            violations=partial.violations,
            false_positives=partial.false_positives,
            invalid_pairs=partial.invalid_pairs,
            invalid_nonterminating=partial.invalid_nonterminating,
            invalid_distinguishable=partial.invalid_distinguishable,
            invalid_hw_timeout=partial.invalid_hw_timeout,
            wall_time=round(partial.wall_time, 6),
        )

    def campaign_end(self, result) -> None:
        self._emit(
            "campaign_end",
            tests=result.tests,
            violations=result.violations,
            false_positives=result.false_positives,
            invalid_pairs=result.invalid_pairs,
            witnesses=len(result.witnesses),
            wall_time=round(result.wall_time, 6),
            summary=result.summary(),
        )

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "CampaignReporter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Forensics report emission
# ----------------------------------------------------------------------

def _witness_stem(witness: LeakWitness, index: int) -> str:
    seed = witness.program_seed if witness.program_seed is not None else index
    pair = witness.pair_index if witness.pair_index is not None else 0
    return f"witness-{seed}-{pair}-{witness.adversary}"


def _witness_section(witness: LeakWitness, explanation,
                     problems: List[str]) -> List[str]:
    lines = [f"## {witness.describe()}", ""]
    if witness.minimized:
        lines.append(f"Minimized from {witness.original_len} to "
                     f"{len(witness.instructions)} instructions.")
        lines.append("")
    if explanation is not None:
        lines.append(f"**{explanation.headline()}**")
        lines.append("")
        lines.append("```")
        lines.append(explanation.render())
        lines.append("```")
    elif witness.divergence is not None:
        div = witness.divergence_obj()
        lines.append(f"First divergent observation: {div.describe()}")
    for problem in problems:
        lines.append("")
        lines.append(f"> note: {problem}")
    lines.extend(["", "```asm", witness.asm.rstrip(), "```", ""])
    return lines


def write_forensics_report(
    result,
    report_dir: Union[str, pathlib.Path],
    minimize: bool = True,
    explain: bool = True,
    max_checks: int = DEFAULT_MAX_CHECKS,
    title: str = "Leak forensics",
    anatomy: Optional[str] = None,
) -> List[pathlib.Path]:
    """Emit witness JSONs + ``REPORT.md`` for every captured witness in
    ``result`` (a ``CampaignResult`` run with ``collect_witnesses``).

    Returns the written paths (witness files first, report last).  A
    witness that fails to minimize or explain (e.g. its defense factory
    has no registry name) is still written verbatim, with the problem
    noted in the report.  ``anatomy``, when given, is a pre-rendered
    overhead-anatomy table (see
    :func:`repro.bench.tables.speculation_anatomy`) appended as its own
    section — where the fuzzed defense spends its intervention budget.
    """
    report_dir = pathlib.Path(report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    written: List[pathlib.Path] = []
    sections: List[str] = []
    for index, payload in enumerate(result.witnesses):
        witness = LeakWitness.from_dict(payload)
        problems: List[str] = []
        if minimize:
            try:
                witness = minimize_witness(witness, max_checks=max_checks)
            except WitnessError as exc:
                problems.append(f"minimization skipped: {exc}")
                logger.warning("minimization skipped for %s: %s",
                               _witness_stem(witness, index), exc)
        explanation = None
        if explain:
            try:
                explanation = explain_witness(witness)
            except WitnessError as exc:
                problems.append(f"explanation skipped: {exc}")
                logger.warning("explanation skipped for %s: %s",
                               _witness_stem(witness, index), exc)
        path = report_dir / f"{_witness_stem(witness, index)}.json"
        witness.save(path)
        written.append(path)
        if explanation is not None:
            explanation_path = path.with_suffix(".explain.json")
            explanation_path.write_text(
                json.dumps(explanation.to_dict(), indent=2, sort_keys=True)
                + "\n")
            written.append(explanation_path)
        sections.extend(_witness_section(witness, explanation, problems))

    report = [f"# {title}", "", result.summary(), ""]
    if not result.witnesses:
        report.append("No witnesses captured (no violations, or the "
                      "campaign ran without `collect_witnesses`).")
        report.append("")
    report.extend(sections)
    if anatomy:
        report.extend(["## Overhead anatomy", "",
                       "```", anatomy.rstrip(), "```", ""])
    report_path = report_dir / "REPORT.md"
    report_path.write_text("\n".join(report))
    written.append(report_path)
    logger.info("wrote %d forensics artifacts to %s", len(written),
                report_dir)
    return written
