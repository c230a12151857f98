"""Adversary models (paper SII-C, SVII-B1d).

An adversary model defines what an attacker can recover from a victim's
microarchitectural execution.  Two models match AMuLeT / AMuLeT*:

* ``CACHE_TLB`` — the default AMuLeT adversary: post-mortem data-cache
  and TLB tag state (prime-and-probe style recovery).
* ``TIMING``    — the new AMuLeT* adversary: the cycle at which each
  committed instruction reaches each pipeline stage plus total runtime.
  This is the model that surfaced the division-latency channel and the
  squash-notification bug on gem5.

Besides the opaque :func:`observe` projection the checker compares for
equality, :func:`observe_labeled` produces the same view as a sequence
of *labeled* elements (cache level/set/tag, TLB page, per-stage timing
sample), and :func:`first_divergence` localizes the first element two
runs disagree on — the starting point of every leak-forensics report.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..uarch.pipeline import CoreResult
from ..uarch.uop import TIMING_FIELDS


class AdversaryModel(enum.Enum):
    CACHE_TLB = "cache_tlb"
    TIMING = "timing"


def observe(result: CoreResult, model: AdversaryModel) -> Tuple:
    """Project a finished run into the adversary's view."""
    if model is AdversaryModel.CACHE_TLB:
        return result.adversary_cache_state
    if model is AdversaryModel.TIMING:
        return (result.cycles, tuple(result.timing_trace))
    raise ValueError(f"unknown adversary model: {model!r}")


ALL_MODELS = (AdversaryModel.CACHE_TLB, AdversaryModel.TIMING)


# ----------------------------------------------------------------------
# Structured (labeled) observations and divergence localization
# ----------------------------------------------------------------------

#: Names of the cache levels in ``CoreResult.adversary_cache_state``
#: order (paper Tab. III hierarchy; the TLB rides last).
CACHE_LEVELS = ("l1d", "l2", "l3")

#: Per-stage timestamp labels of a ``CoreResult.timing_trace`` tuple
#: (pc rides in slot 0; the stages follow), from ``TIMING_FIELDS``.
TIMING_STAGES = tuple(name[:-len("_cycle")] for name in TIMING_FIELDS[1:])


@dataclass(frozen=True)
class ObservationElement:
    """One labeled element of an adversary observation.

    ``kind`` says what class of element this is; ``location`` pins it
    down within its class:

    * ``cache_tag``  — location ``(level, set_index, line_addr)``
    * ``tlb_page``   — location ``(page,)``
    * ``cycles``     — location ``()`` (total runtime)
    * ``stage_time`` — location ``(commit_index, pc, stage)``
    """

    kind: str
    location: Tuple
    value: object

    @property
    def label(self) -> str:
        if self.kind == "cache_tag":
            level, set_index, line = self.location
            return f"{level} set {set_index} line 0x{line:x}"
        if self.kind == "tlb_page":
            return f"tlb page 0x{self.location[0]:x}"
        if self.kind == "cycles":
            return "total cycles"
        index, pc, stage = self.location
        return f"commit[{index}] pc={pc} {stage}"


def observe_labeled(result: CoreResult,
                    model: AdversaryModel) -> Tuple[ObservationElement, ...]:
    """The structured variant of :func:`observe`: the same view, but
    with every element labeled so a checker (or a human) can say *which*
    observation leaked, not just that the tuples differ."""
    elements = []
    if model is AdversaryModel.CACHE_TLB:
        state = result.adversary_cache_state
        for level, tags in zip(CACHE_LEVELS, state):
            for set_index, line in sorted(tags):
                elements.append(ObservationElement(
                    "cache_tag", (level, set_index, line), "present"))
        for page in sorted(state[-1]):
            elements.append(ObservationElement(
                "tlb_page", (page,), "present"))
        return tuple(elements)
    if model is AdversaryModel.TIMING:
        elements.append(ObservationElement("cycles", (), result.cycles))
        for index, sample in enumerate(result.timing_trace):
            pc = sample[0]
            for stage, cycle in zip(TIMING_STAGES, sample[1:]):
                elements.append(ObservationElement(
                    "stage_time", (index, pc, stage), cycle))
        return tuple(elements)
    raise ValueError(f"unknown adversary model: {model!r}")


@dataclass(frozen=True)
class Divergence:
    """The first adversary-visible element two runs disagree on."""

    adversary: str
    kind: str
    location: Tuple
    value_a: object
    value_b: object

    @property
    def label(self) -> str:
        return ObservationElement(self.kind, self.location, None).label

    def describe(self) -> str:
        return (f"{self.label}: {self.value_a!r} != {self.value_b!r} "
                f"(adversary: {self.adversary})")

    def to_dict(self) -> Dict:
        return {"adversary": self.adversary, "kind": self.kind,
                "location": list(self.location),
                "value_a": self.value_a, "value_b": self.value_b}

    @classmethod
    def from_dict(cls, payload: Dict) -> "Divergence":
        return cls(adversary=payload["adversary"], kind=payload["kind"],
                   location=tuple(payload["location"]),
                   value_a=payload["value_a"], value_b=payload["value_b"])


def first_divergence(result_a: CoreResult, result_b: CoreResult,
                     model: AdversaryModel) -> Optional[Divergence]:
    """Localize the first observation element that distinguishes two
    runs under ``model``, or None if the views are identical.

    Cache/TLB state is a *set* of tags, so "first" means the smallest
    ``(level, set, line)`` present in exactly one run.  Timing traces
    are ordered, so "first" is the earliest committed-instruction stage
    sample (or the total cycle count) that differs.
    """
    obs_a = observe_labeled(result_a, model)
    obs_b = observe_labeled(result_b, model)
    if model is AdversaryModel.CACHE_TLB:
        map_a = {(e.kind, e.location): e.value for e in obs_a}
        map_b = {(e.kind, e.location): e.value for e in obs_b}
        for kind, location in sorted(set(map_a) | set(map_b)):
            value_a = map_a.get((kind, location), "absent")
            value_b = map_b.get((kind, location), "absent")
            if value_a != value_b:
                return Divergence(model.value, kind, location,
                                  value_a, value_b)
        return None
    for element_a, element_b in zip(obs_a, obs_b):
        if (element_a.kind, element_a.location) != \
                (element_b.kind, element_b.location):
            # Streams diverged structurally (different committed pcs):
            # report the position itself.
            return Divergence(model.value, element_a.kind,
                              element_a.location,
                              element_a.label, element_b.label)
        if element_a.value != element_b.value:
            return Divergence(model.value, element_a.kind,
                              element_a.location,
                              element_a.value, element_b.value)
    if len(obs_a) != len(obs_b):
        return Divergence(model.value, "cycles", (),
                          f"{len(obs_a)} elements", f"{len(obs_b)} elements")
    return None
