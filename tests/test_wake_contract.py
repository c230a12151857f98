"""The wake contract, checked on the reference engine.

The compiled engine stops asking a refused uop until the ROB head
reaches the gate's ``*_recheck_seq`` hint or a watched event fires (a
resolution under CONTROL; under SPT, a commit declassifying a register
the uop transmits).
That is cycle-exact only if the reference, which asks every cycle,
never sees such a refusal turn into an allow earlier.
:func:`~repro.uarch.refcore.wake_contract_violations` wraps the gates
of one reference run and lists every broken promise; a hint that fires
too late would otherwise surface only as an unexplained ``repro diff``
divergence.
"""

from dataclasses import replace

import pytest

from repro.bench.runner import DEFENSES
from repro.defenses import SPT, SPTSB, ProtTrack
from repro.defenses.base import RECHECK_NEVER
from repro.fixtures import FIXTURES, build
from repro.isa import assemble
from repro.uarch.config import P_CORE, SpeculationModel
from repro.uarch.refcore import (
    Case,
    grid_case,
    run_engines,
    wake_contract_violations,
    workload_cases,
)

CONFIGS = {
    "P": P_CORE,
    "P+CONTROL": P_CORE.replace(speculation_model=SpeculationModel.CONTROL),
    "P+squash-bug": P_CORE.replace(buggy_squash_notify=True),
}

#: The generated program runs its first cycles only: enough for a few
#: hundred refusals per defense at a tenth of a full run's cost.
RAND_CYCLES = 600


def _fixture(name, defense, config=P_CORE):
    program, memory = build(name)
    return Case(name, program, defense, config, memory)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("defense", sorted(DEFENSES))
def test_no_refusal_is_allowed_before_its_wake(defense, config):
    for name in FIXTURES:
        violations = wake_contract_violations(
            _fixture(name, DEFENSES[defense], CONFIGS[config]))
        assert not violations, (name, violations[:5])
    rand = replace(grid_case(defense, "rand", "P", 0), config=CONFIGS[config])
    violations = wake_contract_violations(rand, max_cycles=RAND_CYCLES)
    assert not violations, ("rand", violations[:5])


#: Workloads on which SPT refusals flip at a declassification before
#: the head reaches them (the fixtures and ``rand`` seed 0 have none).
DECLASSIFYING = ("mcf.s", "gcc.s", "canneal.p")


def _workload_violations(name, defense):
    case, = workload_cases((name,), ("spt",))
    return wake_contract_violations(replace(case, defense=defense))


@pytest.mark.parametrize("workload", DECLASSIFYING)
def test_spt_declassifications_wake_their_sleepers(workload):
    violations = _workload_violations(workload, SPT)
    assert not violations, violations[:5]


class _LateHint(SPTSB):
    """SPT-SB with every finite execute hint one seq too late."""

    def execute_recheck_seq(self, uop):
        seq = super().execute_recheck_seq(uop)
        return seq if seq >= RECHECK_NEVER else seq + 1


class _Unreported(SPT):
    """SPT that declassifies without reporting it."""

    def _make_public(self, preg):
        report, self.declassified = self.declassified, None
        try:
            super()._make_public(preg)
        finally:
            self.declassified = report


class _Flapping(ProtTrack):
    """Allows a load once, then refuses it again."""

    def __init__(self):
        super().__init__()
        self._asked = set()

    def may_execute(self, uop):
        if not uop.is_load:
            return super().may_execute(uop)
        if uop.seq in self._asked:
            return self.nonspeculative(uop)
        self._asked.add(uop.seq)
        return True


def test_checker_flags_a_late_hint():
    violations = wake_contract_violations(_fixture("v1-gadget", _LateHint))
    assert violations
    assert all(v.startswith("may_execute allowed") for v in violations)


def test_checker_flags_an_unreported_declassification():
    violations = _workload_violations("mcf.s", _Unreported)
    assert violations
    assert all(" allowed seq " in v for v in violations)


#: The second branch reuses the first one's secret flags: SPT refuses
#: its resolution until the first branch commits and declassifies
#: them, while the load between them (secret address: it runs only at
#: the head, then misses) keeps it from the head.  No workload needs
#: this wake at the resolve gate.
SHARED_FLAGS = """
main:
    movi r1, 0x1000
    movi r5, 0x40000
    load r2, [r1]
    cmpi r2, 7
    beq first
first:
    load r6, [r5 + r2]
    bne second
second:
    halt
"""


def test_spt_branch_resolves_at_declassification():
    case = Case("shared-flags", assemble(SHARED_FLAGS).linked(), SPT)
    flagged = wake_contract_violations(replace(case, defense=_Unreported))
    assert flagged
    assert all(v.startswith("may_resolve allowed") for v in flagged)
    assert not wake_contract_violations(case)
    run_engines(case)[1].raise_if_different()


def test_checker_flags_a_refusal_after_an_allow():
    violations = wake_contract_violations(_fixture("v1-gadget", _Flapping))
    assert any("after allowing it" in v for v in violations)
