"""Speculation-state queries (paper SII-B2): ATCOMMIT vs CONTROL."""

from repro.defenses.base import RECHECK_NEVER
from repro.isa import assemble
from repro.uarch import Core, P_CORE
from repro.uarch.config import SpeculationModel


def make_core(model, src, memory=None):
    config = P_CORE.replace(speculation_model=model)
    return Core(assemble(src).linked(), None, config, memory)


SRC = """
    movi r1, 0x9000
    load r2, [r1]
    cmpi r2, 0
    beq out
    addi r3, r3, 1
out:
    halt
"""


#: Three branches on one cold load's value: all three stay unresolved
#: in flight together for a while.
THREE_BRANCHES = """
    movi r1, 0x9000
    load r2, [r1]
    cmpi r2, 0
    beq first
first:
    cmpi r2, 1
    beq second
second:
    cmpi r2, 2
    beq out
out:
    halt
"""


def assert_window_is_the_bound(core):
    """``seq_nonspeculative`` is one comparison with ``nonspec_bound``,
    just below, at and just above the bound."""
    bound = core.nonspec_bound()
    for seq in (bound - 1, bound, bound + 1):
        assert core.seq_nonspeculative(seq) == (seq <= bound)


def test_atcommit_head_is_nonspeculative():
    core = make_core(SpeculationModel.ATCOMMIT, SRC)
    # The front end takes frontend_delay cycles to fill the ROB.
    for _ in range(8):
        core.step()
    head = core.rob.head
    assert head is not None
    assert core.seq_nonspeculative(head.seq)
    tail = core.rob.entries[-1]
    if tail is not head:
        assert not core.seq_nonspeculative(tail.seq)


def test_atcommit_bound_is_the_head_seq():
    core = make_core(SpeculationModel.ATCOMMIT, SRC)
    for _ in range(8):
        core.step()
    assert len(core.rob) > 1
    assert core.nonspec_bound() == core.rob.head.seq
    assert_window_is_the_bound(core)


def test_atcommit_bound_on_an_empty_rob_is_never():
    core = make_core(SpeculationModel.ATCOMMIT, "halt\n")
    assert len(core.rob) == 0
    assert core.nonspec_bound() == RECHECK_NEVER
    assert_window_is_the_bound(core)


def test_atcommit_committed_sequences_nonspeculative():
    core = make_core(SpeculationModel.ATCOMMIT, SRC)
    core.run()
    assert core.seq_nonspeculative(0)


def test_atcommit_empty_rob_everything_nonspeculative():
    core = make_core(SpeculationModel.ATCOMMIT, "halt\n")
    assert core.seq_nonspeculative(12345)


def test_control_branchless_code_never_speculative():
    src = "movi r1, 1\nadd r2, r1, r1\nmul r3, r2, r2\nhalt\n"
    core = make_core(SpeculationModel.CONTROL, src)
    for _ in range(8):
        core.step()
    # With no branches in flight, everything counts as non-speculative.
    for uop in core.rob:
        assert core.seq_nonspeculative(uop.seq)


def test_control_pending_branch_shields_younger():
    core = make_core(SpeculationModel.CONTROL, SRC)
    for _ in range(7):
        core.step()
    branches = [u for u in core.rob if u.is_branch and not u.resolved]
    if branches:
        branch = branches[0]
        assert not core.seq_nonspeculative(branch.seq + 1)
        assert core.seq_nonspeculative(branch.seq)


def test_control_bound_is_the_oldest_open_branch():
    core = make_core(SpeculationModel.CONTROL, THREE_BRANCHES)
    for _ in range(50):
        core.step()
        if len(core._inflight_branches) >= 3:
            break
    first, second, third = list(core._inflight_branches)[:3]
    assert not any(b.resolved or b.squashed for b in (first, second, third))
    assert core.nonspec_bound() == first.seq
    assert_window_is_the_bound(core)
    # Resolved and squashed branches no longer bound the window, even
    # before they are pruned from the queue.
    first.resolved = True
    assert core.nonspec_bound() == second.seq
    assert_window_is_the_bound(core)
    second.squashed = True
    assert core.nonspec_bound() == third.seq
    assert_window_is_the_bound(core)
    third.resolved = True
    assert len(core._inflight_branches) == 3
    assert core.nonspec_bound() == RECHECK_NEVER
    assert_window_is_the_bound(core)
    first.resolved = second.squashed = third.resolved = False


def test_control_bound_without_branches_is_never():
    src = "movi r1, 1\nadd r2, r1, r1\nmul r3, r2, r2\nhalt\n"
    core = make_core(SpeculationModel.CONTROL, src)
    for _ in range(8):
        core.step()
    assert len(core.rob) > 0
    assert core.nonspec_bound() == RECHECK_NEVER
    assert_window_is_the_bound(core)


def test_control_speculation_query_is_pure():
    # Regression: the CONTROL-model query used to prune resolved
    # branches from the in-flight list *inside* the read-only query,
    # so asking "is seq X speculative?" mutated speculation state.
    core = make_core(SpeculationModel.CONTROL, SRC)
    for _ in range(50):
        core.step()
        if core._inflight_branches:
            break
    assert core._inflight_branches, "expected an in-flight branch"
    front = core._inflight_branches[0]
    front.resolved = True  # resolved but not yet pruned
    before = list(core._inflight_branches)
    core.seq_nonspeculative(front.seq + 100)
    core.seq_nonspeculative(0)
    core.nonspec_bound()
    assert list(core._inflight_branches) == before
    front.resolved = False


def test_control_query_skips_resolved_branches():
    core = make_core(SpeculationModel.CONTROL, SRC)
    for _ in range(50):
        core.step()
        if core._inflight_branches:
            break
    front = core._inflight_branches[0]
    assert not core.seq_nonspeculative(front.seq + 1)
    front.resolved = True
    # With the only branch resolved, younger sequences are shielded by
    # nothing and the query must say non-speculative.
    assert core.seq_nonspeculative(front.seq + 1)
    front.resolved = False


def test_control_cheaper_than_atcommit_under_sptsb():
    from repro.defenses import SPTSB
    from repro.uarch import simulate
    from repro.workloads import get_workload

    w = get_workload("ossl.dh")
    atc = simulate(w.program, SPTSB(),
                   P_CORE.replace(
                       speculation_model=SpeculationModel.ATCOMMIT),
                   w.memory, w.regs)
    ctl = simulate(w.program, SPTSB(),
                   P_CORE.replace(
                       speculation_model=SpeculationModel.CONTROL),
                   w.memory, w.regs)
    assert ctl.cycles <= atc.cycles
