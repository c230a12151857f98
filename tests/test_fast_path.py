"""The compiled engine's fast-forward and sleeping uops (that they
engage, and that skipping cycles and re-asks changes no result), the
tracer pinning the reference interpreter, the stall-sum invariant on
both engines, and the no-forward-progress early abort."""

import pytest

from repro.bench.runner import DEFENSES
from repro.defenses import Defense
from repro.fixtures import build
from repro.isa import assemble
from repro.metrics import MetricsRegistry, attach
from repro.uarch import P_CORE, PipelineTracer, simulate
from repro.uarch.pipeline import ENGINES, Core
from repro.uarch.refcore import compare_results, grid_case


def stall_sum(result) -> int:
    return sum(v for k, v in result.stats.items()
               if k.startswith("stall_"))


def assert_stall_invariant(result, width=P_CORE.width) -> None:
    # Every commit-slot cycle is either a committed uop or an
    # attributed stall — including inside fast-forwarded windows.
    assert stall_sum(result) \
        == width * result.cycles - result.stats["committed_uops"]


class WedgeDefense(Defense):
    """Refuses every load forever: wedges the machine at the first
    load that reaches the ROB head."""

    name = "Wedge"

    def may_execute(self, uop):
        return not uop.is_load


# ----------------------------------------------------------------------
# Fast-forward engagement and accounting
# ----------------------------------------------------------------------

def _run_div_channel(engine, registry=None):
    from repro.defenses import SPTSB

    program, memory = build("div-channel")
    with attach(registry):
        return simulate(program, SPTSB(), P_CORE, memory, engine=engine)


def test_fast_forward_engages_on_stall_heavy_run():
    registry = MetricsRegistry()
    result = _run_div_channel("compiled", registry)
    assert result.halt_reason == "halt"
    counters = registry.snapshot()["counters"]
    assert counters.get("uarch.compiled_runs") == 1
    assert counters.get("uarch.fast_forward_jumps", 0) > 0
    assert counters.get("uarch.fast_forward_cycles", 0) > 0
    compare_results(result, _run_div_channel("ref")).raise_if_different()
    assert_stall_invariant(result)


def test_fast_forward_result_matches_reference():
    compiled = _run_div_channel("compiled")
    ref = _run_div_channel("ref")
    compare_results(compiled, ref).raise_if_different()
    assert_stall_invariant(compiled)
    assert_stall_invariant(ref)


@pytest.mark.parametrize("fixture", ["v1-gadget", "div-channel",
                                     "squash-bug"])
def test_stall_sum_invariant_both_engines(fixture):
    from repro.defenses import ProtTrack

    for engine in ENGINES:
        program, memory = build(fixture)
        result = simulate(program, ProtTrack(), P_CORE, memory,
                          engine=engine)
        assert result.halt_reason == "halt"
        assert_stall_invariant(result)


# ----------------------------------------------------------------------
# Sleeping uops are not asked
# ----------------------------------------------------------------------

def _count_asks(build_run, defense, gates):
    """Each engine's calls to ``gates``, after checking the two results
    agree.  A sleeper that wakes every cycle is invisible to ``repro
    diff``: results stay identical and only speed is lost.  The counting
    wrappers are instance attributes; the compiled engine judges hook
    liveness from the class, so the generated code calls them."""
    calls, results = {}, {}
    for engine in ENGINES:
        program, memory, regs = build_run()
        instance = DEFENSES[defense]()
        count = [0]
        for gate in gates:
            def counted(uop, original=getattr(instance, gate)):
                count[0] += 1
                return original(uop)

            setattr(instance, gate, counted)
        results[engine] = simulate(program, instance, P_CORE, memory, regs,
                                   engine=engine)
        calls[engine] = count[0]
    compare_results(results["compiled"], results["ref"]).raise_if_different()
    assert calls["ref"] > 0
    return calls


@pytest.mark.parametrize("fixture, defense, gate", [
    ("v1-gadget", "track", "may_execute"),
    ("squash-bug", "track", "may_resolve"),
    ("v1-gadget", "delay", "may_wakeup"),
])
def test_sleepers_skip_repeated_asks(fixture, defense, gate):
    calls = _count_asks(lambda: build(fixture) + (None,), defense, (gate,))
    assert 5 * calls["compiled"] <= calls["ref"], calls


def _generated(seed):
    """The ``rand``-class grid program for ``seed`` and its input."""
    case = grid_case("track", "rand", "P", seed)
    return case.program, case.memory, case.regs


def test_refused_uops_sleep_until_their_wake():
    # Seed 3 refuses at both gates: the reference asks them 175,511
    # times, a sleeper only when its wake condition fires.
    calls = _count_asks(lambda: _generated(3), "track",
                        ("may_execute", "may_resolve"))
    assert 20 * calls["compiled"] <= calls["ref"], calls


def test_spt_refusals_sleep_until_declassified():
    # SPT's refusals flip when the head reaches the uop or when a
    # commit declassifies a register it transmits; the reference asks
    # 174,894 times, and a sleeper woken at every commit 12,378 times.
    calls = _count_asks(lambda: _generated(3), "spt",
                        ("may_execute", "may_resolve"))
    assert 50 * calls["compiled"] <= calls["ref"], calls


def test_disambiguation_stalls_do_not_reask_the_gate():
    # Seed 2's loads stall on older stores' unknown addresses after the
    # gate allowed them; such a load is asked again only once those
    # stores have issued.
    calls = _count_asks(lambda: _generated(2), "track", ("may_execute",))
    assert 20 * calls["compiled"] <= calls["ref"], calls


# ----------------------------------------------------------------------
# An attached tracer pins the reference interpreter
# ----------------------------------------------------------------------

def test_tracer_pins_the_reference_and_sees_every_cycle():
    from repro.defenses import SPTSB

    program, memory = build("div-channel")
    tracer = PipelineTracer()
    registry = MetricsRegistry()
    with attach(registry):
        result = simulate(program, SPTSB(), P_CORE, memory, tracer=tracer,
                          engine="compiled")
    counters = registry.snapshot()["counters"]
    assert "uarch.compiled_runs" not in counters
    assert "uarch.fast_forward_jumps" not in counters
    # The tracer observed literally every simulated cycle: no
    # fast-forwarded window skipped past it.
    assert tracer.cycles_seen == result.cycles
    # And tracing did not perturb the simulation.
    untraced = simulate(program, None, P_CORE, build("div-channel")[1])
    traced_unsafe_tracer = PipelineTracer()
    traced = simulate(program, None, P_CORE, build("div-channel")[1],
                      tracer=traced_unsafe_tracer)
    compare_results(traced, untraced).raise_if_different()


# ----------------------------------------------------------------------
# No-forward-progress early abort
# ----------------------------------------------------------------------

def test_wedged_run_aborts_early_with_no_progress():
    for engine in ENGINES:
        program, memory = build("v1-gadget")
        result = simulate(program, WedgeDefense(), P_CORE, memory,
                          no_progress_limit=200, engine=engine)
        assert result.halt_reason == "no_progress", engine
        # Early: nowhere near the default 3M-cycle timeout budget.
        assert result.cycles < 2_000
        assert_stall_invariant(result)


def test_wedged_run_identical_across_engines():
    results = []
    for engine in ENGINES:
        program, memory = build("v1-gadget")
        results.append(simulate(program, WedgeDefense(), P_CORE, memory,
                                no_progress_limit=200, engine=engine))
    compare_results(*reversed(results)).raise_if_different()


def test_no_progress_limit_none_falls_back_to_timeout():
    for engine in ENGINES:
        program, memory = build("v1-gadget")
        result = simulate(program, WedgeDefense(), P_CORE, memory,
                          no_progress_limit=None, max_cycles=3_000,
                          engine=engine)
        assert result.halt_reason == "timeout", engine
        assert result.cycles == 3_000


def test_committing_runaway_still_times_out():
    # A spinning loop commits constantly: that is a timeout, not a
    # no-progress abort.
    program = assemble("""
main:
    movi r1, 0
spin:
    addi r1, r1, 1
    jmp spin
""").linked()
    for engine in ENGINES:
        result = simulate(program, None, P_CORE, max_cycles=2_000,
                          no_progress_limit=500, engine=engine)
        assert result.halt_reason == "timeout", engine
        assert result.cycles == 2_000


def test_wedged_state_classifies_as_no_progress():
    # Empty ROB, empty fetch buffer, dead frontend past any redirect:
    # the classifier must name the wedge rather than blame the frontend.
    program, memory = build("v1-gadget")
    core = Core(program, None, P_CORE, memory)
    core.fetch_pc = len(core.program)
    core.fetch_stalled_until = 0
    core.cycle = 10
    assert not core.fetch_buffer
    assert core._classify_stall(None) == "no_progress"


def test_frontend_stall_still_classified_when_redirect_pending():
    program, memory = build("v1-gadget")
    core = Core(program, None, P_CORE, memory)
    core.fetch_pc = len(core.program)
    core.fetch_stalled_until = 100
    core.cycle = 10
    assert core._classify_stall(None) == "fetch_redirect"
