"""ProtTrack mechanism details: the secure fallbacks of SVI-B2b/c."""

from repro.defenses import ProtTrack
from repro.isa import assemble
from repro.uarch import Core, P_CORE, PipelineTracer, simulate
from repro.uarch.refcore import ENGINE_PAIR, compare_results


def run_track(src, memory=None):
    defense = ProtTrack()
    core = Core(assemble(src).linked(), defense, P_CORE, memory,
                tracer=PipelineTracer())
    result = core.run()
    assert result.halt_reason == "halt"
    return core, defense


def committed(core):
    """The run's committed uops, from its tracer."""
    return [u for u in core.tracer.uops if u.committed]


def test_tainted_store_forwarding_gates_wakeup():
    # An untainted load forwarding from a store of tainted data must not
    # wake dependents until the store's data untaints (SVI-B2c).  The
    # reload is untainted only once the access predictor has learned
    # that its PC never reads protected memory, so the program loops.
    # Each iteration fences (older iterations retire and train the
    # predictor), parks two chained cold loads at the ROB head, loads a
    # fresh never-written (protected) line into r1, spills it, and
    # reloads it through store forwarding while r1 is still tainted.
    src = """
        movi r9, 0x7000        ; protected region (never written)
        movi r8, 0x4000        ; spill slot
        movi r10, 0x9000       ; cold lines for the head blockers
        movi r6, 0
    loop:
        mfence
        load r0, [r10]         ; chained cold loads hold the ROB head
        load r0, [r10 + r0 + 64]
        load r1, [r9]          ; tainted (reads protected memory)
        store [r8], r1         ; spill tainted data
        load r2, [r8]          ; forwards from the tainted store
        add r3, r2, r2         ; waits for the gated wakeup
        addi r9, r9, 64
        addi r10, r10, 128
        addi r6, r6, 1
        cmpi r6, 4
        blt loop
        halt
    """
    program = assemble(src).linked()
    results = {engine: simulate(program, ProtTrack(), P_CORE, engine=engine)
               for engine in ENGINE_PAIR}
    for engine, result in results.items():
        assert result.halt_reason == "halt", engine
        assert result.stats["defense_wakeup_interventions"] > 0, engine
    compare_results(results["compiled"], results["ref"]).raise_if_different()


def test_predictor_predictive_untainting():
    # After training, loads of unprotected memory leave outputs clean.
    src = """
        movi r8, 0x4000
        movi r6, 0
    p:
        movi r7, 0
    w:
        load r0, [r8 + r7]
        addi r7, r7, 8
        cmpi r7, 128
        blt w
        addi r6, r6, 1
        cmpi r6, 3
        blt p
        load r1, [r8]
        halt
    """
    core, defense = run_track(src)
    warm_loads = [u for u in committed(core) if u.pc == 3]
    # First encounter of the PC conservatively predicts *access*...
    assert not warm_loads[0].predicted_no_access
    # ...later ones are predictively untainted.
    assert warm_loads[-1].predicted_no_access
    assert core.prf.yrot[warm_loads[-1].pdests[0][1]] is None
    # A never-seen load PC stays conservative (cold entries mean
    # "access", the safe default).
    cold_load = next(u for u in committed(core) if u.pc == 10)
    assert not cold_load.predicted_no_access


def test_prot_prefixed_load_not_tainted():
    core, defense = run_track("""
        movi r8, 0x7000
        prot load r1, [r8]
        halt
    """)
    load = next(u for u in committed(core) if u.pc == 1)
    preg = load.pdests[0][1]
    assert core.prf.prot[preg]
    assert core.prf.yrot[preg] is None


def test_raw_accesstrack_taints_all_loads():
    defense = ProtTrack(use_predictor=False)
    src = """
        movi r8, 0x4000
        load r0, [r8]
        load r1, [r8]
        halt
    """
    core = Core(assemble(src).linked(), defense, P_CORE,
                tracer=PipelineTracer())
    core.run()
    for pc in (1, 2):
        uop = next(u for u in committed(core) if u.pc == pc)
        assert core.prf.yrot[uop.pdests[0][1]] == uop.seq
