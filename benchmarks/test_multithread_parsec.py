"""Multi-threaded PARSEC-like runs on the hybrid multi-core substrate
(paper SVIII-A4): 4 threads over 2 P-cores + 2 E-cores, shared L3,
write-invalidation coherence.  The single-class story must survive
threading: Protean-UNR well under SPT-SB (SIX-A1)."""

from repro.bench import geomean, render_table
from repro.defenses import ProtDelay, ProtTrack, SPTSB, Unsafe
from repro.protcc import compile_program
from repro.uarch import simulate_mt
from repro.workloads import get_workload

MT = ("blackscholes.mt", "swaptions.mt", "canneal.mt")


def _norm(name, factory, instrument=None):
    w = get_workload(name)
    program = w.program if instrument is None else \
        compile_program(w.program, instrument).program
    base = simulate_mt(w.program, Unsafe, w.memory, threads=4, p_cores=2)
    this = simulate_mt(program, factory, w.memory, threads=4, p_cores=2)
    assert all(h == "halt" for h in this.halt_reasons)
    return this.cycles / base.cycles


def test_multithread_parsec(benchmark, emit):
    rows = []
    data = {}
    for name in MT:
        sptsb = _norm(name, SPTSB)
        delay = _norm(name, ProtDelay, "unr")
        track = _norm(name, ProtTrack, "unr")
        rows.append([name, sptsb, delay, track])
        data[name] = (sptsb, delay, track)
    rows.append(["geomean",
                 geomean(v[0] for v in data.values()),
                 geomean(v[1] for v in data.values()),
                 geomean(v[2] for v in data.values())])
    text = render_table(
        "Multi-threaded PARSEC (4 threads, 2P+2E, shared L3): "
        "SPT-SB vs Protean-UNR",
        ["benchmark", "SPT-SB", "Delay-UNR", "Track-UNR"], rows)
    emit("multithread_parsec", text)

    for name, (sptsb, delay, track) in data.items():
        assert track <= sptsb, name
        assert delay <= sptsb, name

    w = get_workload("blackscholes.mt")
    benchmark.pedantic(
        lambda: simulate_mt(w.program, SPTSB, w.memory, threads=4,
                            p_cores=2),
        rounds=1, iterations=1)
