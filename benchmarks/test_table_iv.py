"""Tab. IV: geomean normalized runtime of all eight Protean
single-class configurations on SPEC2017-like (P- and E-core) and
PARSEC-like suites, against the class-targeting secure baselines.

Expected shapes: Protean-Track-ARCH well under STT; Protean under SPT
for CTS/CT; Protean-UNR under SPT-SB; E-core overheads below P-core
(shorter speculation windows, paper SIX-A5)."""

from repro.bench import table_iv
from repro.bench.runner import RunSpec
from repro.uarch.pipeline import simulate
from repro.workloads import get_workload
from repro.defenses import AccessTrack


def test_table_iv(benchmark, emit, quick_mode):
    cores = ("P",) if quick_mode else ("P", "E")
    table = table_iv(cores=cores, include_parsec=not quick_mode)
    emit("table_iv", table.render())

    for (clazz, suite), entry in table.data.items():
        assert entry["track"] <= entry["baseline"] * 1.02, (clazz, suite)
        assert entry["delay"] <= entry["baseline"] * 1.05, (clazz, suite)

    if not quick_mode:
        # E-core speculation windows are shorter: lower defense overheads.
        for clazz in ("arch", "unr"):
            p_core = table.data[(clazz, "SPEC2017 P-core")]
            e_core = table.data[(clazz, "SPEC2017 E-core")]
            assert e_core["baseline"] <= p_core["baseline"] * 1.05

    workload = get_workload("mcf.s")
    benchmark.pedantic(
        lambda: simulate(workload.program, AccessTrack(),
                         RunSpec(workload="mcf.s").core_config(),
                         workload.memory, workload.regs),
        rounds=1, iterations=1)
