"""Tab. V: single-class suites and multi-class nginx (paper SIX-B/C).

Expected shape: Protean (both mechanisms) beats the most performant
applicable secure baseline on every suite geomean, with ProtTrack <=
ProtDelay, and the nginx gap large (the paper reports Protean at
roughly one-third to one-fifth of SPT-SB's overhead)."""

from repro.bench import table_v
from repro.bench.runner import RunSpec
from repro.uarch.pipeline import simulate
from repro.workloads import get_workload
from repro.defenses import SPTSB


def test_table_v(benchmark, emit):
    table = table_v()
    emit("table_v", table.render())

    for suite in ("arch-wasm", "cts-crypto", "ct-crypto", "unr-crypto",
                  "nginx"):
        entry = table.data[f"{suite}:geomean"]
        assert entry["delay"] <= entry["baseline"] + 1e-9, suite
        assert entry["track"] <= entry["delay"] * 1.05, suite

    nginx = table.data["nginx:geomean"]
    protean_overhead = nginx["track"] - 1.0
    baseline_overhead = nginx["baseline"] - 1.0
    assert protean_overhead < 0.5 * baseline_overhead

    workload = get_workload("nginx.c2r2")
    benchmark.pedantic(
        lambda: simulate(workload.program, SPTSB(),
                         RunSpec(workload="nginx.c2r2").core_config(),
                         workload.memory, workload.regs),
        rounds=1, iterations=1)
