"""SIX-A2: ProtCC instrumentation overhead with protections disabled.
The paper reports single-digit-to-20% code size and <6% runtime
overheads; ProtCC-CT inserts the most identity moves."""

from repro.bench import protcc_overhead


def test_protcc_overhead(benchmark, emit):
    table = benchmark.pedantic(protcc_overhead, rounds=1, iterations=1)
    emit("ablation_protcc_overhead", table.render())

    for clazz, entry in table.data.items():
        assert entry["runtime"] < 1.25, clazz
        assert entry["code_size"] < 1.6, clazz
    # CT inserts identity moves on edges: largest code growth.
    assert table.data["ct"]["code_size"] >= table.data["unr"]["code_size"]
