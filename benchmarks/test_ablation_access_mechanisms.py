"""SIX-A4: raw AccessDelay/AccessTrack applied directly to ProtISA
ProtSets (no selective wakeup, no access predictor) are slower than
ProtDelay/ProtTrack."""

from repro.bench import access_mechanisms


def test_access_mechanisms(benchmark, emit):
    table = benchmark.pedantic(access_mechanisms, rounds=1, iterations=1)
    emit("ablation_access_mechanisms", table.render())

    for clazz, entry in table.data.items():
        assert entry["AccessDelay"] >= entry["ProtDelay"] - 1e-9, clazz
        assert entry["AccessTrack"] >= entry["ProtTrack"] - 1e-9, clazz
    # The optimizations must matter somewhere.
    assert any(e["AccessTrack"] > e["ProtTrack"] + 0.01
               or e["AccessDelay"] > e["ProtDelay"] + 0.01
               for e in table.data.values())
