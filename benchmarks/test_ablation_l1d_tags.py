"""SIX-A3: the protection-tagged L1D is critical; a perfect shadow
memory helps only marginally beyond it."""

from repro.bench import l1d_tag_variants


def test_l1d_tag_variants(benchmark, emit):
    table = benchmark.pedantic(l1d_tag_variants, rounds=1, iterations=1)
    emit("ablation_l1d_tags", table.render())

    for clazz, entry in table.data.items():
        assert entry["none"] >= entry["l1d"] - 1e-9, clazz
        assert entry["l1d"] >= entry["perfect"] - 1e-9, clazz
    # Disabling memory tags must hurt measurably somewhere.
    assert any(e["none"] > e["l1d"] + 0.01 for e in table.data.values())
