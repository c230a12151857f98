"""Tab. I: the per-class overhead summary (derived from Tab. V, as in
the paper).  Protean targets every class at lower overhead than the
class's best prior defense."""

from repro.bench import table_i


def test_table_i(benchmark, emit):
    table = benchmark.pedantic(table_i, rounds=1, iterations=1)
    emit("table_i", table.render())

    for label, entry in table.data["classes"].items():
        assert entry["track"] <= entry["baseline"] + 1e-9, label
        assert entry["delay"] <= entry["baseline"] + 1e-9, label
