"""Tab. II: AMuLeT*-style security-contract fuzzing.  The unsafe
baseline must violate every contract; Protean (both mechanisms) must
show zero true-positive violations."""

from repro.bench import table_ii


def test_table_ii(benchmark, emit, quick_mode):
    kwargs = dict(n_programs=3, pairs=2) if quick_mode \
        else dict(n_programs=6, pairs=3)
    table = benchmark.pedantic(table_ii, kwargs=kwargs,
                               rounds=1, iterations=1)
    emit("table_ii", table.render())

    unsafe_total = 0
    for (contract, instr, label), result in table.data.items():
        if label == "Unsafe":
            unsafe_total += result.violations
        else:
            assert result.violations == 0, (contract, instr, label)
    assert unsafe_total > 0
