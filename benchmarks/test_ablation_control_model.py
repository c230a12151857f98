"""SIX-A6: the noncomprehensive CONTROL speculation model shortens
speculation windows, lowering every defense's overhead relative to
ATCOMMIT."""

from repro.bench import control_model


def test_control_model(benchmark, emit):
    table = benchmark.pedantic(control_model, rounds=1, iterations=1)
    emit("ablation_control_model", table.render())

    for label, entry in table.data.items():
        assert entry["control"] <= entry["atcommit"] + 0.02, label
