"""SIX-A7: the squash-notification security fix costs little
performance (the paper reports +1.5%/+11.4%/+1.6% for STT/SPT/SPT-SB,
before SPT's separate performance fix)."""

from repro.bench import bugfix_overhead


def test_bugfix_overhead(benchmark, emit):
    table = benchmark.pedantic(bugfix_overhead, rounds=1, iterations=1)
    emit("ablation_bugfix_overhead", table.render())

    for defense, entry in table.data.items():
        delta = entry["fixed"] - entry["buggy"]
        assert abs(delta) < 0.25, (defense, delta)
