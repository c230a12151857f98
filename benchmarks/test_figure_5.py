"""Fig. 5: ProtTrack access-predictor sensitivity.  A 1024-entry
predictor should land within a small margin of an infinitely-sized
one, in both misprediction rate and runtime overhead (the paper reports
within 0.6% / 0.2%)."""

from repro.bench import figure_5
from repro.bench.tables import SPEC_INT_FAST


def test_figure_5(benchmark, emit, quick_mode):
    sweep = (2, 1024, "inf") if quick_mode \
        else (2, 4, 16, 256, 1024, "inf")
    names = SPEC_INT_FAST[:3] if quick_mode else SPEC_INT_FAST
    figure = benchmark.pedantic(figure_5, args=(sweep, names),
                                rounds=1, iterations=1)
    emit("figure_5", figure.render())

    chosen = figure.data[1024]
    infinite = figure.data["inf"]
    assert abs(chosen["mispredict_rate"]
               - infinite["mispredict_rate"]) < 0.02
    assert abs(chosen["overhead"] - infinite["overhead"]) < 0.02
    # Tiny predictors alias and should mispredict at least as often.
    smallest = figure.data[sweep[0]]
    assert smallest["mispredict_rate"] >= infinite["mispredict_rate"] - 1e-9
