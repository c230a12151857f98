"""Fig. 6: per-benchmark normalized runtimes of Protean-Track-ARCH/-CT
vs STT/SPT on the SPEC2017- and PARSEC-like suites."""

from repro.bench import SPEC, PARSEC, figure_6, geomean


def test_figure_6(benchmark, emit, quick_mode):
    names = SPEC[:4] if quick_mode else SPEC + PARSEC
    figure = benchmark.pedantic(figure_6, args=(names,),
                                rounds=1, iterations=1)
    emit("figure_6", figure.render())

    track_arch = geomean(e["track_arch"] for e in figure.data.values())
    stt = geomean(e["stt"] for e in figure.data.values())
    track_ct = geomean(e["track_ct"] for e in figure.data.values())
    spt = geomean(e["spt"] for e in figure.data.values())
    assert track_arch < stt * 1.01
    assert track_ct < spt * 1.01
