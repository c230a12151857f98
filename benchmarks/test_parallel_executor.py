"""Parallel executor equivalence on real paper tables.

Serial and parallel runs of the same table/figure must render
byte-identically, and a warm-cache rerun must perform zero simulations
(the acceptance bar for the persistent result cache).  Runs the
reduced matrices under ``REPRO_QUICK=1``; the full ones otherwise.
"""

from repro.bench import clear_caches, figure_5, table_iv
from repro.bench import executor
from repro.bench.tables import SPEC_INT_FAST


def _figure_5_kwargs(quick_mode):
    if quick_mode:
        return dict(entry_sweep=(2, 1024, "inf"), names=SPEC_INT_FAST[:3])
    return {}


def test_figure_5_parallel_vs_serial(monkeypatch, tmp_path, emit,
                                     quick_mode):
    kwargs = _figure_5_kwargs(quick_mode)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    clear_caches()
    serial = figure_5(jobs=1, **kwargs)
    serial_stats = executor.LAST_BATCH

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
    clear_caches()
    parallel = figure_5(jobs=4, **kwargs)
    parallel_stats = executor.LAST_BATCH

    assert serial.render() == parallel.render()
    assert serial.data == parallel.data
    assert parallel_stats.simulated == serial_stats.simulated

    # A warm-cache rerun performs zero simulations.
    clear_caches()
    warm = figure_5(jobs=4, **kwargs)
    assert executor.LAST_BATCH.simulated == 0
    assert executor.LAST_BATCH.disk_hits == executor.LAST_BATCH.total
    assert warm.render() == serial.render()
    emit("parallel_executor_figure_5", warm.render())


def test_table_iv_parallel_and_warm_cache(monkeypatch, tmp_path,
                                          emit, quick_mode):
    cores = ("P",) if quick_mode else ("P", "E")
    kwargs = dict(cores=cores, include_parsec=not quick_mode)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_caches()
    parallel = table_iv(jobs=4, **kwargs)
    assert executor.LAST_BATCH.simulated > 0

    # Serial rerun against the same cache: byte-identical and free.
    clear_caches()
    serial = table_iv(jobs=1, **kwargs)
    assert executor.LAST_BATCH.simulated == 0
    assert serial.render() == parallel.render()
    emit("parallel_executor_table_iv", serial.render())
