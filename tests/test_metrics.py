"""The metrics registry, its instrumentation sites, the profiler, and
the provenance stamp.

The headline invariants:

* a detached registry costs nothing — simulation results are identical
  with and without one, and ``Core.step`` itself contains no metrics
  code at all (accounting happens once per ``run()``);
* the profiler's subsystem map partitions every frame, so subsystem
  times sum exactly to the profile's total.
"""

import inspect
import json
import subprocess

import pytest

from repro.bench import RunSpec, clear_caches, run_batch
from repro.metrics import (
    MetricsRegistry,
    SpanRecorder,
    Timer,
    attach,
    classify_module,
    current,
    profile_spec,
    report_from_stats,
)
from repro.metrics.ledger import (
    current_git_sha,
    host_fingerprint,
    repo_root,
)
from repro.uarch import P_CORE, simulate
from repro.uarch.pipeline import Core
from repro.workloads import get_workload

FAST = RunSpec(workload="ossl.ecadd")


@pytest.fixture()
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_PROGRESS", "0")
    clear_caches()
    yield tmp_path / "cache"
    clear_caches()


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------

def test_counter_increments_and_rejects_decrease():
    registry = MetricsRegistry()
    counter = registry.counter("executor.specs")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError, match="cannot decrease"):
        counter.inc(-1)
    # create-on-first-use returns the same instance
    assert registry.counter("executor.specs") is counter


def test_gauge_last_write_wins():
    registry = MetricsRegistry()
    gauge = registry.gauge("fuzz.programs_per_sec")
    gauge.set(10)
    gauge.set(3.5)
    assert gauge.value == 3.5


def test_timer_aggregates():
    timer = Timer("t")
    for seconds in (0.005, 0.005, 0.05, 0.5):
        timer.observe(seconds)
    assert timer.count == 4
    assert timer.sum == pytest.approx(0.56)
    assert timer.min == 0.005
    assert timer.max == 0.5
    assert timer.mean == pytest.approx(0.14)


# ----------------------------------------------------------------------
# JSON snapshot and merge
# ----------------------------------------------------------------------

def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("executor.specs").inc(3)
    registry.gauge("uarch.sim_cycles_per_sec").set(1500.0)
    timer = registry.timer("executor.spec_seconds")
    timer.observe(0.05)
    timer.observe(0.5)
    return registry


def test_json_snapshot_shape():
    snapshot = json.loads(_sample_registry().to_json())
    assert snapshot["counters"] == {"executor.specs": 3}
    assert snapshot["gauges"] == {"uarch.sim_cycles_per_sec": 1500.0}
    timer = snapshot["timers"]["executor.spec_seconds"]
    assert timer["count"] == 2
    assert timer["sum"] == pytest.approx(0.55)


def test_merge_adds_counters_timers_and_keeps_the_last_gauge():
    first, second = _sample_registry(), _sample_registry()
    second.gauge("uarch.sim_cycles_per_sec").set(42.0)
    second.timer("executor.spec_seconds").observe(7.0)
    # Into a registry that already holds one sample's worth, and into
    # an empty one.
    for target, held in ((_sample_registry(), 1), (MetricsRegistry(), 0)):
        target.merge(first.snapshot())
        target.merge(second.snapshot())
        assert target.counter("executor.specs").value == 3 * held + 6
        assert target.gauge("uarch.sim_cycles_per_sec").value == 42.0
        timer = target.timer("executor.spec_seconds")
        assert timer.count == 2 * held + 5
        assert timer.max == 7.0 and timer.min == 0.05
        assert timer.sum == pytest.approx(0.55 * (held + 2) + 7.0)
    merged = MetricsRegistry()
    merged.merge(first.snapshot())
    assert merged.snapshot()["timers"] == first.snapshot()["timers"]


# ----------------------------------------------------------------------
# Attachment and the zero-overhead contract
# ----------------------------------------------------------------------

def test_attach_nests_and_restores():
    """One attach point for both halves: blocks nest, each restores
    the handle it replaced (also when the block raises), and a registry
    or a recorder attaches without the other."""
    detached = current()
    assert detached.registry is None and detached.recorder is None
    registry, recorder = MetricsRegistry(), SpanRecorder()
    with attach(registry, recorder) as outer:
        assert current() is outer
        assert outer.registry is registry
        assert outer.recorder is recorder
        with pytest.raises(RuntimeError, match="inside"):
            with attach(registry=MetricsRegistry()) as inner:
                assert current() is inner
                assert inner.registry is not registry
                assert inner.recorder is None
                raise RuntimeError("raised inside the block")
        assert current() is outer
        with attach(recorder=SpanRecorder()) as inner:
            assert current() is inner
            assert inner.registry is None
            assert inner.recorder is not recorder
        assert current() is outer
    assert current() is detached


def test_metrics_are_transparent_to_simulation():
    """Mirrors PR2's tracer-transparency test: attaching a registry
    must not perturb the simulation in any observable way."""
    w = get_workload("ossl.ecadd")
    from repro.defenses import SPTSB

    plain = simulate(w.program, SPTSB(), P_CORE, w.memory, w.regs)
    registry = MetricsRegistry()
    with attach(registry):
        measured = simulate(w.program, SPTSB(), P_CORE, w.memory, w.regs)
    assert plain.cycles == measured.cycles
    assert plain.stats == measured.stats
    assert registry.counter("uarch.sim_cycles").value == measured.cycles
    assert registry.counter("uarch.runs").value == 1
    assert registry.timer("uarch.run_seconds").count == 1


def test_core_step_has_no_metrics_code():
    """The acceptance criterion: the per-cycle hot path pays nothing.
    All metrics accounting lives in ``Core.run`` (once per simulation);
    ``step`` keeps exactly its one tracer None-check."""
    source = inspect.getsource(Core.step)
    assert "metrics" not in source
    assert source.count("is not None") == 1


# ----------------------------------------------------------------------
# Instrumentation sites
# ----------------------------------------------------------------------

def test_run_batch_publishes_counters(isolated_cache):
    registry = MetricsRegistry()
    with attach(registry):
        run_batch([FAST], jobs=1)
        run_batch([FAST], jobs=1)  # memory hit on the second pass
    counters = registry.snapshot()["counters"]
    assert counters["executor.batches"] == 2
    assert counters["executor.specs"] == 2
    assert counters["cache.misses"] == 1
    assert counters["cache.memory_hits"] == 1
    assert registry.timer("executor.batch_seconds").count == 2
    assert registry.timer("executor.spec_seconds").count == 1


def test_run_batch_parallel_records_queue_wait(isolated_cache):
    registry = MetricsRegistry()
    with attach(registry):
        run_batch([FAST, RunSpec(workload="ossl.ecadd",
                                 defense="spt-sb")], jobs=2)
    assert registry.timer("executor.spec_seconds").count == 2
    assert registry.timer("executor.queue_wait_seconds").count == 2
    assert registry.counter("cache.misses").value == 2


def test_campaign_publishes_throughput():
    from repro.fuzzing import CampaignConfig, run_campaign
    from repro.contracts import Contract

    registry = MetricsRegistry()
    config = CampaignConfig(defense_factory=None, defense_name="unsafe",
                            contract=Contract.CT_SEQ, n_programs=2,
                            pairs_per_program=2, program_size=12)
    with attach(registry):
        result = run_campaign(config, jobs=1)
    counters = registry.snapshot()["counters"]
    assert counters["fuzz.campaigns"] == 1
    assert counters["fuzz.programs"] == 2
    assert counters["fuzz.checks"] == result.tests + result.invalid_pairs
    assert registry.gauge("fuzz.checks_per_sec").value > 0


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------

def test_classify_module_rules():
    assert classify_module("/x/src/repro/uarch/pipeline.py") == "pipeline"
    assert classify_module("/x/src/repro/uarch/caches.py") == "caches"
    assert classify_module("/x/src/repro/defenses/spt.py") == \
        "defense-hooks"
    assert classify_module("/usr/lib/python3/enum.py") == "host-runtime"
    assert classify_module("~") == "host-runtime"
    assert classify_module("/x/src/repro/newthing.py") == "repro-other"
    assert classify_module("<repro-compiled:0123456789ab>") == "compiled"
    assert classify_module("<frozen importlib._bootstrap>") == "imports"


def test_profile_subsystems_sum_to_total(isolated_cache):
    report = profile_spec(FAST)
    assert report.cycles > 0
    assert report.total_s > 0
    assert sum(report.subsystems.values()) == pytest.approx(
        report.total_s, rel=1e-9)
    assert "pipeline" in report.subsystems
    rendered = report.render(5)
    assert "host time by subsystem" in rendered
    assert "pipeline" in rendered


def test_profile_collapsed_stacks(isolated_cache, tmp_path):
    report = profile_spec(FAST)
    out = report.write_collapsed(tmp_path / "stacks.txt")
    lines = out.read_text().splitlines()
    assert lines
    for line in lines:
        frame, _, micros = line.rpartition(" ")
        assert ";" in frame
        assert int(micros) > 0


def _profiled(calls):
    """Profile ``calls``: (filename, body) pairs, each compiled as a
    function ``f`` as if it lived in that file."""
    import cProfile
    import pstats

    functions = []
    for filename, body in calls:
        namespace = {}
        exec(compile(f"def f():\n    {body}\n", filename, "exec"),
             namespace)
        functions.append(namespace["f"])
    profile = cProfile.Profile()
    profile.enable()
    for function in functions:
        function()
    profile.disable()
    return report_from_stats(pstats.Stats(profile), label="x")


def test_report_from_stats_handles_builtins():
    # A built-in is charged to its callers' subsystems by their time.
    report = _profiled([
        ("/x/src/repro/uarch/pipeline.py", "sorted(range(20000))"),
        ("/x/src/repro/defenses/base.py", "sorted(range(10000))"),
        ("/usr/lib/python3/enum.py", "sorted(range(5000))"),
    ])
    sorts = {e.subsystem: e for e in report.entries
             if e.function == "<built-in>(<built-in method builtins.sorted>)"}
    assert set(sorts) == {"pipeline", "defense-hooks", "host-runtime"}
    assert all(entry.calls == 1 for entry in sorts.values())
    assert sorts["pipeline"].internal_s > sorts["host-runtime"].internal_s
    assert sum(report.subsystems.values()) == pytest.approx(
        report.total_s, rel=1e-9)


def test_report_from_stats_files_compiled_frames_by_closure():
    report = _profiled([("<repro-compiled:0123456789ab>", "any(())"),
                        ("<repro-compiled:ba9876543210>", "any(())")])
    compiled = [e for e in report.entries if e.subsystem == "compiled"]
    functions = {e.function: e.calls for e in compiled}
    # One entry per closure name, whichever artifact ran it.
    assert functions["<repro-compiled>(f)"] == 2
    assert functions["<built-in>(<built-in method builtins.any>)"] == 2
    assert set(report.subsystems) <= {"compiled", "host-runtime"}


def test_profile_sees_inside_compiled_code(isolated_cache):
    report = profile_spec(RunSpec(workload="ossl.ecadd", defense="track"))
    functions = {e.function for e in report.entries
                 if e.subsystem == "compiled"}
    assert {"<repro-compiled>(run)",
            "<repro-compiled>(try_exec)"} <= functions
    assert report.subsystems["compiled"] > 0
    assert report.subsystems.get("host-runtime", 0.0) \
        < 0.15 * report.total_s, report.render(10)


def test_profile_cli_smoke(isolated_cache, tmp_path, capsys):
    from repro.cli import main

    collapsed = tmp_path / "stacks.txt"
    assert main(["profile", "ossl.ecadd", "--top", "5",
                 "--collapsed", str(collapsed)]) == 0
    out = capsys.readouterr().out
    assert "host time by subsystem" in out
    assert collapsed.exists()
    assert main(["profile", "ossl.ecadd", "--defense", "nope"]) == 2


# ----------------------------------------------------------------------
# Provenance stamp (what perfbench records with each result)
# ----------------------------------------------------------------------

def test_host_fingerprint_is_stable():
    a, b = host_fingerprint(), host_fingerprint()
    assert a == b
    assert len(a["digest"]) == 16


def test_current_git_sha_names_head(monkeypatch):
    try:
        head = subprocess.run(
            ["git", "-C", str(repo_root()), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
        expected = head.stdout.strip() if head.returncode == 0 \
            else "unknown"
    except (OSError, subprocess.SubprocessError):
        expected = "unknown"
    assert current_git_sha() == expected

    def no_git(*args, **kwargs):
        raise OSError("git not installed")

    monkeypatch.setattr(subprocess, "run", no_git)
    assert current_git_sha() == "unknown"
