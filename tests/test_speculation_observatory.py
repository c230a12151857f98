"""The speculation observatory (always-on telemetry + traced episodes).

Three layers under test:

* the always-on aggregates — transient-uop accounting, speculation
  histograms, and per-hook intervention episode counters — must be
  present and internally consistent in every engine's result, must
  cost nothing when no defense hook is live, and must reach an
  attached metrics registry identically from both engines;
* the intervention events an attached :class:`PipelineTracer` records
  must honour its zero-overhead attach contract (``Core.step`` makes
  one ``is not None`` check, a traced run is byte-identical) and must
  agree event-by-event with the aggregate counters;
* the projection helpers (``intervention_summary``,
  ``transient_summary``, ``histogram``, the Chrome-trace intervention
  track, the ``speculation_anatomy`` table, the ``repro speculation``
  and ``repro trace`` CLIs) must faithfully reshape the same numbers.
"""

import collections
import dataclasses
import inspect
import json

import pytest

from repro.bench.runner import DEFENSES
from repro.fixtures import build
from repro.metrics import MetricsRegistry, attached
from repro.uarch import P_CORE, simulate
from repro.uarch.pipeline import HIST_EDGES, HOOKS, Core, hist_key
from repro.uarch.refcore import REQUIRED_TELEMETRY
from repro.uarch.speculation import (
    histogram,
    intervention_summary,
    transient_summary,
)
from repro.uarch.trace import PipelineTracer, chrome_trace

HOOK_STEMS = tuple(stem for _, stem in HOOKS)


def run_fixture(fixture="v1-gadget", defense="track", **kwargs):
    program, memory = build(fixture)
    return simulate(program, DEFENSES[defense](), P_CORE, memory,
                    **kwargs)


def traced_fixture(fixture="v1-gadget", defense="track", **kwargs):
    tracer = PipelineTracer(**kwargs)
    result = run_fixture(fixture, defense, tracer=tracer)
    return result, tracer


def pid2_slices(trace):
    return [e for e in trace["traceEvents"]
            if e.get("pid") == 2 and e["ph"] == "X"]


# ----------------------------------------------------------------------
# Always-on aggregates
# ----------------------------------------------------------------------

def test_hist_key_bucket_edges():
    assert hist_key("spec_depth", 0) == "spec_depth_le_1"
    assert hist_key("spec_depth", 1) == "spec_depth_le_1"
    assert hist_key("spec_depth", 2) == "spec_depth_le_2"
    assert hist_key("spec_depth", 3) == "spec_depth_le_4"
    assert hist_key("squash_cascade", 32) == "squash_cascade_le_32"
    assert hist_key("squash_cascade", 33) == "squash_cascade_gt_32"


@pytest.mark.parametrize("engine", ["ref", "compiled"])
def test_required_telemetry_present_in_every_engine(engine):
    result = run_fixture(engine=engine)
    for key in REQUIRED_TELEMETRY:
        assert key in result.stats, (engine, key)


def test_unsafe_run_records_zero_interventions():
    result = run_fixture(defense="unsafe")
    for stem in HOOK_STEMS:
        assert result.stats[f"defense_{stem}_interventions"] == 0
        assert result.stats[f"defense_{stem}_delay_cycles"] == 0
    assert result.stats["issued_uops"] > 0
    assert result.stats["fetched_uops"] >= result.stats["committed_uops"]


def test_track_records_execute_interventions():
    result = run_fixture(defense="track")
    stats = result.stats
    assert stats["defense_exec_interventions"] > 0
    # An episode spans at least one cycle, so delay >= episodes.
    assert stats["defense_exec_delay_cycles"] >= \
        stats["defense_exec_interventions"]


def test_nda_records_wakeup_interventions():
    result = run_fixture(defense="nda")
    stats = result.stats
    assert stats["defense_wakeup_interventions"] > 0
    assert stats["defense_wakeup_delay_cycles"] >= \
        stats["defense_wakeup_interventions"]
    # NDA gates only wakeup: the other hooks never intervene.
    assert stats["defense_exec_interventions"] == 0
    assert stats["defense_resolve_interventions"] == 0


def test_squash_cause_counters_partition_squashes():
    result = run_fixture("squash-bug", "track")
    stats = result.stats
    assert stats["squashes"] > 0
    assert (stats["squashes_conditional"] + stats["squashes_indirect"]
            + stats["squashes_return"]) == stats["squashes"]


def test_squash_cascade_histogram_samples_once_per_squash():
    result = run_fixture("squash-bug", "track")
    stats = result.stats
    buckets = sum(stats[hist_key("squash_cascade", edge)]
                  for edge in HIST_EDGES)
    buckets += stats[f"squash_cascade_gt_{HIST_EDGES[-1]}"]
    assert buckets == stats["squashes"]


def test_spec_depth_histogram_records_resolutions():
    result = run_fixture(defense="unsafe")
    stats = result.stats
    total = sum(stats[hist_key("spec_depth", edge)]
                for edge in HIST_EDGES)
    total += stats[f"spec_depth_gt_{HIST_EDGES[-1]}"]
    assert total > 0


def test_stall_accounting_invariant_survives_alias_retirement():
    # The "defense" block reason became "defense_execute"; the coarse
    # stall columns must still account for every non-committing slot.
    result = run_fixture(defense="track")
    stats = result.stats
    stalls = sum(v for k, v in stats.items() if k.startswith("stall_"))
    assert stalls == \
        P_CORE.width * result.cycles - stats["committed_uops"]
    assert stats["stall_defense_transmitter"] > 0


def test_private_accounting_keys_never_escape():
    result = run_fixture(defense="track")
    assert not [k for k in result.stats if k.startswith("_")]


def test_hooks_table_drives_the_episode_counters():
    assert [hook for hook, _ in HOOKS] == ["execute", "resolve", "wakeup"]
    result = run_fixture(defense="track")
    for _, stem in HOOKS:
        assert f"defense_{stem}_interventions" in result.stats
        assert f"defense_{stem}_delay_cycles" in result.stats
    helpers = [name for name in vars(Core) if name.endswith("_episode")]
    assert sorted(helpers) == ["_close_episode", "_open_episode"]


def test_both_engines_publish_the_folded_stats():
    """Both engines publish a run's observatory counters through one
    ``Core._finish``, from the result's already-folded stats."""
    published = {}
    for engine in ("ref", "compiled"):
        registry = MetricsRegistry()
        with attached(registry):
            result = run_fixture(defense="track", engine=engine)
        counters = registry.snapshot()["counters"]
        stats = result.stats
        expected = {
            "uarch.defense_interventions": sum(
                stats[f"defense_{stem}_interventions"]
                for stem in HOOK_STEMS),
            "uarch.defense_delay_cycles": sum(
                stats[f"defense_{stem}_delay_cycles"]
                for stem in HOOK_STEMS),
            "uarch.transient_uops":
                stats["fetched_uops"] - stats["committed_uops"],
            "uarch.sim_cycles": result.cycles,
            "uarch.runs": 1,
        }
        assert all(expected.values()), expected
        published[engine] = {name: counters[name] for name in expected}
        assert published[engine] == expected, engine
        assert counters.get("uarch.compiled_runs", 0) == \
            (engine == "compiled")
    assert published["ref"] == published["compiled"]


# ----------------------------------------------------------------------
# The tracer's attach contract
# ----------------------------------------------------------------------

def test_core_step_makes_one_tracer_check():
    source = inspect.getsource(Core.step)
    assert source.count("is not None") == 1
    assert "self.tracer is not None" in source


def test_detached_ledger_run_is_byte_identical():
    plain = run_fixture(defense="track", engine="compiled")
    result, tracer = traced_fixture(defense="track")
    assert result.cycles == plain.cycles
    assert result.stats == plain.stats
    assert tracer.events


# ----------------------------------------------------------------------
# The tracer's intervention ledger (``tracer.events``) vs aggregates
# ----------------------------------------------------------------------

def test_ledger_events_reconcile_with_aggregates():
    for defense in ("track", "nda", "spt"):
        result, tracer = traced_fixture(defense=defense)
        by_hook = collections.Counter(e.hook for e in tracer.events)
        for hook, stem in HOOKS:
            assert by_hook[hook] == \
                result.stats[f"defense_{stem}_interventions"], hook
        assert sum(event.delay for event in tracer.events) == sum(
            result.stats[f"defense_{stem}_delay_cycles"]
            for stem in HOOK_STEMS)
        assert tracer.dropped_events == 0


def test_ledger_event_fields_are_sane():
    _, tracer = traced_fixture(defense="track")
    for event in tracer.events:
        assert event.delay >= 1
        assert 0 <= event.start < event.start + event.delay
        assert event.closed_by in ("allow", "squash", "halt")
        assert event.hook in ("execute", "resolve", "wakeup")
        assert event.asm  # disassembly, not an opcode number
        assert event.depth >= 0
    # JSON-serializable as-is.
    assert json.dumps([dataclasses.asdict(e) for e in tracer.events])


def test_ledger_finish_is_idempotent():
    _, tracer = traced_fixture(defense="track")
    assert tracer.finished
    n = len(tracer.events)
    tracer.finish(None)  # core unused once finished
    assert len(tracer.events) == n


def test_ledger_caps_events_but_not_aggregates():
    plain = run_fixture(defense="track")
    result, tracer = traced_fixture(defense="track", max_uops=1)
    total = sum(plain.stats[f"defense_{stem}_interventions"]
                for stem in HOOK_STEMS)
    assert len(tracer.events) == 1
    assert tracer.dropped_events == total - 1
    assert len(tracer.uops) == 1 and tracer.dropped > 0
    assert result.stats == plain.stats  # aggregates stay exact


# ----------------------------------------------------------------------
# Projection helpers
# ----------------------------------------------------------------------

def test_intervention_summary_projection():
    summary = intervention_summary({
        "defense_exec_interventions": 3,
        "defense_exec_delay_cycles": 12,
    })
    assert summary["execute"] == {"interventions": 3, "delay_cycles": 12}
    assert summary["resolve"] == {"interventions": 0, "delay_cycles": 0}


def test_transient_summary_projection():
    summary = transient_summary({
        "fetched_uops": 10, "committed_uops": 6, "issued_uops": 8,
        "squashed_uops": 3, "squashes": 1, "squashes_conditional": 1,
    })
    assert summary["transient_uops"] == 4
    assert summary["squashes_conditional"] == 1
    assert summary["squashes_indirect"] == 0


def test_histogram_projection_orders_buckets():
    stats = {"spec_depth_le_1": 5, "spec_depth_le_16": 2,
             "spec_depth_gt_32": 1}
    out = histogram(stats, "spec_depth")
    assert list(out) == ["<=1", "<=2", "<=4", "<=8", "<=16", "<=32",
                         ">32"]
    assert out["<=1"] == 5 and out["<=16"] == 2 and out[">32"] == 1


def test_chrome_overlay_rides_pid_two():
    _, tracer = traced_fixture(defense="track")
    trace = chrome_trace(tracer, label="t")
    assert len(pid2_slices(trace)) == len(tracer.events)
    metas = [e for e in trace["traceEvents"]
             if e["ph"] == "M" and e["pid"] == 2]
    assert {m["args"]["name"] for m in metas} == \
        {"t: defense interventions", "may_execute", "may_resolve",
         "may_wakeup"}
    pids = {e.get("pid") for e in trace["traceEvents"]}
    assert pids == {0, 1, 2}  # pipeline, occupancy, interventions


def test_chrome_trace_omits_the_track_without_interventions():
    _, tracer = traced_fixture(defense="unsafe")
    assert not tracer.events
    pids = {e.get("pid") for e in chrome_trace(tracer)["traceEvents"]}
    assert 2 not in pids


def test_speculation_anatomy_table():
    from repro.bench.tables import speculation_anatomy

    table = speculation_anatomy(("ossl.ecadd",),
                                (("unsafe", None), ("nda", None)),
                                jobs=1)
    assert table.headers[0] == "defense"
    assert set(table.data) == {"unsafe", "nda"}
    unsafe = table.data["unsafe"]
    assert unsafe["hooks"]["execute"]["interventions"] == 0
    nda = table.data["nda"]
    assert nda["hooks"]["wakeup"]["interventions"] > 0
    assert "transient_uops" in nda["transient"]


def test_speculation_cli_json(capsys):
    from repro.cli import main

    assert main(["speculation", "--workload", "ossl.ecadd",
                 "--defense", "nda", "--json", "--jobs", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["workloads"] == ["ossl.ecadd"]
    assert payload["defenses"]["nda"]["hooks"]["wakeup"][
        "interventions"] > 0


def test_speculation_cli_rejects_unknown_defense(capsys):
    from repro.cli import main

    assert main(["speculation", "--defense", "nope"]) == 2
    assert "unknown defenses" in capsys.readouterr().err


def test_trace_cli_writes_one_pid2_slice_per_event(tmp_path, capsys):
    from repro.bench.runner import RunSpec, execute_spec
    from repro.cli import main

    out = tmp_path / "trace.json"
    assert main(["trace", "ossl.ecadd", "--defense", "nda",
                 "--out", str(out)]) == 0
    tracer = PipelineTracer()
    execute_spec(RunSpec(workload="ossl.ecadd", defense="nda"),
                 tracer=tracer)
    assert tracer.events
    assert len(pid2_slices(json.loads(out.read_text()))) == \
        len(tracer.events)
    assert f"{len(tracer.events)} intervention events" in \
        capsys.readouterr().out
