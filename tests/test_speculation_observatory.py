"""The speculation observatory (always-on telemetry + opt-in ledger).

Three layers under test:

* the always-on aggregates — transient-uop accounting, speculation
  histograms, and per-hook intervention episode counters — must be
  present and internally consistent in every engine's result, and must
  cost nothing when no defense hook is live;
* the opt-in :class:`InterventionLedger` must honour the tracer's
  zero-overhead attach contract (``Core.step`` never mentions it, a
  detached run is byte-identical), must agree event-by-event with the
  aggregate counters, and must refuse the compiled backend;
* the projection helpers (``intervention_summary``,
  ``transient_summary``, ``histogram``, the Chrome-trace overlay, the
  ``speculation_anatomy`` table, the ``repro speculation`` CLI) must
  faithfully reshape the same numbers.
"""

import inspect
import json

import pytest

from repro.bench.runner import DEFENSES
from repro.fixtures import build
from repro.uarch import P_CORE, simulate
from repro.uarch.compiled import CompiledCore, CompileUnsupported
from repro.uarch.pipeline import HIST_EDGES, Core, hist_key
from repro.uarch.refcore import REQUIRED_TELEMETRY
from repro.uarch.speculation import (
    InterventionLedger,
    histogram,
    intervention_summary,
    ledger_chrome_events,
    transient_summary,
)

HOOK_STEMS = ("exec", "resolve", "wakeup")


def run_fixture(fixture="v1-gadget", defense="track", **kwargs):
    program, memory = build(fixture)
    return simulate(program, DEFENSES[defense](), P_CORE, memory,
                    **kwargs)


def ledgered_fixture(fixture="v1-gadget", defense="track", **kwargs):
    ledger = InterventionLedger(**kwargs)
    result = run_fixture(fixture, defense, ledger=ledger)
    return result, ledger


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


# ----------------------------------------------------------------------
# The ledger's attach contract
# ----------------------------------------------------------------------

def test_core_step_never_consults_the_ledger():
    source = inspect.getsource(Core.step)
    assert "ledger" not in source
    assert source.count("is not None") == 1


def test_detached_ledger_run_is_byte_identical():
    plain = run_fixture(defense="track", engine="compiled")
    result, ledger = ledgered_fixture(defense="track")
    assert result.cycles == plain.cycles
    assert result.stats == plain.stats
    assert ledger.events


def test_ledger_pins_the_interpreter():
    program, memory = build("v1-gadget")
    with pytest.raises(CompileUnsupported):
        CompiledCore(program, DEFENSES["track"](), P_CORE, memory,
                     ledger=InterventionLedger())
    # simulate() falls back silently even when compiled is requested.
    plain = run_fixture(defense="track")
    result, _ = ledgered_fixture(defense="track")
    assert result.cycles == plain.cycles


# ----------------------------------------------------------------------
# Ledger events vs aggregate counters
# ----------------------------------------------------------------------

def test_ledger_events_reconcile_with_aggregates():
    result, ledger = ledgered_fixture(defense="track")
    by_hook = ledger.by_hook()
    for hook, stem in (("execute", "exec"), ("resolve", "resolve"),
                       ("wakeup", "wakeup")):
        assert len(by_hook[hook]) == \
            result.stats[f"defense_{stem}_interventions"], hook
    assert ledger.total_delay() == sum(
        result.stats[f"defense_{stem}_delay_cycles"]
        for stem in HOOK_STEMS)
    assert ledger.dropped == 0


def test_ledger_event_fields_are_sane():
    result, ledger = ledgered_fixture(defense="track")
    for event in ledger.events:
        assert event.delay >= 1
        assert 0 <= event.start < event.start + event.delay
        assert event.closed_by in ("allow", "squash", "halt")
        assert event.hook in ("execute", "resolve", "wakeup")
        assert event.asm  # disassembly, not an opcode number
        assert event.depth >= 0
    dicts = ledger.to_dicts()
    assert len(dicts) == len(ledger.events)
    assert json.dumps(dicts)  # JSON-serializable as-is


def test_ledger_finish_is_idempotent():
    _, ledger = ledgered_fixture(defense="track")
    assert ledger.finished
    n = len(ledger.events)
    ledger.finish(None)  # core unused once finished
    assert len(ledger.events) == n


def test_ledger_caps_events_but_not_aggregates():
    plain = run_fixture(defense="track")
    result, ledger = ledgered_fixture(defense="track", max_events=1)
    total = sum(plain.stats[f"defense_{stem}_interventions"]
                for stem in HOOK_STEMS)
    assert len(ledger.events) == 1
    assert ledger.dropped == total - 1
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
    from repro.uarch.trace import PipelineTracer, chrome_trace

    program, memory = build("v1-gadget")
    tracer = PipelineTracer()
    ledger = InterventionLedger()
    simulate(program, DEFENSES["track"](), P_CORE, memory,
             tracer=tracer, ledger=ledger)
    overlay = ledger_chrome_events(ledger, label="t")
    slices = [e for e in overlay if e["ph"] == "X"]
    assert len(slices) == len(ledger.events)
    assert all(e["pid"] == 2 for e in overlay)
    metas = [e for e in overlay if e["ph"] == "M"]
    assert {m["args"]["name"] for m in metas} >= \
        {"t: defense interventions", "may_execute", "may_resolve",
         "may_wakeup"}
    merged = chrome_trace(tracer, label="t", ledger=ledger)
    pids = {e.get("pid") for e in merged["traceEvents"]}
    assert {1, 2} <= pids  # pipeline track + intervention overlay


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


def test_speculation_cli_ledger_out(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "overlay.json"
    assert main(["speculation", "--workload", "ossl.ecadd",
                 "--defense", "nda", "--jobs", "1",
                 "--ledger-out", str(out)]) == 0
    trace = json.loads(out.read_text())
    events = trace["traceEvents"] if isinstance(trace, dict) else trace
    assert any(e.get("pid") == 2 and e.get("ph") == "X" for e in events)
    assert "intervention events" in capsys.readouterr().out
