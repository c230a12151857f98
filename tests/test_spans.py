"""Distributed campaign tracing: recorder semantics, cross-process
propagation, the deterministic merger, and the zero-overhead contract."""

import inspect
import json
import os
import pathlib

import pytest

from repro.bench import RunSpec, clear_caches, run_batch
from repro.bench.executor import spec_to_payload
from repro.bench.jobs import KIND_SPEC, Job, run_job
from repro.metrics.spans import (
    Span,
    SpanRecorder,
    TRACE_SCHEMA,
    get_recorder,
    load_shards,
    merged_trace,
    nesting_violations,
    recording,
    set_recorder,
    write_merged_trace,
)

FAST = RunSpec(workload="ossl.ecadd")
FAST_SPTSB = RunSpec(workload="ossl.ecadd", defense="spt-sb")

GOLDEN = pathlib.Path(__file__).parent / "golden" \
    / "merged_trace_schema.json"


@pytest.fixture()
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_PROGRESS", "0")
    clear_caches()
    yield tmp_path / "cache"
    clear_caches()


# ----------------------------------------------------------------------
# Recorder semantics
# ----------------------------------------------------------------------

def test_span_stack_nesting_and_attrs():
    recorder = SpanRecorder(process="p1")
    with recorder.span("outer", attrs={"k": 1}) as outer:
        with recorder.span("inner") as inner:
            assert recorder.current() is inner
        assert recorder.current() is outer
    assert recorder.current() is None
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == outer.trace_id
    assert outer.parent_id is None
    assert outer.attrs == {"k": 1}
    # Children finish (and are recorded) before their parents.
    assert [span.name for span in recorder.spans] == ["inner", "outer"]
    assert all(span.end_s >= span.start_s for span in recorder.spans)


def test_finish_merges_attrs_and_is_idempotent_on_end():
    recorder = SpanRecorder(process="p1")
    span = recorder.start("work", push=True)
    end = recorder.now()
    span.end_s = end
    recorder.finish(span, outcome="ok")
    assert span.end_s == end  # finish never overwrites an explicit end
    assert span.attrs["outcome"] == "ok"
    assert recorder.current() is None


def test_wire_context_round_trip_across_recorders():
    broker = SpanRecorder(process="broker")
    parent = broker.start("spec")
    ctx = parent.context()
    assert set(ctx) == {"trace_id", "span_id"}
    # Ship ctx over the wire (it is plain JSON) to another process.
    worker = SpanRecorder(process="worker")
    child = worker.start("fabric.job",
                         parent=json.loads(json.dumps(ctx)))
    assert child.trace_id == parent.trace_id
    assert child.parent_id == parent.span_id
    rebuilt = Span.from_dict(child.to_dict())
    assert rebuilt == child


def test_explicit_none_parent_starts_a_new_trace():
    recorder = SpanRecorder()
    with recorder.span("outer") as outer:
        detached = recorder.start("root", parent=None)
    assert detached.trace_id != outer.trace_id
    assert detached.parent_id is None


def test_add_clamps_backwards_interval():
    recorder = SpanRecorder(process="p1")
    span = recorder.add("queue.wait", 10.0, 9.0)
    assert span.start_s == 10.0 and span.end_s == 10.0


def test_attach_contract_mirrors_registry():
    assert get_recorder() is None
    recorder = SpanRecorder()
    assert set_recorder(recorder) is None
    assert get_recorder() is recorder
    with recording(SpanRecorder()) as inner:
        assert get_recorder() is inner
    assert get_recorder() is recorder  # restored on exit
    assert set_recorder(None) is recorder


def test_adopt_merges_foreign_span_dicts():
    parent = SpanRecorder(process="parent")
    child = SpanRecorder(process="child")
    with child.span("fuzz.program"):
        pass
    assert parent.adopt(child.to_dicts()) == 1
    assert parent.spans[0].process == "child"


# ----------------------------------------------------------------------
# Shard files
# ----------------------------------------------------------------------

def test_shard_write_append_and_load(tmp_path):
    recorder = SpanRecorder(process="worker-a")
    with recorder.span("one"):
        pass
    path = recorder.write_shard(tmp_path)
    assert path is not None and path.name == "spans-worker-a.jsonl"
    with recorder.span("two"):
        pass
    recorder.write_shard(tmp_path, clock_offsets={"worker-a": 1.5})
    lines = path.read_text().splitlines()
    kinds = [json.loads(line)["kind"] for line in lines]
    # Meta once, each span once (append-only high-water mark), clocks.
    assert kinds == ["meta", "span", "span", "clock"]
    assert json.loads(lines[0])["schema"] == TRACE_SCHEMA
    spans, offsets = load_shards(tmp_path)
    assert sorted(span.name for span in spans) == ["one", "two"]
    assert offsets == {"worker-a": 1.5}


def test_load_shards_redirects_to_metrics_dir_and_skips_junk(tmp_path):
    metrics = tmp_path / "metrics"
    recorder = SpanRecorder(process="w")
    with recorder.span("kept"):
        pass
    shard = recorder.write_shard(metrics)
    with shard.open("a") as stream:
        stream.write("not json at all\n")
        stream.write('{"kind": "span", "name": "broken"}\n')  # no ids
    spans, _ = load_shards(tmp_path)  # spool root, not metrics/
    assert [span.name for span in spans] == ["kept"]


def test_write_shard_survives_unwritable_directory(tmp_path,
                                                   monkeypatch):
    recorder = SpanRecorder(process="w")
    with recorder.span("s"):
        pass

    def refuse(self, *args, **kwargs):
        raise OSError("read-only filesystem")

    monkeypatch.setattr(pathlib.Path, "mkdir", refuse)
    assert recorder.write_shard(tmp_path / "ro") is None
    monkeypatch.undo()
    # The high-water mark did not advance: a later write still ships it.
    path = recorder.write_shard(tmp_path)
    assert path is not None and '"name": "s"' in path.read_text()


# ----------------------------------------------------------------------
# The merger
# ----------------------------------------------------------------------

def _span(name, span_id, parent, start, end, process,
          trace="t" * 16, attrs=None):
    return Span(name=name, trace_id=trace, span_id=span_id,
                parent_id=parent, start_s=start, end_s=end,
                process=process, attrs=dict(attrs or {}))


def _sample_spans():
    """A two-process tree: the worker clock runs 2s ahead of the
    broker's, so its raw timestamps land outside the parent spec span
    until the merger corrects and clamps them."""
    return [
        _span("executor.batch", "b" * 16, None, 100.0, 110.0, "broker"),
        _span("spec", "c" * 16, "b" * 16, 101.0, 109.0, "broker",
              attrs={"workload": "ossl.ecadd"}),
        _span("fabric.job", "d" * 16, "c" * 16, 103.5, 112.5, "worker-a"),
        _span("sim", "e" * 16, "d" * 16, 104.0, 112.0, "worker-a"),
    ]


def test_merged_trace_is_deterministic_bytes():
    offsets = {"worker-a": 2.0}
    first = json.dumps(merged_trace(_sample_spans(), offsets),
                       sort_keys=True)
    second = json.dumps(merged_trace(list(reversed(_sample_spans())),
                                     offsets), sort_keys=True)
    assert first == second


def test_merged_trace_corrects_clocks_and_clamps_nesting():
    trace = merged_trace(_sample_spans(), {"worker-a": 2.0})
    assert nesting_violations(trace) == []
    slices = {e["args"]["span_id"]: e for e in trace["traceEvents"]
              if e.get("ph") == "X"}
    job = slices["d" * 16]
    spec = slices["c" * 16]
    # Shifted by the 2s offset: 103.5 → 101.5 relative to the epoch.
    assert job["args"]["clock_offset_s"] == 2.0
    assert job["ts"] >= spec["ts"]
    assert job["ts"] + job["dur"] <= spec["ts"] + spec["dur"]
    # The uncorrected raw end (112.5s) overran the spec span (109s), so
    # the residual was clamped and flagged.
    assert job["args"]["clamped"] is True
    # Distinct processes get distinct pids, named via metadata.
    assert spec["pid"] != job["pid"]
    assert set(trace["metadata"]["processes"].values()) == \
        {"broker", "worker-a"}


def test_merged_trace_without_offsets_keeps_raw_violations_clamped():
    trace = merged_trace(_sample_spans())
    # Even with no clock estimate, clamping enforces the invariant.
    assert nesting_violations(trace) == []


def test_merged_trace_dedups_by_span_id():
    spans = _sample_spans() + _sample_spans()
    trace = merged_trace(spans)
    slices = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    assert len(slices) == len(_sample_spans())


def test_merged_trace_orphan_and_unfinished_spans_are_kept():
    spans = [
        _span("orphan", "a" * 16, "0" * 16, 5.0, 6.0, "p"),
        Span(name="open", trace_id="t" * 16, span_id="f" * 16,
             parent_id=None, start_s=5.5, end_s=None, process="p"),
    ]
    trace = merged_trace(spans)
    slices = {e["name"]: e for e in trace["traceEvents"]
              if e.get("ph") == "X"}
    assert slices["orphan"]["dur"] == 1_000_000  # keeps its interval
    assert slices["open"]["args"]["unfinished"] is True
    assert slices["open"]["dur"] == 0


def test_merged_trace_cycle_does_not_recurse_forever():
    spans = [
        _span("a", "a" * 16, "b" * 16, 1.0, 2.0, "p"),
        _span("b", "b" * 16, "a" * 16, 1.0, 2.0, "p"),
    ]
    trace = merged_trace(spans)
    assert len([e for e in trace["traceEvents"]
                if e.get("ph") == "X"]) == 2


def test_empty_trace_shape():
    trace = merged_trace([])
    assert trace["traceEvents"] == []
    assert trace["metadata"]["schema"] == TRACE_SCHEMA


def test_concurrent_roots_get_distinct_lanes():
    spans = [
        _span("r1", "a" * 16, None, 1.0, 5.0, "p"),
        _span("r2", "b" * 16, None, 2.0, 6.0, "p"),  # overlaps r1
        _span("r3", "c" * 16, None, 7.0, 8.0, "p"),  # reuses a lane
    ]
    trace = merged_trace(spans)
    tids = {e["name"]: e["tid"] for e in trace["traceEvents"]
            if e.get("ph") == "X"}
    assert tids["r1"] != tids["r2"]
    assert tids["r3"] == tids["r1"]


def test_nesting_violations_detects_escape():
    trace = {"traceEvents": [
        {"ph": "X", "name": "parent", "ts": 0, "dur": 10,
         "args": {"span_id": "p", "parent_id": None}},
        {"ph": "X", "name": "child", "ts": 5, "dur": 10,
         "args": {"span_id": "c", "parent_id": "p"}},
    ]}
    problems = nesting_violations(trace)
    assert len(problems) == 1 and "escapes" in problems[0]


def test_write_merged_trace_round_trips(tmp_path):
    path = write_merged_trace(tmp_path / "trace.json", _sample_spans(),
                              {"worker-a": 2.0}, label="test")
    trace = json.loads(path.read_text())
    assert nesting_violations(trace) == []
    names = {e["args"]["name"] for e in trace["traceEvents"]
             if e.get("ph") == "M"}
    assert names == {"test: broker", "test: worker-a"}


# ----------------------------------------------------------------------
# Golden schema: the merged-trace JSON layout is pinned
# ----------------------------------------------------------------------

def _trace_schema(trace):
    """The shape (not the values) of a merged trace."""
    slices = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    metas = [e for e in trace["traceEvents"] if e.get("ph") == "M"]
    return {
        "schema": trace["metadata"]["schema"],
        "top_level_keys": sorted(trace),
        "displayTimeUnit": trace["displayTimeUnit"],
        "metadata_keys": sorted(trace["metadata"]),
        "process_metadata_keys": sorted(metas[0]) if metas else [],
        "slice_keys": sorted(slices[0]) if slices else [],
        "slice_required_args": sorted(
            k for k in ("trace_id", "span_id", "parent_id", "process")
            if all(k in e["args"] for e in slices)),
    }


def test_merged_trace_schema_golden():
    schema = _trace_schema(merged_trace(_sample_spans(),
                                        {"worker-a": 2.0}))
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(schema, indent=2, sort_keys=True)
                          + "\n")
    assert GOLDEN.exists(), (
        "golden schema missing — regenerate with "
        "REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest "
        "tests/test_spans.py -k golden")
    assert schema == json.loads(GOLDEN.read_text()), (
        "the merged-trace layout changed; if intentional, bump "
        "TRACE_SCHEMA in repro/metrics/spans.py and regenerate the "
        "golden with REPRO_UPDATE_GOLDEN=1")


# ----------------------------------------------------------------------
# Zero-overhead contract
# ----------------------------------------------------------------------

def test_core_step_contains_no_tracing_code():
    """The per-cycle hot loop must never know spans exist: tracing
    attaches at batch/spec/run granularity only."""
    from repro.uarch.pipeline import Core

    source = inspect.getsource(Core.step)
    for needle in ("span", "Span", "recorder", "Recorder", "trace_ctx"):
        assert needle not in source
    assert "recorder" not in inspect.signature(Core.step).parameters


def test_traced_results_identical_to_detached(isolated_cache,
                                              monkeypatch, tmp_path):
    detached = run_batch([FAST], jobs=1)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache2"))
    clear_caches()
    with recording(SpanRecorder()) as recorder:
        traced = run_batch([FAST], jobs=1)
    assert traced == detached
    assert {span.name for span in recorder.spans} >= \
        {"executor.batch", "spec", "sim"}


# ----------------------------------------------------------------------
# Executor instrumentation: batch, cache hits, serial and pool paths
# ----------------------------------------------------------------------

def test_serial_batch_records_spec_spans(isolated_cache):
    with recording(SpanRecorder()) as recorder:
        run_batch([FAST, FAST_SPTSB], jobs=1)
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    batch = by_name["executor.batch"][0]
    assert batch.attrs["specs"] == 2
    assert batch.attrs["simulated"] == 2
    specs = by_name["spec"]
    assert len(specs) == 2
    assert all(span.parent_id == batch.span_id for span in specs)
    assert {span.attrs["defense"] for span in specs} == \
        {"unsafe", "spt-sb"}


def test_cache_hits_record_zero_or_short_spec_spans(isolated_cache):
    run_batch([FAST], jobs=1)  # populate memory + disk caches
    with recording(SpanRecorder()) as recorder:
        run_batch([FAST], jobs=1)
    spec = [s for s in recorder.spans if s.name == "spec"][0]
    assert spec.attrs["cache"] == "memory"
    assert spec.duration_s == 0.0
    from repro.bench.executor import clear_summary_cache

    clear_summary_cache()
    with recording(SpanRecorder()) as recorder:
        run_batch([FAST], jobs=1)
    spec = [s for s in recorder.spans if s.name == "spec"][0]
    assert spec.attrs["cache"] == "disk"


def test_pool_spans_propagate_to_workers(isolated_cache):
    """The canonical cross-process assertion: worker.run spans recorded
    in pool children nest (via the wire context) under the parent's
    attempt spans, which nest under spec spans, under the batch."""
    with recording(SpanRecorder()) as recorder:
        run_batch([FAST, FAST_SPTSB], jobs=2)
    spans = {span.span_id: span for span in recorder.spans}
    batch = [s for s in spans.values() if s.name == "executor.batch"][0]
    specs = [s for s in spans.values() if s.name == "spec"]
    attempts = [s for s in spans.values() if s.name == "attempt"]
    workers = [s for s in spans.values() if s.name == "worker.run"]
    sims = [s for s in spans.values() if s.name == "sim"]
    assert len(specs) == len(attempts) == len(workers) == len(sims) == 2
    for spec in specs:
        assert spec.parent_id == batch.span_id
    attempt_ids = {span.span_id for span in attempts}
    spec_ids = {span.span_id for span in specs}
    for attempt in attempts:
        assert attempt.parent_id in spec_ids
        assert attempt.attrs["attempt"] == 1
    for worker in workers:
        assert worker.parent_id in attempt_ids
        assert worker.process != batch.process  # recorded child-side
        assert worker.trace_id == batch.trace_id
    for sim in sims:
        assert spans[sim.parent_id].name == "worker.run"
    # The merged timeline of the whole tree is well-nested.
    assert nesting_violations(merged_trace(recorder.spans)) == []


def _crash_once_traced_worker(job, timeout_s, trace_ctx=None,
                              metrics=False):
    marker = pathlib.Path(os.environ["REPRO_TEST_MARKER_DIR"]) \
        / job.payload["workload"].replace("/", "_")
    if not marker.exists():
        marker.write_text("crashed once")
        os._exit(3)
    return run_job(job, timeout_s, trace_ctx, metrics)


def test_trace_survives_broken_pool_rebuild(isolated_cache, monkeypatch,
                                            tmp_path):
    """A worker crash breaks the pool; the rebuilt pool's retry attempt
    must parent under the *same* spec span, with attempt attrs counting
    up and the failed attempt marked."""
    markers = tmp_path / "markers"
    markers.mkdir()
    monkeypatch.setenv("REPRO_TEST_MARKER_DIR", str(markers))
    with recording(SpanRecorder()) as recorder:
        results = run_batch([FAST, FAST_SPTSB], jobs=2, retries=3,
                            worker=_crash_once_traced_worker)
    assert len(results) == 2
    specs = [s for s in recorder.spans if s.name == "spec"]
    attempts = [s for s in recorder.spans if s.name == "attempt"]
    assert len(specs) == 2
    for spec in specs:
        mine = sorted((a for a in attempts
                       if a.parent_id == spec.span_id),
                      key=lambda a: a.attrs["attempt"])
        # Every spec crashed its first execution, so success took >= 2
        # submissions, all under one spec span, numbered contiguously.
        assert len(mine) >= 2
        assert [a.attrs["attempt"] for a in mine] == \
            list(range(1, len(mine) + 1))
        assert mine[-1].attrs.get("error") is None
        assert all(a.attrs.get("error") for a in mine[:-1])


def test_worker_run_traced_returns_span_payloads(isolated_cache):
    ctx = {"trace_id": "a" * 16, "span_id": "b" * 16}
    outcome = run_job(Job(KIND_SPEC, spec_to_payload(FAST)), None, ctx)
    assert outcome.status == "ok"
    run = [p for p in outcome.spans if p["name"] == "worker.run"][0]
    assert run["trace_id"] == "a" * 16
    assert run["parent_id"] == "b" * 16
    assert run["attrs"]["status"] == "ok"
    assert get_recorder() is None  # restored after the call
    # Untraced runs carry no spans at all.
    assert run_job(Job(KIND_SPEC, spec_to_payload(FAST))).spans == []


# ----------------------------------------------------------------------
# Fuzzing campaign instrumentation
# ----------------------------------------------------------------------

def _campaign_config(n_programs=2):
    from repro.bench.runner import DEFENSES
    from repro.contracts import Contract
    from repro.fuzzing import CampaignConfig

    return CampaignConfig(defense_factory=DEFENSES["unsafe"],
                          contract=Contract.UNPROT_SEQ,
                          instrumentation="rand",
                          n_programs=n_programs, pairs_per_program=1,
                          program_size=20, seed=11,
                          defense_name="unsafe")


def test_campaign_serial_records_program_spans():
    from repro.fuzzing import run_campaign

    with recording(SpanRecorder()) as recorder:
        run_campaign(_campaign_config(), jobs=1)
    campaign = [s for s in recorder.spans
                if s.name == "fuzz.campaign"][0]
    programs = [s for s in recorder.spans if s.name == "fuzz.program"]
    assert len(programs) == 2
    assert all(p.parent_id == campaign.span_id for p in programs)
    from repro.fuzzing.campaign import _program_seeds

    assert sorted(p.attrs["program_seed"] for p in programs) == \
        sorted(_program_seeds(_campaign_config()))
    assert campaign.attrs["tests"] >= 1


def test_campaign_pool_adopts_program_spans():
    from repro.fuzzing import run_campaign

    detached = run_campaign(_campaign_config(3), jobs=2)
    with recording(SpanRecorder()) as recorder:
        traced = run_campaign(_campaign_config(3), jobs=2)
    assert traced.to_dict() == detached.to_dict()
    campaign = [s for s in recorder.spans
                if s.name == "fuzz.campaign"][0]
    programs = [s for s in recorder.spans if s.name == "fuzz.program"]
    assert len(programs) == 3
    assert all(p.parent_id == campaign.span_id for p in programs)
    assert any(p.process != campaign.process for p in programs)


# ----------------------------------------------------------------------
# Reporter correlation
# ----------------------------------------------------------------------

def test_reporter_events_carry_trace_ids(tmp_path):
    from repro.forensics import CampaignReporter

    with recording(SpanRecorder()) as recorder:
        with recorder.span("fuzz.cli") as root:
            with CampaignReporter(tmp_path / "events.jsonl") as reporter:
                reporter._emit("probe", value=1)
    event = json.loads((tmp_path / "events.jsonl").read_text())
    assert event["trace_id"] == root.trace_id
    assert event["span_id"] == root.span_id


def test_reporter_events_untouched_without_recorder(tmp_path):
    from repro.forensics import CampaignReporter

    with CampaignReporter(tmp_path / "events.jsonl") as reporter:
        reporter._emit("probe", value=1)
    event = json.loads((tmp_path / "events.jsonl").read_text())
    assert "trace_id" not in event and "span_id" not in event
