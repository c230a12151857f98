"""Tests of the benchmark's traced run, on smoke-sized workloads.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys
import time

import pytest

import layers
import run
import workloads as wl

SMOKE = {"sim-panel": {"workloads": ("ossl.dh",)},
         "fuzz-cell": {"programs": 2},
         "batch-replay": {"workloads": ("ossl.dh",), "warm_passes": 2}}


@pytest.fixture
def caches(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "unused"))
    dirs = wl.CacheDirs(tmp_path / "caches")
    yield dirs
    dirs.close()


def smoke(name, caches, reference=None, seed=1):
    return wl.WORKLOADS[name](seed, reference or wl.load_reference(),
                              caches, **SMOKE[name])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced smoke run per workload (shared: each takes seconds)."""
    records = {}
    for name in SMOKE:
        tmp = tmp_path_factory.mktemp(name)
        dirs = wl.CacheDirs(tmp / "caches")
        started = time.perf_counter()
        try:
            record = run.traced_run(smoke(name, dirs), tmp / "trace.json")
        finally:
            dirs.close()
        record["wall_s"] = time.perf_counter() - started
        records[name] = record
    return records


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_finishes_in_seconds_and_is_correct(traced, name):
    record = traced[name]
    assert record["failed"] == 0
    assert record["wall_s"] < 60


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_self_times_partition_traced_wall_time(traced, name):
    record = traced[name]
    assert sum(record["self_s"].values()) == pytest.approx(
        record["traced_wall_s"], abs=1e-6)
    assert record["partition_error_s"] < 1e-6
    assert all(seconds >= -1e-9 for seconds in record["self_s"].values())


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_results_identical_to_untraced(traced, name):
    assert traced[name]["identical"]


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_every_per_layer_metric_and_the_overhead_are_reported(traced, name):
    metrics = traced[name]["metrics"]
    assert set(metrics) == set(layers.PER_LAYER)
    assert all(math.isfinite(value) for value in metrics.values())
    assert traced[name]["untraced_pass_s"] > 0
    overhead = (traced[name]["traced_pass_s"]
                / traced[name]["untraced_pass_s"] - 1)
    assert metrics["trace.overhead_share"] == pytest.approx(overhead)


def test_chrome_trace_is_written(traced):
    trace = json.loads(open(traced["sim-panel"]["trace"]).read())
    names = {event["name"] for event in trace["traceEvents"]
             if event.get("ph") == "X"}
    assert {"uarch.simulate", "compiled.compile_step",
            "perfbench.sim-panel"} <= names


def test_layers_land_on_the_workloads_that_use_them(traced):
    sim = traced["sim-panel"]["metrics"]
    fuzz = traced["fuzz-cell"]["metrics"]
    batch = traced["batch-replay"]["metrics"]
    assert sim["defenses.hook_calls_per_uop.unsafe"] == 0
    assert sim["defenses.hook_calls_per_uop"] > 0
    assert sim["uarch.ref.us_per_cycle"] > 0
    assert sim["compiled.compile_misses"] == len(wl.PANEL_DEFENSES)
    assert fuzz["arch.run_program.calls"] == 2 * fuzz[
        "contracts.check_pair.calls"]
    assert fuzz["contracts.check_pair.calls"] == 2 * wl.FUZZ_PAIRS
    assert sim["arch.run_program.calls"] == 0
    assert batch["uarch.simulate.calls"] == 0
    assert batch["executor.hit_rate.cold"] == 0
    assert batch["executor.hit_rate.warm"] == 1
    assert batch["executor.pool_speedup"] > 0


def test_pass_fails_on_a_wrong_reference_answer(caches):
    reference = copy.deepcopy(wl.load_reference())
    reference["specs"]["P/ossl.dh/spt/base"][0] += 1
    work = smoke("sim-panel", caches, reference)
    work.setup(0)
    assert work.run_pass().failed == 1


def test_fuzz_pass_fails_on_a_wrong_pinned_tally(caches):
    reference = copy.deepcopy(wl.load_reference())
    reference["fuzz_cell"]["programs"][1]["tallies"]["tests"] += 1
    work = smoke("fuzz-cell", caches, reference)
    assert work.run_pass().failed == wl.FUZZ_PAIRS


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((wl.HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("variable", ["REPRO_ENGINE", "REPRO_NO_CACHE"])
def test_refuses_an_environment_that_changes_the_program(variable):
    done = subprocess.run(
        [sys.executable, str(wl.HERE / "run.py"), "--workload", "sim-panel"],
        env={**os.environ, variable: "1"}, capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
