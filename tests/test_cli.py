"""The artifact-style command line (python -m repro)."""

import subprocess
import sys

import pytest

from repro.cli import main


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True, timeout=600)


def test_help():
    proc = run_cli(["--help"])
    assert proc.returncode == 0
    assert "table-v" in proc.stdout


def test_workloads_listing(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "nginx.c1r1" in out and "milc.w" in out


def test_table_v_subset(capsys):
    assert main(["table-v", "--suite", "unr-crypto"]) == 0
    out = capsys.readouterr().out
    assert "ossl.bnexp" in out and "geomean" in out


def test_figure_6_subset(capsys):
    assert main(["figure-6", "--bench", "mcf.s"]) == 0
    out = capsys.readouterr().out
    assert "mcf.s" in out and "Track-ARCH" in out


def test_requires_command():
    proc = run_cli([])
    assert proc.returncode != 0


def test_table_v_jobs_flag(capsys):
    assert main(["table-v", "--suite", "unr-crypto", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "ossl.bnexp" in out and "geomean" in out


def test_cache_subcommand(capsys):
    assert main(["cache"]) == 0
    out = capsys.readouterr().out
    assert "cache dir" in out and "entries" in out


def test_fuzz_subcommand(capsys):
    assert main(["fuzz", "--programs", "1", "--pairs", "1",
                 "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "violations" in out


def test_fuzz_rejects_unknown_defense(capsys):
    assert main(["fuzz", "--defense", "no-such-defense"]) == 2


def test_fuzz_rejects_unknown_mitigation(capsys):
    assert main(["fuzz", "--mitigation", "retpoline"]) == 2
    assert "unknown mitigation" in capsys.readouterr().err


def test_fuzz_rejects_mitigation_under_cts_seq(capsys):
    assert main(["fuzz", "--mitigation", "fence",
                 "--contract", "cts-seq"]) == 2
    assert "cts-seq" in capsys.readouterr().err


def test_fuzz_mitigation_smoke(capsys):
    assert main(["fuzz", "--defense", "unsafe", "--mitigation", "fence",
                 "--contract", "arch-seq", "--instrument", "arch",
                 "--programs", "1", "--pairs", "1", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "unsafe + fence" in out and "0 violations" in out


def _fake_campaign(violations):
    from repro.fuzzing import CampaignResult

    sites = [(11, 0, "cache_tlb")] * violations
    return CampaignResult(tests=2, violations=violations,
                          violation_sites=sites)


def test_fuzz_exits_nonzero_for_protected_defense_violations(
        capsys, monkeypatch):
    import repro.fuzzing

    monkeypatch.setattr(repro.fuzzing, "run_campaign",
                        lambda config, jobs=None, on_program=None:
                        _fake_campaign(violations=2))
    code = main(["fuzz", "--defense", "track", "--programs", "1",
                 "--pairs", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.err and "track" in captured.err


def test_fuzz_unsafe_violations_exit_zero(capsys, monkeypatch):
    import repro.fuzzing

    monkeypatch.setattr(repro.fuzzing, "run_campaign",
                        lambda config, jobs=None, on_program=None:
                        _fake_campaign(violations=2))
    assert main(["fuzz", "--defense", "unsafe", "--programs", "1",
                 "--pairs", "1"]) == 0


def test_fuzz_clean_protected_defense_exits_zero(capsys, monkeypatch):
    import repro.fuzzing

    monkeypatch.setattr(repro.fuzzing, "run_campaign",
                        lambda config, jobs=None, on_program=None:
                        _fake_campaign(violations=0))
    assert main(["fuzz", "--defense", "track", "--programs", "1",
                 "--pairs", "1"]) == 0


def test_fuzz_secure_mitigation_violations_exit_nonzero(
        capsys, monkeypatch):
    # fence is in SECURE_MITIGATIONS: a violation under it is a bug in
    # the pass, so the CLI must fail even on the unsafe core.
    import repro.fuzzing

    monkeypatch.setattr(repro.fuzzing, "run_campaign",
                        lambda config, jobs=None, on_program=None:
                        _fake_campaign(violations=2))
    code = main(["fuzz", "--defense", "unsafe", "--mitigation", "fence",
                 "--programs", "1", "--pairs", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert "claims contract security" in captured.err


def test_fuzz_mask_mitigation_violations_exit_zero(capsys, monkeypatch):
    # mask is best-effort by design; finding leaks under it is the
    # expected (and desired) fuzzer outcome, not a failure.
    import repro.fuzzing

    monkeypatch.setattr(repro.fuzzing, "run_campaign",
                        lambda config, jobs=None, on_program=None:
                        _fake_campaign(violations=2))
    assert main(["fuzz", "--defense", "unsafe", "--mitigation", "mask",
                 "--programs", "1", "--pairs", "1"]) == 0


def test_fuzz_report_dir_and_explain_roundtrip(tmp_path, capsys):
    """End-to-end forensics: an unsafe-core campaign emits a minimized
    witness that `repro explain` can name the transmitter from."""
    import json

    report_dir = tmp_path / "forensics"
    # Seed 7's first generated program violates on the unsafe core.
    assert main(["fuzz", "--programs", "1", "--pairs", "1", "--seed", "7",
                 "--report-dir", str(report_dir), "--max-checks", "60",
                 "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "forensics:" in out

    assert (report_dir / "REPORT.md").exists()
    events = [json.loads(line) for line in
              (report_dir / "events.jsonl").read_text().splitlines()]
    assert [e["event"] for e in events] == \
        ["campaign_start", "program", "campaign_end"]

    witnesses = sorted(report_dir.glob("witness-*.json"))
    witnesses = [p for p in witnesses
                 if not p.name.endswith(".explain.json")]
    assert witnesses
    payload = json.loads(witnesses[0].read_text())
    # Minimization produced a strictly smaller reproducer.
    assert len(payload["instructions"]) < payload["original_len"]
    assert payload["minimized"] is True

    assert main(["explain", str(witnesses[0])]) == 0
    out = capsys.readouterr().out
    assert "divergence:" in out
    assert "transmitter" in out
    assert "pc" in out


def test_explain_rejects_garbage_witness(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["explain", str(bad)]) == 2
    assert "cannot load witness" in capsys.readouterr().err


def test_bench_suite_subset(capsys, tmp_path):
    report = tmp_path / "report.json"
    assert main(["bench", "--quick", "--only", "figure-5",
                 "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert report.exists()


@pytest.fixture()
def bench_cache(monkeypatch, tmp_path):
    """An isolated, empty result cache for in-process bench runs."""
    from repro.bench import clear_caches

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_PROGRESS", "0")
    clear_caches()
    yield
    clear_caches()


def test_bench_warm_rerun_hits_cache_and_repeats_report(bench_cache,
                                                        tmp_path):
    import json

    counters, reports = [], []
    for run in ("cold", "warm"):
        metrics = tmp_path / f"{run}.json"
        report = tmp_path / f"{run}-report.json"
        assert main(["bench", "--quick", "--only", "table-v",
                     "--jobs", "2", "--metrics-out", str(metrics),
                     "--report", str(report)]) == 0
        counters.append(json.loads(metrics.read_text())["counters"])
        reports.append(report.read_bytes())
    cold, warm = counters
    # The second run in the same process simulates nothing.
    assert warm.get("cache.memory_hits", 0) \
        + warm.get("cache.disk_hits", 0) == cold["cache.misses"] > 0
    assert reports[0] == reports[1]


def test_bench_metrics_out_writes_json(bench_cache, tmp_path):
    import json

    out = tmp_path / "metrics.json"
    assert main(["bench", "--quick", "--only", "table-v", "--jobs", "1",
                 "--metrics-out", str(out)]) == 0
    snapshot = json.loads(out.read_text())
    assert snapshot["counters"]["executor.specs"] == 24
    assert snapshot["timers"]
    for name, timer in snapshot["timers"].items():
        assert sorted(timer) == ["count", "max", "mean", "min", "sum"], name
    assert not out.with_suffix(".json.prom").exists()


def test_stats_subcommand(capsys):
    assert main(["stats", "ossl.ecadd"]) == 0
    out = capsys.readouterr().out
    assert "issue-slot breakdown" in out
    assert "l1d" in out and "(commit)" in out


def test_stats_json_output(capsys):
    import json

    assert main(["stats", "ossl.ecadd", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cycles"] > 0
    assert "stall_frontend" in payload["stats"]


def test_stats_rejects_unknown_defense(capsys):
    assert main(["stats", "ossl.ecadd", "--defense", "nope"]) == 2


@pytest.mark.parametrize("command", ["stats", "trace", "profile"])
def test_spec_commands_reject_unknown_workload(command, capsys):
    assert main([command, "nosuchworkload"]) == 2
    err = capsys.readouterr().err
    assert "unknown workload 'nosuchworkload'; known: " in err
    assert "mcf.s" in err


@pytest.mark.parametrize("argv", [["stats", "mcf.s"], ["fuzz"]])
def test_commands_reject_unknown_protcc_class(argv, capsys):
    assert main(argv + ["--instrument", "nope"]) == 2
    assert "unknown ProtCC class 'nope'; known: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["speculation", "--workload"],
                                  ["figure-6", "--bench"]])
def test_workload_lists_reject_unknown_names(argv, capsys):
    assert main(argv + ["mcf.s", "nosuch"]) == 2
    assert "unknown workloads: nosuch; known: " in capsys.readouterr().err


def test_table_v_rejects_unknown_suites(capsys):
    assert main(["table-v", "--suite", "unr-crypto", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "unknown suites: nosuch; known: " in err
    assert "unr-crypto" in err


def test_trace_subcommand_emits_loadable_chrome_json(tmp_path, capsys):
    import json

    out_path = tmp_path / "trace.json"
    # A SPEC-like workload: acceptance requires the trace to load.
    assert main(["trace", "mcf.s", "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    events = payload["traceEvents"]
    assert events
    slices = [e for e in events if e.get("ph") == "X"]
    assert slices
    for event in slices:
        assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(event)


def test_trace_text_format(tmp_path, capsys):
    out_path = tmp_path / "trace.txt"
    assert main(["trace", "ossl.ecadd", "--fmt", "text",
                 "--out", str(out_path)]) == 0
    text = out_path.read_text()
    assert "F" in text and "C" in text


@pytest.mark.parametrize("value", ["0", "-1"])
def test_trace_refuses_max_uops_below_one(tmp_path, capsys, value):
    # A trace that may record no uop would be written empty and exit 0.
    out_path = tmp_path / "trace.json"
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "ossl.dh", "--max-uops", value,
              "--out", str(out_path)])
    assert excinfo.value.code == 2
    assert "--max-uops: must be at least 1" in capsys.readouterr().err
    assert not out_path.exists()


def test_diff_subcommand_identical(capsys):
    assert main(["diff", "--programs", "1", "--defense", "unsafe",
                 "track", "--core", "P", "--no-fixtures"]) == 0
    out = capsys.readouterr().out
    assert "identical" in out
    assert "0 divergent" in out


def test_diff_subcommand_fixtures(capsys):
    assert main(["diff", "--programs", "0", "--core", "P"]) == 0
    out = capsys.readouterr().out
    assert "identical" in out


def test_diff_rejects_unknown_defense(capsys):
    assert main(["diff", "--defense", "no-such-defense"]) == 2
    err = capsys.readouterr().err
    assert "unknown defenses" in err


def test_diff_rejects_unknown_workload(capsys):
    assert main(["diff", "--programs", "0", "--no-fixtures",
                 "--workload", "nosuch"]) == 2
    assert "unknown workloads: nosuch; known: " in capsys.readouterr().err


def test_diff_report_and_timing(capsys, tmp_path):
    report = tmp_path / "diff-report.txt"
    assert main(["diff", "--programs", "1", "--defense", "unsafe",
                 "--core", "P", "--no-fixtures",
                 "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "(ref,compiled)" in out
    assert "slowest:" in out          # the per-case timing table
    assert "identical" in report.read_text()


# ----------------------------------------------------------------------
# Tracing surface: --trace-out
# ----------------------------------------------------------------------

def test_bench_trace_out_writes_merged_trace(tmp_path, capsys):
    import json

    trace_file = tmp_path / "bench-trace.json"
    assert main(["bench", "--quick", "--only", "figure-5",
                 "--trace-out", str(trace_file)]) == 0
    assert "campaign trace written" in capsys.readouterr().out
    trace = json.loads(trace_file.read_text())
    names = {event["name"] for event in trace["traceEvents"]
             if event.get("ph") == "X"}
    assert "bench.cli" in names
    assert "spec" in names


def test_fuzz_trace_out_writes_merged_trace(tmp_path, capsys):
    import json

    trace_file = tmp_path / "fuzz-trace.json"
    assert main(["fuzz", "--programs", "1", "--pairs", "1",
                 "--jobs", "1", "--trace-out", str(trace_file)]) == 0
    trace = json.loads(trace_file.read_text())
    names = {event["name"] for event in trace["traceEvents"]
             if event.get("ph") == "X"}
    assert {"fuzz.cli", "fuzz.campaign", "fuzz.program"} <= names
