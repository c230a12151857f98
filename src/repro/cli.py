"""Command-line entry points mirroring the paper's artifact scripts.

The paper's Docker artifact ships ``table-v.py``, ``table-ii.py``, etc.
(Appendix A); here the same experiments run as subcommands::

    python -m repro table-i
    python -m repro table-ii [--programs N] [--pairs N]
    python -m repro table-iv [--cores P E] [--no-parsec]
    python -m repro table-v  [--suite S ...]
    python -m repro figure-5
    python -m repro figure-6 [--bench NAME ...]
    python -m repro ablations
    python -m repro workloads
    python -m repro bench [--quick] [--only NAME ...] [--report FILE]
    python -m repro fuzz  [--defense D] [--contract C] [--programs N]
                          [--mitigation M] [--report-dir DIR]
    python -m repro work  --spool DIR [--lease S] [--max-jobs N]
    python -m repro explain WITNESS.json [--minimize]
    python -m repro diff  [--programs N] [--defense D ...] [--core P E]
                          [--workload NAME ...]
    python -m repro cache [--wipe]
    python -m repro stats WORKLOAD [--defense D] [--instrument C]
    python -m repro speculation [--workload NAME ...] [--defense D ...]
                          [--json] [--ledger-out FILE]
    python -m repro trace WORKLOAD [--out FILE] [--fmt chrome|text]
    python -m repro profile WORKLOAD [--top N] [--collapsed FILE]
    python -m repro history [--metric M ...] [--limit N]
    python -m repro compare OLD NEW [--threshold PCT]
    python -m repro trace-merge DIR [--out FILE]
    python -m repro top --spool DIR [--interval S] [--once]

Every simulation-heavy subcommand takes ``--jobs N`` to fan its run
matrix out over worker processes (default: ``REPRO_JOBS`` env, then
``os.cpu_count()``); results persist in ``benchmarks/.cache/``.

``repro fuzz`` exits nonzero when a *protected* defense records
violations, so CI can gate on the security result; with
``--report-dir`` it also emits leak witnesses, a JSONL event log, and a
Markdown forensics report that ``repro explain`` can dig into.

``repro bench --fabric DIR`` / ``repro fuzz --fabric DIR`` shard the
run matrix through the campaign fabric: a broker spools jobs into DIR
and workers started with ``repro work --spool DIR`` (any host sharing
the filesystem) lease and execute them; the merged result is
byte-identical to a local run.

``repro bench --trace-out FILE`` / ``repro fuzz --trace-out FILE``
record the whole invocation as a span tree and write one merged
Chrome-trace JSON (Perfetto-loadable).  With ``--fabric`` the trace
context rides in the spool, workers record their own span shards into
the spool's ``metrics/`` directory, and the merged timeline covers
every process — ``repro trace-merge DIR`` re-merges a spool's shards
after the fact, and ``repro top --spool DIR`` is a live terminal
monitor for a draining spool.

``repro bench`` and ``repro fuzz`` attach a metrics registry and append
one record per invocation (git SHA, host fingerprint, metrics snapshot,
per-table geomeans) to the run ledger at
``benchmarks/results/ledger.db`` (``REPRO_LEDGER`` overrides the path,
``--no-ledger``/``REPRO_NO_LEDGER=1`` disable it).  ``repro history``
renders the trajectory; ``repro compare`` diffs two records and exits
nonzero on a perf or overhead-fidelity regression beyond the threshold.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import List, Optional


def _emit(result) -> None:
    print(result.render())


def _add_jobs(parser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: REPRO_JOBS or cpu count)")


#: Builders the ``bench`` subcommand can run, in print order.
BENCH_TARGETS = ("table-i", "table-ii", "table-iv", "table-v",
                 "figure-5", "figure-6", "ablations", "attribution",
                 "mitigations")


def _add_spec_args(parser) -> None:
    """Shared RunSpec arguments for the stats/trace subcommands."""
    parser.add_argument("workload", help="registered workload name")
    parser.add_argument("--defense", default="unsafe",
                        help="defense harness name")
    parser.add_argument("--instrument", default=None,
                        help="ProtCC class ('auto' = workload's own)")
    parser.add_argument("--core", default="P", choices=["P", "E"])


def _make_spec(args):
    from .bench import DEFENSES, RunSpec

    if args.defense not in DEFENSES:
        print(f"unknown defense {args.defense!r}; "
              f"known: {', '.join(sorted(DEFENSES))}", file=sys.stderr)
        return None
    return RunSpec(workload=args.workload, defense=args.defense,
                   instrument=args.instrument, core=args.core)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (every subcommand)."""
    from .uarch.pipeline import ENGINES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the Protean paper's tables and figures.")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress (-v: info, -vv: debug)")
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table-i", help="per-class overhead summary (Tab. I)")
    _add_jobs(t1)

    t2 = sub.add_parser("table-ii",
                        help="AMuLeT* contract-violation grid (Tab. II)")
    t2.add_argument("--programs", type=int, default=6)
    t2.add_argument("--pairs", type=int, default=3)
    t2.add_argument("--seed", type=int, default=2026)
    t2.add_argument("--report-dir", default=None, metavar="DIR",
                    help="emit leak-witness forensics for violating cells")
    _add_jobs(t2)

    t4 = sub.add_parser("table-iv",
                        help="geomean runtimes, 8 Protean configs (Tab. IV)")
    t4.add_argument("--cores", nargs="+", default=["P", "E"],
                    choices=["P", "E"])
    t4.add_argument("--no-parsec", action="store_true")
    _add_jobs(t4)

    t5 = sub.add_parser("table-v",
                        help="single-class suites + nginx (Tab. V)")
    t5.add_argument("--suite", nargs="+",
                    default=["arch-wasm", "cts-crypto", "ct-crypto",
                             "unr-crypto", "nginx"])
    _add_jobs(t5)

    f5 = sub.add_parser("figure-5", help="access-predictor sweep (Fig. 5)")
    _add_jobs(f5)

    f6 = sub.add_parser("figure-6",
                        help="per-benchmark runtimes (Fig. 6)")
    f6.add_argument("--bench", nargs="+", default=None)
    _add_jobs(f6)

    ab = sub.add_parser("ablations", help="all SIX-A ablation studies")
    _add_jobs(ab)

    sub.add_parser("workloads", help="list registered workloads")

    bench = sub.add_parser(
        "bench", help="run the whole table/figure suite in one go")
    bench.add_argument("--quick", action="store_true",
                       help="reduced-size variants (REPRO_QUICK-style)")
    bench.add_argument("--only", nargs="+", default=None,
                       choices=BENCH_TARGETS)
    bench.add_argument("--report", default=None, metavar="FILE",
                       help="also write a JSON report of the tables")
    bench.add_argument("--engine", default=None, choices=ENGINES,
                       help="simulation engine for cache misses and for "
                            "the contract checks inside table-ii "
                            "(default: REPRO_ENGINE, then compiled, "
                            "which falls back to ref for shapes it "
                            "refuses)")
    bench.add_argument("--no-ledger", action="store_true",
                       help="skip appending a run-ledger record")
    bench.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write the metrics snapshot as JSON "
                            "(FILE.prom gets the Prometheus rendition)")
    bench.add_argument("--fabric", default=None, metavar="DIR",
                       help="shard the run matrix through the campaign "
                            "fabric spool at DIR (start workers with "
                            "`repro work --spool DIR`)")
    bench.add_argument("--trace-out", default=None, metavar="FILE",
                       help="record the invocation as a span tree and "
                            "write one merged Chrome trace (with "
                            "--fabric, includes worker spans)")
    _add_jobs(bench)

    fuzz = sub.add_parser(
        "fuzz", help="run one AMuLeT*-style fuzzing campaign")
    fuzz.add_argument("--defense", default="unsafe",
                      help="defense harness name (see repro.bench.DEFENSES)")
    fuzz.add_argument("--contract", default="unprot-seq",
                      choices=["arch-seq", "cts-seq", "ct-seq",
                               "unprot-seq"])
    fuzz.add_argument("--instrument", default="rand",
                      help="ProtCC instrumentation class (or 'rand')")
    fuzz.add_argument("--mitigation", default=None,
                      help="software mitigation pass applied to every "
                           "generated program (see "
                           "repro.protcc.MITIGATIONS); typically paired "
                           "with --defense unsafe to test the pass alone")
    fuzz.add_argument("--programs", type=int, default=10)
    fuzz.add_argument("--pairs", type=int, default=4)
    fuzz.add_argument("--size", type=int, default=40,
                      help="generated program size")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--report-dir", default=None, metavar="DIR",
                      help="capture leak witnesses and write a forensics "
                           "report + JSONL event log to DIR")
    fuzz.add_argument("--max-checks", type=int, default=200, metavar="N",
                      help="witness-minimization budget, in contract "
                           "re-checks (default: 200)")
    fuzz.add_argument("--no-minimize", action="store_true",
                      help="write witnesses verbatim, skipping "
                           "delta-debugging minimization")
    fuzz.add_argument("--no-ledger", action="store_true",
                      help="skip appending a run-ledger record")
    fuzz.add_argument("--fabric", default=None, metavar="DIR",
                      help="shard per-program units through the campaign "
                           "fabric spool at DIR")
    fuzz.add_argument("--trace-out", default=None, metavar="FILE",
                      help="record the campaign as a span tree and "
                           "write one merged Chrome trace (with "
                           "--fabric, includes worker spans)")
    _add_jobs(fuzz)

    work = sub.add_parser(
        "work", help="run a campaign-fabric worker against a spool")
    work.add_argument("--spool", required=True, metavar="DIR",
                      help="spool directory shared with the broker")
    work.add_argument("--lease", type=float, default=30.0, metavar="S",
                      help="lease duration in seconds (default: 30)")
    work.add_argument("--poll", type=float, default=0.5, metavar="S",
                      help="idle poll interval (default: 0.5)")
    work.add_argument("--idle-timeout", type=float, default=None,
                      metavar="S",
                      help="exit after S seconds with nothing claimable "
                           "(default: run until signalled)")
    work.add_argument("--max-jobs", type=int, default=None, metavar="N",
                      help="exit after claiming N jobs")
    work.add_argument("--timeout", type=float, default=None, metavar="S",
                      help="per-job wall-clock limit "
                           "(default: executor default)")
    work.add_argument("--name", default=None,
                      help="worker identity (default: host-pid)")

    ex = sub.add_parser(
        "explain", help="replay a leak witness and name the transmitter")
    ex.add_argument("witness", metavar="WITNESS.json",
                    help="witness file written by fuzz --report-dir")
    ex.add_argument("--minimize", action="store_true",
                    help="minimize the witness before explaining it")
    ex.add_argument("--max-checks", type=int, default=200, metavar="N",
                    help="minimization budget (default: 200)")
    ex.add_argument("--json", action="store_true",
                    help="emit the explanation as JSON")
    ex.add_argument("--save-minimized", default=None, metavar="FILE",
                    help="also write the minimized witness to FILE")

    diff = sub.add_parser(
        "diff", help="prove the compiled engine cycle-identical to the "
                     "reference engine; exits nonzero on any divergence")
    diff.add_argument("--programs", type=int, default=3, metavar="N",
                      help="random programs per (defense, class, core) "
                           "cell (default: 3)")
    diff.add_argument("--seed", type=int, default=0)
    diff.add_argument("--size", type=int, default=40,
                      help="generated program size")
    diff.add_argument("--defense", nargs="+", default=None,
                      help="defense subset (default: all)")
    diff.add_argument("--core", nargs="+", default=["P", "E"],
                      choices=["P", "E"])
    diff.add_argument("--no-fixtures", action="store_true",
                      help="skip the security-fixture differential runs")
    diff.add_argument("--workload", nargs="+", default=None,
                      metavar="NAME",
                      help="also differentially run these workloads "
                           "under every defense")
    diff.add_argument("--report", default=None, metavar="FILE",
                      help="write the divergence report (all diverging "
                           "cases + timing) to FILE")

    cache = sub.add_parser(
        "cache", help="inspect or wipe the persistent result cache")
    cache.add_argument("--wipe", action="store_true")

    st = sub.add_parser(
        "stats", help="full stats report for one simulation spec")
    _add_spec_args(st)
    st.add_argument("--json", action="store_true",
                    help="emit the raw RunSummary as JSON")

    tr = sub.add_parser(
        "trace", help="record a per-uop pipeline trace for one spec")
    _add_spec_args(tr)
    tr.add_argument("--out", default="trace.json", metavar="FILE",
                    help="output path (default: trace.json)")
    tr.add_argument("--fmt", default="chrome", choices=["chrome", "text"],
                    help="chrome: Perfetto-loadable JSON; text: Konata-"
                         "style pipeline view")
    tr.add_argument("--max-uops", type=int, default=100_000,
                    help="record at most N uops (bounds trace size)")

    pr = sub.add_parser(
        "profile", help="cProfile one spec, aggregated by simulator "
                        "subsystem")
    _add_spec_args(pr)
    pr.add_argument("--top", type=int, default=15, metavar="N",
                    help="functions to list (default: 15)")
    pr.add_argument("--collapsed", default=None, metavar="FILE",
                    help="write flamegraph-style collapsed stacks")
    pr.add_argument("--json", action="store_true",
                    help="emit the profile report as JSON")

    hist = sub.add_parser(
        "history", help="render metric trends from the run ledger")
    hist.add_argument("--metric", nargs="+", default=None, metavar="M",
                      help="metric/table name substrings to column-ize "
                           "(default: command_seconds)")
    hist.add_argument("--limit", type=int, default=20, metavar="N",
                      help="show the N most recent records")
    hist.add_argument("--ledger", default=None, metavar="DB",
                      help="ledger path (default: "
                           "benchmarks/results/ledger.db)")
    hist.add_argument("--json", action="store_true")

    tm = sub.add_parser(
        "trace-merge", help="merge a spool's span shards into one "
                            "Chrome trace")
    tm.add_argument("directory", metavar="DIR",
                    help="spool directory (or its metrics/ subdir)")
    tm.add_argument("--out", default="campaign-trace.json", metavar="FILE",
                    help="output path (default: campaign-trace.json)")

    top = sub.add_parser(
        "top", help="live terminal monitor for a campaign-fabric spool")
    top.add_argument("--spool", required=True, metavar="DIR",
                     help="spool directory shared with broker and workers")
    top.add_argument("--interval", type=float, default=2.0, metavar="S",
                     help="refresh interval in seconds (default: 2)")
    top.add_argument("--once", action="store_true",
                     help="print one snapshot and exit (scripts, CI logs)")

    cmp_ = sub.add_parser(
        "compare", help="diff two ledger records; exits nonzero on a "
                        "perf or fidelity regression")
    cmp_.add_argument("old", help="record: #id, SHA prefix, latest, prev")
    cmp_.add_argument("new", help="record: #id, SHA prefix, latest, prev")
    cmp_.add_argument("--threshold", type=float, default=10.0,
                      metavar="PCT",
                      help="relative regression threshold in percent "
                           "(default: 10)")
    cmp_.add_argument("--ledger", default=None, metavar="DB")
    cmp_.add_argument("--json", action="store_true")

    spec_ = sub.add_parser(
        "speculation",
        help="per-defense intervention anatomy from the speculation "
             "observatory")
    spec_.add_argument("--workload", nargs="+", default=None,
                       metavar="NAME",
                       help="workloads to aggregate over (default: quick "
                            "SPEC-like subset)")
    spec_.add_argument("--defense", nargs="+", default=None, metavar="D",
                       help="defense harnesses to profile (default: the "
                            "attribution set)")
    spec_.add_argument("--core", default="P", choices=["P", "E"])
    spec_.add_argument("--json", action="store_true",
                       help="emit the per-defense anatomy as JSON")
    spec_.add_argument("--ledger-out", default=None, metavar="FILE",
                       help="trace the first workload x first "
                            "intervening defense and write its Chrome "
                            "trace (pipeline + interventions) here")
    _add_jobs(spec_)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.verbose:
        logging.basicConfig(
            level=logging.DEBUG if args.verbose > 1 else logging.INFO,
            format="%(asctime)s %(name)s %(levelname)s: %(message)s")

    # Imports deferred so `--help` stays instant.
    from .bench import (
        access_mechanisms,
        bugfix_overhead,
        control_model,
        figure_5,
        figure_6,
        l1d_tag_variants,
        protcc_overhead,
        table_i,
        table_ii,
        table_iv,
        table_v,
    )

    if args.command == "table-i":
        _emit(table_i(jobs=args.jobs))
    elif args.command == "table-ii":
        _emit(table_ii(n_programs=args.programs, pairs=args.pairs,
                       seed=args.seed, jobs=args.jobs,
                       report_dir=args.report_dir))
        if args.report_dir:
            print(f"forensics artifacts written to {args.report_dir}")
    elif args.command == "table-iv":
        _emit(table_iv(cores=tuple(args.cores),
                       include_parsec=not args.no_parsec, jobs=args.jobs))
    elif args.command == "table-v":
        _emit(table_v(include=tuple(args.suite), jobs=args.jobs))
    elif args.command == "figure-5":
        _emit(figure_5(jobs=args.jobs))
    elif args.command == "figure-6":
        names = tuple(args.bench) if args.bench else None
        _emit(figure_6(names, jobs=args.jobs))
    elif args.command == "ablations":
        for builder in (protcc_overhead, l1d_tag_variants,
                        access_mechanisms, control_model, bugfix_overhead):
            _emit(builder(jobs=args.jobs))
            print()
    elif args.command == "bench":
        return _run_bench_suite(args)
    elif args.command == "fuzz":
        return _run_fuzz(args)
    elif args.command == "work":
        return _run_work(args)
    elif args.command == "explain":
        return _run_explain(args)
    elif args.command == "diff":
        return _run_diff(args)
    elif args.command == "cache":
        return _run_cache(args)
    elif args.command == "stats":
        return _run_stats(args)
    elif args.command == "speculation":
        return _run_speculation(args)
    elif args.command == "trace":
        return _run_trace(args)
    elif args.command == "profile":
        return _run_profile(args)
    elif args.command == "history":
        return _run_history(args)
    elif args.command == "trace-merge":
        return _run_trace_merge(args)
    elif args.command == "top":
        return _run_top(args)
    elif args.command == "compare":
        return _run_compare(args)
    elif args.command == "workloads":
        from .workloads import get_workload, workload_names

        for name in workload_names():
            workload = get_workload(name)
            print(f"{name:<18} {workload.suite:<11} "
                  f"baseline={workload.baseline:<7} "
                  f"{workload.description}")
    return 0


def _run_bench_suite(args) -> int:
    """``repro bench``: every table/figure through the batch executor,
    with a metrics registry attached and one run-ledger record appended
    per invocation."""
    import time

    from .bench import (
        SPEC,
        SPEC_INT_FAST,
        access_mechanisms,
        bugfix_overhead,
        control_model,
        figure_5,
        figure_6,
        l1d_tag_variants,
        mitigation_table,
        overhead_attribution,
        protcc_overhead,
        table_i,
        table_ii,
        table_iv,
        table_v,
        write_report,
    )
    from .metrics import MetricsRegistry, attached

    quick = args.quick
    jobs = args.jobs
    if getattr(args, "engine", None):
        # Via the environment so pool workers, and every simulate() call
        # in this process, inherit the choice.
        os.environ["REPRO_ENGINE"] = args.engine
    if getattr(args, "fabric", None):
        # Same pattern: run_batch picks REPRO_FABRIC up wherever the
        # builders call it.
        os.environ["REPRO_FABRIC"] = args.fabric
    targets = tuple(args.only) if args.only else BENCH_TARGETS
    tables = []

    def build(name):
        if name == "table-i":
            return [table_i(jobs=jobs)]
        if name == "table-ii":
            kwargs = dict(n_programs=3, pairs=2) if quick \
                else dict(n_programs=6, pairs=3)
            return [table_ii(jobs=jobs, **kwargs)]
        if name == "table-iv":
            cores = ("P",) if quick else ("P", "E")
            return [table_iv(cores=cores, include_parsec=not quick,
                             jobs=jobs)]
        if name == "table-v":
            include = ("ct-crypto", "unr-crypto") if quick else \
                ("arch-wasm", "cts-crypto", "ct-crypto", "unr-crypto",
                 "nginx")
            return [table_v(include=include, jobs=jobs)]
        if name == "figure-5":
            sweep = (2, 1024, "inf") if quick \
                else (2, 4, 16, 256, 1024, "inf")
            names = SPEC_INT_FAST[:3] if quick else SPEC_INT_FAST
            return [figure_5(sweep, names, jobs=jobs)]
        if name == "figure-6":
            names = SPEC[:4] if quick else None
            return [figure_6(names, jobs=jobs)]
        if name == "attribution":
            from .bench.tables import speculation_anatomy

            names = SPEC_INT_FAST[:3] if quick else SPEC_INT_FAST
            return [overhead_attribution(names, jobs=jobs),
                    speculation_anatomy(names, jobs=jobs)]
        if name == "mitigations":
            names = SPEC_INT_FAST[:3] if quick else SPEC_INT_FAST
            return [mitigation_table(names, jobs=jobs)]
        ablations = []
        for builder in (protcc_overhead, l1d_tag_variants,
                        access_mechanisms, control_model, bugfix_overhead):
            names = SPEC_INT_FAST[:3] if quick else SPEC_INT_FAST
            ablations.append(builder(names, jobs=jobs))
        return ablations

    registry = MetricsRegistry()
    recorder, root_span = _start_cli_trace(
        getattr(args, "trace_out", None), "bench.cli",
        {"targets": " ".join(targets), "quick": quick})
    started = time.monotonic()
    try:
        with attached(registry):
            for name in targets:
                for table in build(name):
                    tables.append(table)
                    _emit(table)
                    print()
    finally:
        if recorder is not None:
            _finish_cli_trace(recorder, root_span, args.trace_out,
                              fabric=getattr(args, "fabric", None))
    elapsed = time.monotonic() - started

    counters = registry.snapshot()["counters"]
    hits = counters.get("cache.memory_hits", 0) \
        + counters.get("cache.disk_hits", 0)
    misses = counters.get("cache.misses", 0)
    total = hits + misses
    print(f"[cache] {hits} hits "
          f"({counters.get('cache.memory_hits', 0)} mem, "
          f"{counters.get('cache.disk_hits', 0)} disk), "
          f"{misses} simulated"
          + (f", {100 * hits / total:.0f}% hit rate" if total else ""))

    if args.report:
        write_report(tables, args.report)
        print(f"report written to {args.report}")
    if args.metrics_out:
        import pathlib

        out = pathlib.Path(args.metrics_out)
        out.write_text(registry.to_json() + "\n")
        out.with_suffix(out.suffix + ".prom").write_text(
            registry.to_prometheus())
        print(f"metrics snapshot written to {out}")
    _append_ledger(
        command="bench " + " ".join(targets) + (" --quick" if quick
                                                else ""),
        config={"targets": targets, "quick": quick, "jobs": jobs},
        tables=tables, registry=registry, elapsed_s=elapsed,
        disabled=args.no_ledger)
    return 0


def _start_cli_trace(trace_out, name: str, attrs):
    """``--trace-out`` wiring: attach a span recorder with one root
    span covering the whole invocation.  Returns ``(None, None)`` when
    tracing was not requested — the zero-overhead default."""
    if not trace_out:
        return None, None
    from .metrics.spans import SpanRecorder, set_recorder

    recorder = SpanRecorder()
    set_recorder(recorder)
    return recorder, recorder.start(name, attrs=attrs, push=True)


def _finish_cli_trace(recorder, root_span, trace_out,
                      fabric=None) -> None:
    """Finish the invocation's root span and write the merged Chrome
    trace, folding in the spool's broker/worker shards when the run
    went through the fabric.  The merger dedups by span id, so spans
    that exist both in this recorder and in a shard count once."""
    from .metrics.spans import (
        load_shards,
        set_recorder,
        write_merged_trace,
    )

    recorder.finish(root_span)
    set_recorder(None)
    spans = list(recorder.spans)
    offsets = {}
    if fabric:
        shard_spans, offsets = load_shards(fabric)
        spans.extend(shard_spans)
    path = write_merged_trace(trace_out, spans, clock_offsets=offsets)
    print(f"campaign trace written to {path} "
          f"(load in Perfetto / chrome://tracing)")


def _append_ledger(command: str, config, tables, registry,
                   elapsed_s: float, disabled: bool) -> None:
    """Append one run-ledger record (best-effort: a read-only ledger
    directory must never fail the invocation that produced results)."""
    from .metrics import (
        append_record,
        default_ledger_path,
        ledger_enabled,
        make_record,
    )

    if disabled or not ledger_enabled():
        return
    record = make_record(command=command, tables=tables,
                         registry=registry, config=config,
                         extra_metrics={"command_seconds": elapsed_s})
    try:
        record = append_record(record)
    except OSError as exc:
        print(f"[ledger] not recorded: {exc}", file=sys.stderr)
        return
    print(f"[ledger] appended record {record.label()} "
          f"to {default_ledger_path()}")


def _run_fuzz(args) -> int:
    """``repro fuzz``: one campaign cell, parallel at program level.

    Exit status: 0 on a clean (or unsafe-baseline) run, 1 when a
    protected defense recorded violations, 2 on bad arguments."""
    import time

    from .bench.executor import resolve_jobs
    from .bench.runner import DEFENSES
    from .contracts import Contract
    from .fuzzing import CampaignConfig, run_campaign
    from .metrics import MetricsRegistry, attached

    if args.defense not in DEFENSES:
        print(f"unknown defense {args.defense!r}; "
              f"known: {', '.join(sorted(DEFENSES))}", file=sys.stderr)
        return 2
    if args.mitigation is not None:
        from .protcc import MITIGATIONS

        if args.mitigation not in MITIGATIONS:
            print(f"unknown mitigation {args.mitigation!r}; "
                  f"known: {', '.join(sorted(MITIGATIONS))}",
                  file=sys.stderr)
            return 2
        if args.contract == "cts-seq":
            print("--mitigation cannot be combined with --contract "
                  "cts-seq: mitigation passes move instruction "
                  "positions, invalidating the contract's "
                  "public-definition PCs", file=sys.stderr)
            return 2
    config = CampaignConfig(
        defense_factory=DEFENSES[args.defense],
        contract=Contract(args.contract),
        instrumentation=args.instrument,
        n_programs=args.programs,
        pairs_per_program=args.pairs,
        program_size=args.size,
        seed=args.seed,
        defense_name=args.defense,
        collect_witnesses=args.report_dir is not None,
        mitigation=args.mitigation,
    )
    recorder, root_span = _start_cli_trace(
        getattr(args, "trace_out", None), "fuzz.cli",
        {"defense": args.defense, "contract": args.contract,
         "instrument": args.instrument, "programs": args.programs,
         "mitigation": args.mitigation or ""})
    reporter = None
    on_program = None
    if args.report_dir is not None:
        import pathlib

        from .forensics import CampaignReporter

        reporter = CampaignReporter(
            pathlib.Path(args.report_dir) / "events.jsonl")
        reporter.campaign_start(config, resolve_jobs(args.jobs))
        on_program = reporter.on_program
    registry = MetricsRegistry()
    started = time.monotonic()
    try:
        with attached(registry):
            result = run_campaign(config, jobs=args.jobs,
                                  on_program=on_program,
                                  fabric=args.fabric)
        if reporter is not None:
            reporter.campaign_end(result)
    finally:
        if reporter is not None:
            reporter.close()
        if recorder is not None:
            _finish_cli_trace(recorder, root_span, args.trace_out,
                              fabric=args.fabric)
    _append_ledger(
        command=f"fuzz {args.defense} {args.contract}",
        config={"defense": args.defense, "contract": args.contract,
                "instrument": args.instrument, "programs": args.programs,
                "pairs": args.pairs, "size": args.size, "seed": args.seed,
                "mitigation": args.mitigation},
        tables=[], registry=registry,
        elapsed_s=time.monotonic() - started, disabled=args.no_ledger)
    mitigated = f" + {args.mitigation}" if args.mitigation else ""
    print(f"{args.defense}{mitigated} vs {args.contract} "
          f"(ProtCC-{args.instrument.upper()}): {result.summary()}")
    for program_seed, pair_index, adversary in result.violation_sites:
        print(f"  violation: program seed {program_seed}, "
              f"pair {pair_index}, adversary {adversary}")
    if args.report_dir is not None:
        from .bench.tables import SPEC_INT_FAST, speculation_anatomy
        from .forensics import write_forensics_report

        anatomy = None
        if args.defense != "unsafe":
            # Where this defense spends its intervention budget on the
            # quick benchmark subset — context for the witnesses below.
            instrument = "auto" if args.defense in ("delay", "track") \
                else None
            anatomy = speculation_anatomy(
                SPEC_INT_FAST[:3], ((args.defense, instrument),),
                jobs=args.jobs).render()
        written = write_forensics_report(
            result, args.report_dir,
            minimize=not args.no_minimize,
            max_checks=args.max_checks,
            title=f"Leak forensics: {args.defense} vs {args.contract} "
                  f"(ProtCC-{args.instrument.upper()})",
            anatomy=anatomy)
        print(f"forensics: {len(written)} artifacts in {args.report_dir}")
    if result.violations and args.defense != "unsafe":
        print(f"FAIL: protected defense {args.defense!r} recorded "
              f"{result.violations} contract violations", file=sys.stderr)
        return 1
    if result.violations and args.mitigation is not None:
        from .protcc import SECURE_MITIGATIONS

        if args.mitigation in SECURE_MITIGATIONS:
            print(f"FAIL: mitigation {args.mitigation!r} claims contract "
                  f"security but recorded {result.violations} violations",
                  file=sys.stderr)
            return 1
    return 0


def _run_work(args) -> int:
    """``repro work``: one campaign-fabric worker loop.

    Runs with a metrics registry attached so per-worker counters land
    in the spool's ``metrics/<worker>.prom`` textfile after every job."""
    from .bench.fabric import run_worker
    from .metrics import MetricsRegistry, attached

    with attached(MetricsRegistry()):
        stats = run_worker(
            args.spool, lease_s=args.lease, poll_s=args.poll,
            idle_timeout_s=args.idle_timeout, max_jobs=args.max_jobs,
            job_timeout_s=args.timeout, name=args.name)
    print(stats.line())
    return 0


def _run_explain(args) -> int:
    """``repro explain``: replay a witness and report the transmitter."""
    import json

    from .forensics import (
        LeakWitness,
        WitnessError,
        explain_witness,
        minimize_witness,
    )

    try:
        witness = LeakWitness.load(args.witness)
    except WitnessError as exc:
        print(f"cannot load witness: {exc}", file=sys.stderr)
        return 2
    try:
        if args.minimize:
            witness = minimize_witness(witness, max_checks=args.max_checks)
            if args.save_minimized:
                witness.save(args.save_minimized)
                print(f"minimized witness written to {args.save_minimized}",
                      file=sys.stderr)
        explanation = explain_witness(witness)
    except WitnessError as exc:
        print(f"cannot explain witness: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(explanation.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"witness: {witness.describe()}")
        print(explanation.render())
    return 0


def _run_stats(args) -> int:
    """``repro stats``: the full per-run stats schema, rendered."""
    import json

    from .bench import format_run_stats, run_batch
    from .bench.runner import CORES

    spec = _make_spec(args)
    if spec is None:
        return 2
    summary = run_batch([spec], jobs=1)[spec]
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_run_stats(spec, summary, CORES[spec.core].width))
    return 0


def _run_speculation(args) -> int:
    """``repro speculation``: the observatory's per-defense anatomy.

    Aggregates the always-on telemetry over a workload matrix (cached,
    batch-executed) into a per-defense table of intervention episodes
    and delay cycles per gating hook, plus transient-uop pressure.
    ``--ledger-out`` additionally attaches a
    :class:`~repro.uarch.trace.PipelineTracer` to one run and writes
    its pipeline + intervention Chrome trace."""
    import json

    from .bench.runner import DEFENSES
    from .bench.tables import (
        ATTRIBUTION_DEFENSES,
        SPEC_INT_FAST,
        speculation_anatomy,
    )

    if args.defense:
        unknown = set(args.defense) - set(DEFENSES)
        if unknown:
            print(f"unknown defenses: {', '.join(sorted(unknown))}; "
                  f"known: {', '.join(sorted(DEFENSES))}",
                  file=sys.stderr)
            return 2
        defenses = tuple(
            (d, "auto" if d in ("delay", "track") else None)
            for d in args.defense)
    else:
        defenses = ATTRIBUTION_DEFENSES
    names = tuple(args.workload) if args.workload else SPEC_INT_FAST[:3]

    result = speculation_anatomy(names, defenses, jobs=args.jobs,
                                 core=args.core)
    if args.json:
        print(json.dumps({"workloads": list(names), "core": args.core,
                          "defenses": result.data},
                         indent=2, sort_keys=True))
    else:
        _emit(result)

    if args.ledger_out:
        from .bench.runner import RunSpec, execute_spec
        from .uarch.trace import PipelineTracer, write_chrome_trace

        target = next(
            ((d, i) for d, i in defenses
             if any(hook["interventions"]
                    for hook in result.data[d]["hooks"].values())),
            None)
        if target is None:
            print("no defense intervened on this matrix; "
                  "nothing to trace", file=sys.stderr)
            return 1
        defense, instrument = target
        spec = RunSpec(workload=names[0], defense=defense,
                       instrument=instrument, core=args.core)
        tracer = PipelineTracer()
        run = execute_spec(spec, tracer=tracer)
        path = write_chrome_trace(args.ledger_out, tracer,
                                  label=f"{names[0]}/{defense}")
        print(f"{names[0]}/{defense}: {run.cycles} cycles, "
              f"{len(tracer.events)} intervention events "
              f"({tracer.dropped_events} dropped, "
              f"{sum(e.delay for e in tracer.events)} delay cycles)")
        print(f"chrome trace (pipeline + intervention overlay) "
              f"written to {path}")
    return 0


def _run_trace(args) -> int:
    """``repro trace``: record and export a pipeline event trace."""
    from .bench.runner import execute_spec
    from .uarch.trace import (
        PipelineTracer,
        text_pipeline,
        write_chrome_trace,
    )

    spec = _make_spec(args)
    if spec is None:
        return 2
    tracer = PipelineTracer(max_uops=args.max_uops)
    result = execute_spec(spec, tracer=tracer)
    if args.fmt == "chrome":
        path = write_chrome_trace(args.out, tracer, label=spec.workload)
        print(f"{spec.workload}: {result.cycles} cycles, "
              f"{len(tracer.uops)} uops recorded "
              f"({tracer.dropped} dropped), "
              f"{len(tracer.events)} intervention events")
        print(f"chrome trace written to {path} "
              f"(load in Perfetto / chrome://tracing)")
    else:
        import pathlib

        text = text_pipeline(tracer)
        pathlib.Path(args.out).write_text(text + "\n")
        print(f"text pipeline view written to {args.out}")
    return 0


def _run_diff(args) -> int:
    """``repro diff``: the engine-equivalence proof harness.

    Runs the randomized defense x ProtCC-class x core grid (plus the
    security fixtures, mitigated binaries, and any requested workloads)
    on the reference and the compiled engine and reports divergences
    plus per-case wall time.  Exit status: 0 when every run is
    identical, 1 otherwise, 2 on bad arguments."""
    import time

    from .bench.runner import DEFENSES
    from .uarch.refcore import (
        ENGINE_PAIR,
        diff_cases,
        fixture_cases,
        mitigation_cases,
        run_case,
    )

    if args.defense:
        unknown = set(args.defense) - set(DEFENSES)
        if unknown:
            print(f"unknown defenses: {', '.join(sorted(unknown))}; "
                  f"known: {', '.join(sorted(DEFENSES))}",
                  file=sys.stderr)
            return 2
    checked = divergent = 0
    started = time.monotonic()
    timings = []  # (seconds, label)
    divergent_lines = []

    def tally(report, seconds: float) -> None:
        nonlocal checked, divergent
        checked += 1
        timings.append((seconds, report.label))
        if not report.identical:
            divergent += 1
            divergent_lines.append(report.render())
            print(report.render())

    def timed(thunk):
        case_started = time.monotonic()
        report = thunk()
        tally(report, time.monotonic() - case_started)

    for case in diff_cases(programs=args.programs, seed=args.seed,
                           defenses=tuple(args.defense)
                           if args.defense else None,
                           cores=tuple(args.core)):
        timed(lambda c=case: run_case(c, program_size=args.size))
    if not args.no_fixtures:
        fixture_iter = fixture_cases()
        while True:
            case_started = time.monotonic()
            try:
                _, report = next(fixture_iter)
            except StopIteration:
                break
            tally(report, time.monotonic() - case_started)
        # Mitigated binaries (all four software passes over the
        # fixtures + one generated program) must agree across engines
        # too — the passes only add architectural no-ops.
        mitigation_iter = mitigation_cases(seed=args.seed)
        while True:
            case_started = time.monotonic()
            try:
                _, report = next(mitigation_iter)
            except StopIteration:
                break
            tally(report, time.monotonic() - case_started)
    if args.workload:
        workload_iter = _diff_workloads(args.workload,
                                        tuple(args.defense)
                                        if args.defense else None)
        while True:
            case_started = time.monotonic()
            try:
                report = next(workload_iter)
            except StopIteration:
                break
            tally(report, time.monotonic() - case_started)
    elapsed = time.monotonic() - started
    timing_lines = _diff_timing_lines(timings, elapsed)
    for line in timing_lines:
        print(line)
    status = "identical" if divergent == 0 else "DIVERGENT"
    summary = (f"{checked} differential runs "
               f"({','.join(ENGINE_PAIR)}), {divergent} divergent: "
               f"{status}")
    print(summary)
    if args.report:
        import pathlib

        body = "\n".join(divergent_lines + timing_lines + [summary])
        pathlib.Path(args.report).write_text(body + "\n")
        print(f"report written to {args.report}")
    return 1 if divergent else 0


def _diff_timing_lines(timings, elapsed: float) -> List[str]:
    """Render per-case wall time: total, mean, and the slowest 10."""
    if not timings:
        return []
    total = sum(seconds for seconds, _ in timings)
    lines = [f"[diff] {len(timings)} runs in {elapsed:.1f}s "
             f"(mean {1000 * total / len(timings):.0f}ms/run), "
             f"slowest:"]
    ranked = sorted(timings, reverse=True)[:10]
    width = max(len(label) for _, label in ranked)
    for seconds, label in ranked:
        lines.append(f"  {label:<{width}}  {seconds:8.3f}s")
    return lines


def _diff_workloads(names, defenses):
    """Differential runs of full workloads (both engines, every
    defense)."""
    from .bench.runner import DEFENSES
    from .protcc import compile_program
    from .uarch.refcore import run_engines
    from .workloads import get_workload

    for name in names:
        workload = get_workload(name)
        prot = compile_program(workload.program, workload.classes).program
        for dname, factory in DEFENSES.items():
            if defenses is not None and dname not in defenses:
                continue
            program = prot if factory().binary == "protcc" \
                else workload.program
            _, report = run_engines(
                program, factory, memory_factory=lambda w=workload: w.memory,
                regs=workload.regs, label=f"workload:{name}/{dname}")
            yield report


def _run_cache(args) -> int:
    """``repro cache``: show or wipe the persistent cache (results and
    compiled artifacts)."""
    from .bench.executor import cache_info, wipe_cache
    from .metrics import default_ledger_path, load_records

    if args.wipe:
        removed = wipe_cache()
        print(f"removed {removed} cached files")
    info = cache_info()
    state = "enabled" if info["enabled"] else "disabled (REPRO_NO_CACHE)"
    print(f"cache dir: {info['dir']} ({state})")
    print(f"entries:   {info['entries']} ({info['bytes']} bytes)")
    if default_ledger_path().exists():
        records = load_records(limit=1)
        if records:
            metrics = records[-1].metrics
            print(f"last run:  {records[-1].label()} — "
                  f"{metrics.get('cache.memory_hits', 0):.0f} mem hits, "
                  f"{metrics.get('cache.disk_hits', 0):.0f} disk hits, "
                  f"{metrics.get('cache.misses', 0):.0f} misses")
    return 0


def _run_profile(args) -> int:
    """``repro profile``: cProfile one spec, hotspots grouped by
    simulator subsystem, optional collapsed-stack flamegraph file."""
    import json

    from .metrics import profile_spec

    spec = _make_spec(args)
    if spec is None:
        return 2
    report = profile_spec(spec, top_n=args.top)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render(args.top))
    if args.collapsed:
        report.write_collapsed(args.collapsed)
        print(f"collapsed stacks written to {args.collapsed} "
              f"(feed to flamegraph.pl / speedscope)")
    return 0


def _filter_history_record(record: dict, patterns) -> dict:
    """``history --json --metric``: keep only the metrics/tables
    entries whose name contains one of the substrings; record identity
    fields (sha, time, command, …) always stay."""
    def keep(name: str) -> bool:
        return any(pattern in name for pattern in patterns)

    filtered = dict(record)
    filtered["metrics"] = {name: value
                           for name, value in record["metrics"].items()
                           if keep(name)}
    filtered["tables"] = {name: value
                          for name, value in record["tables"].items()
                          if keep(name)}
    return filtered


def _run_history(args) -> int:
    """``repro history``: metric trends across ledger records."""
    import json

    from .metrics import load_records, render_history

    records = load_records(path=args.ledger, limit=args.limit)
    if args.json:
        payload = [r.to_dict() for r in records]
        if args.metric:
            payload = [_filter_history_record(record, args.metric)
                       for record in payload]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not records:
        print("the run ledger is empty — run `repro bench` or "
              "`repro fuzz` to append a record")
        return 0
    print(render_history(records, metrics=args.metric))
    return 0


def _run_trace_merge(args) -> int:
    """``repro trace-merge``: merge a spool's span shards into one
    Chrome trace, after the fact (the broker does the same at the end
    of a ``--trace-out`` run).  Exit status: 0 on success, 1 when the
    directory holds no shards."""
    from .metrics.spans import load_shards, write_merged_trace

    spans, offsets = load_shards(args.directory)
    if not spans:
        print(f"no span shards (spans-*.jsonl) under {args.directory} — "
              f"run the campaign with --trace-out to record them",
              file=sys.stderr)
        return 1
    path = write_merged_trace(args.out, spans, clock_offsets=offsets)
    processes = {span.process for span in spans}
    print(f"merged {len(spans)} spans from {len(processes)} "
          f"process(es) into {path} "
          f"(load in Perfetto / chrome://tracing)")
    return 0


def _run_top(args) -> int:
    """``repro top``: the live spool monitor."""
    from .bench.fabric import run_top

    if not os.path.isdir(args.spool):
        print(f"no spool at {args.spool}", file=sys.stderr)
        return 2
    return run_top(args.spool, interval_s=args.interval, once=args.once)


def _run_compare(args) -> int:
    """``repro compare``: diff two ledger records.

    Exit status: 0 when the new record holds up, 1 on a perf or
    overhead-fidelity regression beyond the threshold, 2 when a record
    selector does not resolve."""
    import json

    from .metrics import (
        LedgerError,
        compare_records,
        load_records,
        resolve_record,
    )

    records = load_records(path=args.ledger)
    try:
        old = resolve_record(records, args.old)
        new = resolve_record(records, args.new)
    except LedgerError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    comparison = compare_records(old, new, threshold_pct=args.threshold)
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    else:
        print(comparison.render())
    return 1 if comparison.regressed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
