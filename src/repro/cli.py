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
    python -m repro explain WITNESS.json [--minimize]
    python -m repro diff  [--programs N] [--defense D ...] [--core P E]
                          [--workload NAME ...]
    python -m repro cache [--wipe]
    python -m repro stats WORKLOAD [--defense D] [--instrument C]
    python -m repro speculation [--workload NAME ...] [--defense D ...]
                          [--json]
    python -m repro trace WORKLOAD [--defense D] [--out FILE]
                          [--fmt chrome|text]
    python -m repro profile WORKLOAD [--top N] [--collapsed FILE]

Every simulation-heavy subcommand takes ``--jobs N`` to fan its run
matrix out over worker processes (default: ``REPRO_JOBS`` env, then
``os.cpu_count()``); results persist in ``benchmarks/.cache/``.

``repro fuzz`` exits nonzero when a *protected* defense records
violations, so CI can gate on the security result; with
``--report-dir`` it also emits leak witnesses, a JSONL event log, and a
Markdown forensics report that ``repro explain`` can dig into.

``repro bench --trace-out FILE`` / ``repro fuzz --trace-out FILE``
record the whole invocation as a span tree and write one merged
Chrome-trace JSON (Perfetto-loadable).  Pool workers record their own
spans under the trace context shipped with each job and return them
with the result, so the merged timeline covers every process.

``repro bench`` attaches a metrics registry for the invocation and
prints its cache line; ``--metrics-out FILE`` writes its JSON snapshot.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import contextmanager
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


def _refuse(kind: str, names, known) -> bool:
    """Print the ``names`` not in ``known`` to stderr and say whether
    there were any (the command then exits 2).  One name (a ``str``)
    prints as ``unknown <kind> 'x'; known: ...``, a list of names as
    ``unknown <kind>s: x, y; known: ...``."""
    known = sorted(known)
    if isinstance(names, str):
        if names in known:
            return False
        what = f"{kind} {names!r}"
    else:
        unknown = sorted(set(names) - set(known))
        if not unknown:
            return False
        what = f"{kind}s: {', '.join(unknown)}"
    print(f"unknown {what}; known: {', '.join(known)}", file=sys.stderr)
    return True


def _make_spec(args):
    from .bench import DEFENSES, RunSpec
    from .protcc import CLASSES
    from .workloads import workload_names

    if (_refuse("workload", args.workload, workload_names())
            or _refuse("defense", args.defense, DEFENSES)
            or (args.instrument is not None
                and _refuse("ProtCC class", args.instrument,
                            CLASSES + ("auto",)))):
        return None
    return RunSpec(workload=args.workload, defense=args.defense,
                   instrument=args.instrument, core=args.core)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (every subcommand)."""
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
    bench.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write the metrics snapshot as JSON")
    bench.add_argument("--trace-out", default=None, metavar="FILE",
                       help="record the invocation as a span tree and "
                            "write one merged Chrome trace (includes "
                            "pool workers' spans)")
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
    fuzz.add_argument("--trace-out", default=None, metavar="FILE",
                      help="record the campaign as a span tree and "
                           "write one merged Chrome trace (includes "
                           "pool workers' spans)")
    _add_jobs(fuzz)

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
        from .workloads import workload_names

        if _refuse("workload", args.bench or (), workload_names()):
            return 2
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
    with a metrics registry attached for the cache line and
    ``--metrics-out``."""
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
    from .metrics import MetricsRegistry

    quick = args.quick
    jobs = args.jobs
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
    with _cli_telemetry("bench.cli",
                        {"targets": " ".join(targets), "quick": quick},
                        args.trace_out, registry):
        for name in targets:
            for table in build(name):
                tables.append(table)
                _emit(table)
                print()

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
        print(f"metrics snapshot written to {out}")
    return 0


@contextmanager
def _cli_telemetry(name: str, attrs, trace_out=None, registry=None):
    """Attach ``registry`` for the invocation and, with ``--trace-out``,
    a span recorder whose root span ``name`` covers it; on exit
    (exceptions included) write the merged Chrome trace, which holds
    pool workers' spans adopted as their jobs finished."""
    from .metrics import SpanRecorder, attach, write_merged_trace

    recorder = SpanRecorder() if trace_out else None
    try:
        with attach(registry, recorder) as tel, tel.span(name, attrs):
            yield
    finally:
        if recorder is not None:
            path = write_merged_trace(trace_out, recorder.spans)
            print(f"campaign trace written to {path} "
                  f"(load in Perfetto / chrome://tracing)")


def _run_fuzz(args) -> int:
    """``repro fuzz``: one campaign cell, parallel at program level.

    Exit status: 0 on a clean (or unsafe-baseline) run, 1 when a
    protected defense recorded violations, 2 on bad arguments."""
    from .bench.executor import resolve_jobs
    from .bench.runner import DEFENSES
    from .contracts import Contract
    from .fuzzing import CampaignConfig, run_campaign
    from .protcc import CLASSES, MITIGATIONS

    if (_refuse("defense", args.defense, DEFENSES)
            or _refuse("ProtCC class", args.instrument, CLASSES)
            or (args.mitigation is not None
                and _refuse("mitigation", args.mitigation, MITIGATIONS))):
        return 2
    if args.mitigation is not None:
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
    with _cli_telemetry(
            "fuzz.cli",
            {"defense": args.defense, "contract": args.contract,
             "instrument": args.instrument, "programs": args.programs,
             "mitigation": args.mitigation or ""}, args.trace_out):
        if args.report_dir is None:
            result = run_campaign(config, jobs=args.jobs)
        else:
            import pathlib

            from .forensics import CampaignReporter

            with CampaignReporter(pathlib.Path(args.report_dir)
                                  / "events.jsonl") as reporter:
                reporter.campaign_start(config, resolve_jobs(args.jobs))
                result = run_campaign(config, jobs=args.jobs,
                                      on_program=reporter.on_program)
                reporter.campaign_end(result)
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
    ``repro trace`` records one run's interventions."""
    import json

    from .bench.runner import DEFENSES
    from .bench.tables import (
        ATTRIBUTION_DEFENSES,
        SPEC_INT_FAST,
        speculation_anatomy,
    )
    from .workloads import workload_names

    if (_refuse("defense", args.defense or (), DEFENSES)
            or _refuse("workload", args.workload or (), workload_names())):
        return 2
    if args.defense:
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
    from .uarch.pipeline import ENGINES
    from .uarch.refcore import (
        fixture_cases,
        grid_cases,
        mitigation_cases,
        run_engines,
        workload_cases,
    )
    from .workloads import workload_names

    if (_refuse("defense", args.defense or (), DEFENSES)
            or _refuse("workload", args.workload or (), workload_names())):
        return 2
    defenses = tuple(args.defense) if args.defense else None

    def cases():
        yield from grid_cases(programs=args.programs, seed=args.seed,
                              defenses=defenses, cores=tuple(args.core),
                              program_size=args.size)
        if not args.no_fixtures:
            yield from fixture_cases()
            # Mitigated binaries (all four software passes over the
            # fixtures + one generated program) must agree across
            # engines too — the passes only add architectural no-ops.
            yield from mitigation_cases(seed=args.seed)
        if args.workload:
            yield from workload_cases(args.workload, defenses)

    timings = []  # (seconds, label)
    divergent_lines = []
    pending = (run_engines(case)[1] for case in cases())
    started = time.monotonic()
    while True:
        case_started = time.monotonic()
        report = next(pending, None)
        if report is None:
            break
        timings.append((time.monotonic() - case_started, report.label))
        if not report.identical:
            divergent_lines.append(report.render())
            print(divergent_lines[-1])
    elapsed = time.monotonic() - started
    checked, divergent = len(timings), len(divergent_lines)
    timing_lines = _diff_timing_lines(timings, elapsed)
    for line in timing_lines:
        print(line)
    status = "identical" if divergent == 0 else "DIVERGENT"
    summary = (f"{checked} differential runs "
               f"({','.join(ENGINES)}), {divergent} divergent: "
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


def _run_cache(args) -> int:
    """``repro cache``: show or wipe the persistent result cache."""
    from .bench.executor import cache_info, wipe_cache

    if args.wipe:
        removed = wipe_cache()
        print(f"removed {removed} cached files")
    info = cache_info()
    print(f"cache dir: {info['dir']}")
    print(f"entries:   {info['entries']} ({info['bytes']} bytes)")
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
