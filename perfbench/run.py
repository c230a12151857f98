"""perfbench: the repository benchmark.

    python3 perfbench/run.py --workload sim-panel --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --all            # every workload, one table

One run sets the workload up several times (``setup_s`` is the median
import time of a fresh interpreter plus the median set-up), then repeats
fixed passes of timed work for ``--seconds`` and checks every output
against the reference answers.
With ``--trace 1`` it instead runs one untraced and one traced pass,
reports the per-layer metrics and writes a Chrome trace.  The last
line of standard output is one JSON object; the run exits non-zero
when any output disagrees with its reference answer.  See README.md.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import env  # noqa: E402

env.prepare()

from repro.bench import runner  # noqa: E402
from repro.bench.executor import code_version_hash  # noqa: E402
from repro.metrics.ledger import current_git_sha, host_fingerprint  # noqa: E402

import layers  # noqa: E402
import workloads as wl  # noqa: E402

IMPORT_S = time.perf_counter() - _STARTED

#: Set-up repetitions (and fresh-interpreter imports) per run;
#: ``setup_s`` reports their medians.
SETUP_REPS = 3

#: Spans patched in the traced run of each workload.
PATCHES = {"sim-panel": layers.SIM_PATCHES,
           "fuzz-cell": layers.FUZZ_PATCHES,
           "batch-replay": layers.BATCH_PATCHES}

#: ``engine="ref"`` rows of the traced sim-panel run.
REF_ROWS = [runner.RunSpec(workload=name, defense=defense,
                           instrument="auto" if defense in wl.PROTEAN
                           else None)
            for name in ("ossl.dh", "lbm.s")
            for defense in ("unsafe", "track")]

#: End-to-end metrics (every workload reports all four).
UNITS = {"setup_s": "s", "peak_rss_mb": "MiB", "primary_per_s": "1/s",
         "secondary_per_s": "1/s"}


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child
    (the batch-replay pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def import_seconds(watch: wl.Stopwatch) -> tuple:
    """One fresh interpreter importing what the benchmark imports:
    (calibrated, host) seconds."""
    watch.start()
    subprocess.run([sys.executable, "-c",
                    "import env; env.prepare(); import layers, workloads"],
                   cwd=str(env.ROOT / "perfbench"), check=True,
                   stdout=subprocess.DEVNULL)
    return watch.stop(), watch.lap_raw_s


def measured_run(work: wl.Workload, seconds: float) -> dict:
    fresh = wl.Stopwatch(every_cpu=True)
    imports = [import_seconds(fresh) for _ in range(SETUP_REPS)]
    watch = wl.Stopwatch()
    setup = []
    for rep in range(SETUP_REPS):
        watch.start()
        work.setup(rep)
        setup.append((watch.stop(), watch.lap_raw_s))
    work.derive_reference()
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(work.run_pass())
        elapsed = time.perf_counter() - started
        # Start another pass only if it should end within the budget.
        if elapsed + passes[-1].wall_s > seconds:
            break
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    # Exact-count sentinel: every pass of one run computes the same.
    for extra in passes[1:]:
        if extra.result != passes[0].result \
                or extra.counts != passes[0].counts:
            failed += extra.attempted

    def setup_s(column: int) -> float:
        return statistics.median(t[column] for t in imports) \
            + statistics.median(t[column] for t in setup)

    metrics = {"setup_s": setup_s(0), **work.rates(passes),
               "peak_rss_mb": peak_rss_mb()}
    # The same metrics from uncalibrated host seconds, for comparison.
    raw_metrics = {"setup_s": setup_s(1), **work.rates(passes, raw=True),
                   "peak_rss_mb": metrics["peak_rss_mb"]}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "raw_metrics": raw_metrics,
            "counts": passes[0].counts, "passes": len(passes),
            "setup_reps_s": setup, "import_reps_s": imports,
            "import_s": IMPORT_S,
            "pass_s": [p.wall_s for p in passes],
            "pass_raw_s": [p.raw_s for p in passes],
            "pass_calibrated_s": [sum(p.times.values()) for p in passes]}


def traced_run(work: wl.Workload, trace_path) -> dict:
    """One untraced pass, then set-up and one pass under the tracer;
    their outputs must be identical."""
    work.setup(0)
    work.derive_reference()
    batch = isinstance(work, wl.BatchReplay)
    serial_s = work.cold(1).raw_s if batch else 0.0
    plain = work.run_pass()
    tracer = layers.LayerTracer()
    tracer.install(PATCHES[work.name])
    ref_rows = REF_ROWS if isinstance(work, wl.SimPanel) else []
    ref_failed = 0
    try:
        with tracer.span(f"perfbench.{work.name}") as root:
            with tracer.span("perfbench.setup"):
                work.setup(0, span=tracer.span, check_reference=False)
            with tracer.span("perfbench.pass"):
                traced = work.run_pass(span=tracer.span)
            for spec in ref_rows:
                result = runner.execute_spec(spec, engine="ref")
                ref_failed += (wl.answer(result) != work.reference["specs"][
                    wl.spec_key(spec)])
    finally:
        tracer.remove()
    metrics = tracer.metrics()
    metrics.update(executor_metrics(tracer, work, plain, traced, serial_s)
                   if batch else dict.fromkeys(EXECUTOR_METRICS, 0.0))
    metrics["trace.overhead_share"] = (traced.raw_s - plain.raw_s) \
        / plain.raw_s
    identical = (traced.result == plain.result
                 and traced.counts == plain.counts)
    failed = plain.failed + traced.failed + ref_failed
    if not identical:
        failed += traced.attempted
    return {"attempted": plain.attempted + traced.attempted + len(ref_rows),
            "failed": failed, "metrics": metrics,
            "counts": {**traced.counts, **layer_counts(metrics)},
            "identical": identical,
            "untraced_pass_s": plain.raw_s, "traced_pass_s": traced.raw_s,
            "partition_error_s": tracer.partition_error_s(root),
            "traced_wall_s": root.duration_s,
            "self_s": tracer.self_times(),
            "trace": tracer.write_trace(trace_path),
            "note": "pool-worker internals are not traced: batch-replay "
                    "executor metrics are measured from the parent"}


EXECUTOR_METRICS = ("executor.run_batch.cold_s", "executor.run_batch.warm_s",
                    "executor.parent_overhead_ms_per_spec",
                    "executor.pool_speedup", "executor.hit_rate.cold",
                    "executor.hit_rate.warm")


def executor_metrics(tracer, work, plain, traced, serial_s) -> dict:
    cold = [s.duration_s for s in tracer.named("executor.run_batch.cold")]
    warm = [s.duration_s for s in tracer.named("executor.run_batch.warm")]
    return {
        "executor.run_batch.cold_s": sum(cold),
        "executor.run_batch.warm_s": statistics.median(warm),
        "executor.parent_overhead_ms_per_spec":
            1e3 * statistics.median(warm) / len(work.specs),
        "executor.pool_speedup": serial_s / plain.raw_times["cold"],
        "executor.hit_rate.cold": traced.extra["hit_rate"]["cold"],
        "executor.hit_rate.warm": traced.extra["hit_rate"]["warm"],
    }


#: Per-layer metrics that are exact counts: they must repeat exactly
#: across runs of one commit with one seed.
COUNT_METRICS = ("uarch.simulate.calls", "uarch.sim_cycles",
                 "uarch.committed_uops", "compiled.compile_step.calls",
                 "compiled.compile_misses", "arch.run_program.calls",
                 "contracts.check_pair.calls", "executor.cache_load.calls",
                 "executor.cache_store.calls") + tuple(
    f"defenses.{hook}.calls" for hook in layers.GATES + layers.RECHECKS) \
    + tuple(f"contracts.verdict.{v}" for v in
            ("pass", "violation", "false_positive", "invalid"))


def layer_counts(metrics: dict) -> dict:
    return {name: metrics[name] for name in COUNT_METRICS}


def stamp(load_start) -> dict:
    # Outside a git checkout git would search the parent directories.
    sha = current_git_sha() if (env.ROOT / ".git").exists() else "unknown"
    return {"git_sha": sha, "source": code_version_hash(),
            "host": host_fingerprint(), "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start, "loadavg_end": os.getloadavg()}


def run_one(args) -> int:
    load_start = os.getloadavg()
    caches = wl.CacheDirs(env.OUT)
    size = {"programs": args.programs} if args.programs else {}
    try:
        work = wl.WORKLOADS[args.workload](args.seed, wl.load_reference(),
                                           caches, **size)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            record = traced_run(work, env.OUT / f"trace-{tag}.json")
        else:
            record = measured_run(work, args.seconds)
    finally:
        caches.close()
    record["stamp"] = stamp(load_start)
    record["run_wall_s"] = time.perf_counter() - _STARTED
    record["peak_rss_mb"] = peak_rss_mb()
    record["args"] = vars(args)
    (env.OUT / f"result-{tag}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    metrics = record["metrics"]
    for name, value in sorted(metrics.items()):
        print(f"{name:42s} {value:.6g} {unit_of(name)}", file=sys.stderr)
    print(f"attempted {record['attempted']}, failed {record['failed']} "
          f"(failed_share {record['failed'] / record['attempted']:.4g})",
          file=sys.stderr)
    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    return UNITS.get(name) or layers.PER_LAYER[name]


def run_all(args) -> int:
    """Run every workload in its own process and print the end-to-end
    metrics under their per-workload names."""
    status = 0
    rows = []
    for name, cls in sorted(wl.WORKLOADS.items()):
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(command, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            status = 1
        if not lines:
            continue
        result = json.loads(lines[-1])
        metrics = result["metrics"]
        for key, (alias, unit) in cls.aliases.items():
            rows.append((name, alias, metrics[key]["value"], unit))
        for key in ("setup_s", "peak_rss_mb"):
            rows.append((name, key, metrics[key]["value"], UNITS[key]))
        rows.append((name, "failed_share",
                     result["failed"] / result["attempted"], "share"))
    for row in rows:
        print(f"{row[0]:13s} {row[1]:26s} {row[2]:14.6g} {row[3]}")
    return status


def main(argv=None) -> int:
    # A terminated run still removes its private cache directories.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.FUZZ_PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--programs", type=int, default=None,
                        help="fuzz-cell campaign size (default "
                             f"{wl.FUZZ_PROGRAMS}; the ROADMAP cell is 8)")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required without --all")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
