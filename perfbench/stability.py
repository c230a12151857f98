"""Stability check: is the benchmark steady enough to judge a change?

    python3 perfbench/stability.py --workload fuzz-cell --seeds 1-10
    python3 perfbench/stability.py --workload batch-replay --seeds 1-10 --sets 2
    python3 perfbench/stability.py --workload sim-panel --counts 3

Timing: runs the workload once per seed (untraced) and reports, for
each end-to-end metric, the distance between the first and third
quartile of its values as a share of their median, against the bound
in ``BENCHMARK.json``; beside it, the same spread of the metric taken
from uncalibrated host seconds.  ``--sets 2`` runs the seeds twice and
also requires the second set's median to be no worse than the first's
by more than the bound.

Exact counts: ``--counts SEED`` runs the traced workload twice with one
seed and requires every exact count (simulated cycles, committed
instructions, verdicts, hook calls, ...) to repeat exactly.

Exits non-zero when a spread exceeds its bound or a count differs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True,
                          cwd=str(ROOT))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {done.returncode})")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-"
                         f"trace{trace}.json").read_text())
    return result, record


def seeds_of(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(series) -> tuple:
    q1, median, q3 = statistics.quantiles(series, n=4)
    return median, (q3 - q1) / median


def timing_set(args, bounds) -> tuple:
    """One run per seed: (medians, steady)."""
    values, raw = {}, {}
    for seed in seeds_of(args.seeds):
        result, record = run(args.workload, seed, args.seconds, 0)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            raw.setdefault(name, []).append(record["raw_metrics"][name])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
            flush=True)
    steady = True
    medians = {}
    for name, series in values.items():
        medians[name], width = spread(series)
        bound = bounds[name]["bound"]
        verdict = "ok"
        if width > bound:
            verdict, steady = "OVER BOUND", False
        elif width > bound / 3:
            verdict = "over a third of the bound"
        print(f"{name:16s} median {medians[name]:.6g}  spread {width:.4f}  "
              f"(host seconds {spread(raw[name])[1]:.4f})  bound {bound}  "
              f"{verdict}", flush=True)
    return medians, steady


def check_timing(args, bounds) -> bool:
    sets = []
    steady = True
    for _ in range(args.sets):
        medians, ok = timing_set(args, bounds)
        sets.append(medians)
        steady &= ok
    for later in sets[1:]:
        for name, median in later.items():
            first = sets[0][name]
            worse = (first - median if bounds[name]["better"] == "higher"
                     else median - first) / first
            verdict = "ok"
            if worse > bounds[name]["bound"]:
                verdict, steady = "WORSE BY MORE THAN THE BOUND", False
            print(f"{name:16s} median {first:.6g} -> {median:.6g}  "
                  f"worse by {worse:+.4f}  {verdict}")
    return steady


def check_counts(args) -> bool:
    seed = args.counts
    counts = [run(args.workload, seed, args.seconds, 1)[1]["counts"]
              for _ in range(2)]
    differ = {name: (counts[0][name], counts[1].get(name))
              for name in counts[0] if counts[0][name] != counts[1].get(name)}
    for name in sorted(counts[0]):
        print(f"{name:40s} {counts[0][name]}")
    if differ:
        print(f"exact counts differ between runs: {differ}")
    return not differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default=None,
                        help="seed range, e.g. 1-10")
    parser.add_argument("--counts", type=int, default=None, metavar="SEED",
                        help="check exact counts on two traced runs")
    parser.add_argument("--sets", type=int, default=1,
                        help="run the seed range this many times")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    if args.seeds:
        ok &= check_timing(args, bounds)
    if args.counts is not None:
        ok &= check_counts(args)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
