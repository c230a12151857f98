"""The benchmark's three closed-loop workloads.

Each workload is one client that issues its next operation only after
the previous one returned:

* ``sim-panel`` — ``execute_spec`` over the engine panel (8 workloads x
  6 defenses, P-core, default engine), compile cache warmed in set-up.
* ``fuzz-cell`` — ``run_campaign(jobs=1)`` on the ProtTrack /
  UNPROT-SEQ / ``rand`` cell, empty compiled-code cache per repetition.
* ``batch-replay`` — ``run_batch(jobs=nproc)`` over the panel on both
  cores: a cold pass from an empty result cache, then warm passes from
  the disk cache after ``clear_caches()``, each one batch of the whole
  matrix, as ``repro bench`` resolves a table.

A workload exposes ``setup`` (one set-up repetition), ``run_pass`` (one
fixed unit of timed work, checked against the reference answers) and
``rates`` (the end-to-end rates over the passes of a run).
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import json
import os
import pathlib
import random
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional

from repro.bench import executor, runner
from repro.bench.runner import RunSpec
from repro.contracts import Contract, checker
from repro.fuzzing import CampaignConfig, campaign
from repro.uarch.compiled import CompiledCore, clear_compile_cache
from repro.workloads import base as workload_registry

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: The ROADMAP engine panel.
PANEL_WORKLOADS = ("mcf.s", "gcc.s", "lbm.s", "ossl.dh", "nginx.c2r2",
                   "milc.w", "hacl.chacha20", "canneal.p")
PANEL_DEFENSES = ("unsafe", "stt", "spt", "spt-sb", "delay", "track")
#: Protean mechanisms run the workload's own-class ProtCC binary.
PROTEAN = ("delay", "track")

#: The ROADMAP fuzz-panel cell.  Its 8-program campaign is the prefix
#: of every larger campaign with the same seed (program seeds are drawn
#: in order from the campaign's master RNG).
FUZZ_DEFENSE = "track"
FUZZ_CONTRACT = Contract.UNPROT_SEQ
FUZZ_INSTRUMENTATION = "rand"
FUZZ_PAIRS = 4
FUZZ_SIZE = 40
FUZZ_PROGRAMS = 32
#: The seed whose campaign tallies are pinned in ``reference.json``.
FUZZ_PINNED_SEED = 1
#: The pinned program every fuzz-cell set-up re-derives on the ``ref``
#: engine: a fixed one, so that set-up costs the same on every seed.
FUZZ_SETUP_PROGRAM = 2
#: Programs of any other seed whose answers are derived before timing.
FUZZ_DERIVED_PROGRAMS = 2

#: Warm passes per batch-replay pass (one warm pass takes tens of ms).
WARM_PASSES = 30

Span = Callable[[str], object]


def no_span(name: str):
    return nullcontext()


def spec_key(spec: RunSpec) -> str:
    return (f"{spec.core}/{spec.workload}/{spec.defense}/"
            f"{spec.instrument or 'base'}")


def panel_specs(cores=("P",), workloads=PANEL_WORKLOADS) -> List[RunSpec]:
    return [RunSpec(workload=name, defense=defense,
                    instrument="auto" if defense in PROTEAN else None,
                    core=core)
            for core in cores for name in workloads
            for defense in PANEL_DEFENSES]


def fuzz_config(seed: int, programs: int) -> CampaignConfig:
    return CampaignConfig(
        defense_factory=runner.DEFENSES[FUZZ_DEFENSE],
        defense_name=FUZZ_DEFENSE, contract=FUZZ_CONTRACT,
        instrumentation=FUZZ_INSTRUMENTATION, n_programs=programs,
        pairs_per_program=FUZZ_PAIRS, program_size=FUZZ_SIZE, seed=seed)


def load_reference() -> Dict:
    return json.loads(REFERENCE_PATH.read_text())


def answer(summary) -> List:
    """The pinned part of a simulation outcome.  Full stats dicts are
    deliberately not pinned: counters may be retired without changing
    what the core computes."""
    return [summary.cycles, summary.instructions, summary.halt_reason]


def median_time(samples: Dict[str, List[float]], keys) -> float:
    return sum(statistics.median(samples[key]) for key in keys)


#: Seconds the calibration kernel takes on a quiet 2-vCPU x86-64 VM
#: under CPython 3.11 (the host the bounds were set on).
KERNEL_NOMINAL_S = 0.0021


def _kernel() -> float:
    """A fixed pure-Python loop of dict, list and integer work."""
    started = time.perf_counter()
    table: Dict[int, int] = {}
    cells = [0] * 64
    acc = 0
    for i in range(15000):
        key = i & 63
        table[key] = i
        acc += table.get((i * 7) & 63, 0)
        cells[key] += acc & 7
    return time.perf_counter() - started


def host_slowness(every_cpu: bool = False) -> float:
    """How slow the host runs right now: the calibration kernel's best
    of three over its nominal time (1.0 on a quiet reference host).

    On this CPU, or (``every_cpu``) the mean over every CPU this
    process may run on: shared hosts slow each virtual CPU down on its
    own, for seconds at a time, and work in other processes (the pool
    workers, a fresh interpreter) may run on any of them."""
    if not every_cpu:
        return min(_kernel() for _ in range(3)) / KERNEL_NOMINAL_S
    cpus = os.sched_getaffinity(0)
    samples = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            samples.append(host_slowness())
    finally:
        # Restored before any pool forks: children inherit affinity.
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(samples)


class Stopwatch:
    """Times consecutive items in calibrated seconds.

    Shared virtual machines change speed by up to half for seconds at a
    time.  Each item's host seconds are divided by the host's slowness,
    sampled right before and right after the item, so that drift
    cancels while a change in the program's own speed does not.  The
    host seconds are kept too (``raw_s``).  Items that run in other
    processes sample ``every_cpu``; an item run in this process is
    calibrated by the CPU it runs on."""

    def __init__(self, every_cpu: bool = False) -> None:
        self.every_cpu = every_cpu
        self.slowness = host_slowness(every_cpu)
        self.raw_s = 0.0
        self.lap_raw_s = 0.0
        self._started = 0.0

    def start(self) -> None:
        # Every item starts from a collected heap and pays for collecting
        # its own garbage (``stop``).  Otherwise where the collector's
        # full passes land depends on the items' order, which the seed
        # sets: the same row then costs more on one seed.
        gc.collect()
        self._started = time.perf_counter()

    def stop(self) -> float:
        """The item's calibrated seconds; its host seconds are left in
        ``lap_raw_s``."""
        gc.collect()
        self.lap_raw_s = time.perf_counter() - self._started
        before = self.slowness
        self.slowness = host_slowness(self.every_cpu)
        self.raw_s += self.lap_raw_s
        return self.lap_raw_s * 2.0 / (before + self.slowness)


class CacheDirs:
    """Private ``REPRO_CACHE_DIR`` directories under one scratch root.

    ``fresh()`` points the simulator's result and compiled-code caches
    at a new empty directory and deletes the previous one, so a pass
    that must start cold never sees another pass's artifacts (or the
    repository's populated ``benchmarks/.cache/``)."""

    def __init__(self, root: pathlib.Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self.root = pathlib.Path(tempfile.mkdtemp(prefix="cache-",
                                                  dir=str(root)))
        self.current: Optional[pathlib.Path] = None

    def fresh(self) -> pathlib.Path:
        if self.current is not None:
            shutil.rmtree(self.current, ignore_errors=True)
        self.current = pathlib.Path(tempfile.mkdtemp(dir=str(self.root)))
        os.environ["REPRO_CACHE_DIR"] = str(self.current)
        return self.current

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def rebuild_workloads(names) -> None:
    """Build the named workloads from scratch (the registry memoizes
    builders, so a repeated set-up must drop those memos first)."""
    workload_registry.workload_names()  # imports every kernel module
    for name in names:
        workload_registry._REGISTRY[name].cache_clear()
        workload_registry.get_workload(name)


@contextmanager
def engine(name: str):
    """Run contract checks on one simulation engine (the reference
    answers come from the ``ref`` interpreter)."""
    original = checker.simulate
    checker.simulate = functools.partial(original, engine=name)
    try:
        yield
    finally:
        checker.simulate = original


@dataclasses.dataclass
class Pass:
    """One timed unit of work and what it produced."""

    wall_s: float
    attempted: int
    failed: int
    #: Per-item calibrated seconds (a panel row, a fuzz program).
    times: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: The same items' host seconds, uncalibrated.
    raw_times: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Host seconds of the timed items, uncalibrated.
    raw_s: float = 0.0
    #: Canonical outputs; traced and untraced passes must match exactly.
    result: Dict = dataclasses.field(default_factory=dict)
    #: Exact-count sentinels (simulated cycles, verdicts, ...).
    counts: Dict[str, int] = dataclasses.field(default_factory=dict)
    extra: Dict = dataclasses.field(default_factory=dict)


class Workload:
    name = ""
    #: What ``primary_per_s`` / ``secondary_per_s`` are on this
    #: workload: metric name -> (its per-workload name, unit).
    aliases: Dict[str, tuple] = {}

    def __init__(self, seed: int, reference: Dict, caches: CacheDirs,
                 **size) -> None:
        self.seed = seed
        self.reference = reference
        self.caches = caches

    def setup(self, rep: int, span: Span = no_span,
              check_reference: bool = True) -> None:
        raise NotImplementedError

    def derive_reference(self) -> None:
        """Derive the answers ``reference.json`` does not pin for this
        seed (untimed: its cost depends on the seed)."""

    def run_pass(self, span: Span = no_span) -> Pass:
        raise NotImplementedError

    def rates(self, passes: List[Pass], raw: bool = False
              ) -> Dict[str, float]:
        """The end-to-end rates, from calibrated or (``raw``) host
        seconds."""
        raise NotImplementedError

    def order(self, items: List) -> List:
        """The seed's order of the fixed item list."""
        items = list(items)
        random.Random(self.seed).shuffle(items)
        return items


class SimPanel(Workload):
    """Long programs with compilation paid once: the engine and the
    defense hooks do almost all the work; unsafe rows call no hooks."""

    name = "sim-panel"
    aliases = {"primary_per_s": ("sim_cycles_per_s", "cycles/s"),
               "secondary_per_s": ("sim_unsafe_cycles_per_s", "cycles/s")}

    def __init__(self, seed, reference, caches,
                 workloads=PANEL_WORKLOADS, **size) -> None:
        super().__init__(seed, reference, caches)
        self.workloads = tuple(workloads)
        self.specs = self.order(panel_specs(("P",), self.workloads))

    def setup(self, rep, span=no_span, check_reference=True) -> None:
        self.caches.fresh()
        runner.clear_caches()
        with span("workloads.build"):
            rebuild_workloads(self.workloads)
        for spec in self.specs:
            if spec.instrument is None:
                program = workload_registry.get_workload(
                    spec.workload).program
            else:
                program = runner.compiled(spec.workload,
                                          spec.instrument).program
            # Constructing the core compiles its (program, config,
            # defense) triple into the in-memory artifact cache.
            CompiledCore(program, spec.defense_instance(),
                         spec.core_config())
        pinned = self.reference["specs"]
        self.expected = {spec_key(s): pinned[spec_key(s)]
                         for s in self.specs}

    def run_pass(self, span=no_span) -> Pass:
        out = Pass(wall_s=0.0, attempted=0, failed=0)
        cycles = committed = 0
        started = time.perf_counter()
        watch = Stopwatch()
        for spec in self.specs:
            key = spec_key(spec)
            out.attempted += 1
            watch.start()
            try:
                result = runner.execute_spec(spec)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                watch.stop()
                out.failed += 1
                out.result[key] = f"error: {type(exc).__name__}: {exc}"
                continue
            out.times[key] = watch.stop()
            out.raw_times[key] = watch.lap_raw_s
            if answer(result) != self.expected[key]:
                out.failed += 1
            out.result[key] = [result.cycles, result.instructions,
                               result.halt_reason,
                               sorted(result.stats.items())]
            cycles += result.cycles
            committed += result.instructions
        out.wall_s = time.perf_counter() - started
        out.raw_s = watch.raw_s
        out.counts = {"sim_cycles": cycles, "committed_uops": committed}
        return out

    def rates(self, passes, raw=False):
        samples = _samples(passes, raw)
        keys = list(samples)
        unsafe = [k for k in keys if k.split("/")[2] == "unsafe"]
        cycles = {k: self.expected[k][0] for k in keys}
        return {
            "primary_per_s": sum(cycles[k] for k in keys)
            / median_time(samples, keys),
            "secondary_per_s": sum(cycles[k] for k in unsafe)
            / median_time(samples, unsafe),
        }


class FuzzCell(Workload):
    """Short random programs: one new compile triple per program and
    two simulations plus two sequential runs per check."""

    name = "fuzz-cell"
    aliases = {"primary_per_s": ("fuzz_checks_per_s", "checks/s"),
               "secondary_per_s": ("fuzz_tests_per_s", "tests/s")}

    def __init__(self, seed, reference, caches, programs=FUZZ_PROGRAMS,
                 **size) -> None:
        super().__init__(seed, reference, caches)
        self.config = fuzz_config(seed, programs)
        self.program_seeds = campaign._program_seeds(self.config)
        self.expected: Dict[int, Dict] = {}
        pinned = reference["fuzz_cell"]
        if seed == pinned["seed"]:
            for entry in pinned["programs"][:programs]:
                self.expected[entry["program_seed"]] = entry["tallies"]

    def setup(self, rep, span=no_span, check_reference=True) -> None:
        # The campaign generates, instruments and compiles every program
        # inside the timed region, as a real campaign does; set-up only
        # checks the reference interpreter against the pin, on the same
        # pinned program whatever the seed.
        if not check_reference:
            return
        pinned = self.reference["fuzz_cell"]
        entry = pinned["programs"][FUZZ_SETUP_PROGRAM]
        config = fuzz_config(pinned["seed"], FUZZ_PROGRAMS)
        if self.ref_tallies(config, entry["program_seed"]) \
                != entry["tallies"]:
            raise RuntimeError(
                f"reference interpreter disagrees with the pinned "
                f"tallies of program {entry['program_seed']}")

    def derive_reference(self) -> None:
        for program_seed in self.program_seeds[:FUZZ_DERIVED_PROGRAMS]:
            if program_seed not in self.expected:
                self.expected[program_seed] = self.ref_tallies(
                    self.config, program_seed)

    @staticmethod
    def ref_tallies(config: CampaignConfig, program_seed: int) -> Dict:
        with engine("ref"):
            return campaign.run_campaign_job(
                campaign.campaign_job_payload(config, program_seed))

    def run_pass(self, span=no_span) -> Pass:
        self.caches.fresh()
        clear_compile_cache()
        out = Pass(wall_s=0.0, attempted=0, failed=0)
        partials: List = []
        watch = Stopwatch()

        def on_program(program_seed, partial) -> None:
            partials.append((program_seed, partial, watch.stop(),
                             watch.lap_raw_s))
            watch.start()

        started = time.perf_counter()
        watch.start()
        try:
            with span("fuzzing.run_campaign"):
                total = campaign.run_campaign(self.config, jobs=1,
                                              on_program=on_program)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            checks = self.config.n_programs * self.config.pairs_per_program
            return Pass(wall_s=time.perf_counter() - started,
                        attempted=checks, failed=checks,
                        result={"error": f"{type(exc).__name__}: {exc}"})
        out.wall_s = time.perf_counter() - started
        out.raw_s = watch.raw_s
        for index, (program_seed, partial, seconds, raw) \
                in enumerate(partials):
            tallies = partial.to_dict()
            checks = partial.tests + partial.invalid_pairs
            out.attempted += checks
            expected = self.expected.get(program_seed)
            if expected is not None and expected != tallies:
                out.failed += checks
            key = f"{index:03d}/{program_seed}"
            out.times[key] = seconds
            out.raw_times[key] = raw
            out.result[key] = tallies
        out.counts = {"tests": total.tests, "violations": total.violations,
                      "false_positives": total.false_positives,
                      "invalid_pairs": total.invalid_pairs}
        out.extra = {"tests": total.tests,
                     "checks": total.tests + total.invalid_pairs}
        return out

    def rates(self, passes, raw=False):
        samples = _samples(passes, raw)
        busy = median_time(samples, list(samples))
        return {"primary_per_s": passes[0].extra["checks"] / busy,
                "secondary_per_s": passes[0].extra["tests"] / busy}


class BatchReplay(Workload):
    """The only workload where the executor, the process pool and the
    result cache do real work: cache writes (cold) beside reads (warm).

    Every pass, cold or warm, is one ``run_batch`` over all 96 specs, as
    ``repro bench`` resolves a table's whole matrix in one call."""

    name = "batch-replay"
    aliases = {"primary_per_s": ("batch_cold_specs_per_s", "specs/s"),
               "secondary_per_s": ("batch_warm_specs_per_s", "specs/s")}

    def __init__(self, seed, reference, caches,
                 workloads=PANEL_WORKLOADS, warm_passes=WARM_PASSES,
                 **size) -> None:
        super().__init__(seed, reference, caches)
        self.workloads = tuple(workloads)
        # The seed orders the matrix, and with it which specs the pool
        # runs last.
        self.specs = self.order(panel_specs(("P", "E"), self.workloads))
        self.jobs = len(os.sched_getaffinity(0))
        self.warm_passes = warm_passes

    def setup(self, rep, span=no_span, check_reference=True) -> None:
        runner.clear_caches()
        with span("workloads.build"):
            rebuild_workloads(self.workloads)
        pinned = self.reference["specs"]
        self.expected = {spec_key(s): pinned[spec_key(s)]
                         for s in self.specs}

    def batch(self, jobs: int, watch: Stopwatch, span: Span = no_span,
              label: str = ""):
        """One ``run_batch`` call after ``clear_caches()``: returns
        (calibrated seconds, results, failed specs, batch stats)."""
        runner.clear_caches()
        watch.start()
        with span(f"executor.run_batch.{label}"):
            results = executor.run_batch(self.specs, jobs=jobs)
        seconds = watch.stop()
        failed = sum(1 for spec in self.specs
                     if answer(results[spec]) != self.expected[spec_key(spec)])
        return seconds, results, failed, executor.LAST_BATCH

    def cold(self, jobs: int, span: Span = no_span) -> Pass:
        """The matrix from an empty result cache; a batch that hit a
        cache measured the wrong thing and counts as failed."""
        self.caches.fresh()
        watch = Stopwatch(every_cpu=True)
        seconds, results, failed, stats = self.batch(jobs, watch, span,
                                                     "cold")
        return Pass(wall_s=0.0, attempted=len(self.specs),
                    failed=failed + stats.hits, times={"cold": seconds},
                    raw_times={"cold": watch.lap_raw_s}, raw_s=watch.raw_s,
                    result={spec_key(s): results[s].to_dict()
                            for s in self.specs},
                    extra={"hit_rate": {"cold": stats.hit_rate}})

    def run_pass(self, span=no_span) -> Pass:
        n = len(self.specs)
        started = time.perf_counter()
        out = self.cold(self.jobs, span)
        watch = Stopwatch()
        out.extra["warm_s"] = []
        out.extra["warm_raw_s"] = []
        for _ in range(self.warm_passes):
            seconds, warm, failed, stats = self.batch(self.jobs, watch, span,
                                                      "warm")
            out.attempted += n
            out.failed += failed + (n - stats.disk_hits)
            if {spec_key(s): warm[s].to_dict()
                    for s in self.specs} != out.result:
                out.failed += n
            out.extra["warm_s"].append(seconds)
            out.extra["warm_raw_s"].append(watch.lap_raw_s)
        out.extra["hit_rate"]["warm"] = stats.hit_rate
        out.raw_s += watch.raw_s
        out.wall_s = time.perf_counter() - started
        out.counts = {"sim_cycles": sum(v["cycles"]
                                        for v in out.result.values())}
        return out

    def rates(self, passes, raw=False):
        samples = _samples(passes, raw)
        warm = [t for p in passes
                for t in p.extra["warm_raw_s" if raw else "warm_s"]]
        return {"primary_per_s": len(self.specs)
                / median_time(samples, list(samples)),
                "secondary_per_s": len(self.specs) / statistics.median(warm)}


def _samples(passes: List[Pass], raw: bool = False
             ) -> Dict[str, List[float]]:
    samples: Dict[str, List[float]] = {}
    for one in passes:
        for key, seconds in (one.raw_times if raw else one.times).items():
            samples.setdefault(key, []).append(seconds)
    return samples


WORKLOADS = {cls.name: cls for cls in (SimPanel, FuzzCell, BatchReplay)}
