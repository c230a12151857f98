"""The differential harness: reference engine vs compiled engine.

:class:`~repro.uarch.pipeline.Core` is the reference — the plain
per-cycle interpreter with no fast paths.  The compiled backend
(:mod:`repro.uarch.compiled`) is the one optimized engine, and every
optimization it carries (specialization, sleeping uops,
fast-forwarding) must be an observational no-op.  This module is that
claim's proof obligation: run the same simulation on both engines and
assert the two :class:`~repro.uarch.pipeline.CoreResult` outcomes are
identical down to every cycle count, stat counter, timing-trace entry,
and adversary cache line.

Entry points:

* :func:`run_engines` — one case on both engines, diffed.
* :func:`compare_results` — the field-by-field :class:`DiffReport`.
* :func:`diff_cases` / :func:`run_case` — the randomized-program grid
  over every defense x ProtCC class x core config in the paper's
  Tables II/III, used by ``repro diff`` and the test suite.
* :func:`fixture_cases` — the security fixtures (Spectre v1, divider
  channel, squash-notification bug) under every defense and their
  signature configs.
* :func:`mitigation_cases` — software-mitigated binaries.
* :func:`wake_contract_violations` / :func:`wake_contract_case` — the
  proof obligation behind the compiled engine's sleeping uops: on the
  reference engine, no gate refusal turns into an allow before its
  ``*_recheck_seq`` hint or a watched event (a resolution under
  CONTROL, a declassification of a register the gate transmits).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .config import CoreConfig, E_CORE, P_CORE, SpeculationModel
from .pipeline import (
    CoreResult,
    DEFAULT_MAX_CYCLES,
    DEFAULT_NO_PROGRESS_LIMIT,
    HOOKS,
    simulate,
)


#: CoreResult fields the harness compares, in report order.  ``memory``
#: is excluded only because a sparse image diff is unreadable; the
#: committed-access stream and final registers pin the same behaviour.
COMPARED_FIELDS: Tuple[str, ...] = (
    "cycles", "halt_reason", "committed_pcs", "final_regs",
    "timing_trace", "adversary_cache_state", "committed_accesses",
    "stats",
)

#: Speculation-observatory stats keys every engine must emit.  The
#: stats dicts are compared in full anyway; this list exists so the
#: telemetry-parity assertion can never pass *vacuously* — an engine
#: that silently stopped emitting a counter (both sides missing) would
#: otherwise still compare equal.
REQUIRED_TELEMETRY: Tuple[str, ...] = (
    "fetched_uops", "issued_uops", "squashes",
    "squashes_conditional", "squashes_indirect", "squashes_return",
    "spec_depth_le_1", "spec_depth_gt_32",
    "squash_cascade_le_1", "squash_cascade_gt_32",
    "defense_exec_interventions", "defense_exec_delay_cycles",
    "defense_resolve_interventions", "defense_resolve_delay_cycles",
    "defense_wakeup_interventions", "defense_wakeup_delay_cycles",
)


@dataclass(frozen=True)
class FieldDiff:
    """One observable that differed between a result and the reference
    result (``engine:field`` names the engine that produced ``got``)."""

    field: str
    got: object
    ref: object

    def render(self, limit: int = 72) -> str:
        got, ref = str(self.got), str(self.ref)
        if len(got) > limit:
            got = got[:limit] + "..."
        if len(ref) > limit:
            ref = ref[:limit] + "..."
        return f"{self.field}: got={got} ref={ref}"


@dataclass
class DiffReport:
    """Outcome of one result-vs-reference comparison."""

    label: str
    diffs: List[FieldDiff] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return not self.diffs

    def render(self) -> str:
        if self.identical:
            return f"{self.label}: identical"
        lines = [f"{self.label}: {len(self.diffs)} field(s) diverge"]
        lines += ["  " + diff.render() for diff in self.diffs]
        return "\n".join(lines)

    def raise_if_different(self) -> None:
        if not self.identical:
            raise AssertionError(
                "result diverged from the reference engine\n"
                + self.render())


def compare_results(got: CoreResult, ref: CoreResult,
                    label: str = "diff") -> DiffReport:
    """Field-by-field comparison of ``got`` against the reference
    result ``ref``; stats diffs are reported per key."""
    report = DiffReport(label=label)
    for name in COMPARED_FIELDS:
        a, b = getattr(got, name), getattr(ref, name)
        if a == b:
            continue
        if name == "stats":
            for key in sorted(set(a) | set(b)):
                if a.get(key) != b.get(key):
                    report.diffs.append(FieldDiff(
                        f"stats[{key}]", a.get(key), b.get(key)))
        elif isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
            if len(a) != len(b):
                report.diffs.append(FieldDiff(
                    f"len({name})", len(a), len(b)))
            for index, (x, y) in enumerate(zip(a, b)):
                if x != y:
                    report.diffs.append(FieldDiff(
                        f"{name}[{index}]", x, y))
                    break  # first divergence point is the useful one
        else:
            report.diffs.append(FieldDiff(name, a, b))
    for key in REQUIRED_TELEMETRY:
        if key not in got.stats or key not in ref.stats:
            report.diffs.append(FieldDiff(
                f"stats[{key}] present", key in got.stats,
                key in ref.stats))
    if got.memory != ref.memory:
        report.diffs.append(FieldDiff("memory", "<image>", "<differs>"))
    return report


#: The engines every differential run compares, reference first.
ENGINE_PAIR: Tuple[str, str] = ("ref", "compiled")


def run_engines(program, defense_factory: Callable[[], object],
                config: CoreConfig = P_CORE,
                memory_factory: Optional[Callable[[], object]] = None,
                regs: Optional[Dict[int, int]] = None,
                max_cycles: int = DEFAULT_MAX_CYCLES,
                no_progress_limit: Optional[int] = DEFAULT_NO_PROGRESS_LIMIT,
                label: str = "diff",
                ) -> Tuple[Dict[str, CoreResult], DiffReport]:
    """Run one case on the reference and the compiled engine and diff
    the compiled result against the reference one.

    ``defense_factory`` (not an instance: defenses carry state) is
    called once per engine; likewise ``memory_factory`` when the
    program needs an initial memory image.  Divergent fields are
    reported as ``compiled:field``.
    """
    results: Dict[str, CoreResult] = {}
    for engine in ENGINE_PAIR:
        memory = memory_factory() if memory_factory is not None else None
        results[engine] = simulate(
            program, defense_factory(), config, memory=memory,
            regs=dict(regs) if regs else None, max_cycles=max_cycles,
            no_progress_limit=no_progress_limit, engine=engine)
    reference, engine = ENGINE_PAIR
    report = DiffReport(label=label)
    for diff in compare_results(results[engine], results[reference]).diffs:
        report.diffs.append(FieldDiff(
            f"{engine}:{diff.field}", diff.got, diff.ref))
    return results, report


# ---------------------------------------------------------------------
# The randomized grid: Tables II/III coverage.
# ---------------------------------------------------------------------

#: ProtCC instrumentation classes from the paper's Table II fuzzing
#: grid ("rand" random-prefixes; the rest are the vulnerable-code
#: classes of Table III).
INSTRUMENTS: Tuple[str, ...] = ("rand", "arch", "cts", "ct", "unr")

CORE_CONFIGS: Dict[str, CoreConfig] = {"P": P_CORE, "E": E_CORE}


@dataclass(frozen=True)
class DiffCase:
    """One cell of the differential grid (hashable, reproducible)."""

    defense: str
    instrument: str
    core: str
    seed: int

    @property
    def label(self) -> str:
        return (f"{self.defense}/{self.instrument}/{self.core}"
                f"/seed{self.seed}")

    def config(self) -> CoreConfig:
        config = CORE_CONFIGS[self.core]
        # Rotate the speculation model and the squash-notification bug
        # with the seed so the grid also sweeps the Table III hardware
        # variants without multiplying the case count.
        if self.seed % 3 == 1:
            config = config.replace(
                speculation_model=SpeculationModel.CONTROL)
        if self.seed % 4 == 2:
            config = config.replace(buggy_squash_notify=True)
        return config


def diff_cases(programs: int = 3, seed: int = 0,
               defenses: Optional[Tuple[str, ...]] = None,
               instruments: Tuple[str, ...] = INSTRUMENTS,
               cores: Tuple[str, ...] = ("P", "E"),
               ) -> Iterator[DiffCase]:
    """Enumerate the grid: every defense x instrumentation x core,
    ``programs`` seeded random programs per cell."""
    from ..bench.runner import DEFENSES

    names = defenses if defenses is not None else tuple(DEFENSES)
    for defense in names:
        for instrument in instruments:
            for core in cores:
                for index in range(programs):
                    yield DiffCase(defense, instrument, core,
                                   seed + index)


def case_program(case: DiffCase, program_size: int = 40):
    """One grid cell's generated, instrumented program and its test
    input (``build_memory()``, ``build_regs()``)."""
    from ..fuzzing.generator import generate_program
    from ..fuzzing.inputs import generate_input
    from ..protcc import compile_program

    program = generate_program(case.seed, program_size)
    compiled = compile_program(
        program, case.instrument,
        rng=random.Random(case.seed ^ 0xC0DE)).program
    return compiled, generate_input(random.Random(case.seed ^ 0xF00D))


def run_case(case: DiffCase, program_size: int = 40) -> DiffReport:
    """Run one grid cell: generate, instrument, simulate on both
    engines, diff."""
    from ..bench.runner import DEFENSES

    program, test_input = case_program(case, program_size)
    _, report = run_engines(
        program, DEFENSES[case.defense], case.config(),
        memory_factory=test_input.build_memory,
        regs=test_input.build_regs(), label=case.label)
    return report


def fixture_cases() -> Iterator[Tuple[str, DiffReport]]:
    """Differential runs of the security fixtures, under every defense
    and the hardware configs that make each fixture interesting."""
    from ..bench.runner import DEFENSES
    from ..fixtures import FIXTURES, build

    configs = {
        "v1-gadget": P_CORE,
        "div-channel": P_CORE.replace(div_is_transmitter=True),
        "squash-bug": P_CORE.replace(buggy_squash_notify=True),
    }
    for name, fixture in FIXTURES.items():
        config = configs.get(name, P_CORE)
        for defense in DEFENSES:
            label = f"fixture:{name}/{defense}"
            program, _ = build(name)
            _, report = run_engines(
                program, DEFENSES[defense], config,
                memory_factory=lambda n=name: build(n)[1], label=label)
            yield label, report


def mitigation_cases(seed: int = 0) -> Iterator[Tuple[str, DiffReport]]:
    """Differential runs of software-mitigated binaries under the
    ``Unsafe`` hardware defense: each registered pass applied to the
    security fixtures and to one seeded generated program, on both
    engines.  Proves the mitigation passes' output (fences, poison
    threading, masked loads) executes identically on both engines."""
    from ..bench.runner import DEFENSES
    from ..fixtures import FIXTURES, build
    from ..fuzzing.generator import generate_program
    from ..fuzzing.inputs import generate_input
    from ..protcc import MITIGATIONS, mitigate_program

    test_input = generate_input(random.Random(seed ^ 0xF00D))
    generated = generate_program(seed, 40)
    for mitigation in MITIGATIONS:
        for name in FIXTURES:
            label = f"mitigation:{name}/{mitigation}"
            program, _ = build(name)
            mitigated = mitigate_program(program, mitigation).program
            _, report = run_engines(
                mitigated, DEFENSES["unsafe"], P_CORE,
                memory_factory=lambda n=name: build(n)[1], label=label)
            yield label, report
        label = f"mitigation:generated-seed{seed}/{mitigation}"
        mitigated = mitigate_program(generated, mitigation).program
        _, report = run_engines(
            mitigated, DEFENSES["unsafe"], P_CORE,
            memory_factory=test_input.build_memory,
            regs=test_input.build_regs(), label=label)
        yield label, report


# ---------------------------------------------------------------------
# The wake contract: what lets the compiled engine stop re-asking.
# ---------------------------------------------------------------------

def wake_contract_violations(program, defense, config: CoreConfig = P_CORE,
                             memory=None,
                             regs: Optional[Dict[int, int]] = None,
                             max_cycles: int = DEFAULT_MAX_CYCLES,
                             ) -> List[str]:
    """Run ``program`` on the reference engine with ``defense``'s three
    gates wrapped, and return one line per broken promise.

    On each refusal the wrapper records the gate's ``*_recheck_seq``
    hint and the commit, resolution and declassification counts.  When
    the same uop is later allowed, some record must have expired: the
    head reached its hint (``None``: a commit happened since), or a
    watched event fired since: a resolution under CONTROL, or, for a
    defense that declassifies, a declassification of a register the
    gate transmits (``execute_sensitive_pregs`` /
    ``resolve_sensitive_pregs``), reported after an ``on_commit`` as
    the compiled engine sees it.  A load execution and a squash are
    never events.  A ``may_execute`` refusal after an allow is also
    reported: the compiled engine does not re-ask a uop the gate
    allowed that then stalled on disambiguation.

    The wrappers are instance attributes on ``defense`` and on this
    run's :class:`Core`, so the reference's default path pays nothing.
    """
    from .pipeline import Core

    core = Core(program, defense, config, memory, regs, max_cycles)
    counts = {"commit": 0, "resolve": 0, "declassify": 0}
    control = config.speculation_model is SpeculationModel.CONTROL
    #: gate -> the registers whose declassification wakes its sleepers
    transmits: Dict[str, Callable] = {}
    #: preg -> the ``declassify`` count at its latest declassification
    declassified_at: Dict[int, int] = {}
    violations: List[str] = []
    records: Dict[Tuple[str, object], Dict[Optional[int], Dict]] = {}
    allowed_exec = set()

    report: List[int] = []
    if defense.declassifies:
        transmits = {"may_execute": defense.execute_sensitive_pregs,
                     "may_resolve": defense.resolve_sensitive_pregs}
        defense.declassified = report
    commit = defense.on_commit

    def on_commit(uop):
        counts["commit"] += 1
        commit(uop)
        for preg in report:
            counts["declassify"] += 1
            declassified_at[preg] = counts["declassify"]
        report.clear()

    defense.on_commit = on_commit
    attempt = core._attempt_resolution

    def attempt_resolution(uop):
        attempt(uop)
        if uop.resolved:
            counts["resolve"] += 1

    core._attempt_resolution = attempt_resolution

    def expired(hint, seen) -> bool:
        if hint is None:
            return counts["commit"] > seen["commit"]
        return core.rob.head.seq >= hint

    def woken(name, uop, seen) -> bool:
        if control and counts["resolve"] > seen["resolve"]:
            return True
        pregs = transmits[name](uop) if name in transmits else ()
        return any(declassified_at.get(p, 0) > seen["declassify"]
                   for p in pregs)

    def gate(name, ask, hint_of):
        def wrapped(uop):
            allowed = ask(uop)
            if allowed:
                for hint, seen in records.pop((name, uop), {}).items():
                    if not (expired(hint, seen) or woken(name, uop, seen)):
                        violations.append(
                            f"{name} allowed seq {uop.seq} (pc {uop.pc}) "
                            f"at cycle {core.cycle}, head "
                            f"{core.rob.head.seq}: refused with hint "
                            f"{hint} and no watched event since")
                if name == "may_execute":
                    allowed_exec.add(uop)
            else:
                if name == "may_execute" and uop in allowed_exec:
                    violations.append(
                        f"{name} refused seq {uop.seq} (pc {uop.pc}) at "
                        f"cycle {core.cycle} after allowing it")
                records.setdefault((name, uop), {})[hint_of(uop)] = \
                    dict(counts)
            return allowed
        return wrapped

    for hook, _ in HOOKS:
        name = f"may_{hook}"
        setattr(defense, name, gate(name, getattr(defense, name),
                                    getattr(defense, f"{hook}_recheck_seq")))
    core.run()
    return violations


def wake_contract_case(case: DiffCase, program_size: int = 40
                       ) -> List[str]:
    """:func:`wake_contract_violations` on one grid cell's program."""
    from ..bench.runner import DEFENSES

    program, test_input = case_program(case, program_size)
    return wake_contract_violations(
        program, DEFENSES[case.defense](), case.config(),
        test_input.build_memory(), test_input.build_regs())
