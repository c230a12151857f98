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

* :class:`Case` — one run for the oracles: program, defense factory,
  core config, initial memory and registers.
* :func:`run_engines` — one case on both engines, diffed.
* :func:`compare_results` — the field-by-field :class:`DiffReport`.
* The case sources, lazy and in ``repro diff`` order:
  :func:`grid_cases` (the randomized-program grid over every defense x
  ProtCC class x core config in the paper's Tables II/III; one cell is
  :func:`grid_case`), :func:`fixture_cases` (the security fixtures
  under every defense), :func:`mitigation_cases` (software-mitigated
  binaries) and :func:`workload_cases` (full workloads).
* :func:`wake_contract_violations` — the proof obligation behind the
  compiled engine's sleeping uops: on the reference engine, no gate
  refusal turns into an allow before its ``*_recheck_seq`` hint or a
  watched event (a resolution under CONTROL, a declassification of a
  register the gate transmits).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..arch.memory import Memory
from ..isa.program import Program
from .config import CoreConfig, E_CORE, P_CORE, SpeculationModel
from .pipeline import CoreResult, DEFAULT_MAX_CYCLES, ENGINES, HOOKS, simulate


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


@dataclass(frozen=True)
class Case:
    """One run for the oracles: a program, the defense that guards it,
    the core config, and the initial memory image and registers.

    ``defense`` is a factory, not an instance: defenses carry state, so
    every run calls it once.  ``memory`` is a plain image that every
    core copies, so one case serves any number of runs.
    """

    label: str
    program: Program
    defense: Callable[[], object]
    config: CoreConfig = P_CORE
    memory: Optional[Memory] = None
    regs: Optional[Dict[int, int]] = None


def run_engines(case: Case) -> Tuple[Dict[str, CoreResult], DiffReport]:
    """Run ``case`` on every engine and diff the compiled result against
    the reference one; divergent fields are reported as
    ``compiled:field``."""
    results = {engine: simulate(case.program, case.defense(), case.config,
                                case.memory, case.regs, engine=engine)
               for engine in ENGINES}
    reference, engine = ENGINES
    report = DiffReport(label=case.label)
    for diff in compare_results(results[engine], results[reference]).diffs:
        report.diffs.append(FieldDiff(
            f"{engine}:{diff.field}", diff.got, diff.ref))
    return results, report


# ---------------------------------------------------------------------
# The case sources, in ``repro diff`` order.
# ---------------------------------------------------------------------

#: ProtCC instrumentation classes from the paper's Table II fuzzing
#: grid ("rand" random-prefixes; the rest are the vulnerable-code
#: classes of Table III).
INSTRUMENTS: Tuple[str, ...] = ("rand", "arch", "cts", "ct", "unr")

CORE_CONFIGS: Dict[str, CoreConfig] = {"P": P_CORE, "E": E_CORE}


def grid_case(defense: str, instrument: str, core: str, seed: int,
              program_size: int = 40) -> Case:
    """One cell of the randomized grid: seed ``seed``'s generated
    program, instrumented with ProtCC class ``instrument``, and its
    test input."""
    from ..bench.runner import DEFENSES
    from ..fuzzing.generator import generate_program
    from ..fuzzing.inputs import generate_input
    from ..protcc import compile_program

    config = CORE_CONFIGS[core]
    # Rotate the speculation model and the squash-notification bug with
    # the seed so the grid also sweeps the Table III hardware variants
    # without multiplying the case count.
    if seed % 3 == 1:
        config = config.replace(speculation_model=SpeculationModel.CONTROL)
    if seed % 4 == 2:
        config = config.replace(buggy_squash_notify=True)
    program = compile_program(
        generate_program(seed, program_size), instrument,
        rng=random.Random(seed ^ 0xC0DE)).program
    test_input = generate_input(random.Random(seed ^ 0xF00D))
    return Case(f"{defense}/{instrument}/{core}/seed{seed}", program,
                DEFENSES[defense], config, test_input.build_memory(),
                test_input.build_regs())


def grid_cases(programs: int = 3, seed: int = 0,
               defenses: Optional[Tuple[str, ...]] = None,
               instruments: Tuple[str, ...] = INSTRUMENTS,
               cores: Tuple[str, ...] = ("P", "E"),
               program_size: int = 40) -> Iterator[Case]:
    """The grid over the paper's Tables II/III: every defense x
    instrumentation class x core, ``programs`` seeded random programs
    per cell."""
    from ..bench.runner import DEFENSES

    for defense in defenses if defenses is not None else DEFENSES:
        for instrument in instruments:
            for core in cores:
                for index in range(programs):
                    yield grid_case(defense, instrument, core, seed + index,
                                    program_size)


def fixture_cases() -> Iterator[Case]:
    """The security fixtures (Spectre v1, divider channel,
    squash-notification bug) under every defense, the squash-bug
    fixture on the buggy core it exposes."""
    from ..bench.runner import DEFENSES
    from ..fixtures import FIXTURES, build

    for name in FIXTURES:
        program, memory = build(name)
        config = P_CORE.replace(buggy_squash_notify=True) \
            if name == "squash-bug" else P_CORE
        for defense, factory in DEFENSES.items():
            yield Case(f"fixture:{name}/{defense}", program, factory, config,
                       memory)


def mitigation_cases(seed: int = 0) -> Iterator[Case]:
    """Software-mitigated binaries under the ``Unsafe`` hardware
    defense: each registered pass applied to the security fixtures and
    to one seeded generated program.  Proves the passes' output
    (fences, poison threading, masked loads) executes identically on
    both engines."""
    from ..bench.runner import DEFENSES
    from ..fixtures import FIXTURES, build
    from ..fuzzing.generator import generate_program
    from ..fuzzing.inputs import generate_input
    from ..protcc import MITIGATIONS, mitigate_program

    test_input = generate_input(random.Random(seed ^ 0xF00D))
    generated = generate_program(seed, 40)
    unsafe = DEFENSES["unsafe"]
    for mitigation in MITIGATIONS:
        for name in FIXTURES:
            program, memory = build(name)
            yield Case(f"mitigation:{name}/{mitigation}",
                       mitigate_program(program, mitigation).program, unsafe,
                       memory=memory)
        yield Case(f"mitigation:generated-seed{seed}/{mitigation}",
                   mitigate_program(generated, mitigation).program, unsafe,
                   memory=test_input.build_memory(),
                   regs=test_input.build_regs())


def workload_cases(names: Iterable[str],
                   defenses: Optional[Tuple[str, ...]] = None
                   ) -> Iterator[Case]:
    """Full workloads under every defense (or ``defenses``), Protean
    defenses on the workload's ProtCC binary."""
    from ..bench.runner import DEFENSES, compiled, default_instrument
    from ..workloads import get_workload

    for name in names:
        workload = get_workload(name)
        for defense, factory in DEFENSES.items():
            if defenses is not None and defense not in defenses:
                continue
            instrument = default_instrument(defense)
            program = workload.program if instrument is None \
                else compiled(name, instrument).program
            yield Case(f"workload:{name}/{defense}", program, factory,
                       memory=workload.memory, regs=workload.regs)


# ---------------------------------------------------------------------
# The wake contract: what lets the compiled engine stop re-asking.
# ---------------------------------------------------------------------

def wake_contract_violations(case: Case,
                             max_cycles: int = DEFAULT_MAX_CYCLES,
                             ) -> List[str]:
    """Run ``case`` on the reference engine with its defense's three
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

    The wrappers are instance attributes on the defense and on this
    run's :class:`Core`, so the reference's default path pays nothing;
    they are deleted once the run ends, so it leaves no reference cycle.
    """
    from .pipeline import Core

    defense = case.defense()
    core = Core(case.program, defense, case.config, case.memory, case.regs,
                max_cycles)
    counts = {"commit": 0, "resolve": 0, "declassify": 0}
    control = case.config.speculation_model is SpeculationModel.CONTROL
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
    try:
        core.run()
    finally:
        for hook, _ in HOOKS:
            delattr(defense, f"may_{hook}")
        del defense.on_commit, core._attempt_resolution
    return violations
