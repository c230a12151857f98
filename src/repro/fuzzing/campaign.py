"""AMuLeT*-style fuzzing campaigns (paper SVII-B2).

A campaign tests one (hardware configuration, ProtCC instrumentation,
security contract) triple: it generates random programs, instruments
them, and checks contract-equivalent input pairs for microarchitectural
distinguishability under one or more adversary models.

Every pair of a program mutates one base input.  Each input of a
program is simulated on the core once: the program's checks share one
``TestInput -> CoreResult`` memo, dropped when the program ends, so a
program with N valid pairs costs N + 1 simulations instead of 2N.  Each
check still runs both of its inputs on the sequential machine, and
compares each new hardware run with the sequential run of its input:
a mismatch is an engine bug, and raises.

Programs are independent test units: each is one ``fuzz-program`` job
of the bench job runner (:mod:`repro.bench.jobs`), carrying the cell's
:class:`CampaignConfig` and the program's seed, so a campaign runs
serially or over a process pool (``jobs=N``), with the runner's per-job
timeout and retries.  A cell whose config does not pickle (a lambda
defense factory) runs serially.  Every program's RNG streams are derived
from a per-program seed drawn from the master RNG *before* fan-out, and
per-program tallies are merged back in program order, so the result is
bit-identical for any job count.  That invariant extends to forensics:
witnesses are captured inside the per-program unit as plain
serializable dicts and merged in the same order.
"""

from __future__ import annotations

import dataclasses
import logging
import pickle
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..contracts.adversary import ALL_MODELS, AdversaryModel
from ..contracts.checker import (
    CheckOutcome,
    Contract,
    InvalidReason,
    TestInput,
    Verdict,
    check_contract_pair,
)
from ..protcc import compile_program, mitigate_program
from ..uarch.config import CoreConfig, P_CORE
from ..uarch.pipeline import CoreResult
from .generator import generate_program
from .inputs import generate_input, mutate_input

logger = logging.getLogger(__name__)


@dataclass
class CampaignConfig:
    """One (defense, instrumentation, contract) fuzzing cell."""

    defense_factory: Callable[[], object]
    contract: Contract
    #: ProtCC class used to instrument test programs ("arch" leaves
    #: binaries unmodified; "rand" random-prefixes them).
    instrumentation: str = "arch"
    #: Software mitigation pass (``repro.protcc.MITIGATIONS``) applied
    #: to the instrumented binary before fuzzing — the "is this pass
    #: contract-secure on our core?" experiment.  Incompatible with the
    #: CTS-SEQ contract (the pass would move the publicly-typed
    #: definition PCs the observer needs).
    mitigation: Optional[str] = None
    n_programs: int = 10
    pairs_per_program: int = 4
    program_size: int = 40
    seed: int = 0
    core: CoreConfig = P_CORE
    adversaries: Tuple[AdversaryModel, ...] = ALL_MODELS
    #: Harness name from ``repro.bench.runner.DEFENSES``: the factory
    #: when ``defense_factory`` is None, and the name witnesses record.
    defense_name: Optional[str] = None
    #: Capture a serializable ``LeakWitness`` dict for every violation
    #: (``CampaignResult.witnesses``).  Deterministic and merge-ordered,
    #: so serial and parallel runs stay bit-identical.
    collect_witnesses: bool = False


@dataclass
class CampaignResult:
    tests: int = 0
    violations: int = 0
    false_positives: int = 0
    invalid_pairs: int = 0
    #: ``invalid_pairs`` broken down by rejection reason.
    invalid_nonterminating: int = 0
    invalid_distinguishable: int = 0
    invalid_hw_timeout: int = 0
    #: (program seed, pair index, adversary) of each violation.
    violation_sites: List[Tuple[int, int, str]] = field(default_factory=list)
    #: ``LeakWitness.to_dict()`` payloads, one per violation, in
    #: violation-site order (only when ``collect_witnesses`` is set).
    witnesses: List[Dict] = field(default_factory=list)
    #: Telemetry only (never part of result identity): seconds spent.
    wall_time: float = 0.0

    def summary(self) -> str:
        rejected = f"{self.invalid_pairs} pairs rejected"
        if self.invalid_pairs:
            rejected += (f": {self.invalid_nonterminating} nonterminating, "
                         f"{self.invalid_distinguishable} "
                         f"contract-distinguishable, "
                         f"{self.invalid_hw_timeout} hw-timeout")
        return (f"{self.violations} violations ({self.false_positives} FP) "
                f"in {self.tests} tests ({rejected})")

    def to_dict(self) -> Dict:
        """The tallies as JSON-safe data.  ``wall_time`` is telemetry,
        not result identity, so it is excluded: the same program seed
        must produce byte-identical tallies in whichever process ran
        it."""
        payload = dataclasses.asdict(self)
        del payload["wall_time"]
        payload["violation_sites"] = [list(site)
                                      for site in self.violation_sites]
        return payload

    def merge(self, other: "CampaignResult") -> None:
        self.tests += other.tests
        self.violations += other.violations
        self.false_positives += other.false_positives
        self.invalid_pairs += other.invalid_pairs
        self.invalid_nonterminating += other.invalid_nonterminating
        self.invalid_distinguishable += other.invalid_distinguishable
        self.invalid_hw_timeout += other.invalid_hw_timeout
        self.violation_sites.extend(other.violation_sites)
        self.witnesses.extend(other.witnesses)
        self.wall_time += other.wall_time


def _resolve_factory(config: CampaignConfig) -> Callable[[], object]:
    if config.defense_factory is not None:
        return config.defense_factory
    from ..bench.runner import DEFENSES

    return DEFENSES[config.defense_name]


def _defense_name(config: CampaignConfig) -> Optional[str]:
    """The harness name witnesses record: the configured name, or a
    reverse lookup of the factory in the bench registry."""
    if config.defense_name is not None:
        return config.defense_name
    if config.defense_factory is not None:
        from ..bench.runner import DEFENSES

        for name, factory in DEFENSES.items():
            if factory is config.defense_factory:
                return name
    return None


def _program_seeds(config: CampaignConfig) -> List[int]:
    """Per-program seeds, drawn from the master RNG up front so fan-out
    order cannot perturb them."""
    master = random.Random(config.seed)
    return [master.randrange(1 << 30) for _ in range(config.n_programs)]


def run_program(config: CampaignConfig,
                program_seed: int) -> CampaignResult:
    """Fuzz one generated program: the body of a ``fuzz-program``
    job."""
    result = CampaignResult()
    defense_factory = _resolve_factory(config)
    defense_name = _defense_name(config) if config.collect_witnesses else None
    if config.collect_witnesses and defense_name is None:
        logger.warning(
            "collect_witnesses is set but the defense factory has no "
            "registry name; witnesses will not be replayable by name")
    program = generate_program(program_seed, config.program_size)
    compiled = compile_program(program, config.instrumentation,
                               rng=random.Random(program_seed ^ 0xC0DE))
    binary = compiled.program
    if config.mitigation:
        if config.contract is Contract.CTS_SEQ:
            raise ValueError(
                "software mitigations move instruction positions, so "
                "they cannot be fuzzed under the CTS-SEQ contract "
                "(stale public-definition PCs)")
        binary = mitigate_program(binary, config.mitigation).program
    public_defs = (compiled.public_def_pcs
                   if config.contract is Contract.CTS_SEQ else None)
    input_rng = random.Random(program_seed ^ 0xF00D)
    base_input = generate_input(input_rng)
    # Every pair runs the base input: its hardware run is shared.
    hw_runs: Dict[TestInput, CoreResult] = {}
    for pair_index in range(config.pairs_per_program):
        mutated = mutate_input(input_rng, base_input,
                               public_flips=pair_index % 3 == 2)
        outcome = check_contract_pair(
            binary, defense_factory, config.contract,
            base_input, mutated, config.core,
            adversaries=config.adversaries,
            public_def_pcs=public_defs, hw_runs=hw_runs)
        _tally(result, outcome, program_seed, pair_index)
        if config.collect_witnesses and outcome.verdict is Verdict.VIOLATION:
            from ..forensics.witness import capture_witness

            witness = capture_witness(
                binary, config.contract, base_input, mutated,
                outcome, defense=defense_name, config=config.core,
                instrumentation=config.instrumentation,
                program_seed=program_seed, pair_index=pair_index,
                public_def_pcs=public_defs)
            if config.mitigation:
                witness.meta["mitigation"] = config.mitigation
            result.witnesses.append(witness.to_dict())
    return result


def campaign_job_payload(config: CampaignConfig,
                         program_seed: int) -> Tuple[CampaignConfig, int]:
    """The payload of one ``fuzz-program`` job."""
    return config, program_seed


def run_campaign_job(payload: Tuple[CampaignConfig, int]) -> Dict:
    """Run one ``fuzz-program`` payload in this process; returns its
    tallies as :meth:`CampaignResult.to_dict`."""
    return run_program(*payload).to_dict()


def run_campaign(
    config: CampaignConfig,
    jobs: Optional[int] = None,
    on_program: Optional[Callable[[int, CampaignResult], None]] = None,
) -> CampaignResult:
    """Run one fuzzing cell to completion.

    Each program is one ``fuzz-program`` job of the bench job runner:
    with ``jobs > 1`` they fan out over a process pool.  Serial or
    pooled, each program gets the per-job timeout and retries, and the
    merge is bit-identical to a serial run.  A cell whose config does
    not pickle (a lambda defense factory) runs serially.

    ``on_program(program_seed, partial_result)`` is invoked in the
    parent process, in program order, as each per-program result is
    merged (serially: before the next program starts) — the campaign
    telemetry (JSONL event log) hook.
    """
    from ..bench.executor import resolve_jobs
    from ..bench.jobs import KIND_FUZZ, Job, run_jobs
    from ..metrics.telemetry import current

    seeds = _program_seeds(config)
    jobs = resolve_jobs(jobs)
    # The name is looked up by the factory's identity, which a pickled
    # ``functools.partial`` does not keep: resolve it before fan-out.
    config = dataclasses.replace(config, defense_name=_defense_name(config))
    if jobs > 1:
        try:
            pickle.dumps(config)
        except (pickle.PicklingError, AttributeError, TypeError):
            jobs = 1
    logger.info(
        "campaign start: contract=%s instrumentation=%s defense=%s "
        "programs=%d pairs=%d jobs=%d", config.contract.value,
        config.instrumentation, config.defense_name or "<anonymous>",
        config.n_programs, config.pairs_per_program, jobs)
    started = time.perf_counter()
    units = [Job(KIND_FUZZ, campaign_job_payload(config, seed))
             for seed in seeds]
    tel = current()
    campaign_span = tel.start(
        "fuzz.campaign", push=True,
        attrs={"contract": config.contract.value,
               "instrumentation": config.instrumentation,
               "defense": config.defense_name or "<anonymous>",
               "programs": config.n_programs})
    result = CampaignResult()

    def merge(index: int, outcome) -> None:
        partial = outcome.result
        partial.wall_time = outcome.wall_s
        result.merge(partial)
        if on_program is not None:
            on_program(seeds[index], partial)

    try:
        run_jobs(units, merge, workers=jobs)
    finally:
        tel.finish(campaign_span, tests=result.tests,
                   violations=result.violations)
    wall_s = time.perf_counter() - started
    checks = result.tests + result.invalid_pairs
    for name, amount in (("fuzz.campaigns", 1),
                         ("fuzz.programs", len(seeds)),
                         ("fuzz.checks", checks),
                         ("fuzz.violations", result.violations),
                         ("fuzz.false_positives", result.false_positives),
                         ("fuzz.invalid_pairs", result.invalid_pairs),
                         ("fuzz.witnesses", len(result.witnesses))):
        tel.count(name, amount)
    tel.observe("fuzz.campaign_seconds", wall_s)
    if wall_s > 0:
        tel.gauge("fuzz.programs_per_sec", len(seeds) / wall_s)
        tel.gauge("fuzz.checks_per_sec", checks / wall_s)
    logger.info("campaign done: %s", result.summary())
    return result


def _tally(result: CampaignResult, outcome: CheckOutcome,
           program_seed: int, pair_index: int) -> None:
    if outcome.verdict is Verdict.INVALID_PAIR:
        result.invalid_pairs += 1
        if outcome.invalid_reason is InvalidReason.NONTERMINATING:
            result.invalid_nonterminating += 1
        elif outcome.invalid_reason is InvalidReason.DISTINGUISHABLE:
            result.invalid_distinguishable += 1
        elif outcome.invalid_reason is InvalidReason.HW_TIMEOUT:
            result.invalid_hw_timeout += 1
        return
    result.tests += 1
    if outcome.verdict is Verdict.VIOLATION:
        result.violations += 1
        adversary = outcome.adversary.value if outcome.adversary else "?"
        result.violation_sites.append((program_seed, pair_index, adversary))
    elif outcome.verdict is Verdict.FALSE_POSITIVE:
        result.false_positives += 1
