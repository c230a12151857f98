"""Fuzzer components and a miniature end-to-end campaign."""

import random

import pytest

from repro.arch import run_program
from repro.contracts import Contract
from repro.defenses import ProtTrack, Unsafe
from repro.fuzzing import (
    CampaignConfig,
    HIDDEN_BASE,
    HIDDEN_WORDS,
    generate_input,
    generate_program,
    mutate_input,
    run_campaign,
)


@pytest.mark.parametrize("seed", range(8))
def test_generated_programs_terminate(seed):
    program = generate_program(seed)
    result = run_program(program)
    assert result.halt_reason == "halt"
    assert result.instruction_count < 100_000


def test_generation_is_deterministic():
    a = generate_program(42)
    b = generate_program(42)
    assert a.instructions == b.instructions


def test_size_parameter_scales():
    small = generate_program(1, size=10)
    large = generate_program(1, size=120)
    assert len(large) > len(small)


def test_inputs_cover_regions():
    rng = random.Random(0)
    base = generate_input(rng)
    addresses = {addr for addr, _ in base.memory_words}
    assert HIDDEN_BASE in addresses


def test_mutation_only_touches_hidden_by_default():
    rng = random.Random(0)
    base = generate_input(rng)
    mutated = mutate_input(rng, base)
    assert mutated.regs == base.regs
    changed = {addr for (addr, v) in mutated.memory_words
               if dict(base.memory_words).get(addr) != v}
    hidden = set(range(HIDDEN_BASE, HIDDEN_BASE + HIDDEN_WORDS * 8, 8))
    assert changed and changed <= hidden


def test_campaign_unsafe_finds_violations():
    config = CampaignConfig(defense_factory=Unsafe,
                            contract=Contract.UNPROT_SEQ,
                            instrumentation="rand",
                            n_programs=4, pairs_per_program=2, seed=5)
    result = run_campaign(config)
    assert result.violations >= 1
    assert len(result.violation_sites) == result.violations
    assert result.tests + result.invalid_pairs == 4 * 2


def test_campaign_prottrack_clean():
    config = CampaignConfig(defense_factory=ProtTrack,
                            contract=Contract.UNPROT_SEQ,
                            instrumentation="rand",
                            n_programs=3, pairs_per_program=2, seed=5)
    result = run_campaign(config)
    assert result.violations == 0
    assert result.tests > 0


def test_campaign_summary_format():
    config = CampaignConfig(defense_factory=Unsafe,
                            contract=Contract.ARCH_SEQ,
                            instrumentation="arch",
                            n_programs=1, pairs_per_program=1, seed=1)
    result = run_campaign(config)
    assert "violations" in result.summary()


def test_summary_breaks_down_invalid_pairs():
    from repro.fuzzing import CampaignResult

    result = CampaignResult(tests=5, violations=1, invalid_pairs=6,
                            invalid_nonterminating=1,
                            invalid_distinguishable=2,
                            invalid_hw_timeout=3)
    summary = result.summary()
    assert "violations" in summary
    assert "1 nonterminating" in summary
    assert "2 contract-distinguishable" in summary
    assert "3 hw-timeout" in summary
    # The breakdown only appears when pairs were actually rejected.
    assert "nonterminating" not in CampaignResult(tests=5).summary()


def test_merge_accumulates_breakdown_and_telemetry():
    from repro.fuzzing import CampaignResult

    a = CampaignResult(invalid_pairs=1, invalid_hw_timeout=1,
                       wall_time=0.5, witnesses=[{"w": 1}])
    b = CampaignResult(invalid_pairs=2, invalid_nonterminating=2,
                       wall_time=0.25, witnesses=[{"w": 2}])
    a.merge(b)
    assert a.invalid_pairs == 3
    assert a.invalid_hw_timeout == 1
    assert a.invalid_nonterminating == 2
    assert a.wall_time == 0.75
    assert a.witnesses == [{"w": 1}, {"w": 2}]


def test_campaign_result_wire_format_round_trips():
    from repro.fuzzing import CampaignResult

    result = CampaignResult(tests=3, violations=1, wall_time=1.5,
                            violation_sites=[(9, 0, "timing")],
                            witnesses=[{"w": 1}])
    payload = result.to_dict()
    assert "wall_time" not in payload  # telemetry, not identity
    assert payload["violation_sites"] == [[9, 0, "timing"]]
    assert payload["tests"] == 3 and payload["witnesses"] == [{"w": 1}]


def test_program_simulates_each_input_once(monkeypatch):
    # One program of the ProtTrack UNPROT-SEQ ``rand`` cell: its pairs
    # share the base input, whose hardware run is simulated once.
    from repro.contracts import InvalidReason, checker
    from repro.fuzzing import campaign

    config = CampaignConfig(defense_factory=ProtTrack,
                            contract=Contract.UNPROT_SEQ,
                            instrumentation="rand", n_programs=1,
                            pairs_per_program=4, seed=1)
    program_seed = campaign._program_seeds(config)[0]
    simulations = []
    simulate = checker.simulate

    def counting(*args, **kwargs):
        simulations.append(args[0])
        return simulate(*args, **kwargs)

    checks = []
    check = campaign.check_contract_pair

    def recording(program, factory, contract, input_a, input_b, *args,
                  **kwargs):
        outcome = check(program, factory, contract, input_a, input_b,
                        *args, **kwargs)
        checks.append((input_a, input_b, outcome.invalid_reason))
        return outcome

    monkeypatch.setattr(checker, "simulate", counting)
    monkeypatch.setattr(campaign, "check_contract_pair", recording)
    shared = campaign.run_program(config, program_seed)
    sequential_rejects = (InvalidReason.NONTERMINATING,
                          InvalidReason.DISTINGUISHABLE)
    hardware = {test_input for input_a, input_b, reason in checks
                if reason not in sequential_rejects
                for test_input in (input_a, input_b)}
    assert len(checks) == 4 and len(hardware) >= 3
    assert len(simulations) == len(hardware)

    def unshared(*args, hw_runs=None, **kwargs):
        return check(*args, **kwargs)

    monkeypatch.setattr(campaign, "check_contract_pair", unshared)
    assert campaign.run_program(config, program_seed).to_dict() \
        == shared.to_dict()
