"""Software Spectre mitigations (``repro.protcc.mitigations``).

Two proof obligations, both discharged here:

* **Security, by the fuzzer**: under the *unsafe* core, fence/SLH/BLADE
  must record zero contract violations on the security fixtures and on
  seeded generated-program campaigns, while the unmitigated binary and
  the deliberately partial ``mask`` pass must still leak (the fuzzer
  proves the negative result too — a mitigation harness that cannot
  find the unmitigated leak proves nothing).
* **Architectural transparency**: every pass must commit exactly the
  same architectural results (final registers, memory, halt reason) as
  the unmitigated binary on the reference executor — mitigations may
  only change *transient* behaviour.
"""

import random

import pytest

from repro.arch.executor import STACK_TOP, run_program
from repro.bench.executor import spec_cache_key
from repro.bench.runner import RunSpec
from repro.contracts import Contract
from repro.contracts.checker import TestInput, Verdict, check_contract_pair
from repro.defenses import Unsafe
from repro.fixtures import FIXTURES
from repro.forensics import LeakWitness
from repro.fuzzing import CampaignConfig, generate_input, run_campaign
from repro.fuzzing.generator import generate_program
from repro.protcc import (
    MITIGATIONS,
    SECURE_MITIGATIONS,
    MitigationError,
    compile_program,
    mitigate_program,
)
from repro.uarch.config import P_CORE

#: Secret pairs that make each fixture's channel observable: the v1
#: gadget leaks via which probe-array line the secret selects; the
#: divider channel needs operands in different latency classes.
FIXTURE_SECRETS = {
    "v1-gadget": (3, 57),
    "div-channel": (2, 1 << 40),
}

CONFIG = P_CORE.replace(div_is_transmitter=True)


def _fixture_outcome(fixture_name, mitigation):
    fixture = FIXTURES[fixture_name]
    program = fixture.program()
    if mitigation is not None:
        program = mitigate_program(program, mitigation).program
    secret_a, secret_b = FIXTURE_SECRETS[fixture_name]
    return check_contract_pair(
        program, Unsafe, Contract.ARCH_SEQ,
        TestInput(memory_words=((fixture.secret_addr, secret_a),)),
        TestInput(memory_words=((fixture.secret_addr, secret_b),)),
        CONFIG)


# ----------------------------------------------------------------------
# The contract-security matrix on the security fixtures
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fixture_name", sorted(FIXTURE_SECRETS))
def test_unmitigated_fixture_leaks_on_unsafe(fixture_name):
    outcome = _fixture_outcome(fixture_name, None)
    assert outcome.verdict is Verdict.VIOLATION


@pytest.mark.parametrize("fixture_name", sorted(FIXTURE_SECRETS))
@pytest.mark.parametrize("mitigation", sorted(SECURE_MITIGATIONS))
def test_secure_mitigations_close_fixture_channels(fixture_name, mitigation):
    outcome = _fixture_outcome(fixture_name, mitigation)
    assert outcome.verdict is Verdict.PASS, outcome.detail


@pytest.mark.parametrize("fixture_name", sorted(FIXTURE_SECRETS))
def test_mask_alone_does_not_close_fixture_channels(fixture_name):
    # The fixtures bounds-check via CMP (register bound), which mask's
    # provable-CMPI pattern deliberately does not cover — the fuzzer is
    # expected to convict mask-only here, per SECURE_MITIGATIONS.
    outcome = _fixture_outcome(fixture_name, "mask")
    assert outcome.verdict is Verdict.VIOLATION


# ----------------------------------------------------------------------
# The campaign matrix on generated programs, witnesses verified
# ----------------------------------------------------------------------

def _campaign(mitigation, collect=False):
    return run_campaign(CampaignConfig(
        defense_factory=Unsafe,
        contract=Contract.ARCH_SEQ,
        instrumentation="arch",
        n_programs=2,
        pairs_per_program=2,
        seed=7,
        defense_name="unsafe",
        collect_witnesses=collect,
        mitigation=mitigation,
    ), jobs=1)


def test_campaign_unmitigated_baseline_leaks():
    result = _campaign(None, collect=True)
    assert result.violations > 0
    witness = LeakWitness.from_dict(result.witnesses[0])
    assert witness.verify().verdict is Verdict.VIOLATION


@pytest.mark.parametrize("mitigation", sorted(SECURE_MITIGATIONS))
def test_campaign_secure_mitigations_record_zero_violations(mitigation):
    result = _campaign(mitigation)
    assert result.violations == 0, (
        f"{mitigation} claims contract security but recorded "
        f"{result.violations} violations: {result.violation_sites}")


def test_campaign_mask_only_still_leaks_with_verified_witness():
    result = _campaign("mask", collect=True)
    assert result.violations > 0
    witness = LeakWitness.from_dict(result.witnesses[0])
    assert witness.meta["mitigation"] == "mask"
    # The witness embeds the *mitigated* instruction stream, so verify()
    # replays the violation against exactly the binary that leaked.
    assert witness.verify().verdict is Verdict.VIOLATION


def test_campaign_rejects_mitigation_under_cts_seq():
    config = CampaignConfig(
        defense_factory=Unsafe,
        contract=Contract.CTS_SEQ,
        instrumentation="cts",
        n_programs=1,
        pairs_per_program=1,
        seed=7,
        mitigation="fence",
    )
    with pytest.raises(ValueError, match="CTS-SEQ"):
        run_campaign(config, jobs=1)


# ----------------------------------------------------------------------
# Architectural equivalence on the seeded program grid
# ----------------------------------------------------------------------

#: Stack window: CALL pushes the return *PC*, and mitigation passes
#: move PCs, so popped-but-still-resident return addresses just below
#: the stack top legitimately differ between base and mitigated
#: binaries.  Every non-stack byte and all 17 registers must match
#: exactly.
_STACK_WINDOW = range(STACK_TOP - 4096, STACK_TOP)


def _arch_results(program, test_input):
    result = run_program(program, test_input.build_memory(),
                         test_input.build_regs())
    assert result.halt_reason == "halt"
    memory = {addr: value
              for addr, value in result.memory.snapshot().items()
              if value and addr not in _STACK_WINDOW}
    return result.final_regs, memory, result.halt_reason


@pytest.mark.parametrize("mitigation", sorted(MITIGATIONS))
@pytest.mark.parametrize("seed", range(4))
def test_mitigated_generated_programs_commit_identical_results(
        mitigation, seed):
    program = generate_program(seed, 40)
    test_input = generate_input(random.Random(seed ^ 0xF00D))
    mitigated = mitigate_program(program, mitigation).program
    assert _arch_results(program, test_input) \
        == _arch_results(mitigated, test_input)


@pytest.mark.parametrize("mitigation", sorted(MITIGATIONS))
@pytest.mark.parametrize("fixture_name", sorted(FIXTURES))
def test_mitigated_fixtures_commit_identical_results(mitigation,
                                                     fixture_name):
    fixture = FIXTURES[fixture_name]
    program = fixture.program()
    mitigated = mitigate_program(program, mitigation).program
    test_input = TestInput(memory_words=((fixture.secret_addr, 3),))
    assert _arch_results(program, test_input) \
        == _arch_results(mitigated, test_input)


# ----------------------------------------------------------------------
# Pass properties
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mitigation", ["fence", "blade"])
@pytest.mark.parametrize("seed", range(4))
def test_fence_style_passes_are_idempotent(mitigation, seed):
    once = mitigate_program(generate_program(seed, 40), mitigation)
    twice = mitigate_program(once.program, mitigation)
    assert twice.stats["fences"] == 0
    assert twice.program.instructions == once.program.instructions


@pytest.mark.parametrize("seed", range(6))
def test_slh_scratch_registers_never_collide_with_program_regs(seed):
    program = generate_program(seed, 40)
    used = set()
    for inst in program.instructions:
        used |= set(inst.src_regs()) | set(inst.dest_regs()) \
            | set(inst.addr_regs())
    stats = mitigate_program(program, "slh").stats
    assert stats["poison_reg"] not in used
    assert stats["temp_reg"] not in used
    assert stats["poison_reg"] != stats["temp_reg"]


@pytest.mark.parametrize("mitigation", sorted(MITIGATIONS))
@pytest.mark.parametrize("clazz", ["arch", "ct"])
def test_mitigations_compose_with_protcc_classes(mitigation, clazz):
    # Compile-then-mitigate is the supported composition order: the
    # mitigation rewrites the instrumented binary, and the combined
    # result must still commit the unmitigated architectural results.
    seed = 3
    program = generate_program(seed, 40)
    instrumented = compile_program(program, clazz).program
    combined = mitigate_program(instrumented, mitigation).program
    test_input = generate_input(random.Random(seed ^ 0xF00D))
    assert _arch_results(instrumented, test_input) \
        == _arch_results(combined, test_input)


def test_unknown_mitigation_raises():
    with pytest.raises(MitigationError, match="registered"):
        mitigate_program(generate_program(0, 40), "retpoline")
    assert isinstance(MitigationError("x"), ValueError)


def test_mitigated_program_reports_code_size_overhead():
    result = mitigate_program(FIXTURES["v1-gadget"].program(), "fence")
    assert result.base_size > 0
    assert len(result.program.instructions) > result.base_size
    assert result.code_size_overhead > 0
    assert result.mitigation == "fence"
    assert result.stats["fences"] > 0


# ----------------------------------------------------------------------
# Bench plumbing: cache keys must see the mitigation field
# ----------------------------------------------------------------------

def test_mitigation_cases_identical_across_engines():
    # The full 16-case sweep runs in CI's `repro diff`; four cases here
    # keep the two-engine contract under the tier-1 suite too.
    import itertools

    from repro.uarch.refcore import mitigation_cases, run_engines

    for case in itertools.islice(mitigation_cases(), 4):
        report = run_engines(case)[1]
        assert report.identical, report.render()


def test_mitigation_table_single_workload():
    from repro.bench.tables import MITIGATION_SCHEMES, mitigation_table

    table = mitigation_table(("mcf.s",), jobs=1)
    assert [row[0] for row in table.rows] \
        == [scheme for scheme, _ in MITIGATION_SCHEMES]
    fence, stt = table.data["fence"], table.data["stt"]
    assert fence["kind"] == "SW" and stt["kind"] == "HW"
    # Software fencing costs runtime and code size but collapses the
    # transient-uop share the observatory reports; hardware defenses
    # keep speculating and gate transmitters instead.
    assert fence["norm_runtime"] > 1.0
    assert fence["code_size_overhead"] > 0
    assert stt["code_size_overhead"] == 0.0
    assert fence["transient_share"] < stt["transient_share"]


def test_spec_cache_key_distinguishes_mitigations():
    keys = {spec_cache_key(RunSpec(workload="mcf.s", mitigation=m))
            for m in (None, "fence", "slh", "mask", "blade")}
    assert len(keys) == 5


def test_secure_mitigations_is_a_subset_of_the_registry():
    assert SECURE_MITIGATIONS < set(MITIGATIONS)
    assert "mask" in MITIGATIONS and "mask" not in SECURE_MITIGATIONS
