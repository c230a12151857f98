"""Serializable leak witnesses (the fuzzer's counterexample artifact).

A :class:`LeakWitness` packages everything needed to *re-observe* one
contract violation on a fresh machine: the instrumented program (exact
instruction encodings plus a human-readable disassembly), the input
pair, the contract, the defense harness name, the full core
configuration, the adversary model that distinguished the runs, and the
first divergent observation element.  Witnesses round-trip through JSON
(``save``/``load``) and re-verify themselves (:meth:`LeakWitness.verify`)
so minimization and explanation can trust what they are working on.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..contracts.adversary import AdversaryModel, Divergence
from ..contracts.checker import (
    CHECK_FUEL,
    CHECK_MAX_CYCLES,
    CheckOutcome,
    Contract,
    TestInput,
)
from ..isa.instruction import Instruction
from ..isa.operations import Cond, Op
from ..isa.program import Program
from ..uarch.config import CacheConfig, CoreConfig, L1DTagMode, P_CORE, SpeculationModel

#: Bumped when the witness JSON layout changes incompatibly.
WITNESS_SCHEMA = 1


class WitnessError(Exception):
    """Raised for unusable witnesses (bad schema, unresolvable defense,
    non-reproducing violation)."""


# ----------------------------------------------------------------------
# Component (de)serialization
# ----------------------------------------------------------------------

def instruction_to_dict(inst: Instruction) -> Dict:
    payload: Dict = {"op": inst.op.value}
    if inst.rd is not None:
        payload["rd"] = inst.rd
    if inst.ra is not None:
        payload["ra"] = inst.ra
    if inst.rb is not None:
        payload["rb"] = inst.rb
    if inst.imm:
        payload["imm"] = inst.imm
    if inst.target is not None:
        payload["target"] = inst.target
    if inst.cond is not None:
        payload["cond"] = inst.cond.value
    if inst.prot:
        payload["prot"] = True
    return payload


def instruction_from_dict(payload: Dict) -> Instruction:
    return Instruction(
        op=Op(payload["op"]),
        rd=payload.get("rd"),
        ra=payload.get("ra"),
        rb=payload.get("rb"),
        imm=payload.get("imm", 0),
        target=payload.get("target"),
        cond=Cond(payload["cond"]) if "cond" in payload else None,
        prot=payload.get("prot", False),
    )


def core_config_to_dict(config: CoreConfig) -> Dict:
    payload: Dict = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, CacheConfig):
            value = dataclasses.asdict(value)
        elif isinstance(value, (SpeculationModel, L1DTagMode)):
            value = value.value
        payload[f.name] = value
    return payload


def core_config_from_dict(payload: Dict) -> CoreConfig:
    kwargs = dict(payload)
    for level in ("l1d", "l2", "l3"):
        if isinstance(kwargs.get(level), dict):
            cache = dict(kwargs[level])
            cache.pop("num_sets", None)  # derived property, not a field
            kwargs[level] = CacheConfig(**cache)
    if "speculation_model" in kwargs:
        kwargs["speculation_model"] = SpeculationModel(
            kwargs["speculation_model"])
    if "l1d_tag_mode" in kwargs:
        kwargs["l1d_tag_mode"] = L1DTagMode(kwargs["l1d_tag_mode"])
    return CoreConfig(**kwargs)


def test_input_to_dict(test_input: TestInput) -> Dict:
    return {"memory_words": [list(pair) for pair in test_input.memory_words],
            "regs": [list(pair) for pair in test_input.regs]}


def test_input_from_dict(payload: Dict) -> TestInput:
    return TestInput(
        memory_words=tuple((addr, value)
                           for addr, value in payload["memory_words"]),
        regs=tuple((reg, value) for reg, value in payload["regs"]))


# ----------------------------------------------------------------------
# The witness itself
# ----------------------------------------------------------------------

@dataclass
class LeakWitness:
    """One reproducible contract violation, ready to serialize."""

    contract: str
    defense: Optional[str]
    adversary: str
    core: Dict
    instructions: List[Dict]
    entry: int
    asm: str
    input_a: Dict
    input_b: Dict
    divergence: Optional[Dict] = None
    instrumentation: Optional[str] = None
    program_seed: Optional[int] = None
    pair_index: Optional[int] = None
    public_def_pcs: Optional[List[int]] = None
    fuel: int = CHECK_FUEL
    max_cycles: int = CHECK_MAX_CYCLES
    minimized: bool = False
    #: Instruction count before minimization (== len(instructions) for
    #: unminimized witnesses).
    original_len: int = 0
    schema: int = WITNESS_SCHEMA
    #: Free-form notes (minimization stats etc.); never load-bearing.
    meta: Dict = field(default_factory=dict)

    # -- reconstruction ----------------------------------------------------

    def program(self) -> Program:
        return Program([instruction_from_dict(p) for p in self.instructions],
                       entry=self.entry)

    def inputs(self) -> Tuple[TestInput, TestInput]:
        return (test_input_from_dict(self.input_a),
                test_input_from_dict(self.input_b))

    def core_config(self) -> CoreConfig:
        return core_config_from_dict(self.core)

    def contract_enum(self) -> Contract:
        return Contract(self.contract)

    def adversary_enum(self) -> AdversaryModel:
        return AdversaryModel(self.adversary)

    def divergence_obj(self) -> Optional[Divergence]:
        if self.divergence is None:
            return None
        return Divergence.from_dict(self.divergence)

    def defense_factory(self) -> Callable[[], object]:
        if self.defense is None:
            raise WitnessError(
                "witness has no resolvable defense harness name; "
                "replay requires one of repro.bench.DEFENSES")
        from ..bench.runner import DEFENSES

        if self.defense not in DEFENSES:
            raise WitnessError(
                f"witness names unknown defense {self.defense!r}; "
                f"known: {', '.join(sorted(DEFENSES))}")
        return DEFENSES[self.defense]

    def differing_memory_words(self) -> List[int]:
        """Addresses where the two inputs disagree, sorted."""
        words_a = dict(test_input_from_dict(self.input_a).memory_words)
        words_b = dict(test_input_from_dict(self.input_b).memory_words)
        return sorted(addr for addr in set(words_a) | set(words_b)
                      if words_a.get(addr) != words_b.get(addr))

    def verify(self) -> CheckOutcome:
        """Re-run the contract check this witness claims to violate
        (restricted to the witness's own adversary model)."""
        from ..contracts.checker import check_contract_pair

        input_a, input_b = self.inputs()
        public = set(self.public_def_pcs) \
            if self.public_def_pcs is not None else None
        return check_contract_pair(
            self.program(), self.defense_factory(), self.contract_enum(),
            input_a, input_b, self.core_config(),
            adversaries=(self.adversary_enum(),),
            public_def_pcs=public,
            fuel=self.fuel, max_cycles=self.max_cycles)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "LeakWitness":
        payload = dict(payload)
        schema = payload.get("schema", 0)
        if schema != WITNESS_SCHEMA:
            raise WitnessError(
                f"unsupported witness schema {schema!r} "
                f"(this build reads schema {WITNESS_SCHEMA})")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise WitnessError(f"unknown witness fields: {sorted(unknown)}")
        return cls(**payload)

    def save(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True)
                        + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "LeakWitness":
        try:
            payload = json.loads(pathlib.Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise WitnessError(f"cannot read witness {path}: {exc}") from exc
        return cls.from_dict(payload)

    def describe(self) -> str:
        origin = ""
        if self.program_seed is not None:
            origin = (f" (program seed {self.program_seed}, "
                      f"pair {self.pair_index})")
        return (f"{self.defense or '?'} vs {self.contract} under "
                f"{self.adversary}: {len(self.instructions)} instructions"
                + origin)


def capture_witness(
    program: Program,
    contract: Contract,
    input_a: TestInput,
    input_b: TestInput,
    outcome: CheckOutcome,
    *,
    defense: Optional[str] = None,
    config: CoreConfig = P_CORE,
    instrumentation: Optional[str] = None,
    program_seed: Optional[int] = None,
    pair_index: Optional[int] = None,
    public_def_pcs: Optional[set] = None,
    fuel: int = CHECK_FUEL,
    max_cycles: int = CHECK_MAX_CYCLES,
) -> LeakWitness:
    """Package a VIOLATION outcome from :func:`check_contract_pair` into
    a serializable witness."""
    from ..isa.assembler import disassemble

    if not program.is_linked:
        program = program.linked()
    adversary = outcome.adversary.value if outcome.adversary else "?"
    return LeakWitness(
        contract=contract.value,
        defense=defense,
        adversary=adversary,
        core=core_config_to_dict(config),
        instructions=[instruction_to_dict(i) for i in program.instructions],
        entry=program.entry,
        asm=disassemble(program),
        input_a=test_input_to_dict(input_a),
        input_b=test_input_to_dict(input_b),
        divergence=(outcome.divergence.to_dict()
                    if outcome.divergence is not None else None),
        instrumentation=instrumentation,
        program_seed=program_seed,
        pair_index=pair_index,
        public_def_pcs=(sorted(public_def_pcs)
                        if public_def_pcs is not None else None),
        fuel=fuel,
        max_cycles=max_cycles,
        original_len=len(program.instructions),
    )
