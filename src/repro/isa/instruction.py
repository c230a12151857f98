"""The Instruction class: one micro-op, optionally PROT-prefixed.

ProtISA (paper SIV) is a single instruction prefix.  A ``PROT``-prefixed
instruction adds its output registers to the architectural ProtSet; an
unprefixed instruction removes its output registers and any memory bytes
it reads.  Stores label written bytes according to the protection of
their data operand.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

from .operations import (
    BRANCH_OPS,
    CONTROL_OPS,
    DIV_OPS,
    FLAG_WRITERS,
    IMM_ALU_OPS,
    MEM_READ_OPS,
    MEM_WRITE_OPS,
    REG_ALU_OPS,
    Cond,
    Op,
)
from .registers import FLAGS, SP


@dataclass(frozen=True)
class Instruction:
    """A single micro-op of the repro ISA.

    Fields are interpreted per opcode:

    * ``rd`` — destination register (or the *data* register of a STORE).
    * ``ra``/``rb`` — source registers; for memory ops, the base and
      optional index address registers.
    * ``imm`` — immediate / address displacement.
    * ``target`` — branch target: a label name before linking, an
      instruction index afterwards.
    * ``cond`` — condition for ``BR``.
    * ``prot`` — the ProtISA PROT prefix.
    """

    op: Op
    rd: Optional[int] = None
    ra: Optional[int] = None
    rb: Optional[int] = None
    imm: int = 0
    target: Optional[Union[str, int]] = None
    cond: Optional[Cond] = None
    prot: bool = False

    # Decode metadata (predicates and operand tuples) is a pure function
    # of the fields, so it is computed once per instruction here instead
    # of per pipeline query: the simulator asks ``is_load``/``src_regs``
    # millions of times per run and the ``op in SET`` enum-hash lookups
    # used to dominate profiles.  The attributes are not dataclass
    # fields, so equality/hash/repr stay field-only.
    def __post_init__(self) -> None:
        op = self.op
        setattr_ = object.__setattr__  # bypass the frozen guard
        is_load = op in MEM_READ_OPS
        is_store = op in MEM_WRITE_OPS
        is_div = op in DIV_OPS
        is_branch = op in BRANCH_OPS
        setattr_(self, "is_load", is_load)
        setattr_(self, "is_store", is_store)
        setattr_(self, "is_mem", is_load or is_store)
        setattr_(self, "is_branch", is_branch)
        setattr_(self, "is_control", op in CONTROL_OPS)
        setattr_(self, "is_div", is_div)
        setattr_(self, "writes_flags", op in FLAG_WRITERS)
        setattr_(self, "transmits_loaded_target", op is Op.RET)
        setattr_(self, "is_transmitter",
                 is_load or is_store or is_div or is_branch)
        setattr_(self, "_dest_regs", self._compute_dest_regs())
        setattr_(self, "_addr_regs", self._compute_addr_regs())
        setattr_(self, "_src_regs", self._compute_src_regs())
        setattr_(self, "_transmit_exec", self._compute_transmit_exec())
        setattr_(self, "_transmit_resolve", self._compute_transmit_resolve())

    # ------------------------------------------------------------------
    # Operand classification
    # ------------------------------------------------------------------

    def dest_regs(self) -> Tuple[int, ...]:
        """Architectural registers written by this instruction."""
        return self._dest_regs

    def _compute_dest_regs(self) -> Tuple[int, ...]:
        op = self.op
        if op is Op.MOVI or op is Op.MOV or op in REG_ALU_OPS \
                or op in IMM_ALU_OPS or op in DIV_OPS or op is Op.LOAD:
            return (self.rd,)
        if op in FLAG_WRITERS:
            return (FLAGS,)
        if op is Op.POP:
            return (self.rd, SP)
        if op is Op.PUSH or op is Op.CALL or op is Op.RET:
            return (SP,)
        return ()

    def src_regs(self) -> Tuple[int, ...]:
        """Architectural registers read by this instruction (including
        address registers and store data operands)."""
        return self._src_regs

    def _compute_src_regs(self) -> Tuple[int, ...]:
        op = self.op
        if op is Op.MOV:
            return (self.ra,)
        if op in REG_ALU_OPS or op in DIV_OPS or op is Op.CMP or op is Op.TEST:
            return (self.ra, self.rb)
        if op in IMM_ALU_OPS or op is Op.CMPI or op is Op.JMPI:
            return (self.ra,)
        if op is Op.BR:
            return (FLAGS,)
        if op is Op.LOAD:
            return self._addr_regs
        if op is Op.STORE:
            return self._addr_regs + (self.rd,)
        if op is Op.PUSH:
            return (SP, self.ra)
        if op is Op.POP or op is Op.CALL or op is Op.RET:
            return (SP,)
        return ()

    def addr_regs(self) -> Tuple[int, ...]:
        """Registers that form the memory address (transmitter-sensitive
        for loads and stores, paper SII-B1)."""
        return self._addr_regs

    def _compute_addr_regs(self) -> Tuple[int, ...]:
        op = self.op
        if op is Op.LOAD or op is Op.STORE:
            regs = (self.ra,)
            if self.rb is not None:
                regs += (self.rb,)
            return regs
        if op in (Op.PUSH, Op.POP, Op.CALL, Op.RET):
            return (SP,)
        return ()

    def data_reg(self) -> Optional[int]:
        """The data operand of a store-class op, if any."""
        if self.op is Op.STORE:
            return self.rd
        if self.op is Op.PUSH:
            return self.ra
        return None

    # ------------------------------------------------------------------
    # Behaviour predicates — precomputed in ``__post_init__``:
    # ``is_load``, ``is_store``, ``is_mem``, ``is_branch``,
    # ``is_control``, ``is_div``, ``writes_flags``, ``is_transmitter``,
    # ``transmits_loaded_target``.
    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    # Transmitter classification (paper SII-B1)
    # ------------------------------------------------------------------

    def transmit_regs_at_execute(self) -> Tuple[int, ...]:
        """Registers fully/partially transmitted when the op *executes*:
        load/store address registers and both division inputs."""
        return self._transmit_exec

    def _compute_transmit_exec(self) -> Tuple[int, ...]:
        if self.is_mem:
            return self._addr_regs
        if self.is_div:
            return (self.ra, self.rb)
        return ()

    def transmit_regs_at_resolve(self) -> Tuple[int, ...]:
        """Registers fully transmitted when the op *resolves*: a
        conditional branch's flags and an indirect jump's target."""
        return self._transmit_resolve

    def _compute_transmit_resolve(self) -> Tuple[int, ...]:
        if self.op is Op.BR:
            return (FLAGS,)
        if self.op is Op.JMPI:
            return (self.ra,)
        return ()

    # ------------------------------------------------------------------

    def with_prot(self, prot: bool = True) -> "Instruction":
        """Return a copy with the PROT prefix set/cleared."""
        if self.prot == prot:
            return self
        return replace(self, prot=prot)

    def __str__(self) -> str:  # pragma: no cover - formatting shim
        from .assembler import format_instruction

        return format_instruction(self)
