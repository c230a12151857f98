"""Branch prediction: gshare direction predictor, BTB, and RAS.

Mispredictions are what open Spectre windows, so the predictor must be
trainable by the program (attackers train it architecturally before
steering the victim).  All state is deterministic.
"""

from __future__ import annotations

from typing import List, Optional

from ..isa.instruction import Instruction
from ..isa.operations import Op


class GsharePredictor:
    """Global-history XOR PC indexed table of 2-bit counters."""

    def __init__(self, table_bits: int = 14, history_bits: int = 12):
        self.table_size = 1 << table_bits
        self.history_mask = (1 << history_bits) - 1
        self.counters: List[int] = [1] * self.table_size  # weakly not-taken
        self.history = 0
        self.last_index = 0

    def _index(self, pc: int) -> int:
        return (pc ^ self.history) % self.table_size

    def predict(self, pc: int) -> bool:
        """Predict and remember the table index used (training must hit
        the same entry, so the index travels with the branch)."""
        self.last_index = self._index(pc)
        return self.counters[self.last_index] >= 2

    def speculative_update_history(self, taken: bool) -> None:
        self.history = ((self.history << 1) | int(taken)) & self.history_mask

    def train_index(self, index: int, taken: bool) -> None:
        """Update the 2-bit counter the prediction actually read."""
        counter = self.counters[index]
        if taken and counter < 3:
            self.counters[index] = counter + 1
        elif not taken and counter > 0:
            self.counters[index] = counter - 1


class BTB:
    """Direct-mapped branch target buffer for indirect jumps."""

    def __init__(self, entries: int = 4096):
        self.entries = entries
        self._targets: List[Optional[int]] = [None] * entries
        self._tags: List[Optional[int]] = [None] * entries

    def predict(self, pc: int) -> Optional[int]:
        index = pc % self.entries
        if self._tags[index] == pc:
            return self._targets[index]
        return None

    def train(self, pc: int, target: int) -> None:
        index = pc % self.entries
        self._tags[index] = pc
        self._targets[index] = target


class ReturnAddressStack:
    """Bounded return-address stack (no checkpoint repair: a corrupted
    RAS simply causes extra mispredictions, as on real small cores)."""

    def __init__(self, entries: int = 16):
        self.entries = entries
        self._stack: List[int] = []

    def push(self, return_pc: int) -> None:
        if len(self._stack) >= self.entries:
            self._stack.pop(0)
        self._stack.append(return_pc)

    def pop(self) -> Optional[int]:
        if self._stack:
            return self._stack.pop()
        return None


class BranchPredictor:
    """Front-end prediction for all control-flow ops."""

    def __init__(self, table_bits: int = 14, history_bits: int = 12,
                 btb_entries: int = 4096, ras_entries: int = 16):
        self.direction = GsharePredictor(table_bits, history_bits)
        self.btb = BTB(btb_entries)
        self.ras = ReturnAddressStack(ras_entries)
        self.last_br_index = 0

    def predict_next(self, pc: int, inst: Instruction) -> int:
        """Predict the next fetch PC for the instruction at ``pc``."""
        op = inst.op
        if op is Op.BR:
            taken = self.direction.predict(pc)
            self.last_br_index = self.direction.last_index
            self.direction.speculative_update_history(taken)
            return inst.target if taken else pc + 1
        if op is Op.JMP:
            return inst.target
        if op is Op.CALL:
            self.ras.push(pc + 1)
            return inst.target
        if op is Op.RET:
            predicted = self.ras.pop()
            if predicted is None:
                predicted = self.btb.predict(pc)
            return predicted if predicted is not None else pc + 1
        if op is Op.JMPI:
            predicted = self.btb.predict(pc)
            return predicted if predicted is not None else pc + 1
        return pc + 1

    def snapshot(self):
        """Checkpoint the speculative state (global history + RAS) so a
        squash can repair wrong-path corruption, as real checkpointed
        front-ends do."""
        return (self.direction.history, tuple(self.ras._stack))

    def restore(self, snap) -> None:
        self.direction.history = snap[0]
        self.ras._stack = list(snap[1])

    def train(self, pc: int, inst: Instruction, taken: bool,
              target: int, direction_index: Optional[int] = None) -> None:
        """Resolution-time training, against the entry that made the
        prediction."""
        op = inst.op
        if op is Op.BR and direction_index is not None:
            self.direction.train_index(direction_index, taken)
        elif op in (Op.JMPI, Op.RET):
            self.btb.train(pc, target)
