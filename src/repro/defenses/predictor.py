"""ProtTrack's secure access predictor (paper SVI-B2a, Fig. 5).

A 1-bit, untagged table indexed by the low bits of load PCs.  Each
entry remembers whether the load at that PC read *protected* memory the
last time it retired.  ProtTrack consults it at rename: a load
predicted *no-access* whose output is unprotected is predictively
untainted; mispredictions are handled securely (false negatives fall
back to ProtDelay, paper SVI-B2b).

``entries=None`` models the infinitely-sized predictor of the Fig. 5
sensitivity study (one entry per load PC, no aliasing).
"""

from __future__ import annotations

from typing import Dict, List, Optional


class AccessPredictor:
    """1-bit PC-indexed access predictor."""

    def __init__(self, entries: Optional[int] = 1024) -> None:
        self.entries = entries
        if entries is None:
            self._table: Dict[int, bool] = {}
        else:
            if entries <= 0:
                raise ValueError("predictor needs at least one entry")
            # Initialized to *access* (True): unknown loads are assumed
            # to read protected memory, the safe cold-start default.
            self._bits: List[bool] = [True] * entries
        self.predictions = 0
        self.mispredictions = 0
        self.false_negatives = 0

    def predict_access(self, pc: int) -> bool:
        """Predict whether the load at ``pc`` will read protected memory."""
        self.predictions += 1
        if self.entries is None:
            return self._table.get(pc, True)
        return self._bits[pc % self.entries]

    def train(self, pc: int, was_access: bool, predicted: bool) -> None:
        """Retire-time update with the load's actual outcome."""
        if predicted != was_access:
            self.mispredictions += 1
            if was_access:
                self.false_negatives += 1
        if self.entries is None:
            self._table[pc] = was_access
        else:
            self._bits[pc % self.entries] = was_access

    @property
    def misprediction_rate(self) -> float:
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions
