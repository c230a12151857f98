"""repro.contracts — hardware-software security contracts (paper SII-C):
observer/execution modes, adversary models, and the violation checker."""

from .adversary import (
    ALL_MODELS,
    AdversaryModel,
    Divergence,
    ObservationElement,
    first_divergence,
    observe,
    observe_labeled,
)
from .checker import (
    ArchitecturalMismatch,
    CheckOutcome,
    Contract,
    InvalidReason,
    TestInput,
    Verdict,
    check_contract_pair,
)

__all__ = [
    "ALL_MODELS", "AdversaryModel", "Divergence", "ObservationElement",
    "first_divergence", "observe", "observe_labeled",
    "ArchitecturalMismatch", "CheckOutcome", "Contract", "InvalidReason",
    "TestInput", "Verdict", "check_contract_pair",
]
