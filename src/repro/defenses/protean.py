"""Protean's hardware protection mechanisms (paper SVI).

Both mechanisms enforce the software-programmed ProtISA ProtSet under
Definition 1: *access instructions* are instructions with protected
register or memory inputs; *access transmitters* additionally have a
protected sensitive operand.

* :class:`ProtDelay` extends AccessDelay: (security) access
  transmitters may not transmit until non-speculative; (performance)
  only *unprefixed* accesses delay their dependents' wakeup —
  PROT-prefixed accesses produce protected outputs whose consumers are
  themselves access instructions and are policed downstream.
* :class:`ProtTrack` extends AccessTrack: (security) like ProtDelay for
  access transmitters; (performance) a 1-bit access predictor lets
  loads that will read unprotected memory skip tainting, with secure
  fallbacks to ProtDelay on access false negatives and on forwarding
  from stores of tainted data.

Constructor flags reproduce the paper's SIX-A4 ablation: the raw
AccessDelay/AccessTrack mechanisms applied to ProtISA directly are
``ProtDelay(selective_wakeup=False)`` and
``ProtTrack(use_predictor=False)``.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..isa.operations import Op
from ..uarch.uop import Uop
from .base import Defense, store_data_preg
from .predictor import AccessPredictor


class ProtDelay(Defense):
    """Delay-based enforcement of ProtISA ProtSets."""

    binary = "protcc"

    def __init__(self, selective_wakeup: bool = True) -> None:
        super().__init__()
        self.selective_wakeup = selective_wakeup

    # -- security: access transmitters stall until non-speculative --------

    def may_execute(self, uop: Uop) -> bool:
        inst = uop.inst
        if inst.is_mem or (inst.is_div
                           and self.core.config.div_is_transmitter):
            if self.any_protected(self.execute_sensitive_pregs(uop)):
                return self.nonspeculative(uop)
        return True

    def may_resolve(self, uop: Uop) -> bool:
        if self.any_protected(self.resolve_sensitive_pregs(uop)):
            return self.nonspeculative(uop)
        if uop.inst.op is Op.RET and uop.lsq_prot:
            # The loaded return target is protected data.
            return self.nonspeculative(uop)
        return True

    # -- wakeup delay for access instructions ------------------------------

    def _is_access(self, uop: Uop) -> bool:
        if self.protected_src(uop):
            return True
        if uop.is_load and uop.lsq_prot:
            return True
        if (uop.forwarded_from is not None
                and uop.forwarded_from.lsq_prot):
            return True
        return False

    def may_wakeup(self, uop: Uop) -> bool:
        if not self._is_access(uop):
            return True
        if self.selective_wakeup and uop.inst.prot:
            # PROT-prefixed access: its output is protected; dependents
            # are access instructions themselves and will be delayed as
            # needed (paper SVI-B1).
            return True
        return self.nonspeculative(uop)

    # Every ProtDelay refusal is a ``nonspeculative(uop)`` miss; the
    # protection tags it also consults are fixed per physical register.

    def execute_recheck_seq(self, uop: Uop) -> int:
        return self._nonspec_flip_seq(uop.seq)

    def resolve_recheck_seq(self, uop: Uop) -> int:
        return self._nonspec_flip_seq(uop.seq)

    def wakeup_recheck_seq(self, uop: Uop) -> int:
        return self._nonspec_flip_seq(uop.seq)


class ProtTrack(Defense):
    """Taint-based enforcement of ProtISA ProtSets with a secure access
    predictor."""

    binary = "protcc"

    def __init__(self, use_predictor: bool = True,
                 predictor_entries: Optional[int] = 1024) -> None:
        super().__init__()
        self.use_predictor = use_predictor
        self.predictor = AccessPredictor(predictor_entries)
        # Present from cycle 0 so the exported stats schema is stable
        # (these track the predictor's counters at each load commit).
        self.stats["predictions"] = 0
        self.stats["mispredictions"] = 0
        #: Loads that must fall back to ProtDelay-style wakeup gating:
        #: access-predictor false negatives (paper SVI-B2b).
        self._fallback: Set[int] = set()
        #: Untainted loads forwarding from stores of tainted data
        #: (paper SVI-B2c): load seq -> the store uop.
        self._forward_gated: Dict[int, Uop] = {}

    # -- rename: taint decisions -------------------------------------------

    def on_rename(self, uop: Uop) -> None:
        core = self.core
        prf = core.prf
        inst = uop.inst
        # One pass over the sources for both the protection tag and the
        # youngest YRoT (``protected_src`` and ``propagated_yrot``).
        prot = prf.prot
        yrots = prf.yrot
        protected = False
        yrot = None
        for _, preg in uop.psrcs:
            if prot[preg]:
                protected = True
            root = yrots[preg]
            if root is not None and (yrot is None or root > yrot):
                yrot = root
        if protected and not inst.prot:
            # An unprefixed instruction reading protected data produces
            # an (architecturally unprotected) output that speculatively
            # still carries protected data: taint it until this
            # instruction is non-speculative.
            yrot = uop.seq
        elif yrot is not None and yrot <= core.nonspec_bound():
            yrot = None  # the youngest source root is no longer live
        if uop.is_load:
            predicted_access = True
            if self.use_predictor:
                predicted_access = self.predictor.predict_access(uop.pc)
            uop.predicted_no_access = not predicted_access
            if predicted_access and not inst.prot:
                # Predicted to read protected memory into an unprotected
                # output: taint.  (A PROT-prefixed load's output is
                # covered by its protection tag instead.)
                yrot = uop.seq
        for _, preg in uop.pdests:
            yrots[preg] = yrot

    # -- transmitter gating ---------------------------------------------------

    def _gate(self, uop: Uop, pregs: Tuple[int, ...]) -> bool:
        if self.any_protected(pregs):
            # Access transmitter: protected sensitive operand.
            return self.nonspeculative(uop)
        # Otherwise wait for the untaint broadcast.
        return not self.any_tainted(pregs)

    def may_execute(self, uop: Uop) -> bool:
        inst = uop.inst
        if inst.is_mem or (inst.is_div
                           and self.core.config.div_is_transmitter):
            return self._gate(uop, self.execute_sensitive_pregs(uop))
        return True

    def may_resolve(self, uop: Uop) -> bool:
        if not self._gate(uop, self.resolve_sensitive_pregs(uop)):
            return False
        if uop.inst.op is Op.RET:
            if uop.lsq_prot:
                return self.nonspeculative(uop)
            store = uop.forwarded_from
            if store is not None and self._store_data_tainted(store):
                return False
        return True

    # -- refusal-stability hints (one per refusing clause above) ----------

    def _gate_recheck_seq(self, uop: Uop, pregs: Tuple[int, ...]) -> int:
        if self.any_protected(pregs):
            # Refused by the protected-sensitive clause (protection tags
            # are fixed per preg, so the clause selection is stable).
            return self._nonspec_flip_seq(uop.seq)
        return self._taint_flip_seq(pregs)

    def execute_recheck_seq(self, uop: Uop) -> int:
        return self._gate_recheck_seq(uop, self.execute_sensitive_pregs(uop))

    def resolve_recheck_seq(self, uop: Uop) -> int:
        flip = self._gate_recheck_seq(uop, self.resolve_sensitive_pregs(uop))
        if uop.inst.op is Op.RET:
            if uop.lsq_prot:
                flip = min(flip, self._nonspec_flip_seq(uop.seq))
            store = uop.forwarded_from
            if store is not None:
                data_preg = store_data_preg(store)
                if data_preg is not None:
                    flip = min(flip, self._taint_flip_seq((data_preg,)))
        return flip

    def wakeup_recheck_seq(self, uop: Uop) -> Optional[int]:
        if uop.seq in self._fallback:
            return self._nonspec_flip_seq(uop.seq)
        store = self._forward_gated.get(uop.seq)
        if store is not None:
            data_preg = store_data_preg(store)
            if data_preg is None:
                return None  # unreachable: CALL data is never tainted
            return self._taint_flip_seq((data_preg,))
        return None

    # -- load execution: misprediction recovery -------------------------------

    def _store_data_tainted(self, store: Uop) -> bool:
        data_preg = store_data_preg(store)
        return data_preg is not None and self.tainted(data_preg)

    def on_load_executed(self, uop: Uop) -> None:
        if uop.predicted_no_access and uop.lsq_prot:
            # Access false negative: the load's output was predictively
            # untainted but holds protected data.  Fall back to
            # ProtDelay: no dependent wakeup until the load retires.
            self._fallback.add(uop.seq)
        store = uop.forwarded_from
        if store is None:
            return
        data_preg = store_data_preg(store)
        if data_preg is None:
            return
        yrots = self.core.prf.yrot
        data_root = yrots[data_preg]
        if data_root is None:
            return
        bound = self.core.nonspec_bound()
        if data_root <= bound:
            return  # the store's data is untainted
        for _, preg in uop.pdests:
            root = yrots[preg]
            if root is not None and root > bound:
                return  # the load's own output is tainted
        # Untainted load forwarding from a store of tainted data: gate
        # its wakeup until the store's data untaints.
        self._forward_gated[uop.seq] = store

    def may_wakeup(self, uop: Uop) -> bool:
        if uop.seq in self._fallback:
            if self.nonspeculative(uop):
                self._fallback.discard(uop.seq)
                return True
            return False
        store = self._forward_gated.get(uop.seq)
        if store is not None:
            if store.squashed or not self._store_data_tainted(store):
                del self._forward_gated[uop.seq]
                return True
            return False
        return True

    # -- retire / squash -----------------------------------------------------

    def on_commit(self, uop: Uop) -> None:
        if uop.is_load and self.use_predictor:
            self.predictor.train(uop.pc, bool(uop.lsq_prot),
                                 not uop.predicted_no_access)
            self.stats["predictions"] = self.predictor.predictions
            self.stats["mispredictions"] = self.predictor.mispredictions
        self._fallback.discard(uop.seq)
        self._forward_gated.pop(uop.seq, None)

    def on_squash(self, uop: Uop) -> None:
        self._fallback.discard(uop.seq)
        self._forward_gated.pop(uop.seq, None)
