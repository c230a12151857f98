"""Secure-baseline protection mechanisms with hardware-defined ProtSets
(paper SIII-C, Tab. I).

* :class:`AccessDelay` — NDA / SpecShield.  ProtSet: all memory.
  Speculative loads execute but may not wake dependents until
  non-speculative.
* :class:`AccessTrack` — STT.  ProtSet: all memory.  Load outputs are
  tainted (YRoT) and transmitters with tainted sensitive operands are
  delayed until untainted; tainted branches delay resolution.
* :class:`SPT` — ProtSet: architecturally untransmitted state.  Like
  AccessTrack, plus *every* transmitter of not-yet-transmitted data is
  delayed until non-speculative; transmitted values (and values derived
  from them) become public and flow freely afterwards.
* :class:`SPTSB` — SPT's secure baseline.  ProtSet: all state.
  XmitDelay: every transmitter waits until it is non-speculative.

All run *base* (uninstrumented) binaries and ignore PROT prefixes.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..isa.operations import Op
from ..isa.registers import SP
from ..uarch.uop import Uop
from .base import Defense, store_data_preg


class AccessDelay(Defense):
    """NDA/SpecShield-style wakeup delay on speculative loads."""

    binary = "base"

    def may_wakeup(self, uop: Uop) -> bool:
        if uop.is_load:
            return self.nonspeculative(uop)
        return True

    def wakeup_recheck_seq(self, uop: Uop) -> int:
        # Refused only while the load is speculative.
        return self._nonspec_flip_seq(uop.seq)


class AccessTrack(Defense):
    """STT-style speculative taint tracking."""

    binary = "base"

    def on_rename(self, uop: Uop) -> None:
        if uop.is_load:
            # Every load output is the root of its own taint: loads are
            # the access instructions of STT's hardware-defined ProtSet.
            yrot = uop.seq
        else:
            yrot = self.propagated_yrot(uop)
        yrots = self.core.prf.yrot
        for _, preg in uop.pdests:
            yrots[preg] = yrot

    def may_execute(self, uop: Uop) -> bool:
        inst = uop.inst
        if inst.is_mem or (inst.is_div
                           and self.core.config.div_is_transmitter):
            return not self.any_tainted(self.execute_sensitive_pregs(uop))
        return True

    def may_resolve(self, uop: Uop) -> bool:
        if self.any_tainted(self.resolve_sensitive_pregs(uop)):
            return False
        if uop.inst.op is Op.RET:
            # The loaded return target is the load's own output: tainted
            # until the RET itself is non-speculative.
            return self.nonspeculative(uop)
        return True

    def execute_recheck_seq(self, uop: Uop) -> int:
        # Refused while a sensitive operand is tainted; taints clear as
        # the head passes their roots.
        return self._taint_flip_seq(self.execute_sensitive_pregs(uop))

    def resolve_recheck_seq(self, uop: Uop) -> int:
        flip = self._taint_flip_seq(self.resolve_sensitive_pregs(uop))
        if uop.inst.op is Op.RET:
            flip = min(flip, self._nonspec_flip_seq(uop.seq))
        return flip


class SPT(Defense):
    """Speculative Privacy Tracking: protect whatever has not yet been
    architecturally transmitted."""

    binary = "base"
    declassifies = True

    def __init__(self) -> None:
        super().__init__()
        #: Memory bytes whose contents have been architecturally
        #: transmitted (SPT's shadow-L1 analogue, slightly idealized:
        #: we do not model its eviction-induced forgetting).
        self._public_mem: set = set()
        #: preg -> producing uop, for the backward invertible closure
        #: (loads additionally declassify the bytes they read).
        self._producer: Dict[int, Uop] = {}
        #: load seq -> whether the loaded word itself was public.
        self._loaded_public: Dict[int, bool] = {}
        self.stats["declassified_pregs"] = 0

    # -- publicness propagation ------------------------------------------

    #: Ops through which SPT's "already transmitted" status propagates
    #: forward: only *invertible* arithmetic (paper SIII-C) — the
    #: attacker can reconstruct the output from the transmitted inputs
    #: and vice versa.  Masking, multiplication, shifts-right, division,
    #: and flag computation are lossy: their fresh outputs have *not*
    #: been transmitted, and SPT must delay their first transmission.
    #: This restriction is exactly what ProtCC-CTS/-CT exploit
    #: (paper SIX-B2/B3).
    #: (A tuple: ``op in`` a frozenset would hash the enum member in
    #: Python on every renamed uop.)
    _INVERTIBLE_FWD = (
        Op.MOV, Op.ADD, Op.SUB, Op.XOR, Op.ADDI, Op.SUBI, Op.XORI,
    )

    #: Ops whose stack-pointer update (+/- 8) is invertible.
    _STACK_OPS = (Op.PUSH, Op.POP, Op.CALL, Op.RET)

    def on_rename(self, uop: Uop) -> None:
        prf = self.core.prf
        public_arr = prf.public
        inst = uop.inst
        op = inst.op
        if uop.is_load:
            yrot = uop.seq
            public = False  # refined at execute from the shadow bytes
        else:
            yrot = self.propagated_yrot(uop)
            if op is Op.MOVI or not uop.psrcs:
                # Immediates are program text, which the attacker has.
                public = True
            elif op in self._INVERTIBLE_FWD:
                public = True
                for _, preg in uop.psrcs:
                    if not public_arr[preg]:
                        public = False
                        break
            else:
                public = False
        stack_op = op in self._STACK_OPS
        sp_public = False
        if stack_op:
            # The stack-pointer update is +/- 8: invertible.
            sp_preg = uop.phys_for(SP)
            sp_public = sp_preg is not None and public_arr[sp_preg]
        yrots = prf.yrot
        producer = self._producer
        for areg, preg in uop.pdests:
            yrots[preg] = yrot
            if stack_op and areg == SP:
                public_arr[preg] = sp_public
            else:
                public_arr[preg] = public
            producer[preg] = uop

    def on_load_executed(self, uop: Uop) -> None:
        prf = self.core.prf
        store = uop.forwarded_from
        if store is not None:
            data_preg = store_data_preg(store)
            word_public = data_preg is not None and prf.public[data_preg]
        else:
            public_mem = self._public_mem
            word_public = True
            for byte in range(uop.mem_addr, uop.mem_addr + 8):
                if byte not in public_mem:
                    word_public = False
                    break
        self._loaded_public[uop.seq] = word_public
        if word_public:
            for areg, preg in uop.pdests:
                if areg == SP and uop.inst.op is not Op.LOAD:
                    continue  # the SP update is not the loaded value
                prf.public[preg] = True
                prf.yrot[preg] = None

    # -- transmitter gating ------------------------------------------------

    def _all_public(self, pregs: Tuple[int, ...]) -> bool:
        public = self.core.prf.public
        for preg in pregs:
            if not public[preg]:
                return False
        return True

    def may_execute(self, uop: Uop) -> bool:
        inst = uop.inst
        if inst.is_mem or (inst.is_div
                           and self.core.config.div_is_transmitter):
            pregs = self.execute_sensitive_pregs(uop)
            if self._all_public(pregs):
                return True
            return self.nonspeculative(uop)
        return True

    def may_resolve(self, uop: Uop) -> bool:
        pregs = self.resolve_sensitive_pregs(uop)
        if uop.inst.op is Op.RET:
            # The target is the loaded return address.
            if not self._loaded_public.get(uop.seq, False):
                return self.nonspeculative(uop)
            return True
        if self._all_public(pregs):
            return True
        return self.nonspeculative(uop)

    # Every SPT refusal is a ``nonspeculative(uop)`` miss; besides the
    # head reaching the uop, only a declassification of a register it
    # transmits can flip it (a RET's loaded target is fixed at its
    # execution).

    def execute_recheck_seq(self, uop: Uop) -> int:
        return self._nonspec_flip_seq(uop.seq)

    def resolve_recheck_seq(self, uop: Uop) -> int:
        return self._nonspec_flip_seq(uop.seq)

    # -- declassification at retire -----------------------------------------

    def _make_public(self, preg: int) -> None:
        """Declassify a transmitted value, closing backward through
        invertible dependencies (paper SIII-C: 'directly or indirectly
        via invertible arithmetic dependencies') and through the memory
        it was loaded from (the shadow-L1 analogue).  Reports each
        register it turns public to an attached :attr:`declassified`."""
        prf = self.core.prf
        report = self.declassified
        worklist = [preg]
        while worklist:
            current = worklist.pop()
            if prf.public[current]:
                continue
            prf.public[current] = True
            self.stats["declassified_pregs"] += 1
            if report is not None:
                report.append(current)
            producer = self._producer.get(current)
            if producer is None:
                continue
            if producer.is_load and producer.mem_addr is not None:
                self._public_mem.update(
                    range(producer.mem_addr, producer.mem_addr + 8))
                continue
            if producer.inst.op not in self._INVERTIBLE_FWD:
                continue
            src_pregs = [p for _, p in producer.psrcs]
            secret_srcs = [p for p in src_pregs if not prf.public[p]]
            if len(secret_srcs) == 1:
                # output + the public co-input determine the last input.
                worklist.append(secret_srcs[0])

    def on_commit(self, uop: Uop) -> None:
        public = self.core.prf.public
        inst = uop.inst
        # Fully transmitted operands become public (a register already
        # public needs no declassification: ``_make_public`` would stop
        # at it)...
        if not inst.is_div:  # divisions only *partially* transmit
            for preg in self.execute_sensitive_pregs(uop):
                if not public[preg]:
                    self._make_public(preg)
        for preg in self.resolve_sensitive_pregs(uop):
            if not public[preg]:
                self._make_public(preg)
        if inst.op is Op.RET and uop.mem_addr is not None:
            self._public_mem.update(range(uop.mem_addr, uop.mem_addr + 8))
        if uop.is_store and uop.mem_addr is not None:
            data_reg = inst.data_reg()
            if data_reg is None:
                data_public = True  # CALL return addresses are constants
            else:
                data_public = public[uop.phys_for(data_reg)]
            span = range(uop.mem_addr, uop.mem_addr + 8)
            if data_public:
                self._public_mem.update(span)
            else:
                self._public_mem.difference_update(span)

        if uop.is_load:
            self._loaded_public.pop(uop.seq, None)

    def on_squash(self, uop: Uop) -> None:
        for _, preg in uop.pdests:
            self._producer.pop(preg, None)
        self._loaded_public.pop(uop.seq, None)


class SPTSB(Defense):
    """SPT's secure baseline: delay every transmitter until it is
    non-speculative (XmitDelay over an all-state ProtSet)."""

    binary = "base"

    def may_execute(self, uop: Uop) -> bool:
        inst = uop.inst
        if inst.is_mem or (inst.is_div
                           and self.core.config.div_is_transmitter):
            return self.nonspeculative(uop)
        return True

    def may_resolve(self, uop: Uop) -> bool:
        return self.nonspeculative(uop)

    def execute_recheck_seq(self, uop: Uop) -> int:
        return self._nonspec_flip_seq(uop.seq)

    def resolve_recheck_seq(self, uop: Uop) -> int:
        return self._nonspec_flip_seq(uop.seq)
