"""Protection-mechanism interface (paper SIII-B, SVI).

A defense is a policy object the pipeline consults at fixed points.
Every mechanism in the paper — AccessDelay (NDA/SpecShield),
AccessTrack (STT), SPT, SPT-SB's XmitDelay, ProtDelay, and ProtTrack —
is expressible through these hooks:

* ``on_rename``        — taint/protection decisions at rename.
* ``may_execute``      — gate issue of execute-time transmitters
  (loads, stores, divisions) and anything else.
* ``may_resolve``      — gate branch resolution (the squash signal),
  the resolve-time transmission of flags / indirect targets.
* ``may_wakeup``       — gate the ready-broadcast of a completed uop's
  outputs (AccessDelay-style wakeup delays).
* ``on_load_executed`` — observe a load's actual memory protection
  (ProtTrack's access-misprediction detection).
* ``on_commit`` / ``on_squash`` — retire-time bookkeeping.

The compiled engine (:mod:`repro.uarch.compiled`) specializes its code
on the defense *class*: which hooks the class overrides, and whether it
:attr:`~Defense.declassifies`.  Every instance of one class shares that
code, so instance state (constructor arguments, predictor tables, taint
sets) steers a mechanism only from inside its hooks, which the
generated code calls on the instance it runs.

Helper predicates shared by all mechanisms live here: speculation-state
queries, YRoT taint checks, and the transmitter-operand enumeration the
threat model fixes (paper SII-B1).  Both engines call the hooks for
every renamed, issued, resolved and committed uop, so the helpers read
the speculation window once per call (``Core.nonspec_bound``) and walk
a uop's operands in one plain loop: :meth:`~Defense.any_tainted`,
:meth:`~Defense.any_protected` and :meth:`~Defense.propagated_yrot`
each take one pass and at most one window query.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

# RECHECK_NEVER: returned by the ``*_recheck_seq`` hooks when no head
# seq can flip a refusal, only an event can (a branch resolution under
# CONTROL, a declassification for mechanisms that declassify).  It is
# also ``Core.nonspec_bound()`` when nothing bounds the window.
from ..uarch.pipeline import RECHECK_NEVER
from ..uarch.uop import Uop


class Defense:
    """Base policy: the unsafe baseline (no protection at all)."""

    #: Which ProtCC instrumentation this mechanism expects ("base" for
    #: hardware-defined-ProtSet baselines that ignore PROT prefixes).
    binary = "base"

    #: Wake-event trait for the compiled engine: True when this
    #: mechanism turns registers public at commit (SPT's declassification
    #: broadcast), which can flip an ``execute`` / ``resolve`` refusal
    #: before its ``*_recheck_seq`` hint.  Such a mechanism appends each
    #: physical register it declassifies to :attr:`declassified`
    #: whenever that is a list.
    declassifies = False

    #: The declassification report (see :attr:`declassifies`): ``None``
    #: unless an observer attached a list.  The compiled engine attaches
    #: one and drains it after every ``on_commit``; the reference engine
    #: attaches none.
    declassified: Optional[List[int]] = None

    def __init__(self) -> None:
        self.core = None
        #: Counters exported into ``CoreResult.stats`` under a
        #: ``defense_`` prefix (and from there into ``RunSummary`` and
        #: the report tables).  The six below are maintained by the
        #: pipeline for every mechanism; subclasses add their own keys
        #: here in ``__init__`` (not lazily — the schema should be
        #: stable from cycle 0) and increment them in their hooks.
        self.stats = {
            # Per-hook intervention episodes: ``*_interventions`` counts
            # uops a hook refused at least once; ``*_delay_cycles`` sums
            # first-refusal -> allow (or squash / end-of-run) cycles per
            # episode.  An episode spanning N retry cycles counts once,
            # so neither depends on how often an engine re-asks a hook.
            "exec_interventions": 0,
            "exec_delay_cycles": 0,
            "resolve_interventions": 0,
            "resolve_delay_cycles": 0,
            "wakeup_interventions": 0,
            "wakeup_delay_cycles": 0,
        }

    def attach(self, core) -> None:
        self.core = core

    # -- hooks (default: allow everything) -------------------------------

    def on_rename(self, uop: Uop) -> None:
        pass

    def may_execute(self, uop: Uop) -> bool:
        return True

    def may_resolve(self, uop: Uop) -> bool:
        return True

    def may_wakeup(self, uop: Uop) -> bool:
        return True

    def on_load_executed(self, uop: Uop) -> None:
        pass

    def on_commit(self, uop: Uop) -> None:
        pass

    def on_squash(self, uop: Uop) -> None:
        pass

    # -- refusal hints: when a refused uop is worth asking again ----------
    #
    # The compiled engine (repro.uarch.compiled) calls each hook once,
    # right after the matching ``may_*`` gate refused a uop, and then
    # does not ask that gate about the uop until the ROB head's seq
    # reaches the returned value or a watched event fires: a branch
    # resolution under CONTROL, or, for a mechanism that
    # :attr:`declassifies`, a declassification of one of the registers
    # the refused uop transmits (its ``execute_sensitive_pregs`` or
    # ``resolve_sensitive_pregs``; ``may_wakeup`` refusals watch no
    # register).  The reference interpreter never calls these hooks.
    # The contract: absent a watched event, the refusal stands at least
    # until the head's seq reaches the returned value.  ``None`` means
    # "the next commit might flip it" (the conservative default);
    # :data:`RECHECK_NEVER` means only an event can flip it.  A load
    # execution is not an event: a gate is asked only about a uop whose
    # operands are ready, so the loads producing them have already
    # executed, and ``on_load_executed`` may change only state about
    # the load itself and its own fresh outputs.  Nor is a squash: under
    # ATCOMMIT a uop that survives a squash is older than the squashing
    # branch, and so are its operands' producers and YRoT roots (the
    # youngest speculative load each operand depends on), so no state
    # its gates read changes.  Returning too *small* a value merely costs a
    # redundant re-ask; too large a value breaks cycle-identity, so
    # derive these only from monotone thresholds (``nonspeculative`` /
    # taint clearing advance with the head and never regress).  A gate
    # must also keep allowing a surviving uop it allowed once: a load
    # that then stalls on disambiguation is not asked again until the
    # stores it waits for resolve.
    # :func:`repro.uarch.refcore.wake_contract_violations` checks both
    # on the reference engine.

    def execute_recheck_seq(self, uop: Uop) -> Optional[int]:
        """Stability hint for a ``may_execute`` refusal."""
        return None

    def resolve_recheck_seq(self, uop: Uop) -> Optional[int]:
        """Stability hint for a ``may_resolve`` refusal."""
        return None

    def wakeup_recheck_seq(self, uop: Uop) -> Optional[int]:
        """Stability hint for a ``may_wakeup`` refusal."""
        return None

    def _nonspec_flip_seq(self, seq: int) -> int:
        """Head seq at which ``nonspeculative`` of the uop ``seq`` can
        first turn True.  Under ATCOMMIT that is exactly ``seq`` (the
        head advances monotonically); under CONTROL the answer changes
        only at branch resolutions, which wake the refused uop."""
        return seq if self.core.atcommit else RECHECK_NEVER

    def _taint_flip_seq(self, pregs: Tuple[int, ...]) -> int:
        """Head seq at which the *earliest* current taint among
        ``pregs`` can clear (taints only clear, never appear, between
        events: YRoT values are written at rename of fresh registers)."""
        core = self.core
        if not (pregs and core.atcommit):
            return RECHECK_NEVER
        bound = core.nonspec_bound()
        yrots = core.prf.yrot
        flip = RECHECK_NEVER
        for preg in pregs:
            yrot = yrots[preg]
            if yrot is not None and bound < yrot < flip:
                flip = yrot
        return flip

    # -- shared helpers ---------------------------------------------------

    def nonspeculative(self, uop: Uop) -> bool:
        """Whether the uop is past its speculation window (SII-B2)."""
        return uop.seq <= self.core.nonspec_bound()

    def tainted(self, preg: int) -> bool:
        """YRoT taint check: a physical register is tainted while the
        youngest access instruction it depends on is still speculative."""
        core = self.core
        yrot = core.prf.yrot[preg]
        return yrot is not None and yrot > core.nonspec_bound()

    def any_tainted(self, pregs: Iterable[int]) -> bool:
        """Whether any of ``pregs`` is :meth:`tainted`: one pass for the
        youngest root, then one window query, none when no register
        has a root."""
        yrots = self.core.prf.yrot
        youngest = None
        for preg in pregs:
            yrot = yrots[preg]
            if yrot is not None and (youngest is None or yrot > youngest):
                youngest = yrot
        return youngest is not None and youngest > self.core.nonspec_bound()

    def any_protected(self, pregs: Iterable[int]) -> bool:
        """Whether any of ``pregs`` carries a ProtISA protection tag."""
        prot = self.core.prf.prot
        for preg in pregs:
            if prot[preg]:
                return True
        return False

    def propagated_yrot(self, uop: Uop) -> Optional[int]:
        """Taint propagation at rename: the youngest live source root.
        The youngest root of all sources is live exactly when any is,
        so one pass and one window query suffice."""
        yrots = self.core.prf.yrot
        youngest = None
        for _, preg in uop.psrcs:
            yrot = yrots[preg]
            if yrot is not None and (youngest is None or yrot > youngest):
                youngest = yrot
        if youngest is None or youngest <= self.core.nonspec_bound():
            return None
        return youngest

    def protected_src(self, uop: Uop) -> bool:
        """Whether any renamed register input carries a ProtISA
        protection tag (the register half of Definition 1)."""
        prot = self.core.prf.prot
        for _, preg in uop.psrcs:
            if prot[preg]:
                return True
        return False

    def execute_sensitive_pregs(self, uop: Uop) -> Tuple[int, ...]:
        """Physical registers transmitted when ``uop`` executes
        (memoized on the uop: ``psrcs`` never changes after rename);
        ``()`` at once for an instruction that transmits nothing."""
        pregs = uop.exec_sensitive
        if pregs is None:
            inst = uop.inst
            regs = inst.transmit_regs_at_execute()
            if not regs or (inst.is_div
                            and not self.core.config.div_is_transmitter):
                pregs = ()
            else:
                pregs = tuple([p for a, p in uop.psrcs if a in regs])
            uop.exec_sensitive = pregs
        return pregs

    def resolve_sensitive_pregs(self, uop: Uop) -> Tuple[int, ...]:
        """Physical registers transmitted when ``uop`` resolves
        (memoized like :meth:`execute_sensitive_pregs`)."""
        pregs = uop.resolve_sensitive
        if pregs is None:
            regs = uop.inst.transmit_regs_at_resolve()
            pregs = tuple([p for a, p in uop.psrcs if a in regs]) \
                if regs else ()
            uop.resolve_sensitive = pregs
        return pregs


def store_data_preg(store: Uop) -> Optional[int]:
    """The physical register holding ``store``'s data, or None for a
    CALL, which pushes a constant."""
    data_reg = store.inst.data_reg()
    return None if data_reg is None else store.phys_for(data_reg)


class Unsafe(Defense):
    """The unmodified out-of-order core (paper's unsafe baseline)."""
