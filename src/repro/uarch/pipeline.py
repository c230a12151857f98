"""The speculative out-of-order core.

A simplified but structurally faithful gem5-O3-style pipeline:
fetch (predicted path) -> rename/dispatch -> event-driven issue ->
execute -> complete/resolve -> in-order commit, with exact squash
rollback.  Speculation past unresolved branches is what opens Spectre
windows; transient loads modulate the cache hierarchy; defenses gate
execution, resolution, and wakeup through the hooks in
:class:`repro.defenses.base.Defense`.

ProtISA support (paper SIV-C) is always present: rename-map protection
bits flow onto physical registers at rename, LSQ entries take a
protection bit at execute, and the L1D byte tags are updated at commit.
Defenses that ignore ProtISA simply never read these planes.

:class:`Core` is the reference engine: a plain per-cycle interpreter
with no fast-forwarding, which re-asks every refused uop each cycle.
The one optimized engine, :mod:`repro.uarch.compiled`, must stay
cycle-identical to it (``repro diff``).
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..arch.memory import Memory
from ..arch.semantics import (
    MASK64,
    alu,
    compare_flags,
    div_timing_class,
    effective_address,
)
from ..arch.executor import STACK_TOP
from ..isa.operations import (
    FLAG_WRITERS,
    IMM_ALU_OPS,
    Op,
    REG_ALU_OPS,
    eval_cond,
)
from ..isa.program import Program
from ..isa.registers import FLAGS, NUM_REGS, SP
from .branch_predictor import BranchPredictor
from .caches import CacheHierarchy
from .config import CoreConfig, P_CORE, SpeculationModel
from .structures import LoadStoreQueue, PhysRegFile, RenameMap, ReorderBuffer
from .uop import Uop, timing_observation

#: Safety valve for runaway simulations.
DEFAULT_MAX_CYCLES = 3_000_000

#: A seq no uop reaches.  :meth:`Core.nonspec_bound` answers it when
#: nothing in flight bounds the speculation window, and the defenses'
#: ``*_recheck_seq`` hints return it when no head seq can flip a
#: refusal (:mod:`repro.defenses.base` re-exports it).
RECHECK_NEVER = 1 << 62

#: Abort a run after this many cycles without a single commit.  A wedged
#: machine (dead frontend, deadlocked defense gate) used to burn the full
#: ``max_cycles`` before reporting ``timeout``; no legitimate workload in
#: the suite ever goes remotely this long between commits (worst-case
#: gaps are a few chained memory latencies, well under 1000 cycles).
DEFAULT_NO_PROGRESS_LIMIT = 10_000

#: Stall-cause taxonomy: every cycle, the commit-width shortfall
#: (``width - committed_this_cycle`` slots) is attributed to exactly one
#: of these, so the ``stall_*`` counters satisfy the exact invariant
#: ``sum(stall_*) == width * cycles - committed_uops``.  A top-down-style
#: breakdown: frontend starvation, backend structural pressure, true
#: dependencies, execution latency, and the three defense gates.
STALL_CAUSES = (
    "frontend",            # ROB empty, frontend still filling the buffer
    "fetch_redirect",      # ROB empty during a squash redirect penalty
    "drain",               # slots after the halting commit of a cycle
    "rob_full",            # rename blocked: reorder buffer full
    "iq_full",             # rename blocked: issue queue full
    "lsq_full",            # rename blocked: load or store queue full
    "prf_starved",         # rename blocked: no free physical registers
    "dependency",          # head waits on an unresolved data dependency
    "issue_bw",            # head ready but lost issue-bandwidth arbitration
    "exec_latency",        # head (or its producer) executing, short-latency
    "cache_miss",          # head (or its producer) waiting on L2/L3/memory
    "div_busy",            # the unpipelined divider is occupied
    "mem_disambiguation",  # load stalled on an older unresolved store
    "defense_transmitter", # defense refused may_execute (delayed transmitter)
    "defense_wakeup",      # producer completed, defense holds its wakeup
    "defense_resolution",  # head branch completed, defense holds resolution
    "squash_notify",       # head branch blocked by the buggy squash port
    "no_progress",         # machine provably wedged (dead frontend, empty ROB)
)

#: ``uop.block_reason`` / rename-block values -> stall-cause names.
#: ``defense_execute`` (a refused ``may_execute``) replaced the old
#: ambiguous ``"defense"`` alias: each of the three defense hooks now
#: has its own unambiguous block-reason value.
_BLOCK_TO_CAUSE = {
    "defense_execute": "defense_transmitter",
    "div_busy": "div_busy",
    "disambiguation": "mem_disambiguation",
    "mfence": "dependency",
    "defense_resolution": "defense_resolution",
    "squash_notify": "squash_notify",
}

#: The three gating hooks, in pipeline order: (hook name, stats stem).
#: The stem names a uop's open-episode field (``<stem>_block_cycle``),
#: the defense's episode counters (``<stem>_interventions``,
#: ``<stem>_delay_cycles``) and the core's open-episode fold
#: (``_open_<stem>``, ``_open_<stem>_sum``).
HOOKS: Tuple[Tuple[str, str], ...] = (
    ("execute", "exec"),
    ("resolve", "resolve"),
    ("wakeup", "wakeup"),
)

#: Hierarchy levels that count as a cache miss for stall attribution.
_MISS_LEVELS = frozenset(("l2", "l3", "mem"))

#: Squash-cause taxonomy: exactly the three resolvable branch kinds
#: (``is_branch`` is BR/JMPI/RET; JMP is rename-complete and CALL's
#: target is architectural, so neither can mispredict).
_SQUASH_CAUSE = {
    Op.BR: "squashes_conditional",
    Op.JMPI: "squashes_indirect",
    Op.RET: "squashes_return",
}

#: Power-of-two bucket edges shared by the speculation-depth and
#: squash-cascade histograms (``*_le_<edge>`` keys plus one ``*_gt_32``
#: overflow bucket).
HIST_EDGES = (1, 2, 4, 8, 16, 32)


def hist_key(prefix: str, value: int) -> str:
    """Stats key of the histogram bucket ``value`` falls into."""
    for edge in HIST_EDGES:
        if value <= edge:
            return f"{prefix}_le_{edge}"
    return f"{prefix}_gt_{HIST_EDGES[-1]}"


@dataclass
class CoreResult:
    """Outcome of a simulated run."""

    cycles: int
    halt_reason: str
    committed_pcs: List[int]
    final_regs: Tuple[int, ...]
    memory: Memory
    timing_trace: List[Tuple[int, int, int, int, int, int]]
    adversary_cache_state: Tuple
    #: (pc, address) of every committed memory access, in program order
    #: (AMuLeT*'s false-positive filter compares these, paper SVII-B1e).
    committed_accesses: List[Tuple[int, int]] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def instructions(self) -> int:
        return len(self.committed_pcs)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class Core:
    """One out-of-order core running one linked program to completion."""

    def __init__(
        self,
        program: Program,
        defense=None,
        config: CoreConfig = P_CORE,
        memory: Optional[Memory] = None,
        regs: Optional[Dict[int, int]] = None,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        shared_memory: bool = False,
        shared_l3=None,
        store_commit_listener=None,
        tracer=None,
        no_progress_limit: Optional[int] = DEFAULT_NO_PROGRESS_LIMIT,
    ) -> None:
        from ..defenses.base import Unsafe
        from ..metrics.telemetry import current
        from ..protisa.tags import MemoryProtectionTags

        if not program.is_linked:
            program = program.linked()
        self.program = program
        self.config = config
        #: Whether the speculation window closes at commit (ATCOMMIT)
        #: rather than at the resolution of every older branch
        #: (CONTROL): :meth:`nonspec_bound` and the defenses' recheck
        #: hints read this flag, not the config.
        self.atcommit = (config.speculation_model
                         is SpeculationModel.ATCOMMIT)
        self.defense = defense if defense is not None else Unsafe()
        if memory is None:
            self.memory = Memory()
        elif shared_memory:
            self.memory = memory  # multi-core: one address space
        else:
            self.memory = memory.copy()
        self.max_cycles = max_cycles
        self._store_commit_listener = store_commit_listener
        #: Optional :class:`repro.uarch.trace.PipelineTracer`, the one
        #: per-run observer.  ``None`` (the default) keeps tracing
        #: strictly zero-overhead: ``step`` pays one ``is not None``
        #: check per cycle, and the episode-close helper one more per
        #: closed defense-intervention episode.
        self.tracer = tracer
        #: The attached :class:`repro.metrics.MetricsRegistry`, or None.
        #: Host-throughput accounting happens once per :meth:`run`,
        #: never inside :meth:`step`, so the per-cycle path pays nothing
        #: for it.
        self.metrics = current().registry

        self.prf = PhysRegFile(config.num_phys_regs)
        self.rename_map = RenameMap()
        self.arch_values: List[int] = [0] * NUM_REGS
        self.arch_values[SP] = STACK_TOP
        if regs:
            for index, value in regs.items():
                self.arch_values[index] = value & MASK64
        for index in range(NUM_REGS):
            self.prf.values[index] = self.arch_values[index]
            self.prf.ready[index] = True
            # Startup code wrote the initial registers with unprefixed
            # instructions, so they begin architecturally unprotected.
            self.prf.prot[index] = False

        self.mem_tags = MemoryProtectionTags(config.l1d_tag_mode)
        self.caches = CacheHierarchy(
            config, self.mem_tags.eviction_listener(config.l1d.line_bytes),
            shared_l3=shared_l3)
        self.mem_tags.attach_l1d(self.caches.l1d)
        self.bp = BranchPredictor(config.bp_table_bits,
                                  config.bp_history_bits,
                                  config.btb_entries, config.ras_entries)

        self.rob = ReorderBuffer(config.rob_size)
        self.lsq = LoadStoreQueue(config.lq_size, config.sq_size)
        self.iq_count = 0

        self._ready_q: List[Tuple[int, Uop]] = []
        self._blocked: List[Uop] = []
        self._waiters: Dict[int, List[Uop]] = {}
        self._wheel: Dict[int, List[Uop]] = {}
        self._pending_wakeup: List[Uop] = []
        self._pending_resolution: List[Uop] = []
        #: Rename-order queue of unresolved branches (CONTROL model).
        #: Resolved/squashed heads are pruned at resolve/squash/commit —
        #: never inside the ``nonspec_bound`` query, which is pure.
        self._inflight_branches: Deque[Uop] = deque()
        #: preg -> uop that will write it (stall attribution follows the
        #: head's unready operands to their producers through this map).
        self._producer_of: Dict[int, Uop] = {}
        #: Why rename last stalled this cycle (None if it didn't) — the
        #: structural-pressure refinement of "dependency" attribution.
        self._rename_block: Optional[str] = None

        self.cycle = 0
        self.seq_counter = 0
        self.fetch_pc = program.entry
        self.fetch_stalled_until = 0
        self.fetch_blocked = False
        self.fetch_buffer: List[Tuple[int, Uop]] = []  # (ready_cycle, uop)

        self.halted = False
        self.halt_reason = "timeout"
        self.div_busy_until = 0

        #: What :class:`CoreResult` reports of the committed stream,
        #: recorded at commit (a committed uop is kept nowhere): pcs,
        #: timing observations and memory accesses of every committed
        #: instruction except HALT, and the count of committed uops,
        #: HALT included.
        self.committed_pcs: List[int] = []
        self.timing_trace: List[Tuple[int, int, int, int, int, int]] = []
        self.committed_accesses: List[Tuple[int, int]] = []
        self.committed_uops = 0

        #: No-forward-progress early abort (None disables it): a run
        #: with no commit for this many cycles stops with
        #: ``halt_reason="no_progress"`` instead of spinning to
        #: ``max_cycles``.  Checked identically by both engines.
        self.no_progress_limit = no_progress_limit
        self._last_commit_cycle = 0

        self.stats = {
            "squashes": 0,
            "squashed_uops": 0,
            "committed_branches": 0,
            "mispredicted_branches": 0,
            "issued_uops": 0,
            "squashes_conditional": 0,
            "squashes_indirect": 0,
            "squashes_return": 0,
            # Private accumulators (popped/folded by _result, never
            # exported): current speculation-window depth plus, per
            # defense hook, the count and start-cycle sum of episodes
            # still open — so end-of-run fold-in is O(1), no ROB scan.
            "_spec_depth": 0,
        }
        for _, stem in HOOKS:
            self.stats[f"_open_{stem}"] = 0
            self.stats[f"_open_{stem}_sum"] = 0
        for cause in STALL_CAUSES:
            self.stats[f"stall_{cause}"] = 0
        for prefix in ("spec_depth", "squash_cascade"):
            for edge in HIST_EDGES:
                self.stats[f"{prefix}_le_{edge}"] = 0
            self.stats[f"{prefix}_gt_{HIST_EDGES[-1]}"] = 0
        self.defense.attach(self)

    # ==================================================================
    # Speculation-state queries (paper SII-B2)
    # ==================================================================

    def nonspec_bound(self) -> int:
        """The youngest seq that is non-speculative now (SII-B2): the
        uop with seq ``seq`` is past its speculation window exactly
        when ``seq <= nonspec_bound()``.

        Under ATCOMMIT that is the ROB head's seq; under CONTROL, the
        seq of the oldest in-flight branch that is neither resolved nor
        squashed.  With no such uop nothing is speculative, and the
        bound is :data:`RECHECK_NEVER`, which no seq reaches.

        A pure query: the answer does not depend on how often or in
        which order it is asked.  Defense hooks ask it at most once per
        call and compare every operand's YRoT with that one answer.
        Pruning of resolved/squashed branches happens in
        :meth:`_prune_resolved_branches`, at the resolution, squash, and
        commit sites.
        """
        if self.atcommit:
            entries = self.rob.entries
            return entries[0].seq if entries else RECHECK_NEVER
        for branch in self._inflight_branches:
            if not (branch.squashed or branch.resolved):
                return branch.seq
        return RECHECK_NEVER

    def seq_nonspeculative(self, seq: int) -> bool:
        """Whether the uop with sequence number ``seq`` is past its
        speculation window under the configured model: one comparison
        with :meth:`nonspec_bound`, the window's one definition.  A
        caller that asks about several seqs reads the bound once
        instead."""
        return seq <= self.nonspec_bound()

    def _prune_resolved_branches(self) -> None:
        """Drop resolved/squashed heads of the in-flight branch queue
        (the one explicit place the queue shrinks)."""
        branches = self._inflight_branches
        while branches and (branches[0].squashed or branches[0].resolved):
            branches.popleft()

    # ==================================================================
    # Main loop
    # ==================================================================

    def run(self) -> CoreResult:
        host_start = time.perf_counter()
        while not self.stopped():
            self.step()
        return self._finish(time.perf_counter() - host_start)

    def stopped(self) -> bool:
        """Whether the run is over before the next cycle: the core
        halted, or it reached ``max_cycles`` (``halt_reason`` becomes
        ``"timeout"``) or ``no_progress_limit`` cycles without a commit
        (``"no_progress"``).  :meth:`run` and
        :meth:`repro.uarch.multicore.MultiCore.run` step a core until
        this holds."""
        if self.halted:
            return True
        if self.cycle >= self.max_cycles:
            self.halt_reason = "timeout"
            return True
        limit = self.no_progress_limit
        if limit is not None and self.cycle - self._last_commit_cycle >= limit:
            self.halt_reason = "no_progress"
            return True
        return False

    def _finish(self, elapsed: float) -> CoreResult:
        """The run's result, with its metrics published to an attached
        registry: once per run, from the result's already-folded stats,
        for both engines' ``run``.

        The defense's back-reference is dropped once the result is
        built, so a finished core is no reference cycle: dropping it
        frees its caches and uops at once, without the cyclic garbage
        collector."""
        result = self._result()
        self.defense.attach(None)
        metrics = self.metrics
        if metrics is None:
            return result
        stats = result.stats
        metrics.counter("uarch.sim_cycles").inc(self.cycle)
        metrics.counter("uarch.runs").inc()
        metrics.timer("uarch.run_seconds").observe(elapsed)
        if elapsed > 0:
            metrics.gauge("uarch.sim_cycles_per_sec").set(
                self.cycle / elapsed)
        interventions = sum(stats[f"defense_{stem}_interventions"]
                            for _, stem in HOOKS)
        if interventions:
            metrics.counter("uarch.defense_interventions").inc(
                interventions)
            metrics.counter("uarch.defense_delay_cycles").inc(
                sum(stats[f"defense_{stem}_delay_cycles"]
                    for _, stem in HOOKS))
        transient = stats["fetched_uops"] - stats["committed_uops"]
        if transient > 0:
            metrics.counter("uarch.transient_uops").inc(transient)
        return result

    def step(self) -> None:
        committed, cause = self._commit_stage()
        if not self.halted:
            self._complete_stage()
            self._retry_pending()
            self._issue_stage()
            self._rename_stage()
            self._fetch_stage()
        shortfall = self.config.width - committed
        if shortfall > 0:
            if self.halted:
                cause = "drain"  # slots after the halting commit
            self.stats[f"stall_{cause or 'frontend'}"] += shortfall
        if self.tracer is not None:
            self.tracer.on_cycle(self)
        self.cycle += 1

    def _result(self) -> CoreResult:
        stats = dict(self.stats)
        stats.pop("_spec_depth")
        stats.update(self.caches.stats())
        stats["committed_uops"] = self.committed_uops
        stats["fetched_uops"] = self.seq_counter
        for key, value in self.defense.stats.items():
            stats[f"defense_{key}"] = value
        # Fold episodes still open at end of run (wrong-path uops at
        # halt, max_cycles aborts) into the per-hook delay totals:
        # each open episode contributes (end_cycle - start), and the
        # private aggregates hold count and sum(start) — so the fold is
        # O(1) on the *copied* dict, keeping _result idempotent.
        cycle = self.cycle
        for _, stem in HOOKS:
            n = stats.pop(f"_open_{stem}")
            start_sum = stats.pop(f"_open_{stem}_sum")
            if n:
                stats[f"defense_{stem}_delay_cycles"] += \
                    cycle * n - start_sum
        if self.tracer is not None:
            self.tracer.finish(self)
        return CoreResult(
            cycles=self.cycle,
            halt_reason=self.halt_reason,
            committed_pcs=self.committed_pcs,
            final_regs=tuple(self.arch_values),
            memory=self.memory,
            timing_trace=self.timing_trace,
            adversary_cache_state=self.caches.adversary_state(),
            committed_accesses=self.committed_accesses,
            stats=stats,
        )

    # ==================================================================
    # Fetch
    # ==================================================================

    def _fetch_stage(self) -> None:
        if self.fetch_blocked or self.cycle < self.fetch_stalled_until:
            return
        program_len = len(self.program)
        for _ in range(self.config.width):
            if len(self.fetch_buffer) >= 2 * self.config.width:
                return
            pc = self.fetch_pc
            if not 0 <= pc < program_len:
                return  # stalled until a squash redirects us
            inst = self.program[pc]
            predicted_next = self.bp.predict_next(pc, inst)
            uop = Uop(self.seq_counter, pc, inst, predicted_next, self.cycle)
            if self.tracer is not None:
                self.tracer.on_fetch(uop)
            if inst.is_control:
                uop.bp_snapshot = self.bp.snapshot()
                if inst.op is Op.BR:
                    uop.bp_index = self.bp.last_br_index
            self.seq_counter += 1
            self.fetch_buffer.append(
                (self.cycle + self.config.frontend_delay, uop))
            if inst.op is Op.HALT:
                self.fetch_blocked = True
                return
            if inst.op is Op.MFENCE:
                # Serializing fence (the LFENCE analogue the software
                # mitigation passes rely on): the frontend stops here
                # until the fence executes — which _try_execute only
                # permits at the ROB head — so younger wrong-path work
                # is never even fetched past it.  A squash clears the
                # block like any other frontend redirect.
                self.fetch_blocked = True
                self.fetch_pc = predicted_next
                return
            self.fetch_pc = predicted_next
            if predicted_next != pc + 1:
                return  # one taken control transfer per cycle

    # ==================================================================
    # Rename / dispatch
    # ==================================================================

    def _rename_stage(self) -> None:
        config = self.config
        self._rename_block = None
        for _ in range(config.width):
            if not self.fetch_buffer:
                return
            ready_cycle, uop = self.fetch_buffer[0]
            if ready_cycle > self.cycle:
                return
            inst = uop.inst
            dests = inst.dest_regs()
            if self.rob.full:
                self._rename_block = "rob_full"
                return
            if self.prf.free_count < len(dests):
                self._rename_block = "prf_starved"
                return
            if not self.lsq.can_insert(uop):
                self._rename_block = "lsq_full"
                return
            if self.iq_count >= config.iq_size:
                self._rename_block = "iq_full"
                return
            self.fetch_buffer.pop(0)
            uop.rename_cycle = self.cycle

            # Rename sources, carrying ProtISA's rename-map protection
            # tags onto the physical operands (paper SIV-E).
            uop.psrcs = tuple(
                (areg, self.rename_map.lookup(areg))
                for areg in inst.src_regs())

            # Rename destinations; the new rename-map entry's protection
            # bit is the PROT prefix (paper SIV-C1).
            pdests: List[Tuple[int, int]] = []
            old_pdests: List[Tuple[int, int]] = []
            for areg in dests:
                preg = self.prf.allocate()
                assert preg is not None
                old = self.rename_map.update(areg, preg)
                self.prf.ready[preg] = False
                self.prf.prot[preg] = inst.prot
                pdests.append((areg, preg))
                old_pdests.append((areg, old))
            uop.pdests = tuple(pdests)
            uop.old_pdests = tuple(old_pdests)
            for _, preg in pdests:
                self._producer_of[preg] = uop

            self.defense.on_rename(uop)
            self.rob.push(uop)
            if inst.is_mem:
                self.lsq.insert(uop)
            if uop.is_branch:
                self._inflight_branches.append(uop)
                self.stats["_spec_depth"] += 1

            if inst.op in (Op.NOP, Op.HALT, Op.JMP):
                # No execution needed; JMP's target is always correct.
                uop.executed = True
                uop.completed = True
                uop.resolved = True
                uop.actual_next = (inst.target if inst.op is Op.JMP
                                   else uop.pc + 1)
                uop.complete_cycle = self.cycle
                continue

            # Enter the issue queue.
            uop.in_iq = True
            self.iq_count += 1
            unique_pregs = {preg for _, preg in uop.psrcs}
            unready = [p for p in unique_pregs if not self.prf.ready[p]]
            uop.unready_count = len(unready)
            for preg in unready:
                self._waiters.setdefault(preg, []).append(uop)
            if uop.unready_count == 0:
                heapq.heappush(self._ready_q, (uop.seq, uop))

    # ==================================================================
    # Issue / execute
    # ==================================================================

    def _issue_stage(self) -> None:
        width = self.config.width
        issued = 0

        # Retry previously blocked uops first (oldest first).
        if self._blocked:
            self._blocked.sort()
            still_blocked: List[Uop] = []
            for uop in self._blocked:
                if uop.squashed or uop.issued:
                    continue
                if issued < width and self._try_execute(uop):
                    issued += 1
                    continue
                still_blocked.append(uop)
            self._blocked = still_blocked

        while issued < width and self._ready_q:
            _, uop = heapq.heappop(self._ready_q)
            if uop.squashed or uop.issued:
                continue
            if self._try_execute(uop):
                issued += 1
            else:
                self._blocked.append(uop)

    def _try_execute(self, uop: Uop) -> bool:
        """Attempt to execute; returns False if structurally or
        policy-blocked (the uop stays in the blocked list)."""
        inst = uop.inst
        if inst.op is Op.MFENCE:
            head = self.rob.head
            if head is None or head.seq != uop.seq:
                uop.block_reason = "mfence"
                return False
            latency = 1
            # The frontend stalled at this fence when it was fetched
            # (at most one such blocker exists: fetch stops behind it);
            # executing — only possible at the ROB head, hence
            # non-speculatively — releases it.
            self.fetch_blocked = False
        else:
            if inst.is_div and self.cycle < self.div_busy_until:
                uop.block_reason = "div_busy"
                return False  # the divider is not pipelined
            if not self.defense.may_execute(uop):
                if uop.exec_block_cycle < 0:
                    self._open_episode(uop, "exec")
                uop.block_reason = "defense_execute"
                return False
            # Close at the gate-allow, not at issue: a post-allow
            # disambiguation stall is not the defense's doing.
            if uop.exec_block_cycle >= 0:
                self._close_episode(uop, "exec")
            if inst.is_div:
                latency = self._execute_div(uop)
                self.div_busy_until = self.cycle + latency
            elif inst.is_load:
                latency = self._execute_load(uop)
                if latency is None:
                    uop.block_reason = "disambiguation"
                    return False  # memory disambiguation stall
            elif inst.is_store:
                latency = self._execute_store(uop)
            else:
                latency = self._execute_simple(uop)

        uop.block_reason = None
        uop.issued = True
        uop.in_iq = False
        self.iq_count -= 1
        uop.issue_cycle = self.cycle
        self.stats["issued_uops"] += 1
        done_at = self.cycle + max(1, latency)
        bucket = self._wheel.get(done_at)
        if bucket is None:
            self._wheel[done_at] = [uop]
        else:
            bucket.append(uop)
        return True

    # -- functional execution --------------------------------------------

    def _src_value(self, uop: Uop, arch_reg: int) -> int:
        for areg, preg in uop.psrcs:
            if areg == arch_reg:
                return self.prf.values[preg]
        raise KeyError(f"uop does not read register {arch_reg}")

    def _set_results(self, uop: Uop, values: Dict[int, int]) -> None:
        results = []
        for areg, preg in uop.pdests:
            value = values[areg] & MASK64
            self.prf.values[preg] = value
            results.append((areg, value))
        uop.result_values = tuple(results)

    def _execute_simple(self, uop: Uop) -> int:
        inst = uop.inst
        op = inst.op
        config = self.config
        if op is Op.MOVI:
            self._set_results(uop, {inst.rd: inst.imm & MASK64})
            return config.alu_latency
        if op is Op.MOV:
            self._set_results(uop, {inst.rd: self._src_value(uop, inst.ra)})
            return config.alu_latency
        if op in REG_ALU_OPS:
            result = alu(op, self._src_value(uop, inst.ra),
                         self._src_value(uop, inst.rb))
            self._set_results(uop, {inst.rd: result})
            return (config.mul_latency if op is Op.MUL
                    else config.alu_latency)
        if op in IMM_ALU_OPS:
            result = alu(op, self._src_value(uop, inst.ra), inst.imm & MASK64)
            self._set_results(uop, {inst.rd: result})
            return (config.mul_latency if op is Op.MULI
                    else config.alu_latency)
        if op in FLAG_WRITERS:
            b = inst.imm & MASK64 if op is Op.CMPI \
                else self._src_value(uop, inst.rb)
            self._set_results(
                uop, {FLAGS: compare_flags(op, self._src_value(uop, inst.ra),
                                           b)})
            return config.alu_latency
        if op is Op.BR:
            flags = self._src_value(uop, FLAGS)
            uop.taken = eval_cond(inst.cond, flags)
            uop.actual_next = inst.target if uop.taken else uop.pc + 1
            return config.alu_latency
        if op is Op.JMPI:
            uop.taken = True
            uop.actual_next = self._src_value(uop, inst.ra)
            return config.alu_latency
        raise ValueError(f"cannot execute {op!r}")  # pragma: no cover

    def _execute_div(self, uop: Uop) -> int:
        inst = uop.inst
        a = self._src_value(uop, inst.ra)
        b = self._src_value(uop, inst.rb)
        self._set_results(uop, {inst.rd: alu(inst.op, a, b)})
        # Operand-dependent latency: the divider side channel.
        return self.config.div_base_latency + div_timing_class(a, b)

    def _load_address(self, uop: Uop) -> int:
        inst = uop.inst
        if inst.op is Op.LOAD:
            base = self._src_value(uop, inst.ra)
            index = self._src_value(uop, inst.rb) if inst.rb is not None \
                else 0
            return effective_address(base, index, inst.imm)
        # POP / RET read through the stack pointer.
        return effective_address(self._src_value(uop, SP), 0, 0)

    def _execute_load(self, uop: Uop) -> Optional[int]:
        inst = uop.inst
        uop.mem_addr = self._load_address(uop)
        status, store = self.lsq.forwarding_store(uop)
        if status == "stall":
            return None
        if status == "forward":
            assert store is not None
            value = store.store_data
            latency = self.config.store_forward_latency
            uop.lsq_prot = store.lsq_prot
            uop.forwarded_from = store
            uop.mem_level = "sq"
        else:
            latency = self.caches.access(uop.mem_addr)
            value = self.memory.read_word(uop.mem_addr)
            uop.lsq_prot = self.mem_tags.word_protected(uop.mem_addr)
            uop.mem_level = self.caches.last_level

        if inst.op is Op.LOAD:
            self._set_results(uop, {inst.rd: value})
        elif inst.op is Op.POP:
            sp = self._src_value(uop, SP)
            self._set_results(uop, {inst.rd: value, SP: (sp + 8) & MASK64})
        elif inst.op is Op.RET:
            sp = self._src_value(uop, SP)
            self._set_results(uop, {SP: (sp + 8) & MASK64})
            uop.taken = True
            uop.actual_next = value
        self.defense.on_load_executed(uop)
        return latency

    def _execute_store(self, uop: Uop) -> int:
        inst = uop.inst
        if inst.op is Op.STORE:
            base = self._src_value(uop, inst.ra)
            index = self._src_value(uop, inst.rb) if inst.rb is not None \
                else 0
            uop.mem_addr = effective_address(base, index, inst.imm)
            uop.store_data = self._src_value(uop, inst.rd)
            data_preg = uop.phys_for(inst.rd)
            uop.lsq_prot = self.prf.prot[data_preg]
        elif inst.op is Op.PUSH:
            sp = self._src_value(uop, SP)
            new_sp = (sp - 8) & MASK64
            uop.mem_addr = effective_address(new_sp, 0, 0)
            uop.store_data = self._src_value(uop, inst.ra)
            data_preg = uop.phys_for(inst.ra)
            uop.lsq_prot = self.prf.prot[data_preg]
            self._set_results(uop, {SP: new_sp})
        else:  # CALL pushes its (public, constant) return address.
            sp = self._src_value(uop, SP)
            new_sp = (sp - 8) & MASK64
            uop.mem_addr = effective_address(new_sp, 0, 0)
            uop.store_data = uop.pc + 1
            uop.lsq_prot = uop.inst.prot
            self._set_results(uop, {SP: new_sp})
            uop.taken = True
            uop.actual_next = uop.inst.target
        # Stores probe the hierarchy at execute (translation/RFO): a
        # transient store's address modulates the caches.
        self.caches.access(uop.mem_addr)
        return 1

    # ==================================================================
    # Completion, wakeup, branch resolution
    # ==================================================================

    def _complete_stage(self) -> None:
        for uop in self._wheel.pop(self.cycle, ()):
            if uop.squashed:
                continue
            uop.executed = True
            uop.complete_cycle = self.cycle
            uop.completed = True
            if uop.is_branch:
                self._attempt_resolution(uop)
            if uop.pdests:
                if self.defense.may_wakeup(uop):
                    self._do_wakeup(uop)
                else:
                    if uop.wakeup_block_cycle < 0:
                        self._open_episode(uop, "wakeup")
                    uop.wakeup_pending = True
                    self._pending_wakeup.append(uop)

    # -- defense-intervention episodes ---------------------------------
    #
    # One episode spans first-refusal -> allow (or squash / end of run)
    # for one uop at one hook.  Episodes only ever open at a *real* hook
    # refusal and close at a real allow (or the squash rollback), so the
    # compiled engine's sleeping uops — which it does not re-ask until
    # their wake condition fires — are automatically episode-correct:
    # the episode stays open while the uop sleeps and the delay accrues
    # through the fast-forward jump.

    def _open_episode(self, uop: Uop, stem: str) -> None:
        """Open ``uop``'s episode at the ``HOOKS`` hook ``stem``.  Call
        sites test ``<stem>_block_cycle < 0`` first: a refused uop
        re-asks its gate every cycle, and the guard keeps those
        retries free of this call."""
        setattr(uop, f"{stem}_block_cycle", self.cycle)
        self.defense.stats[f"{stem}_interventions"] += 1
        self.stats[f"_open_{stem}"] += 1
        self.stats[f"_open_{stem}_sum"] += self.cycle

    def _close_episode(self, uop: Uop, stem: str) -> None:
        """Close ``uop``'s open episode at the ``HOOKS`` hook ``stem``
        (call sites test ``<stem>_block_cycle >= 0`` first) and hand it
        to an attached tracer."""
        attr = f"{stem}_block_cycle"
        start = getattr(uop, attr)
        setattr(uop, attr, -1)
        self.defense.stats[f"{stem}_delay_cycles"] += self.cycle - start
        self.stats[f"_open_{stem}"] -= 1
        self.stats[f"_open_{stem}_sum"] -= start
        if self.tracer is not None:
            self.tracer.on_episode(self, uop, stem, start)

    def _do_wakeup(self, uop: Uop) -> None:
        if uop.wakeup_block_cycle >= 0:
            self._close_episode(uop, "wakeup")
        uop.wakeup_pending = False
        for _, preg in uop.pdests:
            self.prf.ready[preg] = True
            for waiter in self._waiters.pop(preg, ()):
                if waiter.squashed or waiter.issued:
                    continue
                waiter.unready_count -= 1
                if waiter.unready_count == 0:
                    heapq.heappush(self._ready_q, (waiter.seq, waiter))

    def _retry_pending(self) -> None:
        if self._pending_resolution:
            pending = self._pending_resolution
            pending.sort()
            self._pending_resolution = []
            for uop in pending:
                if uop.squashed or uop.resolved:
                    continue
                self._attempt_resolution(uop)
        if self._pending_wakeup:
            pending = self._pending_wakeup
            self._pending_wakeup = []
            for uop in pending:
                if uop.squashed:
                    continue
                if self.defense.may_wakeup(uop):
                    self._do_wakeup(uop)
                else:
                    self._pending_wakeup.append(uop)

    def _attempt_resolution(self, uop: Uop) -> None:
        """Try to resolve a branch: broadcast its outcome and squash on a
        misprediction.  Defenses may delay this (the squash signal is a
        transmitter)."""
        if not self.defense.may_resolve(uop):
            if uop.resolve_block_cycle < 0:
                self._open_episode(uop, "resolve")
            uop.block_reason = "defense_resolution"
            uop.resolution_pending = True
            self._pending_resolution.append(uop)
            return
        # The defense allowed the resolution: close its episode before
        # the buggy-squash-port check, so bug-port hold time is never
        # charged to the defense (may_resolve re-refusing later opens a
        # legitimate second episode).
        if uop.resolve_block_cycle >= 0:
            self._close_episode(uop, "resolve")
        if self.config.buggy_squash_notify and self._buggy_blocked(uop):
            uop.block_reason = "squash_notify"
            uop.resolution_pending = True
            self._pending_resolution.append(uop)
            return
        depth = self.stats["_spec_depth"]
        self.stats[hist_key("spec_depth", depth)] += 1
        self.stats["_spec_depth"] = depth - 1
        uop.block_reason = None
        uop.resolved = True
        uop.resolution_pending = False
        self._prune_resolved_branches()
        # Train at resolution (as the gem5 O3 CPU does): prompt updates
        # under early resolution, stale ones when a defense delays the
        # branch.  Occasional wrong-path training self-corrects.
        self.bp.train(uop.pc, uop.inst, bool(uop.taken), uop.actual_next,
                      uop.bp_index)
        if uop.actual_next != uop.predicted_next:
            uop.mispredicted = True
            self._squash_after(uop)

    def _buggy_blocked(self, uop: Uop) -> bool:
        """The STT-inherited pending-squash bug (paper SVII-B4b): an
        older executed-but-unresolvable (tainted/protected) branch that
        *mispredicted* wins the per-cycle squash notification and blocks
        this younger branch from initiating its own squash."""
        for other in self._pending_resolution:
            if (other.seq < uop.seq and not other.squashed
                    and other.executed
                    and other.actual_next != other.predicted_next):
                return True
        return False

    # ==================================================================
    # Squash
    # ==================================================================

    def _squash_after(self, branch: Uop) -> None:
        stats = self.stats
        stats["squashes"] += 1
        stats[_SQUASH_CAUSE[branch.inst.op]] += 1
        squashed = self.rob.squash_younger_than(branch.seq)
        stats["squashed_uops"] += len(squashed)
        stats[hist_key("squash_cascade", len(squashed))] += 1
        for uop in squashed:  # youngest first: exact rename rollback
            uop.squashed = True
            uop.squash_cycle = self.cycle
            if uop.is_branch and not uop.resolved:
                stats["_spec_depth"] -= 1
            for _, stem in HOOKS:
                if getattr(uop, f"{stem}_block_cycle") >= 0:
                    self._close_episode(uop, stem)
            self.rename_map.rollback(uop)
            for _, preg in uop.pdests:
                self.prf.free(preg)
            if uop.inst.is_mem:
                self.lsq.remove(uop)
            if uop.in_iq:
                uop.in_iq = False
                self.iq_count -= 1
            self.defense.on_squash(uop)
        for _, uop in self.fetch_buffer:
            uop.squashed = True
            uop.squash_cycle = self.cycle
        self.fetch_buffer.clear()
        self._inflight_branches = deque(
            b for b in self._inflight_branches if not b.squashed)
        self._prune_resolved_branches()
        if branch.bp_snapshot is not None:
            # Repair wrong-path corruption of the speculative front-end
            # state (global history, RAS), correcting the mispredicted
            # branch's own history bit to its actual direction.
            self.bp.restore(branch.bp_snapshot)
            if branch.inst.op is Op.BR:
                predicted_taken = branch.predicted_next != branch.pc + 1
                if predicted_taken != bool(branch.taken):
                    self.bp.direction.history ^= 1
        self.fetch_pc = branch.actual_next
        self.fetch_stalled_until = self.cycle + self.config.redirect_penalty
        self.fetch_blocked = False

    # ==================================================================
    # Commit
    # ==================================================================

    def _commit_stage(self) -> Tuple[int, Optional[str]]:
        """Commit up to ``width`` uops; on an early stop, classify why
        (the per-cycle stall cause ``step`` charges the shortfall to)."""
        committed = 0
        for _ in range(self.config.width):
            head = self.rob.head
            if (head is None or not head.completed
                    or (head.is_branch and not head.resolved)):
                return committed, self._classify_stall(head)
            self._commit_uop(head)
            committed += 1
            if self.halted:
                break
        return committed, None

    # -- stall-cause attribution ------------------------------------------

    def _classify_stall(self, head: Optional[Uop]) -> str:
        """Attribute this cycle's commit shortfall to one cause, judged
        at commit time (before the later stages mutate the state)."""
        if head is None:
            # Empty ROB: the frontend is not delivering.
            if self.cycle < self.fetch_stalled_until:
                return "fetch_redirect"
            if (not self.fetch_buffer
                    and not 0 <= self.fetch_pc < len(self.program)):
                # Empty ROB and a dead frontend with no redirect coming:
                # nothing in flight can ever change this state.  The
                # no-progress early abort ends such runs.
                return "no_progress"
            return "frontend"
        if head.is_branch and head.completed and not head.resolved:
            # Executed branch whose resolution (squash signal) is held.
            return _BLOCK_TO_CAUSE.get(head.block_reason,
                                       "defense_resolution")
        if head.issued:
            return self._uop_stall(head) or "exec_latency"
        if head.unready_count > 0:
            cause = self._operand_stall(head)
            if cause is not None:
                return cause
            if self._rename_block is not None:
                # The machine is also structurally backpressured; charge
                # the dependency wait to the structural bottleneck.
                return self._rename_block
            return "dependency"
        # Ready but never picked: lost issue arbitration or refused.
        return self._uop_stall(head) or "issue_bw"

    def _uop_stall(self, uop: Uop) -> Optional[str]:
        """Why an in-flight, uncommitted uop has not completed yet."""
        if uop.issued:
            if uop.inst.is_div:
                return "div_busy"
            if uop.mem_level in _MISS_LEVELS:
                return "cache_miss"
            return "exec_latency"
        if uop.block_reason is not None:
            return _BLOCK_TO_CAUSE.get(uop.block_reason)
        return None

    def _operand_stall(self, head: Uop) -> Optional[str]:
        """Follow the head's unready operands to their producers."""
        prf = self.prf
        for _, preg in head.psrcs:
            if prf.ready[preg]:
                continue
            producer = self._producer_of.get(preg)
            if producer is None or producer.squashed:
                continue
            if producer.wakeup_pending:
                return "defense_wakeup"
            cause = self._uop_stall(producer)
            if cause is not None:
                return cause
        return None

    def _commit_uop(self, uop: Uop) -> None:
        self._last_commit_cycle = self.cycle
        self.committed_uops += 1
        inst = uop.inst
        if inst.op is Op.HALT:
            uop.committed = True
            uop.commit_cycle = self.cycle
            self.rob.pop_head()
            self.halted = True
            self.halt_reason = "halt"
            return

        if inst.is_store:
            # Stores update memory (and the L1D protection bits) at
            # commit; wrong-path stores never reach here.
            self.memory.write_word(uop.mem_addr, uop.store_data)
            self.caches.access(uop.mem_addr)
            self.mem_tags.set_word(uop.mem_addr, bool(uop.lsq_prot))
            if self._store_commit_listener is not None:
                self._store_commit_listener(self, uop.mem_addr)
        if inst.is_load and not inst.prot:
            # Loads with unprotected outputs unprotect the bytes they
            # accessed (paper SIV-C2b).
            self.mem_tags.clear_word(uop.mem_addr)

        for areg, value in uop.result_values:
            self.arch_values[areg] = value
        for _, old_preg in uop.old_pdests:
            self.prf.free(old_preg)

        if uop.is_branch:
            self.stats["committed_branches"] += 1
            if uop.mispredicted:
                self.stats["mispredicted_branches"] += 1

        self.defense.on_commit(uop)
        uop.committed = True
        uop.commit_cycle = self.cycle
        self.committed_pcs.append(uop.pc)
        self.timing_trace.append(timing_observation(uop))
        if uop.mem_addr is not None:
            self.committed_accesses.append((uop.pc, uop.mem_addr))
        self.rob.pop_head()
        if inst.is_mem:
            self.lsq.remove(uop)
        if uop.is_branch:
            # A committing branch is resolved and the oldest in flight,
            # so pruning from the front removes it.
            self._prune_resolved_branches()

        next_pc = uop.actual_next if inst.is_control else uop.pc + 1
        if not 0 <= next_pc < len(self.program):
            self.halted = True
            self.halt_reason = ("off_end" if next_pc == len(self.program)
                                else "bad_pc")


#: Engine names accepted by :func:`simulate`.
ENGINES = ("ref", "compiled")


def simulate(program: Program, defense=None, config: CoreConfig = P_CORE,
             memory: Optional[Memory] = None,
             regs: Optional[Dict[int, int]] = None,
             max_cycles: int = DEFAULT_MAX_CYCLES,
             tracer=None,
             no_progress_limit: Optional[int] = DEFAULT_NO_PROGRESS_LIMIT,
             engine: str = "compiled",
             ) -> CoreResult:
    """Run ``program`` to completion on a fresh core.

    ``engine`` picks the execution backend:

    * ``"compiled"`` (the default) — the specializing backend
      (:mod:`repro.uarch.compiled`), which runs any program.  A run
      with a tracer attached (a single-spec diagnostic that must see
      every cycle) goes to the reference interpreter instead, and an
      attached registry counts it as ``uarch.compile_fallbacks.tracer``.
    * ``"ref"`` — the reference interpreter, :class:`Core`.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of "
                         f"{', '.join(ENGINES)}")
    if engine == "compiled":
        if tracer is None:
            from .compiled import CompiledCore

            return CompiledCore(program, defense, config, memory, regs,
                                max_cycles,
                                no_progress_limit=no_progress_limit).run()
        from ..metrics.telemetry import current

        current().count("uarch.compile_fallbacks.tracer")
    return Core(program, defense, config, memory, regs, max_cycles,
                tracer=tracer,
                no_progress_limit=no_progress_limit).run()
