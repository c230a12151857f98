"""The compiled simulation backend: specialize, generate, ``exec``.

:class:`~repro.uarch.pipeline.Core` is a general interpreter — every
cycle it re-dispatches on opcode enums, re-reads configuration
attributes, and re-asks the defense questions whose answers were fixed
the moment the core config and the defense were chosen.  This module
partial-evaluates those away, once per program *shape*
(:class:`Shape`: whether the program has stores, divides and fences,
the opcodes that can stall an issue on the machine itself):
:func:`generate_source` emits one flat ``run(core)`` function in which

* every ``CoreConfig`` scalar (width, latencies, queue capacities,
  speculation model, the squash-notification bug) is a literal,
* the program is data: ``run`` binds the per-PC decode columns (opcode
  kind, operand positions, immediates, targets, PROT prefixes) and the
  program length as locals on entry, from the columns
  :class:`CompiledCore` decodes once for its program
  (:func:`decode_columns`); any program runs, the empty one included,
* rename is straight-line per uop: one block per source arity (the
  ``NS`` column, 0 to 3) and per destination arity (0 to 2) builds
  ``psrcs``, ``pdests`` and ``old_pdests`` as fixed-size tuples, and
  unready operands are counted over the distinct physical sources by
  comparing them; commit pops the load and store queues at the head,
  and a squash at the tail,
* the execute dispatch is an ``if``/``elif`` chain over the opcode
  kinds the shape allows, in one fixed order; the store queue and
  disambiguation, the divider and the fence are elided when the shape
  lacks them, and the divider check and the ``may_execute`` gate are
  emitted once, ahead of the dispatch,
* defense hooks the mechanism does not override are dropped entirely,
  along with the machinery that only exists to service them (a defense
  that never refuses ``may_resolve`` on a core without the buggy
  squash port cannot leave a branch pending, so neither the retry loop
  nor its wake structures are emitted),
* all hot scalars (cycle, sequence counter, head seq, wake-structure
  handles) are function locals instead of attribute loads.

The generator mirrors the interpreter: one emitter per ``Core`` method,
named after it (``_Codegen._commit_stage`` emits what
``Core._commit_stage`` does), called in ``Core.step`` order.

It is also the only engine with fast paths; the reference
:class:`~repro.uarch.pipeline.Core` has none:

* **Wake, don't poll.**  The reference re-asks every blocked,
  pending-resolution and pending-wakeup uop every cycle.  Here a uop a
  gate refuses asks the defense's ``*_recheck_seq`` hint once and
  sleeps until the ROB head reaches it (``None``: the next commit) or
  until an event that can flip the refusal sooner fires (a branch
  resolution under CONTROL; for a mechanism that declassifies, the
  declassification of a register the uop transmits, which wakes only
  the uops sleeping on that register).  Structural stalls sleep the
  same way: a disambiguation stall until every older store without an
  address has issued (or, when its blocker's address partly overlaps,
  until that store commits), an MFENCE until it is the head, a divide
  until the divider frees, and a gate-refused divide also at the next
  divide issue (after which the reference would report it
  ``div_busy``).  Each stage keeps a heap ``(wake seq, seq, uop)``, a
  ``<stage>_wait`` dict of its sleepers (stale heap, event and
  register entries fail its check), event lists, and an awake set
  asked oldest first; the declassification wake adds one sleeper list
  per physical register (``dcl``), reset when rename reallocates the
  register.  An issue in the blocked pass wakes younger sleepers into
  the same pass and older ones into the next cycle, as the reference's
  sorted pass would see them.  Buggy-port
  ``squash_notify`` entries stay awake.  A squash invalidates nothing:
  under ATCOMMIT a survivor's operand producers and YRoT roots are all
  older than the squashing branch, and under CONTROL the resolution
  event covers it.  A sleeper is not asked, so a refusal that stands
  has no side effect (its intervention episode is already open).
* **Fast-forward.**  When a cycle could commit, complete, resolve,
  wake, issue, rename or fetch nothing, and no uop is awake or due,
  ``cycle`` jumps to the next candidate event (completion-wheel heap,
  redirect end, divider free, rename-ready, the no-progress and
  ``max_cycles`` limits).  Each skipped cycle is charged exactly what
  the per-cycle loop would have charged: ``width`` stall slots to one
  cause, so ``sum(stall_*) == width * cycles - committed_uops`` still
  holds.

The generated function mutates the same ``Core`` state objects (PRF,
ROB, LSQ, caches, branch predictor, defense) the interpreter does and
writes the shared scalars back on exit; the wake structures, wheel
heap and fast-forward state are its own locals, and it returns
the fast-forward telemetry.  ``Core._result()`` — and therefore the
bit-identical :class:`CoreResult` contract checked by ``repro diff``
(reference vs compiled) — is shared by both engines.

Compiled functions are memoized in-process under :func:`compile_key`
(full config + defense class + program shape), so every program of one
shape shares one compile, and so does every instance of one defense
class; nothing outlives the process.  The generator sees the defense
class, never an instance: instance state (constructor arguments such
as ProtTrack's predictor size) reaches the generated code only through
the bound hooks ``run`` takes from ``core.defense``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..isa.operations import (
    Cond,
    DIV_OPS,
    FLAG_WRITERS,
    IMM_ALU_OPS,
    MEM_READ_OPS,
    MEM_WRITE_OPS,
    Op,
)
from ..isa.registers import FLAGS, SP
from .config import CoreConfig, P_CORE, SpeculationModel
from .pipeline import (
    Core,
    CoreResult,
    DEFAULT_MAX_CYCLES,
    DEFAULT_NO_PROGRESS_LIMIT,
    _BLOCK_TO_CAUSE,
    _SQUASH_CAUSE,
)

#: Stable opcode -> kind-integer mapping used by the generated decode
#: tables (enum definition order; append-only by ISA convention).
KIND_OF: Dict[Op, int] = {op: i for i, op in enumerate(Op)}

_COND_CODE: Dict[Cond, int] = {c: i for i, c in enumerate(Cond)}

#: Condition-code -> inline flags test (flags bit 0 = ZF, 1 = signed
#: LT, 2 = unsigned B), mirroring ``eval_cond``.
_COND_EXPR = {
    _COND_CODE[Cond.EQ]: "(fl & 1) != 0",
    _COND_CODE[Cond.NE]: "(fl & 1) == 0",
    _COND_CODE[Cond.LT]: "(fl & 2) != 0",
    _COND_CODE[Cond.LE]: "(fl & 3) != 0",
    _COND_CODE[Cond.GT]: "(fl & 3) == 0",
    _COND_CODE[Cond.GE]: "(fl & 2) == 0",
    _COND_CODE[Cond.B]: "(fl & 4) != 0",
    _COND_CODE[Cond.AE]: "(fl & 4) == 0",
}

_M64 = "0xFFFFFFFFFFFFFFFF"
_MADDR = "0xFFFFFFFF"
_SBIT = "0x8000000000000000"
_NEVER_LIT = str(1 << 62)

#: ``uop.block_reason`` -> full stall-counter key (the generated code
#: skips the ``f"stall_{cause}"`` formatting the interpreter pays).
_B2C_LITERAL = repr({reason: f"stall_{cause}"
                     for reason, cause in _BLOCK_TO_CAUSE.items()})


# =====================================================================
# Defense traits: which hooks the generated code must call.
# =====================================================================


class DefenseTraits:
    """Compile-time facts about a defense class.

    A hook is *live* when the class overrides the base
    :class:`~repro.defenses.base.Defense` implementation; dead hooks
    (base-class no-ops / always-allow) are elided from the generated
    source together with any machinery only they can trigger.
    """

    _HOOKS = ("on_rename", "may_execute", "may_resolve", "may_wakeup",
              "on_load_executed", "on_commit", "on_squash",
              "execute_recheck_seq", "resolve_recheck_seq",
              "wakeup_recheck_seq")

    def __init__(self, cls) -> None:
        from ..defenses.base import Defense

        for hook in self._HOOKS:
            live = getattr(cls, hook) is not getattr(Defense, hook)
            setattr(self, hook, live)
        self.declassifies = bool(cls.declassifies)


# =====================================================================
# Program shape: the only program facts the generated source reads
# =====================================================================


class Shape(NamedTuple):
    """Whether a program has the opcodes that can stall an issue on the
    machine itself.

    The generated source depends on a program through its shape only:
    every program of one shape shares one compiled ``run``, which reads
    the rest of the program from the decode columns it binds on entry.
    A program without such an opcode gets a core that never refuses an
    issue unless its defense does, and skips the blocked-issue pass.
    Branch, load, control-transfer and ``HALT`` code is emitted for
    every shape; a program without them never reaches it.
    """

    has_stores: bool  # the store queue and load disambiguation
    has_divs: bool    # the divider
    has_mfence: bool  # the fence

    def label(self) -> str:
        """The set flags, ``+``-joined: for the generated module's
        docstring and file name."""
        return "+".join(flag[4:] for flag, on in zip(self._fields, self)
                        if on) or "none"


#: Each shape flag's opcodes: a program has the flag if it has one.
_SHAPE_OPS = Shape(has_stores=MEM_WRITE_OPS, has_divs=DIV_OPS,
                   has_mfence=frozenset({Op.MFENCE}))


def _shape_of(ops) -> Shape:
    return Shape(*(not ops.isdisjoint(members) for members in _SHAPE_OPS))


def program_shape(program) -> Shape:
    """The :class:`Shape` of ``program``."""
    return _shape_of({inst.op for inst in program.instructions})


# =====================================================================
# The in-process compile memo
# =====================================================================

_MEM_CACHE: Dict[Tuple, Callable] = {}
_MEM_CACHE_LIMIT = 256


def compile_key(program, config: CoreConfig, defense) -> Tuple:
    """Everything the generated source depends on: the complete core
    configuration, the defense class (which fixes its hook traits), and
    the program's :class:`Shape`.  Any config field or defense class
    misses; two programs of one shape share the key, and so do two
    instances of one class, whatever their constructor arguments.
    Simulator source cannot change while the process runs."""
    return (config, type(defense), program_shape(program))


def clear_compile_cache() -> None:
    """Drop the in-process compiled-function cache (tests)."""
    _MEM_CACHE.clear()


def compile_step(program, config: CoreConfig, defense):
    """Return the compiled ``run(core)`` function for the triple,
    generating and compiling it on the first request for its
    (config, defense class, shape) key in this process."""
    from ..metrics.telemetry import current

    metrics = current().registry
    key = compile_key(program, config, defense)
    fn = _MEM_CACHE.get(key)
    if fn is not None:
        if metrics is not None:
            metrics.counter("uarch.compile_cache_hits").inc()
        return fn

    start = time.perf_counter()
    source = generate_source(program, config, defense)
    name = f"{type(defense).__name__}:{key[-1].label()}"
    namespace: Dict[str, object] = {"__name__": "repro.uarch._compiled"}
    code = compile(source, f"<repro-compiled:{name}>", "exec")
    exec(code, namespace)  # noqa: S102 - our own generated source
    fn = namespace["run"]
    if len(_MEM_CACHE) >= _MEM_CACHE_LIMIT:
        _MEM_CACHE.clear()
    _MEM_CACHE[key] = fn
    if metrics is not None:
        metrics.counter("uarch.compile_cache_misses").inc()
        metrics.timer("uarch.compile_seconds").observe(
            time.perf_counter() - start)
    return fn


# =====================================================================
# Source generation
# =====================================================================


class _Emitter:
    """Indentation-tracking line buffer."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.level = 0

    def __call__(self, text: str = "") -> None:
        if not text:
            self.lines.append("")
            return
        pad = "    " * self.level
        for line in text.split("\n"):
            self.lines.append(pad + line if line else "")

    def indent(self) -> None:
        self.level += 1

    def dedent(self) -> None:
        self.level -= 1

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


#: Kinds that complete at rename (no issue, no execute).
_RENAME_COMPLETE = frozenset({Op.NOP, Op.HALT, Op.JMP})

#: The per-PC decode columns ``run`` binds on entry, in order:
#: (name, instruction -> column value).
_COLUMNS = (
    ("K", lambda inst: KIND_OF[inst.op]),
    ("NS", lambda inst: len(inst.src_regs())),
    ("ND", lambda inst: len(inst.dest_regs())),
    ("DESTS", lambda inst: tuple(inst.dest_regs())),
    ("SRCS", lambda inst: tuple(inst.src_regs())),
    ("IMM", lambda inst: inst.imm),
    ("IMMM", lambda inst: inst.imm & ((1 << 64) - 1)),
    ("TGT", lambda inst: inst.target if isinstance(inst.target, int) else -1),
    ("CONDC", lambda inst: _COND_CODE.get(inst.cond, -1)),
    ("PROT", lambda inst: bool(inst.prot)),
    ("HASRB", lambda inst: inst.rb is not None),
    ("ISBR", lambda inst: bool(inst.is_branch)),
    ("ISCTRL", lambda inst: bool(inst.is_control)),
    ("ISLD", lambda inst: bool(inst.is_load)),
    ("ISST", lambda inst: bool(inst.is_store)),
    ("ISDIV", lambda inst: bool(inst.is_div)),
    # squash-cause stats key ('' for non-branch PCs)
    ("SQK", lambda inst: _SQUASH_CAUSE.get(inst.op, "")),
    ("RDONE", lambda inst: inst.op in _RENAME_COMPLETE),
)


def decode_columns(program) -> Tuple:
    """``program``'s decode columns in :data:`_COLUMNS` order, then its
    length: the per-program data the shared ``run`` binds on entry."""
    insts = program.instructions
    return tuple(tuple(map(column, insts)) for _, column in _COLUMNS) \
        + (len(insts),)


#: The issue stage's dispatch order.  First the kinds the benchmark
#: panel commits most (LOAD 16%, BR 12%, ADDI and CMPI 11% each, ...)
#: and MOVI, the commonest kind in random fuzz programs; then every
#: other issuing kind in enum order.
_HOT_KINDS = (Op.LOAD, Op.BR, Op.ADDI, Op.CMPI, Op.ADD, Op.SHRI, Op.ANDI,
              Op.XOR, Op.SHLI, Op.OR, Op.MOVI)
_DISPATCH = _HOT_KINDS + tuple(
    op for op in Op if op not in _HOT_KINDS
    and op not in _RENAME_COMPLETE and op is not Op.MFENCE)

#: Register ALU op -> inline result over operands ``a`` and ``b``; each
#: immediate form (``ADDI`` for ``ADD`` ...) shares its expression.
_ALU_EXPR = {
    Op.ADD: f"(a + b) & {_M64}",
    Op.SUB: f"(a - b) & {_M64}",
    Op.AND: "a & b",
    Op.OR: "a | b",
    Op.XOR: "a ^ b",
    Op.SHL: f"(a << (b & 63)) & {_M64}",
    Op.SHR: "a >> (b & 63)",
    Op.MUL: f"(a * b) & {_M64}",
}
_ALU_EXPR.update({Op[f"{op.name}I"]: expr
                  for op, expr in list(_ALU_EXPR.items())})

#: (generated local, ``Core`` attribute) for each hot scalar ``run``
#: loads on entry and writes back on exit.
_HOT_SCALARS = (
    ("cycle", "cycle"), ("seqc", "seq_counter"), ("fpc", "fetch_pc"),
    ("fstall", "fetch_stalled_until"), ("fblocked", "fetch_blocked"),
    ("halted", "halted"), ("halt_reason", "halt_reason"),
    ("divbusy", "div_busy_until"), ("iq_count", "iq_count"),
    ("last_commit", "_last_commit_cycle"), ("ncommit", "committed_uops"),
    ("rename_block", "_rename_block"),
)

class _Codegen:
    """Source generator for one (shape, config, defense class) key.

    Each stage method emits the generated counterpart of the
    :class:`~repro.uarch.pipeline.Core` method of the same name, so a
    pipeline change lands in the matching place here.  The others emit
    compiled-only code (prologue, fast-forward, epilogue) or one block
    several stages share.  Emitted code names the uop at hand ``u``.

    The generator never sees a program or a defense instance: every
    choice it makes about a program reads the :class:`Shape` flags and
    every choice about the defense reads its class.  The emitted code
    reads the per-PC facts from the decode columns and calls the
    instance's hooks through ``core.defense``.
    """

    def __init__(self, shape: Shape, config: CoreConfig,
                 defense_class: type) -> None:
        self.s = _Emitter()
        self.shape = shape
        self.config = config
        self.defense_class = defense_class
        self.traits = traits = DefenseTraits(defense_class)
        self.has_stores, self.has_divs, self.has_mfence = shape
        # The issuing kinds the shape allows, in dispatch order: those
        # whose own shape flags are all set.
        self.issue_ops = [op for op in _DISPATCH if all(
            have or not need for have, need in zip(shape, _shape_of({op})))]
        self.ctrl = config.speculation_model is SpeculationModel.CONTROL
        self.buggy = bool(config.buggy_squash_notify)
        self.h_exec = traits.may_execute
        # Machinery liveness: what can actually happen under this key.
        self.res_possible = traits.may_resolve or self.buggy
        self.wake_possible = traits.may_wakeup
        self.blockable = (self.h_exec or self.has_mfence or self.has_divs
                          or self.has_stores)
        # Per wake stage ('is' blocked issue, 'rs' pending resolution,
        # 'wk' pending wakeup): whether uops sleep on a head-seq heap,
        # and the events that can flip a gate refusal before its hint.
        self.heaps = {"is": self.h_exec or self.has_mfence or self.has_stores,
                      "rs": traits.may_resolve,
                      "wk": self.wake_possible}
        events = ("resolve",) if self.ctrl else ()
        self.events = {"is": events if self.h_exec else (),
                       "rs": events if self.heaps["rs"] else (),
                       "wk": events if self.wake_possible else ()}
        # Gate-refused uops also sleep on the registers they transmit
        # when the defense declassifies: stage -> the defense's
        # ``*_sensitive_pregs`` helper.
        self.transmits = {stage: helper for stage, helper, live in (
            ("is", "execute_sensitive_pregs", self.h_exec),
            ("rs", "resolve_sensitive_pregs", self.heaps["rs"]))
            if live and traits.declassifies}
        # A gate-refused divide wakes at the next divide issue.
        self.div_gate = self.h_exec and self.has_divs
        self.width = config.width
        self.fbuf_cap = 2 * config.width

    # ---- compiled-only: module header and run() set-up ----------------

    def _prologue(self) -> None:
        s, traits, config = self.s, self.traits, self.config
        defense = self.defense_class
        live = [h for h in DefenseTraits._HOOKS if getattr(traits, h)]
        s('"""Specialized pipeline for one (config, defense, program shape).')
        s("")
        s("Generated by repro.uarch.compiled.generate_source; do not edit.")
        s("Any program of this shape runs here: run(core) reads it from the")
        s("decode columns CompiledCore computes for it (core._columns).")
        s(f"shape: {self.shape.label()}")
        s(f"config: {config.name} (width={self.width}, "
          f"model={config.speculation_model.value}, "
          f"buggy_squash={self.buggy})")
        s(f"defense: {defense.__module__}.{defense.__qualname__} "
          f"(live hooks: {', '.join(live) or 'none'})")
        s('"""')
        s("from collections import deque")
        s("from heapq import heappush, heappop")
        s("")
        s("from repro.uarch.uop import Uop, timing_observation")
        s("from repro.uarch.pipeline import hist_key as _hist")
        s("")
        s(f"_B2C = {_B2C_LITERAL}")
        s("")
        s("")
        s("def run(core):")
        s.indent()
        s("insts = core.program.instructions")
        s("# per-PC decode columns (kind = Op enum index), program length")
        s(", ".join(name for name, _ in _COLUMNS) + ", plen = core._columns")
        s("d = core.defense")
        s("dstats = d.stats")
        s("stats = core.stats")
        s("prf = core.prf")
        s("pvals = prf.values")
        s("pready = prf.ready")
        s("pprot = prf.prot")
        s("prf_freeq = prf._free")
        s("prf_free = prf.free")
        s("rmap = core.rename_map.mapping")
        s("arch_values = core.arch_values")
        s("robq = core.rob.entries")
        s("lq = core.lsq.loads")
        s("sq = core.lsq.stores")
        s("caches = core.caches")
        s("c_access = caches.access")
        s("mem_write = core.memory.write_word")
        s("mem_read = core.memory.read_word")
        s("t_word_prot = core.mem_tags.word_protected")
        s("t_clear = core.mem_tags.clear_word")
        if self.has_stores:
            s("t_set = core.mem_tags.set_word")
        s("bp = core.bp")
        s("bp_predict = bp.predict_next")
        s("bp_snapshot = bp.snapshot")
        s("bp_train = bp.train")
        s("bp_restore = bp.restore")
        s("pcs_append = core.committed_pcs.append")
        s("trace_append = core.timing_trace.append")
        s("acc_append = core.committed_accesses.append")
        s("waiters = core._waiters")
        s("wheel = core._wheel")
        s("wtimes = []  # min-heap over the live wheel keys")
        s("ready_q = core._ready_q")
        s("producer_of = core._producer_of")
        s("fbuf = core.fetch_buffer")
        s("maxc = core.max_cycles")
        s("limit = core.no_progress_limit")
        # Live defense hook bindings only.
        for local, hook, live in (
                ("d_on_rename", "on_rename", traits.on_rename),
                ("d_may_exec", "may_execute", self.h_exec),
                ("d_may_res", "may_resolve", traits.may_resolve),
                ("d_may_wake", "may_wakeup", self.wake_possible),
                ("d_on_loadexec", "on_load_executed",
                 traits.on_load_executed),
                ("d_on_commit", "on_commit", traits.on_commit),
                ("d_on_squash", "on_squash", traits.on_squash),
                ("d_exec_recheck", "execute_recheck_seq",
                 self.h_exec and traits.execute_recheck_seq),
                ("d_res_recheck", "resolve_recheck_seq",
                 self.heaps["rs"] and traits.resolve_recheck_seq),
                ("d_wake_recheck", "wakeup_recheck_seq",
                 self.wake_possible and traits.wakeup_recheck_seq)):
            if live:
                s(f"{local} = d.{hook}")
        s("")
        s("# hot scalars, written back on exit")
        for local, attr in _HOT_SCALARS:
            # rename_block is per-cycle state: every run starts it clear
            s(f"{local} = None" if local == "rename_block"
              else f"{local} = core.{attr}")
        s("")
        s("# engine-local state: wake structures, fast-forward")
        s("hseq = 0  # the ROB head's seq after this cycle's commits")
        s("disamb_blocker = None")
        if self.blockable:
            s("is_awake = []  # heap (seq, uop): blocked uops to ask")
        if self.res_possible:
            s("rs_awake = []  # heap (seq, uop): pending branches to ask")
        if self.wake_possible:
            s("wk_awake = []  # pending wakeups to ask")
        for stage, live in (("is", self.blockable),
                            ("rs", self.res_possible)):
            if live:
                s(f"{stage}_next = []  # woken behind the pass: ask next cycle")
                s(f"{stage}_cur = -1  # seq of the uop the pass is asking")
        for stage, heap in self.heaps.items():
            if heap:
                s(f"{stage}_wait = {{}}  # sleeper -> head seq that wakes it")
                s(f"{stage}_sleep = []  # heap (wake seq, seq, uop)")
            if self.events[stage]:
                s(f"{stage}_evt = []  # sleepers an event can wake")
        for stage, helper in self.transmits.items():
            s(f"{stage}_tx = d.{helper}")
        if self.transmits:
            s("ppub = prf.public")
            s("dcl = [None] * len(pvals)  # preg -> sleepers transmitting it")
            s("dreport = d.declassified = []  # drained after each commit")
        if self.div_gate:
            s("is_dgate = []  # gate-refused divides: wake at a divide issue")
        if self.has_divs:
            s("is_div = []  # divider-busy sleepers: wake at cycle divbusy")
        if self.has_stores:
            s("dis_wait = {}  # store -> loads stalled on its unknown address")
            s("dis_left = {}  # such a load -> stores it still waits for")
        if self.buggy and self.res_possible:
            s("pend_res = []  # unresolved pending branches (squash port)")
        s("ff_cycles = 0")
        s("ff_jumps = 0")
        s("")

    # ---- blocks several stages share ----------------------------------

    def _open_episode(self, stem: str) -> None:
        """The guarded ``Core._open_episode`` call for ``u``."""
        s = self.s
        s(f"if u.{stem}_block_cycle < 0:")
        s(f"    u.{stem}_block_cycle = cycle")
        s(f"    dstats['{stem}_interventions'] += 1")
        s(f"    stats['_open_{stem}'] += 1")
        s(f"    stats['_open_{stem}_sum'] += cycle")

    def _close_episode(self, stem: str, uop: str = "u") -> None:
        """The guarded ``Core._close_episode`` call for ``uop`` (a
        compiled run takes no tracer)."""
        s = self.s
        start = f"{stem[0]}b"
        s(f"if {uop}.{stem}_block_cycle >= 0:")
        s(f"    {start} = {uop}.{stem}_block_cycle")
        s(f"    {uop}.{stem}_block_cycle = -1")
        s(f"    dstats['{stem}_delay_cycles'] += cycle - {start}")
        s(f"    stats['_open_{stem}'] -= 1")
        s(f"    stats['_open_{stem}_sum'] -= {start}")

    def _wake(self, stage: str, uop: str) -> None:
        """Make ``uop`` awake in ``stage``.  A uop behind the position
        of the stage's pass was already asked this cycle: it waits for
        the next one."""
        s = self.s
        if stage == "wk":
            s(f"wk_awake.append({uop})")
            return
        s(f"if {uop}.seq > {stage}_cur:")
        s(f"    heappush({stage}_awake, ({uop}.seq, {uop}))")
        s("else:")
        s(f"    {stage}_next.append({uop})")

    def _wake_due(self, stage: str) -> None:
        """Wake the stage's sleepers whose head seq has come (outside
        any pass, so straight into the awake set)."""
        s = self.s
        s(f"while {stage}_sleep and {stage}_sleep[0][0] <= hseq:")
        s(f"    w, _, o = heappop({stage}_sleep)")
        s(f"    if {stage}_wait.get(o) == w:")
        s(f"        del {stage}_wait[o]")
        s("        wk_awake.append(o)" if stage == "wk"
          else f"        heappush({stage}_awake, (o.seq, o))")

    def _wake_list(self, stage: str, sleepers: str) -> None:
        """Wake every ``stage`` sleeper listed in ``sleepers`` (entries
        the sleeper set no longer holds are stale) and clear the list."""
        s = self.s
        s(f"for o in {sleepers}:")
        s(f"    if {stage}_wait.pop(o, None) is not None:")
        s.indent()
        s.indent()
        self._wake(stage, "o")
        s.dedent()
        s.dedent()
        s(f"{sleepers}.clear()")

    def _fire(self, event: str) -> None:
        """Wake every sleeper of every stage ``event`` can flip."""
        for stage, events in self.events.items():
            if event in events:
                self._wake_list(stage, f"{stage}_evt")

    def _sleep_gate(self, stage: str, recheck: Optional[str]) -> None:
        """Put ``u``, just refused by the stage's gate, to sleep until
        the head reaches the defense's hint (``recheck``, the bound
        ``*_recheck_seq`` local, or None when the class inherits it:
        the next commit), an event fires, or, for a declassifying
        defense, a register it transmits is declassified."""
        s = self.s
        if recheck is not None:
            s(f"w = {recheck}(u)")
            s("if w is None:")
            s("    w = hseq + 1")
        else:
            s("w = hseq + 1")
        s(f"{stage}_wait[u] = w")
        s(f"if w < {_NEVER_LIT}:")
        s(f"    heappush({stage}_sleep, (w, u.seq, u))")
        if self.events[stage]:
            s(f"{stage}_evt.append(u)")
        if stage in self.transmits:
            # Only a register still secret can be declassified.
            s(f"for p in {stage}_tx(u):")
            s("    if not ppub[p]:")
            s("        ws = dcl[p]")
            s("        if ws is None:")
            s("            dcl[p] = [u]")
            s("        else:")
            s("            ws.append(u)")

    def _wake_declassified(self) -> None:
        """Wake the gate sleepers on each register the defense's
        ``on_commit`` just declassified (outside any pass, so straight
        into the awake set; a uop sleeps in one stage at a time)."""
        s = self.s
        s("if dreport:")
        s.indent()
        s("for p in dreport:")
        s.indent()
        s("ws = dcl[p]")
        s("if ws is not None:")
        s.indent()
        s("dcl[p] = None")
        s("for o in ws:")
        s.indent()
        for i, stage in enumerate(self.transmits):
            s(f"{'if' if i == 0 else 'elif'} "
              f"{stage}_wait.pop(o, None) is not None:")
            s(f"    heappush({stage}_awake, (o.seq, o))")
        s.dedent()
        s.dedent()
        s.dedent()
        s("dreport.clear()")
        s.dedent()

    def _lsq_remove(self, is_load: str, is_store: str, pop: str) -> None:
        """LoadStoreQueue.remove, by popping the queue: the queues hold
        uops in rename order, so a committing load or store is its
        queue's head (``pop`` is ``popleft``), and a squash, youngest
        first, finds each at its queue's tail (``pop``)."""
        s = self.s
        s(f"if {is_load}:")
        s(f"    lq.{pop}()")
        if self.has_stores:
            s(f"if {is_store}:")
            s(f"    sq.{pop}()")

    def _prune_resolved_branches(self) -> None:
        s = self.s
        s("infl = core._inflight_branches")
        s("while infl and (infl[0].squashed or infl[0].resolved):")
        s("    infl.popleft()")

    def _rename_checks(self, n_dests: str) -> List[Tuple[str, str]]:
        """Core._rename_stage's structural checks on ``pc``, in order:
        (blocking condition, stall key)."""
        config = self.config
        checks = [(f"len(robq) >= {config.rob_size}", "stall_rob_full"),
                  (f"len(prf_freeq) < {n_dests}", "stall_prf_starved"),
                  (f"ISLD[pc] and len(lq) >= {config.lq_size}",
                   "stall_lsq_full")]
        if self.has_stores:
            checks.append((f"ISST[pc] and len(sq) >= {config.sq_size}",
                           "stall_lsq_full"))
        checks.append((f"iq_count >= {config.iq_size}", "stall_iq_full"))
        return checks

    def _rename_blocked(self) -> None:
        """Compiled only: the closure fast-forward asks whether rename
        could dispatch the fetch-buffer head."""
        s = self.s
        s("def rename_blocked(u):")
        s.indent()
        s("pc = u.pc")
        conds = [f"({cond})" if " and " in cond else cond
                 for cond, _ in self._rename_checks("ND[pc]")]
        s("return (" + "\n        or ".join(conds) + ")")
        s.dedent()
        s("")

    def _set_result(self) -> None:
        """Core._set_results for a one-destination op computing ``v``."""
        self.s("pvals[u.pdests[0][1]] = v")
        self.s("u.result_values = ((DESTS[pc][0], v),)")

    def _operands(self, imm: bool) -> None:
        """Bind ``a`` and ``b``: two register sources, or one and the
        immediate."""
        s = self.s
        if imm:
            s("a = pvals[u.psrcs[0][1]]")
            s("b = IMMM[pc]")
        else:
            s("ps = u.psrcs")
            s("a = pvals[ps[0][1]]")
            s("b = pvals[ps[1][1]]")

    # ---- Core methods, one emitter each --------------------------------

    def _do_wakeup(self) -> None:
        s = self.s
        s("def do_wakeup(u):")
        s.indent()
        if self.wake_possible:
            self._close_episode("wakeup")
        s("u.wakeup_pending = False")
        s("for _, preg in u.pdests:")
        s.indent()
        s("pready[preg] = True")
        s("ws = waiters.pop(preg, None)")
        s("if ws:")
        s("    for w in ws:")
        s("        if w.squashed or w.issued:")
        s("            continue")
        s("        w.unready_count -= 1")
        s("        if w.unready_count == 0:")
        s("            heappush(ready_q, (w.seq, w))")
        s.dedent()
        s.dedent()
        s("")

    def _try_execute(self, fail: Optional[str] = None) -> None:
        """MFENCE's head check, or else the divider check and the
        ``may_execute`` gate, each emitted once; then the per-kind
        dispatch for ``u`` (every kind the shape allows, in
        ``_DISPATCH`` order) and the shared issue tail.

        Emitted twice: as the ``try_exec`` closure the blocked-list
        retry calls (``fail`` None), and inline in the ready-queue loop,
        where ``fail`` is the refusal tail.
        """
        s = self.s
        closure = fail is None
        if closure:
            s("def try_exec(u):")
            s.indent()
            s("nonlocal divbusy, iq_count, disamb_blocker"
              + (", fblocked" if self.has_mfence else ""))
            fail, success = "return False", "return True"
        else:
            success = "issued += 1"
        s("pc = u.pc")
        s("k = K[pc]")
        if self.has_mfence:  # ungated, as in Core._try_execute
            s(f"if k == {KIND_OF[Op.MFENCE]}:  # MFENCE")
            s.indent()
            s("if not robq or robq[0].seq != u.seq:")
            s.indent()
            s("u.block_reason = 'mfence'")
            s(fail)
            s.dedent()
            s("latency = 1")
            # Release the frontend stall this fence imposed at fetch.
            s("fblocked = False")
            s.dedent()
            s("else:")
            s.indent()
        if self.has_divs:  # the divider is checked before the gate
            s("if cycle < divbusy and ISDIV[pc]:")
            s.indent()
            s("u.block_reason = 'div_busy'")
            s(fail)
            s.dedent()
        self._gate(fail)
        for i, op in enumerate(self.issue_ops):
            s(f"{'if' if i == 0 else 'elif'} k == {KIND_OF[op]}:  # {op.name}")
            s.indent()
            if op in DIV_OPS:
                self._execute_div(op)
            elif op in MEM_READ_OPS:
                self._execute_load(op, fail)
            elif op in MEM_WRITE_OPS:
                self._execute_store(op)
            else:
                self._execute_simple(op)
            s.dedent()
        s("else:  # pragma: no cover")
        s("    raise AssertionError('unhandled kind %d' % k)")
        if self.has_mfence:
            s.dedent()
        s("u.block_reason = None")
        s("u.issued = True")
        s("u.in_iq = False")
        s("iq_count -= 1")
        s("u.issue_cycle = cycle")
        s("stats['issued_uops'] += 1")
        # What this issue wakes: the loads stalled on this store's
        # address (younger: this pass), the gate-refused divides (the
        # divider is busy now).
        wakes = [(cond, emit) for live, cond, emit in (
            (self.has_stores, "ISST[pc]", self._wake_stalled_loads),
            (self.div_gate, "ISDIV[pc]",
             lambda: self._wake_list("is", "is_dgate"))) if live]
        for i, (cond, emit) in enumerate(wakes):
            s(f"{'if' if i == 0 else 'elif'} {cond}:")
            s.indent()
            emit()
            s.dedent()
        s("done = cycle + (latency if latency > 1 else 1)")
        s("bkt = wheel.get(done)")
        s("if bkt is None:")
        s("    wheel[done] = [u]")
        s("    heappush(wtimes, done)")
        s("else:")
        s("    bkt.append(u)")
        s(success)
        if closure:
            s.dedent()
            s("")

    def _wake_stalled_loads(self) -> None:
        s = self.s
        s("ws = dis_wait.pop(u, None)")
        s("if ws:")
        s("    for o in ws:")
        s("        n = dis_left[o] - 1")
        s("        if n:")
        s("            dis_left[o] = n")
        s("        else:")
        s("            del dis_left[o]")
        s("            heappush(is_awake, (o.seq, o))")

    def _gate(self, fail: str) -> None:
        """The ``may_execute`` gate; its episode closes at the allow,
        before any structural check."""
        if not self.h_exec:
            return
        s = self.s
        s("if not d_may_exec(u):")
        s.indent()
        self._open_episode("exec")
        s("u.block_reason = 'defense_execute'")
        s(fail)
        s.dedent()
        self._close_episode("exec")

    def _execute_div(self, op: Op) -> None:
        s = self.s
        base = self.config.div_base_latency
        self._operands(imm=False)
        s("if b == 0:")
        s(f"    v = {_M64}" if op is Op.DIV else "    v = a")
        s(f"    latency = {base}")
        s("else:")
        s("    q = a // b")
        s(f"    v = q & {_M64}" if op is Op.DIV else "    v = a - q * b")
        s(f"    latency = {base + 1} + q.bit_length() // 8")
        self._set_result()
        s("divbusy = cycle + latency")

    def _execute_load(self, op: Op, fail: str) -> None:
        """Address, LSQ disambiguation and store forwarding (mirroring
        LoadStoreQueue.forwarding_store), then the memory access."""
        s = self.s
        if op is Op.LOAD:
            s("ps = u.psrcs")
            s("if HASRB[pc]:")
            s(f"    addr = (pvals[ps[0][1]] + pvals[ps[1][1]] + IMM[pc])"
              f" & {_MADDR}")
            s("else:")
            s(f"    addr = (pvals[ps[0][1]] + IMM[pc]) & {_MADDR}")
        else:
            s("sp = pvals[u.psrcs[0][1]]")
            s(f"addr = sp & {_MADDR}")
        s("u.mem_addr = addr")
        s("best = None")
        s("stall_st = None")
        s("for st in sq:")
        s("    if st.seq >= u.seq:")
        s("        continue")
        s("    sma = st.mem_addr")
        s("    if sma is None:")
        s("        stall_st = st")
        s("        break")
        s("    delta = sma - addr")
        s("    if -8 < delta < 8:")
        s("        if sma != addr:")
        s("            stall_st = st")
        s("            break")
        s("        if best is None or st.seq > best.seq:")
        s("            best = st")
        s("if stall_st is not None:")
        s.indent()
        s("disamb_blocker = stall_st")
        s("u.block_reason = 'disambiguation'")
        s(fail)
        s.dedent()
        s("if best is not None:")
        s("    value = best.store_data")
        s(f"    latency = {self.config.store_forward_latency}")
        s("    u.lsq_prot = best.lsq_prot")
        s("    u.forwarded_from = best")
        s("    u.mem_level = 'sq'")
        s("else:")
        s("    latency = c_access(addr)")
        s("    value = mem_read(addr)")
        s("    u.lsq_prot = t_word_prot(addr)")
        s("    u.mem_level = caches.last_level")
        if op is Op.LOAD:
            s(f"v = value & {_M64}")
            self._set_result()
        elif op is Op.POP:
            s(f"v2 = (sp + 8) & {_M64}")
            s("rd = DESTS[pc][0]")
            s(f"v1 = v2 if rd == {SP} else value & {_M64}")
            s("pd = u.pdests")
            s("pvals[pd[0][1]] = v1")
            s("pvals[pd[1][1]] = v2")
            s(f"u.result_values = ((rd, v1), ({SP}, v2))")
        else:  # RET
            s(f"v2 = (sp + 8) & {_M64}")
            s("pvals[u.pdests[0][1]] = v2")
            s(f"u.result_values = (({SP}, v2),)")
            s("u.taken = True")
            s("u.actual_next = value")
        if self.traits.on_load_executed:
            s("d_on_loadexec(u)")

    def _execute_store(self, op: Op) -> None:
        s = self.s
        if op is Op.STORE:
            s("ps = u.psrcs")
            s("if HASRB[pc]:")
            s(f"    addr = (pvals[ps[0][1]] + pvals[ps[1][1]] + IMM[pc])"
              f" & {_MADDR}")
            s("    dp = ps[2][1]")
            s("else:")
            s(f"    addr = (pvals[ps[0][1]] + IMM[pc]) & {_MADDR}")
            s("    dp = ps[1][1]")
            s("u.mem_addr = addr")
            s("u.store_data = pvals[dp]")
            s("u.lsq_prot = pprot[dp]")
        elif op is Op.PUSH:
            s("ps = u.psrcs")
            s("sp = pvals[ps[0][1]]")
            s(f"nsp = (sp - 8) & {_M64}")
            s(f"addr = nsp & {_MADDR}")
            s("u.mem_addr = addr")
            s("dp = ps[1][1]")
            s("u.store_data = pvals[dp]")
            s("u.lsq_prot = pprot[dp]")
            s("pvals[u.pdests[0][1]] = nsp")
            s(f"u.result_values = (({SP}, nsp),)")
        else:  # CALL pushes its (public, constant) return address
            s("sp = pvals[u.psrcs[0][1]]")
            s(f"nsp = (sp - 8) & {_M64}")
            s(f"addr = nsp & {_MADDR}")
            s("u.mem_addr = addr")
            s("u.store_data = pc + 1")
            s("u.lsq_prot = PROT[pc]")
            s("pvals[u.pdests[0][1]] = nsp")
            s(f"u.result_values = (({SP}, nsp),)")
            s("u.taken = True")
            s("u.actual_next = TGT[pc]")
        s("c_access(addr)")
        s("latency = 1")

    def _execute_simple(self, op: Op) -> None:
        s = self.s
        if op is Op.MOVI:
            s("v = IMMM[pc]")
            self._set_result()
        elif op is Op.MOV:
            s("v = pvals[u.psrcs[0][1]]")
            self._set_result()
        elif op in FLAG_WRITERS:
            self._operands(imm=op is Op.CMPI)
            if op is Op.TEST:
                s("t = a & b")
                s("fl = 1 if t == 0 else 0")
                s(f"if t >= {_SBIT}:")
                s("    fl |= 2")
            else:
                s("fl = 1 if a == b else 0")
                s(f"if (a ^ {_SBIT}) < (b ^ {_SBIT}):")
                s("    fl |= 2")
                s("if a < b:")
                s("    fl |= 4")
            s("pvals[u.pdests[0][1]] = fl")
            s(f"u.result_values = (({FLAGS}, fl),)")
        elif op is Op.BR:
            s("fl = pvals[u.psrcs[0][1]]")
            s("c = CONDC[pc]")
            for cond, cc in _COND_CODE.items():
                s(f"{'if' if cc == 0 else 'elif'} c == {cc}:  # {cond.name}")
                s(f"    tk = {_COND_EXPR[cc]}")
            s("u.taken = tk")
            s("u.actual_next = TGT[pc] if tk else pc + 1")
        elif op is Op.JMPI:
            s("u.taken = True")
            s("u.actual_next = pvals[u.psrcs[0][1]]")
        else:  # register or immediate ALU op
            self._operands(imm=op in IMM_ALU_OPS)
            s(f"v = {_ALU_EXPR[op]}")
            self._set_result()
        slow = op in (Op.MUL, Op.MULI)
        config = self.config
        s(f"latency = {config.mul_latency if slow else config.alu_latency}")

    def _attempt_resolution(self) -> None:
        """As the ``attempt_res`` closure."""
        s = self.s
        s("def attempt_res(u):")
        s.indent()
        s("nonlocal iq_count, fpc, fstall, fblocked")
        if self.traits.may_resolve:
            s("if not d_may_res(u):")
            s.indent()
            self._open_episode("resolve")
            s("u.block_reason = 'defense_resolution'")
            self._mark_pending()
            self._sleep_gate("rs", "d_res_recheck"
                             if self.traits.resolve_recheck_seq else None)
            s("return")
            s.dedent()
            # Close before the buggy-squash-port check: bug-port hold
            # time is never charged to the defense.
            self._close_episode("resolve")
        if self.buggy:
            # Core._buggy_blocked over the pending branches still
            # unresolved: those the reference's rebuilt list holds.
            s("for o in pend_res:")
            s("    if (o.seq < u.seq and o.resolution_pending "
              "and not o.squashed")
            s("            and o.executed "
              "and o.actual_next != o.predicted_next):")
            s.indent()
            s.indent()
            s("u.block_reason = 'squash_notify'")
            self._mark_pending()
            self._wake("rs", "u")
            s("return")
            s.dedent()
            s.dedent()
        s("dep = stats['_spec_depth']")
        s("stats[_hist('spec_depth', dep)] += 1")
        s("stats['_spec_depth'] = dep - 1")
        s("u.block_reason = None")
        s("u.resolved = True")
        s("u.resolution_pending = False")
        self._prune_resolved_branches()
        self._fire("resolve")
        s("bp_train(u.pc, u.inst, True if u.taken else False, "
          "u.actual_next, u.bp_index)")
        s("if u.actual_next != u.predicted_next:")
        s.indent()
        s("u.mispredicted = True")
        self._squash_after()
        s.dedent()
        s.dedent()
        s("")

    def _mark_pending(self) -> None:
        """Flag ``u`` pending resolution, entering it in the squash
        port's list the first time."""
        s = self.s
        if self.buggy:
            s("if not u.resolution_pending:")
            s("    pend_res.append(u)")
        s("u.resolution_pending = True")

    def _squash_after(self) -> None:
        """Inline in ``attempt_res``, for the mispredicted branch ``u``."""
        s, traits = self.s, self.traits
        s("# squash everything younger (youngest-first rollback)")
        s("stats['squashes'] += 1")
        s("stats[SQK[u.pc]] += 1")
        s("bseq = u.seq")
        s("n_sq = 0")
        s("while robq and robq[-1].seq > bseq:")
        s.indent()
        s("y = robq.pop()")
        s("n_sq += 1")
        s("y.squashed = True")
        s("y.squash_cycle = cycle")
        s("if ISBR[y.pc] and not y.resolved:")
        s("    stats['_spec_depth'] -= 1")
        for stem, live in (("exec", self.h_exec),
                           ("resolve", traits.may_resolve),
                           ("wakeup", self.wake_possible)):
            if live:
                self._close_episode(stem, "y")
        s("for ra, ro in reversed(y.old_pdests):  # pop sp renames SP twice")
        s("    rmap[ra] = ro")
        s("for _, pg in y.pdests:")
        s("    prf_free(pg)")
        self._lsq_remove("y.is_load", "y.is_store", "pop")
        s("if y.in_iq:")
        s("    y.in_iq = False")
        s("    iq_count -= 1")
        if traits.on_squash:
            s("d_on_squash(y)")
        s.dedent()
        s("stats['squashed_uops'] += n_sq")
        s("stats[_hist('squash_cascade', n_sq)] += 1")
        s("for _, fu in fbuf:")
        s("    fu.squashed = True")
        s("    fu.squash_cycle = cycle")
        s("fbuf.clear()")
        s("core._inflight_branches = deque(")
        s("    b for b in core._inflight_branches if not b.squashed)")
        self._prune_resolved_branches()
        s("snap = u.bp_snapshot")
        s("if snap is not None:")
        s("    bp_restore(snap)")
        s(f"    if K[u.pc] == {KIND_OF[Op.BR]}:  # BR")
        s("        if (u.predicted_next != u.pc + 1) != "
          "(True if u.taken else False):")
        s("            bp.direction.history ^= 1")
        s("fpc = u.actual_next")
        s(f"fstall = cycle + {self.config.redirect_penalty}")
        s("fblocked = False")

    def _classify_stall(self) -> None:
        """With Core._uop_stall and _operand_stall, as the ``uop_stall``
        and ``classify`` closures."""
        s = self.s
        s("def uop_stall(u):")
        s.indent()
        s("if u.issued:")
        if self.has_divs:
            s("    if ISDIV[u.pc]:")
            s("        return 'stall_div_busy'")
        s("    ml = u.mem_level")
        s("    if ml == 'l2' or ml == 'l3' or ml == 'mem':")
        s("        return 'stall_cache_miss'")
        s("    return 'stall_exec_latency'")
        s("br = u.block_reason")
        s("if br is not None:")
        s("    return _B2C.get(br)")
        s("return None")
        s.dedent()
        s("")
        s("def classify(head):")
        s.indent()
        s("if head is None:")
        s("    if cycle < fstall:")
        s("        return 'stall_fetch_redirect'")
        s("    if not fbuf and not 0 <= fpc < plen:")
        s("        return 'stall_no_progress'")
        s("    return 'stall_frontend'")
        s("if head.is_branch and head.completed and not head.resolved:")
        s("    return _B2C.get(head.block_reason, 'stall_defense_resolution')")
        s("if head.issued:")
        s("    return uop_stall(head) or 'stall_exec_latency'")
        s("if head.unready_count > 0:")
        s("    for _, pg in head.psrcs:")
        s("        if pready[pg]:")
        s("            continue")
        s("        producer = producer_of.get(pg)")
        s("        if producer is None or producer.squashed:")
        s("            continue")
        s("        if producer.wakeup_pending:")
        s("            return 'stall_defense_wakeup'")
        s("        cause = uop_stall(producer)")
        s("        if cause is not None:")
        s("            return cause")
        s("    if rename_block is not None:")
        s("        return rename_block")
        s("    return 'stall_dependency'")
        s("return uop_stall(head) or 'stall_issue_bw'")
        s.dedent()
        s("")

    def _commit_stage(self) -> None:
        """With Core._commit_uop inline: commit records the committed
        streams ``CoreResult`` reports, and keeps no uop."""
        s = self.s
        s("# ---- commit ----")
        s("committed_n = 0")
        s("cause = None")
        s(f"for _ in range({self.width}):")
        s.indent()
        s("if robq:")
        s("    head = robq[0]")
        s("    if not head.completed or (head.is_branch and not head.resolved):")
        s("        cause = classify(head)")
        s("        break")
        s("else:")
        s("    cause = classify(None)")
        s("    break")
        s("last_commit = cycle")
        s("hpc = head.pc")
        s(f"if K[hpc] == {KIND_OF[Op.HALT]}:  # HALT")
        s("    head.committed = True")
        s("    head.commit_cycle = cycle")
        s("    robq.popleft()")
        s("    halted = True")
        s("    halt_reason = 'halt'")
        s("    committed_n += 1")
        s("    break")
        if self.has_stores:
            s("if ISST[hpc]:")
            s("    ma = head.mem_addr")
            s("    mem_write(ma, head.store_data)")
            s("    c_access(ma)")
            s("    t_set(ma, True if head.lsq_prot else False)")
        s("if ISLD[hpc] and not PROT[hpc]:")
        s("    t_clear(head.mem_addr)")
        s("for areg, value in head.result_values:")
        s("    arch_values[areg] = value")
        s("for _, old_pg in head.old_pdests:")
        s("    prf_free(old_pg)")
        s("if ISBR[hpc]:")
        s("    stats['committed_branches'] += 1")
        s("    if head.mispredicted:")
        s("        stats['mispredicted_branches'] += 1")
        if self.traits.on_commit:
            s("d_on_commit(head)")
        if self.transmits:
            self._wake_declassified()
        s("head.committed = True")
        s("head.commit_cycle = cycle")
        s("pcs_append(hpc)")
        s("trace_append(timing_observation(head))")
        s("ma = head.mem_addr")
        s("if ma is not None:")
        s("    acc_append((hpc, ma))")
        s("robq.popleft()")
        self._lsq_remove("ISLD[hpc]", "ISST[hpc]", "popleft")
        s("if ISBR[hpc]:")
        s.indent()
        self._prune_resolved_branches()
        s.dedent()
        s("next_pc = head.actual_next if ISCTRL[hpc] else hpc + 1")
        s("if not 0 <= next_pc < plen:")
        s("    halted = True")
        s("    halt_reason = 'off_end' if next_pc == plen else 'bad_pc'")
        s("committed_n += 1")
        s("if halted:")
        s("    break")
        s.dedent()  # commit for
        s("ncommit += committed_n")
        s("")

    def _complete_stage(self) -> None:
        s = self.s
        s("# ---- complete / wakeup / resolve ----")
        s("bkt = wheel.pop(cycle, None)")
        s("if bkt is not None:")
        s.indent()
        s("for u in bkt:")
        s.indent()
        s("if u.squashed:")
        s("    continue")
        s("u.executed = True")
        s("u.complete_cycle = cycle")
        s("u.completed = True")
        s("if u.is_branch:")
        s("    attempt_res(u)")
        s("if u.pdests:")
        s.indent()
        if self.wake_possible:
            s("if d_may_wake(u):")
            s("    do_wakeup(u)")
            s("else:")
            s.indent()
            self._open_episode("wakeup")
            s("u.wakeup_pending = True")
            self._sleep_wakeup()
            s.dedent()
        else:
            s("do_wakeup(u)")
        s.dedent()
        s.dedent()
        s.dedent()
        s("")

    def _sleep_wakeup(self) -> None:
        self._sleep_gate("wk", "d_wake_recheck"
                         if self.traits.wakeup_recheck_seq else None)

    def _retry_pending(self) -> None:
        """The pending-resolution and pending-wakeup retries: each asks
        its awake uops only."""
        s = self.s
        if self.res_possible:
            s("# ---- pending-resolution retry ----")
            if self.heaps["rs"]:
                self._wake_due("rs")
            s("if rs_awake:")
            s.indent()
            if self.buggy:
                s("pend_res[:] = [o for o in pend_res")
                s("               if o.resolution_pending "
                  "and not o.squashed]")
            s("while rs_awake:")
            s("    u = heappop(rs_awake)[1]")
            s("    if u.squashed or u.resolved:")
            s("        continue")
            s("    rs_cur = u.seq")
            s("    attempt_res(u)")
            s("rs_cur = -1")
            s("for o in rs_next:")
            s("    heappush(rs_awake, (o.seq, o))")
            s("rs_next.clear()")
            s.dedent()
            s("")
        if self.wake_possible:
            s("# ---- pending-wakeup retry ----")
            self._wake_due("wk")
            s("if wk_awake:")
            s.indent()
            s("pending = wk_awake")
            s("wk_awake = []")
            s("for u in pending:")
            s.indent()
            s("if u.squashed:")
            s("    continue")
            s("if d_may_wake(u):")
            s("    do_wakeup(u)")
            s("else:")
            s.indent()
            self._sleep_wakeup()
            s.dedent()
            s.dedent()
            s.dedent()
            s("")

    def _block(self) -> None:
        """Compiled only: the ``block`` closure puts a uop ``try_exec``
        refused to sleep on what can let it issue."""
        s = self.s
        s("def block(u):")
        s.indent()
        s("r = u.block_reason")
        chain = []
        if self.h_exec:
            chain.append(("r == 'defense_execute'", self._block_gate))
        if self.has_stores:
            chain.append(("r == 'disambiguation'", self._block_disamb))
        if self.has_mfence:
            chain.append(("r == 'mfence'", self._block_mfence))
        for i, (cond, emit) in enumerate(chain):
            s(f"{'if' if i == 0 else 'elif'} {cond}:")
            s.indent()
            emit()
            s.dedent()
        if self.has_divs:
            s("else:  # div_busy" if chain else "# div_busy")
            s("    is_div.append(u)" if chain else "is_div.append(u)")
        s.dedent()
        s("")

    def _block_gate(self) -> None:
        self._sleep_gate("is", "d_exec_recheck"
                         if self.traits.execute_recheck_seq else None)
        if self.div_gate:
            self.s("if ISDIV[u.pc]:")
            self.s("    is_dgate.append(u)")

    def _block_disamb(self) -> None:
        """Until every older store without an address has issued (the
        load cannot pass any of them before), or, when the blocking
        store's address partly overlaps, until that store commits."""
        s = self.s
        s("st = disamb_blocker")
        s("if st.mem_addr is None:")
        s.indent()
        s("n = 0")
        s("for o in sq:")
        s("    if o.seq >= u.seq:")
        s("        break")
        s("    if o.mem_addr is None:")
        s("        n += 1")
        s("        ws = dis_wait.get(o)")
        s("        if ws is None:")
        s("            dis_wait[o] = [u]")
        s("        else:")
        s("            ws.append(u)")
        s("dis_left[u] = n")
        s.dedent()
        s("else:")
        s("    is_wait[u] = st.seq + 1")
        s("    heappush(is_sleep, (st.seq + 1, u.seq, u))")

    def _block_mfence(self) -> None:
        """Until the fence is the ROB head."""
        self.s("is_wait[u] = u.seq")
        self.s("heappush(is_sleep, (u.seq, u.seq, u))")

    def _issue_stage(self) -> None:
        """The blocked pass over the awake uops, oldest first, then the
        ready queue."""
        s = self.s
        s("# ---- issue ----")
        s("issued = 0")
        if self.blockable:
            if self.heaps["is"]:
                self._wake_due("is")
            if self.has_divs:
                s("if is_div and cycle >= divbusy:")
                s("    for o in is_div:")
                s("        heappush(is_awake, (o.seq, o))")
                s("    is_div.clear()")
            s(f"while is_awake and issued < {self.width}:")
            s("    u = heappop(is_awake)[1]")
            s("    if u.squashed or u.issued:")
            s("        continue")
            s("    is_cur = u.seq")
            s("    if try_exec(u):")
            s("        issued += 1")
            s("    else:")
            s("        block(u)")
            s("is_cur = -1")
            s("if is_next:")
            s("    for o in is_next:")
            s("        heappush(is_awake, (o.seq, o))")
            s("    is_next.clear()")
        s(f"while issued < {self.width} and ready_q:")
        s.indent()
        s("u = heappop(ready_q)[1]")
        s("if u.squashed or u.issued:")
        s("    continue")
        if self.blockable:
            self._try_execute("block(u)\ncontinue")
        else:  # nothing of this shape can block
            self._try_execute("continue")
        s.dedent()
        s("")

    def _rename_stage(self) -> None:
        s, config = self.s, self.config
        s("# ---- rename / dispatch ----")
        s("rename_block = None")
        s(f"for _ in range({self.width}):")
        s.indent()
        s("if not fbuf:")
        s("    break")
        s("entry = fbuf[0]")
        s("if entry[0] > cycle:")
        s("    break")
        s("u = entry[1]")
        s("pc = u.pc")
        for cond, stall in self._rename_checks("n_d"):
            if stall == "stall_prf_starved":
                s("n_d = ND[pc]")
            s(f"if {cond}:")
            s(f"    rename_block = '{stall}'")
            s("    break")
        s("del fbuf[0]")
        s("u.rename_cycle = cycle")
        self._rename_sources()
        self._rename_dests()
        if self.traits.on_rename:
            s("d_on_rename(u)")
        s("robq.append(u)")
        s("if ISLD[pc]:")
        s("    lq.append(u)")
        if self.has_stores:
            s("if ISST[pc]:")
            s("    sq.append(u)")
        s("if ISBR[pc]:")
        s("    core._inflight_branches.append(u)")
        s("    stats['_spec_depth'] += 1")
        s("if RDONE[pc]:  # NOP, HALT and JMP complete at rename")
        s("    u.executed = True")
        s("    u.completed = True")
        s("    u.resolved = True")
        # Of the three, only JMP redirects.
        s("    u.actual_next = TGT[pc] if ISCTRL[pc] else pc + 1")
        s("    u.complete_cycle = cycle")
        s("    continue")
        s("u.in_iq = True")
        s("iq_count += 1")
        # Over the distinct physical sources: a repeated operand's
        # register equals an earlier operand's.
        s("n_un = 0")
        for i in range(3):
            s(f"if ns > {i}:" if i else "if ns:")
            s.indent()
            fresh = "".join(f"p{i} != p{j} and " for j in range(i))
            s(f"if {fresh}not pready[p{i}]:")
            s("    n_un += 1")
            s(f"    ws = waiters.get(p{i})")
            s("    if ws is None:")
            s(f"        waiters[p{i}] = [u]")
            s("    else:")
            s("        ws.append(u)")
        for _ in range(3):
            s.dedent()
        s("u.unready_count = n_un")
        s("if not n_un:")
        s("    heappush(ready_q, (u.seq, u))")
        s.dedent()  # rename for
        s("")

    def _rename_sources(self) -> None:
        """Bind ``u.psrcs``, one straight-line block per source arity
        (``ns``; none for arity 0, whose ``psrcs`` is empty): source
        ``a<i>`` is read from the rename map into ``p<i>`` before any
        destination is renamed.  Arity 1 and 2 are tested first: they
        are 95% of the sim-panel's renamed uops."""
        s = self.s
        s("ns = NS[pc]")
        for n, cond in ((1, "ns == 1"), (2, "ns == 2"), (3, "ns")):
            s(f"{'el' if n > 1 else ''}if {cond}:")
            s.indent()
            one = "," if n == 1 else ""
            s(f"{', '.join(f'a{i}' for i in range(n))}{one} = SRCS[pc]")
            for i in range(n):
                s(f"p{i} = rmap[a{i}]")
            pairs = ", ".join(f"(a{i}, p{i})" for i in range(n))
            s(f"u.psrcs = ({pairs}{one})")
            s.dedent()

    def _rename_dests(self) -> None:
        """Rename ``n_d`` destinations, one straight-line block for one
        and one for two (POP: ``rd``, then SP).  The second reads the
        rename map after the first writes it, as the loop in
        ``Core._rename_stage`` does: ``pop sp`` keeps its first new
        register as the second's old mapping.  Destination ``d<i>`` gets
        the new register ``g<i>`` and had the old one ``o<i>``."""
        s = self.s
        for n in (1, 2):
            s("if n_d == 1:" if n == 1 else "elif n_d:")
            s.indent()
            one = "," if n == 1 else ""
            s(f"{', '.join(f'd{i}' for i in range(n))}{one} = DESTS[pc]")
            if n > 1:
                s("pr = PROT[pc]")
            for i in range(n):
                s(f"g{i} = prf_freeq.popleft()")
                s(f"o{i} = rmap[d{i}]")
                s(f"rmap[d{i}] = g{i}")
                s(f"pready[g{i}] = False")
                s(f"pprot[g{i}] = {'pr' if n > 1 else 'PROT[pc]'}")
                if self.transmits:
                    s(f"dcl[g{i}] = None  # its sleepers read a dead value")
                s(f"producer_of[g{i}] = u")
            for field, reg in (("pdests", "g"), ("old_pdests", "o")):
                pairs = ", ".join(f"(d{i}, {reg}{i})" for i in range(n))
                s(f"u.{field} = ({pairs}{one})")
            s.dedent()

    def _fetch_stage(self) -> None:
        s = self.s
        s("# ---- fetch ----")
        s("if not fblocked and cycle >= fstall:")
        s.indent()
        s(f"for _ in range({self.width}):")
        s.indent()
        s(f"if len(fbuf) >= {self.fbuf_cap}:")
        s("    break")
        s("pc = fpc")
        s("if not 0 <= pc < plen:")
        s("    break")
        s("inst = insts[pc]")
        # predict_next is pure ``pc + 1`` for every non-control op (no
        # predictor state mutates), so the call is gated on the decode
        # column and only control PCs pay for it.
        s("if ISCTRL[pc]:")
        s("    pred = bp_predict(pc, inst)")
        s("    u = Uop(seqc, pc, inst, pred, cycle)")
        s("    u.bp_snapshot = bp_snapshot()")
        s(f"    if K[pc] == {KIND_OF[Op.BR]}:  # BR")
        s("        u.bp_index = bp.last_br_index")
        s("else:")
        s("    pred = pc + 1")
        s("    u = Uop(seqc, pc, inst, pred, cycle)")
        s("seqc += 1")
        s(f"fbuf.append((cycle + {self.config.frontend_delay}, u))")
        s(f"if K[pc] == {KIND_OF[Op.HALT]}:  # HALT")
        s("    fblocked = True")
        s("    break")
        if self.has_mfence:
            # Serializing fence: the frontend stops until the fence
            # executes at the ROB head.
            s(f"if K[pc] == {KIND_OF[Op.MFENCE]}:  # MFENCE")
            s("    fblocked = True")
            s("    fpc = pred")
            s("    break")
        s("fpc = pred")
        s("if pred != pc + 1:")
        s("    break  # one taken control transfer per cycle")
        s.dedent()
        s.dedent()

    # ---- compiled-only: fast-forward and epilogue ----------------------

    def _fast_forward(self) -> None:
        """Jump ``cycle`` over provably idle cycles, charging each
        skipped cycle's ``width`` stall slots to its one cause.  Idle
        means no uop is awake and none is due at the (unmoving) head."""
        s = self.s
        awake = [f"{stage}_awake" for stage, live in (
            ("is", self.blockable), ("rs", self.res_possible),
            ("wk", self.wake_possible)) if live]
        s("# ---- fast-forward over provably idle cycles ----")
        s("if not halted:")
        s.indent()
        s("head = robq[0] if robq else None")
        s("if ((head is None or not head.completed")
        s("        or (head.is_branch and not head.resolved))")
        s("        and not " + " and not ".join(["ready_q"] + awake) + "):")
        s.indent()
        s("ok = True")
        if any(self.heaps.values()):
            s(f"hs = head.seq if head is not None else {_NEVER_LIT}")
        for stage, heap in self.heaps.items():
            if heap:
                s(f"if {stage}_sleep and {stage}_sleep[0][0] <= hs:")
                s("    ok = False")
        s(f"if (not fblocked and len(fbuf) < {self.fbuf_cap}")
        s("        and 0 <= fpc < plen and fstall <= cycle):")
        s("    ok = False  # fetch would deliver next cycle")
        s("if ok:")
        s.indent()
        s("target = maxc")
        s("if limit is not None:")
        s("    t = last_commit + limit")
        s("    if t < target:")
        s("        target = t")
        s("if cycle < fstall < target:")
        s("    target = fstall")
        if self.has_divs:
            s("if is_div and divbusy < target:")
            s("    target = divbusy")
        s("while wtimes and wtimes[0] not in wheel:")
        s("    heappop(wtimes)")
        s("if wtimes:")
        s("    wt = wtimes[0]")
        s("    if wt <= cycle:")
        s("        ok = False  # a completion is due")
        s("    elif wt < target:")
        s("        target = wt")
        s("if ok and fbuf:")
        s("    entry = fbuf[0]")
        s("    if not rename_blocked(entry[1]):")
        s("        if entry[0] <= cycle:")
        s("            ok = False  # rename would dispatch")
        s("        elif entry[0] < target:")
        s("            target = entry[0]")
        s("if ok and target > cycle:")
        s("    span = target - cycle")
        s(f"    stats[classify(head)] += {self.width} * span")
        s("    cycle = target")
        s("    ff_cycles += span")
        s("    ff_jumps += 1")
        s.dedent()  # if ok
        s.dedent()  # if idle-shaped
        s.dedent()  # if not halted

    def _epilogue(self) -> None:
        s = self.s
        s("")
        s("if not halted:")
        s("    if (limit is not None and cycle < maxc")
        s("            and cycle - last_commit >= limit):")
        s("        halt_reason = 'no_progress'")
        s("    else:")
        s("        halt_reason = 'timeout'")
        s("")
        for local, attr in _HOT_SCALARS:
            s(f"core.{attr} = {local}")
        s("return ff_cycles, ff_jumps")
        s.dedent()


def generate_source(program, config: CoreConfig, defense) -> str:
    """Generate the specialized module source for the triple's
    (shape, config, defense class) key.

    Deterministic in (program shape, config, defense class): no
    timestamps, hashes, or environment state are embedded, so
    generating twice, for two programs of one shape, or for two
    instances of one defense class gives identical source
    (``test_generated_source_is_deterministic``).
    """
    g = _Codegen(program_shape(program), config, type(defense))
    s = g.s
    g._prologue()
    # Closures: the Core methods more than one stage reaches.
    g._do_wakeup()
    if g.blockable:
        g._try_execute()
        g._block()
    g._attempt_resolution()
    g._classify_stall()
    g._rename_blocked()
    # Core.run's loop; its body is Core.step.
    s("while not halted and cycle < maxc:")
    s.indent()
    s("if limit is not None and cycle - last_commit >= limit:")
    s("    break")
    s("")
    g._commit_stage()
    s("if not halted:")
    s.indent()
    if any(g.heaps.values()):
        s(f"hseq = robq[0].seq if robq else {_NEVER_LIT}")
    g._complete_stage()
    g._retry_pending()
    g._issue_stage()
    g._rename_stage()
    g._fetch_stage()
    s.dedent()
    s("")
    s(f"shortfall = {g.width} - committed_n")
    s("if shortfall > 0:")
    s("    if halted:")
    s("        cause = 'stall_drain'")
    s("    stats[cause if cause is not None else 'stall_frontend'] "
      "+= shortfall")
    s("cycle += 1")
    s("")
    g._fast_forward()
    s.dedent()  # while
    g._epilogue()
    return s.source()


# =====================================================================
# The compiled core
# =====================================================================


class CompiledCore(Core):
    """A :class:`Core` whose run loop is the generated specialization.

    Shares ``__init__`` state construction and ``_result()`` with the
    interpreter, so the :class:`CoreResult` contract is identical by
    construction everywhere outside the cycle loop — and the
    differential harness (reference vs compiled) proves the loop
    itself.
    """

    def __init__(
        self,
        program,
        defense=None,
        config: CoreConfig = P_CORE,
        memory=None,
        regs=None,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        no_progress_limit: Optional[int] = DEFAULT_NO_PROGRESS_LIMIT,
    ) -> None:
        super().__init__(program, defense, config, memory, regs,
                         max_cycles, no_progress_limit=no_progress_limit)
        self._compiled_run = compile_step(self.program, config,
                                          self.defense)
        #: What the shared ``run`` reads of this core's program.
        self._columns = decode_columns(self.program)

    def run(self) -> CoreResult:
        host_start = time.perf_counter()
        ff_cycles, ff_jumps = self._compiled_run(self)
        elapsed = time.perf_counter() - host_start
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("uarch.compiled_runs").inc()
            if ff_jumps:
                metrics.counter("uarch.fast_forward_cycles").inc(ff_cycles)
                metrics.counter("uarch.fast_forward_jumps").inc(ff_jumps)
            if elapsed > 0:
                metrics.gauge("uarch.compiled_cycles_per_sec").set(
                    self.cycle / elapsed)
        return self._finish(elapsed)
