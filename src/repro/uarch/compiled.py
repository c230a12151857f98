"""The compiled simulation backend: specialize, generate, ``exec``.

:class:`~repro.uarch.pipeline.Core` is a general interpreter — every
cycle it re-dispatches on opcode enums, re-reads configuration
attributes, and re-asks the defense questions whose answers were fixed
the moment the (program, core config, defense) triple was chosen.  This
module partial-evaluates that triple away: :func:`generate_source`
emits one flat ``run(core)`` function in which

* every ``CoreConfig`` scalar (width, latencies, queue capacities,
  speculation model, the squash-notification bug) is a literal,
* per-PC decode metadata (opcode kind, operand positions, immediates,
  targets, PROT prefixes) lives in module-level tuples indexed by PC,
  and the execute dispatch is an ``if``/``elif`` chain over only the
  opcodes the program actually contains — dead branches are elided,
* defense hooks the mechanism does not override are dropped entirely,
  along with the machinery that only exists to service them (a defense
  that never refuses ``may_resolve`` on a core without the buggy
  squash port cannot populate the pending-resolution list, so neither
  the retry loop nor its fast-forward cache check is emitted),
* all hot scalars (cycle, sequence counter, event counters, retry-cache
  fields) are function locals instead of attribute loads.

It is also the only engine with fast paths; the reference
:class:`~repro.uarch.pipeline.Core` has none:

* **Refusal caches.**  The blocked-issue, pending-resolution and
  pending-wakeup retry loops each remember an all-refused pass.  A
  cache snapshots the event counters (squash, resolution, divider,
  store and load issue) whose events could flip its answers, plus a
  *barrier*: the smallest ROB-head seq at which any cached refusal
  could flip, from the defenses' ``*_recheck_seq`` hints and the
  structural thresholds (an MFENCE waits for its own seq, a
  disambiguation stall for its blocking store's).  Commits bump no
  counter; their only effect on the gates is the monotone advance of
  the head seq, which the barrier bounds.  While the snapshot holds,
  the loop replays its counter side effects instead of re-asking the
  same pure questions.
* **Fast-forward.**  When a cycle could commit, complete, resolve,
  wake, issue, rename or fetch nothing, and every retry cache holds,
  ``cycle`` jumps to the next candidate event (completion-wheel heap,
  redirect end, divider free, rename-ready, the no-progress and
  ``max_cycles`` limits).  Each skipped cycle is charged exactly what
  the per-cycle loop would have charged: ``width`` stall slots to one
  cause plus the cached refusal counters, so ``sum(stall_*) == width *
  cycles - committed_uops`` still holds.

The generated function mutates the same ``Core`` state objects (PRF,
ROB, LSQ, caches, branch predictor, defense) the interpreter does and
writes the shared scalars back on exit; the caches, event counters,
wheel heap and fast-forward state are its own locals, and it returns
the fast-forward telemetry.  ``Core._result()`` — and therefore the
bit-identical :class:`CoreResult` contract checked by ``repro diff``
(reference vs compiled) — is shared by both engines.

Compiled artifacts are content-addressed exactly like the bench result
cache: program fingerprint + full config + defense identity/params +
simulator-source hash (see :func:`compile_key`).  Artifacts are cached
in-process and on disk under ``<bench cache>/compiled/``.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

from ..isa.operations import Cond, Op
from ..isa.registers import FLAGS, SP
from .config import CoreConfig, P_CORE, SpeculationModel
from .pipeline import (
    Core,
    CoreResult,
    DEFAULT_MAX_CYCLES,
    DEFAULT_NO_PROGRESS_LIMIT,
    _SQUASH_CAUSE,
)

#: Bump when the generator's output changes shape: invalidates every
#: cached artifact (the simulator-source hash usually also changes, but
#: the version makes intent explicit and survives hash collisions of
#: whitespace-only edits).
CODEGEN_VERSION = 3

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
_B2C_LITERAL = ("{'defense_execute': 'stall_defense_transmitter', "
                "'div_busy': 'stall_div_busy', "
                "'disambiguation': 'stall_mem_disambiguation', "
                "'mfence': 'stall_dependency', "
                "'defense_resolution': 'stall_defense_resolution', "
                "'squash_notify': 'stall_squash_notify'}")


class CompileUnsupported(RuntimeError):
    """The (core, run) shape cannot use the compiled backend."""


# =====================================================================
# Defense traits: which hooks the generated code must call.
# =====================================================================


class DefenseTraits:
    """Compile-time facts about a defense instance.

    A hook is *live* when the class overrides the base
    :class:`~repro.defenses.base.Defense` implementation; dead hooks
    (base-class no-ops / always-allow) are elided from the generated
    source together with any machinery only they can trigger.
    """

    _HOOKS = ("on_rename", "may_execute", "may_resolve", "may_wakeup",
              "on_load_executed", "on_commit", "on_squash",
              "execute_recheck_seq", "resolve_recheck_seq",
              "wakeup_recheck_seq")

    def __init__(self, defense) -> None:
        from ..defenses.base import Defense

        cls = type(defense)
        for hook in self._HOOKS:
            live = getattr(cls, hook) is not getattr(Defense, hook)
            setattr(self, hook, live)
        self.load_sensitive = bool(defense.recheck_loads())

    def key(self) -> Tuple:
        return tuple(getattr(self, h) for h in self._HOOKS) + (
            self.load_sensitive,)


# =====================================================================
# Content-addressed artifact cache
# =====================================================================

_MEM_CACHE: Dict[str, object] = {}
_MEM_CACHE_LIMIT = 256


def compile_key(program, config: CoreConfig, defense) -> str:
    """Content hash of everything the generated source depends on.

    Mirrors the bench-cache keying discipline
    (:func:`repro.bench.executor.spec_cache_key`): the program
    fingerprint, the complete core configuration, the defense identity
    (class + constructor params + hook traits), the codegen version,
    and the versioned simulator-source hash — so editing any simulator
    package, any defense parameter, or any config field misses.
    """
    from ..bench.executor import _hash, code_version_hash, program_fingerprint

    traits = DefenseTraits(defense)
    defense_sig = (type(defense).__module__, type(defense).__qualname__,
                   repr(defense.compile_params()), traits.key())
    return _hash(
        f"compiled-v{CODEGEN_VERSION}".encode(),
        program_fingerprint(program).encode(),
        repr(config).encode(),
        repr(defense_sig).encode(),
        code_version_hash().encode(),
    )


def artifact_dir():
    from ..bench.executor import cache_dir

    return cache_dir() / "compiled"


def clear_compile_cache() -> None:
    """Drop the in-process compiled-function cache (tests)."""
    _MEM_CACHE.clear()


def compile_cache_info() -> Dict[str, int]:
    path = artifact_dir()
    on_disk = len(list(path.glob("*.py"))) if path.is_dir() else 0
    return {"memory": len(_MEM_CACHE), "disk": on_disk}


def compile_step(program, config: CoreConfig, defense, metrics=None):
    """Return the compiled ``run(core)`` function for the triple,
    consulting the in-memory and on-disk artifact caches."""
    from ..bench.executor import cache_enabled
    from ..metrics.registry import get_registry

    if metrics is None:
        metrics = get_registry()
    key = compile_key(program, config, defense)
    fn = _MEM_CACHE.get(key)
    if fn is not None:
        if metrics is not None:
            metrics.counter("uarch.compile_cache_hits").inc()
        return fn

    start = time.perf_counter()
    source = None
    disk = cache_enabled()
    path = artifact_dir() / f"{key}.py" if disk else None
    if disk and path.is_file():
        try:
            source = path.read_text()
        except OSError:
            source = None
    from_disk = source is not None
    if source is None:
        source = generate_source(program, config, defense)
        if disk:
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_suffix(f".tmp{os.getpid()}")
                tmp.write_text(source)
                tmp.replace(path)
            except OSError:
                pass
    namespace: Dict[str, object] = {"__name__": f"repro.uarch._compiled_{key[:12]}"}
    code = compile(source, f"<repro-compiled:{key[:12]}>", "exec")
    exec(code, namespace)  # noqa: S102 - our own generated source
    fn = namespace["run"]
    if len(_MEM_CACHE) >= _MEM_CACHE_LIMIT:
        _MEM_CACHE.clear()
    _MEM_CACHE[key] = fn
    if metrics is not None:
        if from_disk:
            metrics.counter("uarch.compile_cache_disk_hits").inc()
        else:
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


def _fmt_tuple(values) -> str:
    items = ", ".join(repr(v) for v in values)
    if len(values) == 1:
        return f"({items},)"
    return f"({items})"


def generate_source(program, config: CoreConfig, defense) -> str:
    """Generate the specialized module source for one triple.

    Deterministic in (program instructions, config, defense traits):
    no timestamps, hashes, or environment state are embedded, so the
    golden test can pin the output byte-for-byte.
    """
    if not program.is_linked:
        program = program.linked()
    traits = DefenseTraits(defense)
    insts = program.instructions
    plen = len(insts)
    if plen == 0:
        raise CompileUnsupported("empty program")

    # ---- decode columns ----------------------------------------------
    kinds, nd, dests, srcs = [], [], [], []
    imm_raw, imm_m64, tgt, condc, prot, hasrb = [], [], [], [], [], []
    ismem, isbr, isctrl, isld, isst, isdiv = [], [], [], [], [], []
    sqk = []  # per-PC squash-cause stats key ('' for non-branch PCs)
    for inst in insts:
        kinds.append(KIND_OF[inst.op])
        d = inst.dest_regs()
        nd.append(len(d))
        dests.append(tuple(d))
        srcs.append(tuple(inst.src_regs()))
        imm_raw.append(inst.imm)
        imm_m64.append(inst.imm & ((1 << 64) - 1))
        tgt.append(inst.target if isinstance(inst.target, int) else -1)
        condc.append(_COND_CODE.get(inst.cond, -1))
        prot.append(bool(inst.prot))
        hasrb.append(inst.rb is not None)
        ismem.append(bool(inst.is_mem))
        isbr.append(bool(inst.is_branch))
        isctrl.append(bool(inst.is_control))
        isld.append(bool(inst.is_load))
        isst.append(bool(inst.is_store))
        isdiv.append(bool(inst.is_div))
        sqk.append(_SQUASH_CAUSE.get(inst.op, ""))

    present = set(kinds)
    kind_counts = {k: kinds.count(k) for k in present}

    has_branches = any(isbr)
    has_loads = any(isld)
    has_stores = any(isst)
    has_divs = any(isdiv)
    has_mfence = KIND_OF[Op.MFENCE] in present
    has_halt = KIND_OF[Op.HALT] in present
    has_br = KIND_OF[Op.BR] in present
    has_ctrl = any(isctrl)

    ctrl = config.speculation_model is SpeculationModel.CONTROL
    buggy = bool(config.buggy_squash_notify)
    load_sens = traits.load_sensitive
    h_exec = traits.may_execute
    # Machinery liveness: what can actually happen on this triple.
    res_possible = has_branches and (traits.may_resolve or buggy)
    wake_possible = traits.may_wakeup
    blockable = h_exec or has_mfence or has_divs or has_loads

    width = config.width
    fbuf_cap = 2 * width
    alu_lat = config.alu_latency
    mul_lat = config.mul_latency

    # ---- condition strings (shared by stage + fast-forward) ----------
    def issue_ok() -> str:
        parts = ["is_valid", "is_squash == evt_squash",
                 "is_div == evt_div", "cycle < is_retry"]
        if ctrl:
            parts.append("is_resolve == evt_resolve")
        parts.append("(not is_hasdis or is_store == evt_store)")
        if load_sens:
            parts.append("is_load == evt_load")
        parts.append("robq and robq[0].seq < is_barrier")
        return "(" + "\n        and ".join(parts) + ")"

    def res_ok() -> str:
        parts = ["rs_valid", "rs_squash == evt_squash",
                 "rs_resolve == evt_resolve"]
        if load_sens:
            parts.append("rs_load == evt_load")
        parts.append("robq and robq[0].seq < rs_barrier")
        return "(" + "\n        and ".join(parts) + ")"

    def wake_ok() -> str:
        parts = ["wk_valid", "wk_squash == evt_squash"]
        if ctrl:
            parts.append("wk_resolve == evt_resolve")
        if load_sens:
            parts.append("wk_load == evt_load")
        parts.append("robq and robq[0].seq < wk_barrier")
        return "(" + "\n        and ".join(parts) + ")"

    s = _Emitter()
    s(f'"""Specialized pipeline for one (program, config, defense) triple.')
    s("")
    s("Generated by repro.uarch.compiled.generate_source; do not edit.")
    s(f"program: {plen} instructions")
    s(f"config: {config.name} (width={width}, "
      f"model={config.speculation_model.value}, buggy_squash={buggy})")
    s(f"defense: {type(defense).__module__}.{type(defense).__qualname__} "
      f"(live hooks: {', '.join(h for h in DefenseTraits._HOOKS if getattr(traits, h)) or 'none'})")
    s('"""')
    s("from collections import deque")
    s("from heapq import heappush, heappop")
    s("")
    s("from repro.uarch.uop import Uop")
    if has_branches:
        s("from repro.uarch.pipeline import hist_key as _hist")
    s("")
    s("# Per-PC decode columns (kind = Op enum index).")
    s(f"K = {_fmt_tuple(kinds)}")
    s(f"ND = {_fmt_tuple(nd)}")
    s(f"DESTS = {_fmt_tuple(dests)}")
    s(f"SRCS = {_fmt_tuple(srcs)}")
    s(f"IMM = {_fmt_tuple(imm_raw)}")
    s(f"IMMM = {_fmt_tuple(imm_m64)}")
    s(f"TGT = {_fmt_tuple(tgt)}")
    s(f"CONDC = {_fmt_tuple(condc)}")
    s(f"PROT = {_fmt_tuple(prot)}")
    s(f"HASRB = {_fmt_tuple(hasrb)}")
    s(f"ISMEM = {_fmt_tuple(ismem)}")
    s(f"ISBR = {_fmt_tuple(isbr)}")
    s(f"ISCTRL = {_fmt_tuple(isctrl)}")
    s(f"ISLD = {_fmt_tuple(isld)}")
    s(f"ISST = {_fmt_tuple(isst)}")
    s(f"ISDIV = {_fmt_tuple(isdiv)}")
    s(f"SQK = {_fmt_tuple(sqk)}")
    s("")
    s(f"_B2C = {_B2C_LITERAL}")
    s("")
    s("")
    s("def run(core):")
    s.indent()

    # ---- prologue ----------------------------------------------------
    s("program = core.program")
    s("insts = program.instructions")
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
    if has_loads:
        s("mem_read = core.memory.read_word")
        s("t_word_prot = core.mem_tags.word_protected")
        s("t_clear = core.mem_tags.clear_word")
    if has_stores:
        s("t_set = core.mem_tags.set_word")
    s("bp = core.bp")
    s("bp_predict = bp.predict_next")
    s("bp_snapshot = bp.snapshot")
    if has_branches:
        s("bp_train = bp.train")
        s("bp_restore = bp.restore")
    s("committed_list = core.committed")
    s("waiters = core._waiters")
    s("wheel = core._wheel")
    s("wtimes = []  # min-heap over the live wheel keys")
    s("ready_q = core._ready_q")
    s("producer_of = core._producer_of")
    s("fbuf = core.fetch_buffer")
    s("maxc = core.max_cycles")
    s("limit = core.no_progress_limit")
    # Live defense hook bindings only.
    if traits.on_rename:
        s("d_on_rename = d.on_rename")
    if h_exec:
        s("d_may_exec = d.may_execute")
    if traits.may_resolve:
        s("d_may_res = d.may_resolve")
    if wake_possible:
        s("d_may_wake = d.may_wakeup")
    if traits.on_load_executed:
        s("d_on_loadexec = d.on_load_executed")
    if traits.on_commit:
        s("d_on_commit = d.on_commit")
    if traits.on_squash:
        s("d_on_squash = d.on_squash")
    if h_exec and traits.execute_recheck_seq:
        s("d_exec_recheck = d.execute_recheck_seq")
    if res_possible and traits.may_resolve and traits.resolve_recheck_seq:
        s("d_res_recheck = d.resolve_recheck_seq")
    if wake_possible and traits.wakeup_recheck_seq:
        s("d_wake_recheck = d.wakeup_recheck_seq")
    s("")
    s("# hot scalars, written back on exit")
    s("cycle = core.cycle")
    s("seqc = core.seq_counter")
    s("fpc = core.fetch_pc")
    s("fstall = core.fetch_stalled_until")
    s("fblocked = core.fetch_blocked")
    s("halted = core.halted")
    s("halt_reason = core.halt_reason")
    s("divbusy = core.div_busy_until")
    s("iq_count = core.iq_count")
    s("last_commit = core._last_commit_cycle")
    s("rename_block = None")
    s("blocked = core._blocked")
    s("pend_wake = core._pending_wakeup")
    s("pend_res = core._pending_resolution")
    s("")
    s("# engine-local state: event counters, refusal caches, fast-forward")
    s("disamb_blocker = None")
    s("evt_squash = 0")
    s("evt_resolve = 0")
    s("evt_div = 0")
    s("evt_store = 0")
    s("evt_load = 0")
    s("is_valid = False")
    s("is_squash = 0")
    s("is_resolve = 0")
    s("is_div = 0")
    s("is_store = 0")
    s("is_load = 0")
    s("is_hasdis = False")
    s("is_barrier = 0")
    s(f"is_retry = {_NEVER_LIT}")
    s("blocked_refusals = 0")
    s("rs_valid = False")
    s("rs_squash = 0")
    s("rs_resolve = 0")
    s("rs_load = 0")
    s("rs_barrier = 0")
    s("rs_live = 0")
    s("rs_refused = 0")
    s("wk_valid = False")
    s("wk_squash = 0")
    s("wk_resolve = 0")
    s("wk_load = 0")
    s("wk_barrier = 0")
    s("ff_cycles = 0")
    s("ff_jumps = 0")
    s("")

    # ---- do_wakeup ---------------------------------------------------
    s("def do_wakeup(u):")
    s.indent()
    if wake_possible:
        s("if u.wakeup_block_cycle >= 0:")
        s.indent()
        s("wb = u.wakeup_block_cycle")
        s("u.wakeup_block_cycle = -1")
        s("dstats['wakeup_delay_cycles'] += cycle - wb")
        s("stats['_open_wakeup'] -= 1")
        s("stats['_open_wakeup_sum'] -= wb")
        s.dedent()
    s("u.wakeup_pending = False")
    s("for _, preg in u.pdests:")
    s.indent()
    s("pready[preg] = True")
    s("ws = waiters.pop(preg, None)")
    s("if ws:")
    s.indent()
    s("for w in ws:")
    s.indent()
    s("if w.squashed or w.issued:")
    s("    continue")
    s("w.unready_count -= 1")
    s("if w.unready_count == 0:")
    s("    heappush(ready_q, (w.seq, w))")
    s.dedent()
    s.dedent()
    s.dedent()
    s.dedent()
    s("")

    # ---- execute dispatch (emitted at two sites) ---------------------
    def emit_exec_dispatch(fail: str, success: str) -> None:
        """Emit the per-kind execute dispatch for uop ``u``.

        ``fail``/``success`` are the control-flow tails for refusal and
        issue (either ``return False``/``return True`` inside the
        ``try_exec`` closure, or ``continue``-based inline forms in the
        hot ready-queue loop).
        """
        def gate() -> None:
            if h_exec:
                s("if not d_may_exec(u):")
                s.indent()
                s("dstats['delayed_transmitters'] += 1")
                s("if u.exec_block_cycle < 0:")
                s.indent()
                s("u.exec_block_cycle = cycle")
                s("dstats['exec_interventions'] += 1")
                s("stats['_open_exec'] += 1")
                s("stats['_open_exec_sum'] += cycle")
                s.dedent()
                s("u.block_reason = 'defense_execute'")
                s(fail)
                s.dedent()
                # Close at the gate-allow (before any structural scan),
                # mirroring Core._try_execute.
                s("if u.exec_block_cycle >= 0:")
                s.indent()
                s("eb = u.exec_block_cycle")
                s("u.exec_block_cycle = -1")
                s("dstats['exec_delay_cycles'] += cycle - eb")
                s("stats['_open_exec'] -= 1")
                s("stats['_open_exec_sum'] -= eb")
                s.dedent()

        def fwd_scan() -> None:
            # LSQ memory disambiguation (LoadStoreQueue.forwarding_store)
            s("best = None")
            s("stall_st = None")
            s("for st in sq:")
            s.indent()
            s("if st.seq >= u.seq:")
            s("    continue")
            s("sma = st.mem_addr")
            s("if sma is None:")
            s("    stall_st = st")
            s("    break")
            s("delta = sma - addr")
            s("if -8 < delta < 8:")
            s.indent()
            s("if sma != addr:")
            s("    stall_st = st")
            s("    break")
            s("if best is None or st.seq > best.seq:")
            s("    best = st")
            s.dedent()
            s.dedent()
            s("if stall_st is not None:")
            s.indent()
            s("disamb_blocker = stall_st")
            s("u.block_reason = 'disambiguation'")
            s(fail)
            s.dedent()
            s("if best is not None:")
            s.indent()
            s("value = best.store_data")
            s(f"latency = {config.store_forward_latency}")
            s("u.lsq_prot = best.lsq_prot")
            s("u.forwarded_from = best")
            s("u.mem_level = 'sq'")
            s.dedent()
            s("else:")
            s.indent()
            s("latency = c_access(addr)")
            s("value = mem_read(addr)")
            s("u.lsq_prot = t_word_prot(addr)")
            s("u.mem_level = caches.last_level")
            s.dedent()
            s("u.mem_value = value")

        # Order the chain hottest-kind first.
        issue_kinds = [k for k in sorted(present,
                                         key=lambda k: -kind_counts[k])
                       if k not in (KIND_OF[Op.NOP], KIND_OF[Op.HALT],
                                    KIND_OF[Op.JMP])]
        first = True
        for k in issue_kinds:
            op = list(Op)[k]
            s(f"{'if' if first else 'elif'} k == {k}:  # {op.name}")
            first = False
            s.indent()
            if op is Op.MFENCE:
                s("if not robq or robq[0].seq != u.seq:")
                s.indent()
                s("u.block_reason = 'mfence'")
                s(fail)
                s.dedent()
                s("latency = 1")
                # Release the frontend stall this fence imposed at
                # fetch (Core._try_execute mirror).
                s("fblocked = False")
            elif op in (Op.DIV, Op.REM):
                s("if cycle < divbusy:")
                s.indent()
                s("u.block_reason = 'div_busy'")
                s(fail)
                s.dedent()
                gate()
                s("ps = u.psrcs")
                s("a = pvals[ps[0][1]]")
                s("b = pvals[ps[1][1]]")
                s("if b == 0:")
                s.indent()
                s(f"v = {_M64}" if op is Op.DIV else "v = a")
                s(f"latency = {config.div_base_latency}")
                s.dedent()
                s("else:")
                s.indent()
                s("q = a // b")
                if op is Op.DIV:
                    s(f"v = q & {_M64}")
                else:
                    s("v = a - q * b")
                s(f"latency = {config.div_base_latency + 1} "
                  "+ q.bit_length() // 8")
                s.dedent()
                s("pvals[u.pdests[0][1]] = v")
                s("u.result_values = ((DESTS[pc][0], v),)")
                s("divbusy = cycle + latency")
            elif op in (Op.LOAD, Op.POP, Op.RET):
                gate()
                if op is Op.LOAD:
                    s("ps = u.psrcs")
                    s("if HASRB[pc]:")
                    s(f"    addr = (pvals[ps[0][1]] + pvals[ps[1][1]]"
                      f" + IMM[pc]) & {_MADDR}")
                    s("else:")
                    s(f"    addr = (pvals[ps[0][1]] + IMM[pc]) & {_MADDR}")
                else:
                    s("sp = pvals[u.psrcs[0][1]]")
                    s(f"addr = sp & {_MADDR}")
                s("u.mem_addr = addr")
                fwd_scan()
                if op is Op.LOAD:
                    s(f"v = value & {_M64}")
                    s("pvals[u.pdests[0][1]] = v")
                    s("u.result_values = ((DESTS[pc][0], v),)")
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
                if traits.on_load_executed:
                    s("d_on_loadexec(u)")
            elif op in (Op.STORE, Op.PUSH, Op.CALL):
                gate()
                if op is Op.STORE:
                    s("ps = u.psrcs")
                    s("if HASRB[pc]:")
                    s(f"    addr = (pvals[ps[0][1]] + pvals[ps[1][1]]"
                      f" + IMM[pc]) & {_MADDR}")
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
                else:  # CALL
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
            elif op is Op.MOVI:
                gate()
                s("v = IMMM[pc]")
                s("pvals[u.pdests[0][1]] = v")
                s("u.result_values = ((DESTS[pc][0], v),)")
                s(f"latency = {alu_lat}")
            elif op is Op.MOV:
                gate()
                s("v = pvals[u.psrcs[0][1]]")
                s("pvals[u.pdests[0][1]] = v")
                s("u.result_values = ((DESTS[pc][0], v),)")
                s(f"latency = {alu_lat}")
            elif op in (Op.CMP, Op.TEST, Op.CMPI):
                gate()
                if op is Op.CMPI:
                    s("a = pvals[u.psrcs[0][1]]")
                    s("b = IMMM[pc]")
                else:
                    s("ps = u.psrcs")
                    s("a = pvals[ps[0][1]]")
                    s("b = pvals[ps[1][1]]")
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
                s(f"latency = {alu_lat}")
            elif op is Op.BR:
                gate()
                s("fl = pvals[u.psrcs[0][1]]")
                s("c = CONDC[pc]")
                conds = sorted({condc[i] for i in range(plen)
                                if kinds[i] == k})
                cfirst = True
                for cc in conds:
                    s(f"{'if' if cfirst else 'elif'} c == {cc}:"
                      f"  # {list(Cond)[cc].name}")
                    s(f"    tk = {_COND_EXPR[cc]}")
                    cfirst = False
                s("u.taken = tk")
                s("u.actual_next = TGT[pc] if tk else pc + 1")
                s(f"latency = {alu_lat}")
            elif op is Op.JMPI:
                gate()
                s("u.taken = True")
                s("u.actual_next = pvals[u.psrcs[0][1]]")
                s(f"latency = {alu_lat}")
            elif op in (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SHL,
                        Op.SHR, Op.MUL):
                gate()
                s("ps = u.psrcs")
                s("a = pvals[ps[0][1]]")
                s("b = pvals[ps[1][1]]")
                expr = {
                    Op.ADD: f"(a + b) & {_M64}",
                    Op.SUB: f"(a - b) & {_M64}",
                    Op.AND: "a & b",
                    Op.OR: "a | b",
                    Op.XOR: "a ^ b",
                    Op.SHL: f"(a << (b & 63)) & {_M64}",
                    Op.SHR: "a >> (b & 63)",
                    Op.MUL: f"(a * b) & {_M64}",
                }[op]
                s(f"v = {expr}")
                s("pvals[u.pdests[0][1]] = v")
                s("u.result_values = ((DESTS[pc][0], v),)")
                s(f"latency = {mul_lat if op is Op.MUL else alu_lat}")
            elif op in (Op.ADDI, Op.SUBI, Op.ANDI, Op.ORI, Op.XORI,
                        Op.SHLI, Op.SHRI, Op.MULI):
                gate()
                s("a = pvals[u.psrcs[0][1]]")
                s("b = IMMM[pc]")
                expr = {
                    Op.ADDI: f"(a + b) & {_M64}",
                    Op.SUBI: f"(a - b) & {_M64}",
                    Op.ANDI: "a & b",
                    Op.ORI: "a | b",
                    Op.XORI: "a ^ b",
                    Op.SHLI: f"(a << (b & 63)) & {_M64}",
                    Op.SHRI: "a >> (b & 63)",
                    Op.MULI: f"(a * b) & {_M64}",
                }[op]
                s(f"v = {expr}")
                s("pvals[u.pdests[0][1]] = v")
                s("u.result_values = ((DESTS[pc][0], v),)")
                s(f"latency = {mul_lat if op is Op.MULI else alu_lat}")
            else:  # pragma: no cover - decode table covers all issue ops
                s("raise AssertionError('unreachable kind')")
            s.dedent()
        if not first:
            s("else:  # pragma: no cover")
            s("    raise AssertionError('unhandled kind %d' % k)")
        # shared issue tail
        s("u.block_reason = None")
        s("u.issued = True")
        s("u.in_iq = False")
        s("iq_count -= 1")
        s("u.issue_cycle = cycle")
        s("stats['issued_uops'] += 1")
        ev = []
        if has_loads:
            ev.append(("if", "ISLD[pc]", "evt_load += 1"))
        if has_stores:
            ev.append(("elif" if ev else "if", "ISST[pc]",
                       "evt_store += 1"))
        if has_divs:
            ev.append(("elif" if ev else "if", "ISDIV[pc]",
                       "evt_div += 1"))
        for kw, cond, body in ev:
            s(f"{kw} {cond}:")
            s(f"    {body}")
        s("done = cycle + (latency if latency > 1 else 1)")
        s("bkt = wheel.get(done)")
        s("if bkt is None:")
        s.indent()
        s("wheel[done] = [u]")
        s("heappush(wtimes, done)")
        s.dedent()
        s("else:")
        s("    bkt.append(u)")
        s(success)

    # try_exec closure (cold path: blocked-list retry).
    if blockable:
        s("def try_exec(u):")
        s.indent()
        s("nonlocal divbusy, iq_count, disamb_blocker, "
          "evt_load, evt_store, evt_div"
          + (", fblocked" if has_mfence else ""))
        s("pc = u.pc")
        s("k = K[pc]")
        emit_exec_dispatch(fail="return False", success="return True")
        s.dedent()
        s("")

    # ---- attempt_res closure -----------------------------------------
    if has_branches:
        s("def attempt_res(u):")
        s.indent()
        s("nonlocal evt_resolve, evt_squash, rs_valid, iq_count, "
          "fpc, fstall, fblocked")
        if traits.may_resolve:
            s("if not d_may_res(u):")
            s.indent()
            s("dstats['delayed_resolutions'] += 1")
            s("if u.resolve_block_cycle < 0:")
            s.indent()
            s("u.resolve_block_cycle = cycle")
            s("dstats['resolve_interventions'] += 1")
            s("stats['_open_resolve'] += 1")
            s("stats['_open_resolve_sum'] += cycle")
            s.dedent()
            s("u.block_reason = 'defense_resolution'")
            s("u.resolution_pending = True")
            s("pend_res.append(u)")
            s("rs_valid = False")
            s("return")
            s.dedent()
            # Close before the buggy-squash-port check: bug-port hold
            # time is never charged to the defense (Core mirror).
            s("if u.resolve_block_cycle >= 0:")
            s.indent()
            s("rb = u.resolve_block_cycle")
            s("u.resolve_block_cycle = -1")
            s("dstats['resolve_delay_cycles'] += cycle - rb")
            s("stats['_open_resolve'] -= 1")
            s("stats['_open_resolve_sum'] -= rb")
            s.dedent()
        if buggy:
            s("for o in pend_res:")
            s.indent()
            s("if (o.seq < u.seq and not o.squashed and o.executed")
            s("        and o.actual_next != o.predicted_next):")
            s.indent()
            s("u.block_reason = 'squash_notify'")
            s("u.resolution_pending = True")
            s("pend_res.append(u)")
            s("rs_valid = False")
            s("return")
            s.dedent()
            s.dedent()
        s("evt_resolve += 1")
        s("dep = stats['_spec_depth']")
        s("stats[_hist('spec_depth', dep)] += 1")
        s("stats['_spec_depth'] = dep - 1")
        s("u.block_reason = None")
        s("u.resolved = True")
        s("u.resolution_pending = False")
        s("infl = core._inflight_branches")
        s("while infl and (infl[0].squashed or infl[0].resolved):")
        s("    infl.popleft()")
        s("bp_train(u.pc, u.inst, True if u.taken else False, "
          "u.actual_next, u.bp_index)")
        s("if u.actual_next != u.predicted_next:")
        s.indent()
        s("u.mispredicted = True")
        s("# squash everything younger (youngest-first rollback)")
        s("evt_squash += 1")
        s("stats['squashes'] += 1")
        s("stats[SQK[u.pc]] += 1")
        s("bseq = u.seq")
        s("n_sq = 0")
        s("while robq and robq[-1].seq > bseq:")
        s.indent()
        s("y = robq.pop()")
        s("y.in_rob = False")
        s("n_sq += 1")
        s("y.squashed = True")
        s("y.squash_cycle = cycle")
        s("if ISBR[y.pc] and not y.resolved:")
        s("    stats['_spec_depth'] -= 1")
        if h_exec:
            s("if y.exec_block_cycle >= 0:")
            s.indent()
            s("eb = y.exec_block_cycle")
            s("y.exec_block_cycle = -1")
            s("dstats['exec_delay_cycles'] += cycle - eb")
            s("stats['_open_exec'] -= 1")
            s("stats['_open_exec_sum'] -= eb")
            s.dedent()
        if traits.may_resolve:
            s("if y.resolve_block_cycle >= 0:")
            s.indent()
            s("rb = y.resolve_block_cycle")
            s("y.resolve_block_cycle = -1")
            s("dstats['resolve_delay_cycles'] += cycle - rb")
            s("stats['_open_resolve'] -= 1")
            s("stats['_open_resolve_sum'] -= rb")
            s.dedent()
        if wake_possible:
            s("if y.wakeup_block_cycle >= 0:")
            s.indent()
            s("wb = y.wakeup_block_cycle")
            s("y.wakeup_block_cycle = -1")
            s("dstats['wakeup_delay_cycles'] += cycle - wb")
            s("stats['_open_wakeup'] -= 1")
            s("stats['_open_wakeup_sum'] -= wb")
            s.dedent()
        s("for pd, opd in zip(y.pdests, y.old_pdests):")
        s("    rmap[pd[0]] = opd[1]")
        s("for _, pg in y.pdests:")
        s("    prf_free(pg)")
        if has_loads:
            s("if y.is_load:")
            s.indent()
            s("try:")
            s("    lq.remove(y)")
            s("except ValueError:")
            s("    pass")
            s.dedent()
        if has_stores:
            s("if y.is_store:")
            s.indent()
            s("try:")
            s("    sq.remove(y)")
            s("except ValueError:")
            s("    pass")
            s.dedent()
        s("if y.in_iq:")
        s.indent()
        s("y.in_iq = False")
        s("iq_count -= 1")
        s.dedent()
        if traits.on_squash:
            s("d_on_squash(y)")
        s.dedent()
        s("stats['squashed_uops'] += n_sq")
        s("stats[_hist('squash_cascade', n_sq)] += 1")
        s("for _, fu in fbuf:")
        s.indent()
        s("fu.squashed = True")
        s("fu.squash_cycle = cycle")
        s.dedent()
        s("fbuf.clear()")
        s("core._inflight_branches = deque(")
        s("    b for b in core._inflight_branches if not b.squashed)")
        s("infl = core._inflight_branches")
        s("while infl and (infl[0].squashed or infl[0].resolved):")
        s("    infl.popleft()")
        s("snap = u.bp_snapshot")
        s("if snap is not None:")
        s.indent()
        s("bp_restore(snap)")
        if has_br:
            s(f"if K[u.pc] == {KIND_OF[Op.BR]}:  # BR")
            s.indent()
            s("if (u.predicted_next != u.pc + 1) != "
              "(True if u.taken else False):")
            s("    bp.direction.history ^= 1")
            s.dedent()
        s.dedent()
        s("fpc = u.actual_next")
        s(f"fstall = cycle + {config.redirect_penalty}")
        s("fblocked = False")
        s.dedent()  # mispredict branch
        s.dedent()  # attempt_res
        s("")

    # ---- stall classification ----------------------------------------
    s("def uop_stall(u):")
    s.indent()
    s("if u.issued:")
    s.indent()
    if has_divs:
        s("if ISDIV[u.pc]:")
        s("    return 'stall_div_busy'")
    s("ml = u.mem_level")
    s("if ml == 'l2' or ml == 'l3' or ml == 'mem':")
    s("    return 'stall_cache_miss'")
    s("return 'stall_exec_latency'")
    s.dedent()
    s("br = u.block_reason")
    s("if br is not None:")
    s("    return _B2C.get(br)")
    s("return None")
    s.dedent()
    s("")
    s("def classify(head):")
    s.indent()
    s("if head is None:")
    s.indent()
    s("if cycle < fstall:")
    s("    return 'stall_fetch_redirect'")
    s(f"if not fbuf and not 0 <= fpc < {plen}:")
    s("    return 'stall_no_progress'")
    s("return 'stall_frontend'")
    s.dedent()
    s("if head.is_branch and head.completed and not head.resolved:")
    s("    return _B2C.get(head.block_reason, 'stall_defense_resolution')")
    s("if head.issued:")
    s("    return uop_stall(head) or 'stall_exec_latency'")
    s("if head.unready_count > 0:")
    s.indent()
    s("for _, pg in head.psrcs:")
    s.indent()
    s("if pready[pg]:")
    s("    continue")
    s("producer = producer_of.get(pg)")
    s("if producer is None or producer.squashed:")
    s("    continue")
    s("if producer.wakeup_pending:")
    s("    return 'stall_defense_wakeup'")
    s("cause = uop_stall(producer)")
    s("if cause is not None:")
    s("    return cause")
    s.dedent()
    s("if rename_block is not None:")
    s("    return rename_block")
    s("return 'stall_dependency'")
    s.dedent()
    s("return uop_stall(head) or 'stall_issue_bw'")
    s.dedent()
    s("")
    s("def rename_blocked(u):")
    s.indent()
    s("pc = u.pc")
    cond = [f"len(robq) >= {config.rob_size}",
            f"len(prf_freeq) < ND[pc]"]
    if has_loads:
        cond.append(f"(ISLD[pc] and len(lq) >= {config.lq_size})")
    if has_stores:
        cond.append(f"(ISST[pc] and len(sq) >= {config.sq_size})")
    cond.append(f"iq_count >= {config.iq_size}")
    s("return (" + "\n        or ".join(cond) + ")")
    s.dedent()
    s("")

    # ---- main loop ---------------------------------------------------
    s("while not halted and cycle < maxc:")
    s.indent()
    s("if limit is not None and cycle - last_commit >= limit:")
    s("    break")
    s("")
    s("# ---- commit ----")
    s("committed_n = 0")
    s("cause = None")
    s(f"for _ in range({width}):")
    s.indent()
    s("if robq:")
    s.indent()
    s("head = robq[0]")
    s("if not head.completed or (head.is_branch and not head.resolved):")
    s.indent()
    s("cause = classify(head)")
    s("break")
    s.dedent()
    s.dedent()
    s("else:")
    s.indent()
    s("cause = classify(None)")
    s("break")
    s.dedent()
    s("last_commit = cycle")
    s("hpc = head.pc")
    if has_halt:
        s(f"if K[hpc] == {KIND_OF[Op.HALT]}:  # HALT")
        s.indent()
        s("head.committed = True")
        s("head.commit_cycle = cycle")
        s("committed_list.append(head)")
        s("robq.popleft()")
        s("head.in_rob = False")
        s("halted = True")
        s("halt_reason = 'halt'")
        s("committed_n += 1")
        s("break")
        s.dedent()
    if has_stores:
        s("if ISST[hpc]:")
        s.indent()
        s("ma = head.mem_addr")
        s("mem_write(ma, head.store_data)")
        s("c_access(ma)")
        s("t_set(ma, True if head.lsq_prot else False)")
        s.dedent()
    if has_loads:
        s("if ISLD[hpc] and not PROT[hpc]:")
        s("    t_clear(head.mem_addr)")
    s("for areg, value in head.result_values:")
    s("    arch_values[areg] = value")
    s("for _, old_pg in head.old_pdests:")
    s("    prf_free(old_pg)")
    if has_branches:
        s("if ISBR[hpc]:")
        s.indent()
        s("stats['committed_branches'] += 1")
        s("if head.mispredicted:")
        s("    stats['mispredicted_branches'] += 1")
        s.dedent()
    if traits.on_commit:
        s("d_on_commit(head)")
    s("head.committed = True")
    s("head.commit_cycle = cycle")
    s("committed_list.append(head)")
    s("robq.popleft()")
    s("head.in_rob = False")
    if has_loads:
        s("if ISLD[hpc]:")
        s.indent()
        s("try:")
        s("    lq.remove(head)")
        s("except ValueError:")
        s("    pass")
        s.dedent()
    if has_stores:
        s("if ISST[hpc]:")
        s.indent()
        s("try:")
        s("    sq.remove(head)")
        s("except ValueError:")
        s("    pass")
        s.dedent()
    if has_branches:
        s("if ISBR[hpc]:")
        s.indent()
        s("infl = core._inflight_branches")
        s("while infl and (infl[0].squashed or infl[0].resolved):")
        s("    infl.popleft()")
        s.dedent()
    s("next_pc = head.actual_next if ISCTRL[hpc] else hpc + 1")
    s(f"if not 0 <= next_pc < {plen}:")
    s.indent()
    s("halted = True")
    s(f"halt_reason = 'off_end' if next_pc == {plen} else 'bad_pc'")
    s.dedent()
    s("committed_n += 1")
    s("if halted:")
    s("    break")
    s.dedent()  # commit for
    s("")
    s("if not halted:")
    s.indent()

    # ---- complete stage ----------------------------------------------
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
    if has_branches:
        s("if u.is_branch:")
        s("    attempt_res(u)")
    s("if u.pdests:")
    s.indent()
    if wake_possible:
        s("if d_may_wake(u):")
        s("    do_wakeup(u)")
        s("else:")
        s.indent()
        s("dstats['delayed_wakeups'] += 1")
        s("if u.wakeup_block_cycle < 0:")
        s.indent()
        s("u.wakeup_block_cycle = cycle")
        s("dstats['wakeup_interventions'] += 1")
        s("stats['_open_wakeup'] += 1")
        s("stats['_open_wakeup_sum'] += cycle")
        s.dedent()
        s("u.wakeup_pending = True")
        s("pend_wake.append(u)")
        s("wk_valid = False")
        s.dedent()
    else:
        s("do_wakeup(u)")
    s.dedent()
    s.dedent()
    s.dedent()
    s("")

    # ---- retry pending -----------------------------------------------
    if res_possible:
        s("# ---- pending-resolution retry ----")
        s("if pend_res:")
        s.indent()
        s(f"if {res_ok()}:")
        s.indent()
        s("stats['delayed_resolution_cycles'] += rs_live")
        s("dstats['delayed_resolutions'] += rs_refused")
        s.dedent()
        s("else:")
        s.indent()
        s("rs_valid = False")
        s("squash0 = evt_squash")
        s("resolve0 = evt_resolve")
        s("load0 = evt_load")
        s("refused0 = dstats['delayed_resolutions']")
        s("live = 0")
        s("pending = pend_res")
        s("pending.sort()")
        s("pend_res = []")
        s("for u in pending:")
        s.indent()
        s("if u.squashed or u.resolved:")
        s("    continue")
        s("live += 1")
        s("stats['delayed_resolution_cycles'] += 1")
        s("attempt_res(u)")
        s.dedent()
        s("if (pend_res and squash0 == evt_squash")
        s("        and resolve0 == evt_resolve and load0 == evt_load):")
        s.indent()
        s(f"barrier = {_NEVER_LIT}")
        s("for u in pend_res:")
        s.indent()
        if traits.may_resolve:
            s("if u.block_reason == 'defense_resolution':")
            s.indent()
            if traits.resolve_recheck_seq:
                s("seq = d_res_recheck(u)")
                s("if seq is None:")
                s("    seq = robq[0].seq + 1")
            else:
                s("seq = robq[0].seq + 1")
            s("if seq < barrier:")
            s("    barrier = seq")
            s.dedent()
        else:
            s("pass  # squash_notify entries need no barrier")
        s.dedent()
        s("rs_valid = True")
        s("rs_squash = squash0")
        s("rs_resolve = resolve0")
        s("rs_load = load0")
        s("rs_barrier = barrier")
        s("rs_live = live")
        s("rs_refused = dstats['delayed_resolutions'] - refused0")
        s.dedent()
        s.dedent()
        s.dedent()
        s("")
    if wake_possible:
        s("# ---- pending-wakeup retry ----")
        s("if pend_wake:")
        s.indent()
        s(f"if not {wake_ok()}:")
        s.indent()
        s("wk_valid = False")
        s("squash0 = evt_squash")
        s("resolve0 = evt_resolve")
        s("load0 = evt_load")
        s("pending = pend_wake")
        s("pend_wake = []")
        s("for u in pending:")
        s.indent()
        s("if u.squashed:")
        s("    continue")
        s("if d_may_wake(u):")
        s("    do_wakeup(u)")
        s("else:")
        s("    pend_wake.append(u)")
        s.dedent()
        s("if (pend_wake and squash0 == evt_squash")
        s("        and resolve0 == evt_resolve and load0 == evt_load):")
        s.indent()
        s(f"barrier = {_NEVER_LIT}")
        s("head_next = robq[0].seq + 1 if robq else 0")
        s("for u in pend_wake:")
        s.indent()
        if traits.wakeup_recheck_seq:
            s("seq = d_wake_recheck(u)")
            s("if seq is None:")
            s("    seq = head_next")
        else:
            s("seq = head_next")
        s("if seq < barrier:")
        s("    barrier = seq")
        s.dedent()
        s("wk_valid = True")
        s("wk_squash = squash0")
        s("wk_resolve = resolve0")
        s("wk_load = load0")
        s("wk_barrier = barrier")
        s.dedent()
        s.dedent()
        s.dedent()
        s("")

    # ---- issue stage -------------------------------------------------
    s("# ---- issue ----")
    s("issued = 0")
    if blockable:
        s("if blocked:")
        s.indent()
        s(f"if {issue_ok()}:")
        s.indent()
        s("dstats['delayed_transmitters'] += blocked_refusals")
        s.dedent()
        s("else:")
        s.indent()
        s("is_valid = False")
        s("squash0 = evt_squash")
        s("resolve0 = evt_resolve")
        s("div0 = evt_div")
        s("store0 = evt_store")
        s("load0 = evt_load")
        s("refused0 = dstats['delayed_transmitters']")
        s(f"barrier = {_NEVER_LIT}")
        s("unknown = False")
        s("has_disamb = False")
        s(f"retry_cycle = {_NEVER_LIT}")
        s("blocked.sort()")
        s("still_b = []")
        s("for u in blocked:")
        s.indent()
        s("if u.squashed or u.issued:")
        s("    continue")
        s(f"if issued < {width} and try_exec(u):")
        s.indent()
        s("issued += 1")
        s("continue")
        s.dedent()
        s("still_b.append(u)")
        s("reason = u.block_reason")
        chain: List[Tuple[str, List[str]]] = []
        if h_exec:
            body = []
            if traits.execute_recheck_seq:
                body += ["seq = d_exec_recheck(u)",
                         "if seq is None:",
                         "    unknown = True",
                         "elif seq < barrier:",
                         "    barrier = seq"]
            else:
                body += ["unknown = True"]
            chain.append(("reason == 'defense_execute'", body))
        if has_loads:
            chain.append(("reason == 'disambiguation'",
                          ["has_disamb = True",
                           "if (disamb_blocker is not None",
                           "        and disamb_blocker.seq < barrier):",
                           "    barrier = disamb_blocker.seq"]))
        if has_mfence:
            chain.append(("reason == 'mfence'",
                          ["if u.seq < barrier:",
                           "    barrier = u.seq"]))
        for i, (cnd, body) in enumerate(chain):
            s(f"{'if' if i == 0 else 'elif'} {cnd}:")
            s.indent()
            for line in body:
                s(line)
            s.dedent()
        if has_divs:
            if chain:
                s("else:  # div_busy")
                s("    retry_cycle = divbusy")
            else:
                s("retry_cycle = divbusy")
        s.dedent()  # for u in blocked
        s("blocked = still_b")
        s(f"if (still_b and issued < {width}")
        s("        and squash0 == evt_squash and resolve0 == evt_resolve")
        s("        and div0 == evt_div and store0 == evt_store")
        s("        and load0 == evt_load):")
        s.indent()
        s("if unknown:")
        s.indent()
        s("seq = robq[0].seq + 1")
        s("if seq < barrier:")
        s("    barrier = seq")
        s.dedent()
        s("is_valid = True")
        s("is_squash = squash0")
        s("is_resolve = resolve0")
        s("is_div = div0")
        s("is_store = store0")
        s("is_load = load0")
        s("is_hasdis = has_disamb")
        s("is_barrier = barrier")
        s("is_retry = retry_cycle")
        s("blocked_refusals = dstats['delayed_transmitters'] - refused0")
        s.dedent()
        s.dedent()  # else (cache not ok)
        s.dedent()  # if blocked
    s(f"while issued < {width} and ready_q:")
    s.indent()
    s("u = heappop(ready_q)[1]")
    s("if u.squashed or u.issued:")
    s("    continue")
    s("pc = u.pc")
    s("k = K[pc]")
    if blockable:
        fail = "blocked.append(u)\nis_valid = False\ncontinue"
    else:  # pragma: no cover - nothing in this program can block
        fail = "continue"
    emit_exec_dispatch(fail=fail, success="issued += 1")
    s.dedent()
    s("")

    # ---- rename stage ------------------------------------------------
    s("# ---- rename / dispatch ----")
    s("rename_block = None")
    s(f"for _ in range({width}):")
    s.indent()
    s("if not fbuf:")
    s("    break")
    s("entry = fbuf[0]")
    s("if entry[0] > cycle:")
    s("    break")
    s("u = entry[1]")
    s("pc = u.pc")
    s(f"if len(robq) >= {config.rob_size}:")
    s.indent()
    s("rename_block = 'stall_rob_full'")
    s("break")
    s.dedent()
    s("n_d = ND[pc]")
    s("if len(prf_freeq) < n_d:")
    s.indent()
    s("rename_block = 'stall_prf_starved'")
    s("break")
    s.dedent()
    if has_loads:
        s(f"if ISLD[pc] and len(lq) >= {config.lq_size}:")
        s.indent()
        s("rename_block = 'stall_lsq_full'")
        s("break")
        s.dedent()
    if has_stores:
        s(f"if ISST[pc] and len(sq) >= {config.sq_size}:")
        s.indent()
        s("rename_block = 'stall_lsq_full'")
        s("break")
        s.dedent()
    s(f"if iq_count >= {config.iq_size}:")
    s.indent()
    s("rename_block = 'stall_iq_full'")
    s("break")
    s.dedent()
    s("del fbuf[0]")
    s("u.rename_cycle = cycle")
    s("u.psrcs = tuple((a, rmap[a]) for a in SRCS[pc])")
    s("if n_d:")
    s.indent()
    s("pr = PROT[pc]")
    s("pd_l = []")
    s("opd_l = []")
    s("for a in DESTS[pc]:")
    s.indent()
    s("pg = prf_freeq.popleft()")
    s("opd_l.append((a, rmap[a]))")
    s("rmap[a] = pg")
    s("pready[pg] = False")
    s("pprot[pg] = pr")
    s("pd_l.append((a, pg))")
    s("producer_of[pg] = u")
    s.dedent()
    s("u.pdests = tuple(pd_l)")
    s("u.old_pdests = tuple(opd_l)")
    s.dedent()
    if traits.on_rename:
        s("d_on_rename(u)")
    s("u.in_rob = True")
    s("robq.append(u)")
    if has_loads:
        s("if ISLD[pc]:")
        s("    lq.append(u)")
    if has_stores:
        s("if ISST[pc]:")
        s("    sq.append(u)")
    if has_branches:
        s("if ISBR[pc]:")
        s.indent()
        s("core._inflight_branches.append(u)")
        s("stats['_spec_depth'] += 1")
        s.dedent()
    rename_done = [KIND_OF[op] for op in (Op.NOP, Op.HALT, Op.JMP)
                   if KIND_OF[op] in present]
    if rename_done:
        s("k = K[pc]")
        cnd = " or ".join(f"k == {k}" for k in rename_done)
        s(f"if {cnd}:  # rename-complete ops")
        s.indent()
        s("u.executed = True")
        s("u.completed = True")
        s("u.resolved = True")
        if KIND_OF[Op.JMP] in present:
            s(f"u.actual_next = TGT[pc] if k == {KIND_OF[Op.JMP]} "
              "else pc + 1")
        else:
            s("u.actual_next = pc + 1")
        s("u.complete_cycle = cycle")
        s("continue")
        s.dedent()
    s("u.in_iq = True")
    s("iq_count += 1")
    s("n_un = 0")
    s("for pg in {p for _, p in u.psrcs}:")
    s.indent()
    s("if not pready[pg]:")
    s.indent()
    s("n_un += 1")
    s("ws = waiters.get(pg)")
    s("if ws is None:")
    s("    waiters[pg] = [u]")
    s("else:")
    s("    ws.append(u)")
    s.dedent()
    s.dedent()
    s("u.unready_count = n_un")
    s("if not n_un:")
    s("    heappush(ready_q, (u.seq, u))")
    s.dedent()  # rename for
    s("")

    # ---- fetch stage -------------------------------------------------
    s("# ---- fetch ----")
    s("if not fblocked and cycle >= fstall:")
    s.indent()
    s(f"for _ in range({width}):")
    s.indent()
    s(f"if len(fbuf) >= {fbuf_cap}:")
    s("    break")
    s("pc = fpc")
    s(f"if not 0 <= pc < {plen}:")
    s("    break")
    s("inst = insts[pc]")
    if has_ctrl:
        # predict_next is pure ``pc + 1`` for every non-control op
        # (no predictor state mutates), so the call is gated on the
        # decode column and only control PCs pay for it.
        s("if ISCTRL[pc]:")
        s.indent()
        s("pred = bp_predict(pc, inst)")
        s("u = Uop(seqc, pc, inst, pred, cycle)")
        s("u.bp_snapshot = bp_snapshot()")
        if has_br:
            s(f"if K[pc] == {KIND_OF[Op.BR]}:  # BR")
            s("    u.bp_index = bp.last_br_index")
        s.dedent()
        s("else:")
        s.indent()
        s("pred = pc + 1")
        s("u = Uop(seqc, pc, inst, pred, cycle)")
        s.dedent()
    else:
        s("pred = pc + 1")
        s("u = Uop(seqc, pc, inst, pred, cycle)")
    s("seqc += 1")
    s(f"fbuf.append((cycle + {config.frontend_delay}, u))")
    if has_halt:
        s(f"if K[pc] == {KIND_OF[Op.HALT]}:  # HALT")
        s.indent()
        s("fblocked = True")
        s("break")
        s.dedent()
    if has_mfence:
        # Serializing fence: frontend stops until the fence executes
        # at the ROB head (Core._fetch_stage mirror).
        s(f"if K[pc] == {KIND_OF[Op.MFENCE]}:  # MFENCE")
        s.indent()
        s("fblocked = True")
        s("fpc = pred")
        s("break")
        s.dedent()
    s("fpc = pred")
    if has_ctrl:
        s("if pred != pc + 1:")
        s("    break  # one taken control transfer per cycle")
    s.dedent()
    s.dedent()
    s.dedent()  # if not halted
    s("")

    # ---- per-cycle stall accounting ----------------------------------
    s(f"shortfall = {width} - committed_n")
    s("if shortfall > 0:")
    s.indent()
    s("if halted:")
    s("    cause = 'stall_drain'")
    s("stats[cause if cause is not None else 'stall_frontend'] "
      "+= shortfall")
    s.dedent()
    s("cycle += 1")
    s("")

    # ---- fast forward ------------------------------------------------
    s("# ---- fast-forward over provably idle cycles ----")
    s("if not halted:")
    s.indent()
    s("head = robq[0] if robq else None")
    s("if ((head is None or not head.completed")
    s("        or (head.is_branch and not head.resolved))")
    s("        and not ready_q):")
    s.indent()
    s("ok = True")
    if res_possible:
        s("res_live_ff = 0")
        s("res_refused_ff = 0")
    if blockable:
        s("blocked_ref_ff = 0")
    if res_possible:
        s("if pend_res:")
        s.indent()
        s(f"if {res_ok()}:")
        s.indent()
        s("res_live_ff = rs_live")
        s("res_refused_ff = rs_refused")
        s.dedent()
        s("else:")
        s("    ok = False")
        s.dedent()
    if wake_possible:
        s(f"if ok and pend_wake and not {wake_ok()}:")
        s("    ok = False")
    if blockable:
        s("if ok and blocked:")
        s.indent()
        s(f"if {issue_ok()}:")
        s("    blocked_ref_ff = blocked_refusals")
        s("else:")
        s("    ok = False")
        s.dedent()
    s(f"if (ok and not fblocked and len(fbuf) < {fbuf_cap}")
    s(f"        and 0 <= fpc < {plen} and fstall <= cycle):")
    s("    ok = False  # fetch would deliver next cycle")
    s("if ok:")
    s.indent()
    s("target = maxc")
    s("if limit is not None:")
    s.indent()
    s("t = last_commit + limit")
    s("if t < target:")
    s("    target = t")
    s.dedent()
    s("if cycle < fstall < target:")
    s("    target = fstall")
    if blockable:
        s(f"if blocked and is_retry != {_NEVER_LIT} and is_retry < target:")
        s("    target = is_retry")
    s("while wtimes and wtimes[0] not in wheel:")
    s("    heappop(wtimes)")
    s("if wtimes:")
    s.indent()
    s("wt = wtimes[0]")
    s("if wt <= cycle:")
    s("    ok = False  # a completion is due")
    s("elif wt < target:")
    s("    target = wt")
    s.dedent()
    s("if ok and fbuf:")
    s.indent()
    s("entry = fbuf[0]")
    s("if not rename_blocked(entry[1]):")
    s.indent()
    s("if entry[0] <= cycle:")
    s("    ok = False  # rename would dispatch")
    s("elif entry[0] < target:")
    s("    target = entry[0]")
    s.dedent()
    s.dedent()
    s("if ok and target > cycle:")
    s.indent()
    s("span = target - cycle")
    s(f"stats[classify(head)] += {width} * span")
    if res_possible:
        s("if res_live_ff:")
        s("    stats['delayed_resolution_cycles'] += span * res_live_ff")
        s("if res_refused_ff:")
        s("    dstats['delayed_resolutions'] += span * res_refused_ff")
    if blockable:
        s("if blocked_ref_ff:")
        s("    dstats['delayed_transmitters'] += span * blocked_ref_ff")
    s("cycle = target")
    s("ff_cycles += span")
    s("ff_jumps += 1")
    s.dedent()
    s.dedent()  # if ok
    s.dedent()  # if idle-shaped
    s.dedent()  # if not halted
    s.dedent()  # while

    # ---- epilogue ----------------------------------------------------
    s("")
    s("if not halted:")
    s.indent()
    s("if (limit is not None and cycle < maxc")
    s("        and cycle - last_commit >= limit):")
    s("    halt_reason = 'no_progress'")
    s("else:")
    s("    halt_reason = 'timeout'")
    s.dedent()
    s("")
    s("core.cycle = cycle")
    s("core.seq_counter = seqc")
    s("core.fetch_pc = fpc")
    s("core.fetch_stalled_until = fstall")
    s("core.fetch_blocked = fblocked")
    s("core.halted = halted")
    s("core.halt_reason = halt_reason")
    s("core.div_busy_until = divbusy")
    s("core.iq_count = iq_count")
    s("core._last_commit_cycle = last_commit")
    s("core._rename_block = rename_block")
    s("core._blocked = blocked")
    s("core._pending_wakeup = pend_wake")
    s("core._pending_resolution = pend_res")
    s("return ff_cycles, ff_jumps")
    s.dedent()
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
        tracer=None,
        metrics=None,
        no_progress_limit: Optional[int] = DEFAULT_NO_PROGRESS_LIMIT,
        **kwargs,
    ) -> None:
        if tracer is not None:
            raise CompileUnsupported(
                "PipelineTracer requires the per-cycle interpreter")
        if kwargs.pop("ledger", None) is not None:
            raise CompileUnsupported(
                "InterventionLedger requires the per-cycle interpreter")
        if kwargs.get("store_commit_listener") is not None \
                or kwargs.get("shared_memory") or kwargs.get("shared_l3"):
            raise CompileUnsupported(
                "multi-core sharing requires the interpreter")
        super().__init__(program, defense, config, memory, regs,
                         max_cycles, tracer=None, metrics=metrics,
                         no_progress_limit=no_progress_limit, **kwargs)
        self._compiled_run = compile_step(self.program, config,
                                          self.defense,
                                          metrics=self.metrics)

    def run(self) -> CoreResult:
        metrics = self.metrics
        host_start = time.perf_counter() if metrics is not None else 0.0
        ff_cycles, ff_jumps = self._compiled_run(self)
        if metrics is not None:
            elapsed = time.perf_counter() - host_start
            metrics.counter("uarch.sim_cycles").inc(self.cycle)
            metrics.counter("uarch.runs").inc()
            metrics.counter("uarch.compiled_runs").inc()
            metrics.timer("uarch.run_seconds").observe(elapsed)
            if ff_jumps:
                metrics.counter("uarch.fast_forward_cycles").inc(ff_cycles)
                metrics.counter("uarch.fast_forward_jumps").inc(ff_jumps)
            if elapsed > 0:
                rate = self.cycle / elapsed
                metrics.gauge("uarch.sim_cycles_per_sec").set(rate)
                metrics.gauge("uarch.compiled_cycles_per_sec").set(rate)
            self._record_speculation_metrics(metrics)
        return self._result()
