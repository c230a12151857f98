"""Hypothesis property tests on core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.arch import Memory
from repro.arch.semantics import MASK64, alu, div_timing_class
from repro.isa import Cond, Op, encode_flags, eval_cond
from repro.uarch import Cache
from repro.uarch.config import CacheConfig

u64 = st.integers(min_value=0, max_value=MASK64)


@given(addr=st.integers(min_value=0, max_value=(1 << 32) - 16), value=u64)
def test_memory_word_roundtrip(addr, value):
    memory = Memory()
    memory.write_word(addr, value)
    assert memory.read_word(addr) == value


@given(addr=st.integers(min_value=0, max_value=(1 << 32) - 16), value=u64)
def test_memory_bytes_compose_word(addr, value):
    memory = Memory()
    memory.write_word(addr, value)
    recomposed = sum(memory.read_byte(addr + i) << (8 * i)
                     for i in range(8))
    assert recomposed == value


@given(a=u64, b=u64)
def test_alu_results_fit_64_bits(a, b):
    for op in (Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR, Op.SHL,
               Op.SHR, Op.DIV, Op.REM):
        assert 0 <= alu(op, a, b) <= MASK64


@given(a=u64, b=u64)
def test_div_rem_identity(a, b):
    if b != 0:
        assert alu(Op.DIV, a, b) * b + alu(Op.REM, a, b) == a


@given(a=u64, b=u64)
def test_flags_trichotomy(a, b):
    flags = encode_flags(a, b)
    eq = eval_cond(Cond.EQ, flags)
    lt = eval_cond(Cond.LT, flags)
    gt = eval_cond(Cond.GT, flags)
    assert [eq, lt, gt].count(True) == 1
    assert eval_cond(Cond.LE, flags) == (lt or eq)
    assert eval_cond(Cond.GE, flags) == (not lt)
    assert eval_cond(Cond.NE, flags) == (not eq)
    assert eval_cond(Cond.B, flags) == (a < b)


@given(a=u64, b=u64)
def test_div_timing_bounded(a, b):
    assert 0 <= div_timing_class(a, b) <= 9


@settings(max_examples=30)
@given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20),
                          min_size=1, max_size=200))
def test_cache_capacity_invariant(addresses):
    cache = Cache(CacheConfig(4 * 64, 2, 3))  # 2 sets x 2 ways
    for addr in addresses:
        cache.lookup(addr)
        cache.fill(addr)
    assert len(cache.tag_state()) <= 4
    # Most recently filled line is always present.
    assert cache.contains(addresses[-1])


@settings(max_examples=30)
@given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 16),
                          min_size=2, max_size=100))
def test_cache_hit_after_fill(addresses):
    cache = Cache(CacheConfig(64 * 64, 4, 3))
    for addr in addresses:
        cache.fill(addr)
        assert cache.lookup(addr)


# ======================================================================
# Pipeline invariants on seeded random programs, audited live on the
# reference engine; the compiled engine must reproduce the audited run
# exactly.
# ======================================================================

import functools
from dataclasses import replace

import pytest

from repro.uarch.config import P_CORE
from repro.uarch.pipeline import Core, simulate
from repro.uarch.refcore import compare_results, grid_case


class AuditCore(Core):
    """A Core that checks structural invariants as it runs:

    * ROB commits strictly in sequence (rename) order.
    * Store-to-load forwarding never crosses a younger conflicting
      store: the forwarded store is older than the load, writes the
      same word, and no resolved store in between overlaps the load.
    * A squash leaves no live wrong-path uop in the IQ, the LSQ, or
      the fetch buffer.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.commit_seqs = []

    def _commit_uop(self, uop):
        if self.commit_seqs:
            assert uop.seq > self.commit_seqs[-1], \
                f"out-of-order commit: {uop.seq} after {self.commit_seqs[-1]}"
        self.commit_seqs.append(uop.seq)
        super()._commit_uop(uop)

    def _execute_load(self, uop):
        latency = super()._execute_load(uop)
        store = uop.forwarded_from
        if store is not None:
            assert store.seq < uop.seq, "forwarding from a younger store"
            assert store.mem_addr == uop.mem_addr, \
                "forwarding from a different word"
            for other in self.lsq.stores:
                if (store.seq < other.seq < uop.seq
                        and other.mem_addr is not None
                        and abs(other.mem_addr - uop.mem_addr) < 8):
                    raise AssertionError(
                        "forwarding crossed an intervening conflicting "
                        f"store (seqs {store.seq} < {other.seq} "
                        f"< {uop.seq})")
        return latency

    def _squash_after(self, branch):
        super()._squash_after(branch)
        for queue_name in ("loads", "stores"):
            for uop in getattr(self.lsq, queue_name):
                assert uop.seq <= branch.seq or uop.squashed, \
                    f"wrong-path uop {uop.seq} left in LSQ {queue_name}"
        for _, uop in self._ready_q:
            assert uop.seq <= branch.seq or uop.squashed, \
                f"wrong-path uop {uop.seq} live in ready queue"
        for uop in self._blocked:
            assert uop.seq <= branch.seq or uop.squashed, \
                f"wrong-path uop {uop.seq} live in blocked list"
        assert not self.fetch_buffer, "fetch buffer not cleared by squash"


def _audit_case(seed, defense_name):
    """The ``arch``-class grid program for ``seed`` on the plain P-core."""
    return replace(grid_case(defense_name, "arch", "P", seed), config=P_CORE)


@functools.lru_cache(maxsize=None)
def _audit_run(seed, defense_name):
    """The audited reference run (shared by both engines' tests)."""
    case = _audit_case(seed, defense_name)
    core = AuditCore(case.program, case.defense(), case.config, case.memory,
                     case.regs)
    result = core.run()
    # Every committed uop went through the audited commit path.
    assert len(core.commit_seqs) == result.stats["committed_uops"]
    return result


@pytest.mark.parametrize("defense_name", ["unsafe", "track", "spt"])
@pytest.mark.parametrize("seed", [3, 17, 91])
def test_pipeline_invariants_compiled_engine(defense_name, seed):
    # The compiled engine runs no per-cycle hooks to audit; it inherits
    # the invariants by reproducing the audited reference run exactly.
    case = _audit_case(seed, defense_name)
    compiled = simulate(case.program, case.defense(), case.config,
                        case.memory, case.regs, engine="compiled")
    compare_results(compiled, _audit_run(seed, defense_name)) \
        .raise_if_different()


@pytest.mark.parametrize("defense_name", ["unsafe", "track", "spt"])
@pytest.mark.parametrize("seed", [3, 17, 91])
def test_pipeline_invariants_reference_engine(defense_name, seed):
    _audit_run(seed, defense_name)


def test_pipeline_invariants_on_spectre_gadget():
    from repro.fixtures import build

    program, memory = build("v1-gadget")
    core = AuditCore(program, None, P_CORE, memory)
    result = core.run()
    assert result.halt_reason == "halt"
    assert core.commit_seqs == sorted(core.commit_seqs)
