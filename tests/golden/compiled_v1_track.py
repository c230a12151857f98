"""Specialized pipeline for one (program, config, defense) triple.

Generated by repro.uarch.compiled.generate_source; do not edit.
program: 28 instructions
config: P-core (width=6, model=atcommit, buggy_squash=False)
defense: repro.defenses.protean.ProtTrack (live hooks: on_rename, may_execute, may_resolve, may_wakeup, on_load_executed, on_commit, on_squash, execute_recheck_seq, resolve_recheck_seq, wakeup_recheck_seq)
"""
from collections import deque
from heapq import heappush, heappop

from repro.uarch.uop import Uop
from repro.uarch.pipeline import hist_key as _hist

# Per-PC decode columns (kind = Op enum index).
K = (0, 0, 0, 31, 10, 21, 23, 30, 0, 0, 0, 26, 10, 10, 21, 23, 0, 26, 34, 30, 30, 10, 20, 23, 30, 15, 30, 27)
ND = (1, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1)
DESTS = ((1,), (2,), (6,), (), (6,), (16,), (), (10,), (7,), (9,), (0,), (15,), (9,), (7,), (16,), (), (0,), (15,), (), (8,), (8,), (8,), (16,), (), (3,), (3,), (4,), (15,))
SRCS = ((), (), (), (1, 6, 6), (6,), (6,), (16,), (1,), (), (), (), (15,), (9,), (7,), (7,), (16,), (), (15,), (), (9,), (9, 8), (8,), (0, 8), (16,), (1, 0), (3,), (2, 3), (15,))
IMM = (4096, 524288, 0, 0, 8, 512, 0, 768, 0, 131072, 0, 0, 16384, 1, 6, 0, 800, 0, 0, 0, 64, 512, 0, 0, 0, 9, 0, 0)
IMMM = (4096, 524288, 0, 0, 8, 512, 0, 768, 0, 131072, 0, 0, 16384, 1, 6, 0, 800, 0, 0, 0, 64, 512, 0, 0, 0, 9, 0, 0)
TGT = (-1, -1, -1, -1, -1, -1, 3, -1, -1, -1, -1, 19, -1, -1, -1, 10, -1, 19, -1, -1, -1, -1, -1, 27, -1, -1, -1, -1)
CONDC = (-1, -1, -1, -1, -1, -1, 2, -1, -1, -1, -1, -1, -1, -1, -1, 2, -1, -1, -1, -1, -1, -1, -1, 5, -1, -1, -1, -1)
PROT = (False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False)
HASRB = (False, False, False, True, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, True, False, True, False, True, False, True, False)
ISMEM = (False, False, False, True, False, False, False, True, False, False, False, True, False, False, False, False, False, True, False, True, True, False, False, False, True, False, True, True)
ISBR = (False, False, False, False, False, False, True, False, False, False, False, False, False, False, False, True, False, False, False, False, False, False, False, True, False, False, False, True)
ISCTRL = (False, False, False, False, False, False, True, False, False, False, False, True, False, False, False, True, False, True, False, False, False, False, False, True, False, False, False, True)
ISLD = (False, False, False, False, False, False, False, True, False, False, False, False, False, False, False, False, False, False, False, True, True, False, False, False, True, False, True, True)
ISST = (False, False, False, True, False, False, False, False, False, False, False, True, False, False, False, False, False, True, False, False, False, False, False, False, False, False, False, False)
ISDIV = (False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False)
SQK = ('', '', '', '', '', '', 'squashes_conditional', '', '', '', '', '', '', '', '', 'squashes_conditional', '', '', '', '', '', '', '', 'squashes_conditional', '', '', '', 'squashes_return')

_B2C = {'defense_execute': 'stall_defense_transmitter', 'div_busy': 'stall_div_busy', 'disambiguation': 'stall_mem_disambiguation', 'mfence': 'stall_dependency', 'defense_resolution': 'stall_defense_resolution', 'squash_notify': 'stall_squash_notify'}


def run(core):
    program = core.program
    insts = program.instructions
    d = core.defense
    dstats = d.stats
    stats = core.stats
    prf = core.prf
    pvals = prf.values
    pready = prf.ready
    pprot = prf.prot
    prf_freeq = prf._free
    prf_free = prf.free
    rmap = core.rename_map.mapping
    arch_values = core.arch_values
    robq = core.rob.entries
    lq = core.lsq.loads
    sq = core.lsq.stores
    caches = core.caches
    c_access = caches.access
    mem_write = core.memory.write_word
    mem_read = core.memory.read_word
    t_word_prot = core.mem_tags.word_protected
    t_clear = core.mem_tags.clear_word
    t_set = core.mem_tags.set_word
    bp = core.bp
    bp_predict = bp.predict_next
    bp_snapshot = bp.snapshot
    bp_train = bp.train
    bp_restore = bp.restore
    committed_list = core.committed
    waiters = core._waiters
    wheel = core._wheel
    wtimes = []  # min-heap over the live wheel keys
    ready_q = core._ready_q
    producer_of = core._producer_of
    fbuf = core.fetch_buffer
    maxc = core.max_cycles
    limit = core.no_progress_limit
    d_on_rename = d.on_rename
    d_may_exec = d.may_execute
    d_may_res = d.may_resolve
    d_may_wake = d.may_wakeup
    d_on_loadexec = d.on_load_executed
    d_on_commit = d.on_commit
    d_on_squash = d.on_squash
    d_exec_recheck = d.execute_recheck_seq
    d_res_recheck = d.resolve_recheck_seq
    d_wake_recheck = d.wakeup_recheck_seq

    # hot scalars, written back on exit
    cycle = core.cycle
    seqc = core.seq_counter
    fpc = core.fetch_pc
    fstall = core.fetch_stalled_until
    fblocked = core.fetch_blocked
    halted = core.halted
    halt_reason = core.halt_reason
    divbusy = core.div_busy_until
    iq_count = core.iq_count
    last_commit = core._last_commit_cycle
    rename_block = None
    blocked = core._blocked
    pend_wake = core._pending_wakeup
    pend_res = core._pending_resolution

    # engine-local state: event counters, refusal caches, fast-forward
    disamb_blocker = None
    evt_squash = 0
    evt_resolve = 0
    evt_div = 0
    evt_store = 0
    evt_load = 0
    is_valid = False
    is_squash = 0
    is_resolve = 0
    is_div = 0
    is_store = 0
    is_load = 0
    is_hasdis = False
    is_barrier = 0
    is_retry = 4611686018427387904
    rs_valid = False
    rs_squash = 0
    rs_resolve = 0
    rs_load = 0
    rs_barrier = 0
    wk_valid = False
    wk_squash = 0
    wk_resolve = 0
    wk_load = 0
    wk_barrier = 0
    ff_cycles = 0
    ff_jumps = 0

    def do_wakeup(u):
        if u.wakeup_block_cycle >= 0:
            wb = u.wakeup_block_cycle
            u.wakeup_block_cycle = -1
            dstats['wakeup_delay_cycles'] += cycle - wb
            stats['_open_wakeup'] -= 1
            stats['_open_wakeup_sum'] -= wb
        u.wakeup_pending = False
        for _, preg in u.pdests:
            pready[preg] = True
            ws = waiters.pop(preg, None)
            if ws:
                for w in ws:
                    if w.squashed or w.issued:
                        continue
                    w.unready_count -= 1
                    if w.unready_count == 0:
                        heappush(ready_q, (w.seq, w))

    def try_exec(u):
        nonlocal divbusy, iq_count, disamb_blocker, evt_load, evt_store, evt_div
        pc = u.pc
        k = K[pc]
        if k == 0:  # MOVI
            if not d_may_exec(u):
                if u.exec_block_cycle < 0:
                    u.exec_block_cycle = cycle
                    dstats['exec_interventions'] += 1
                    stats['_open_exec'] += 1
                    stats['_open_exec_sum'] += cycle
                u.block_reason = 'defense_execute'
                return False
            if u.exec_block_cycle >= 0:
                eb = u.exec_block_cycle
                u.exec_block_cycle = -1
                dstats['exec_delay_cycles'] += cycle - eb
                stats['_open_exec'] -= 1
                stats['_open_exec_sum'] -= eb
            v = IMMM[pc]
            pvals[u.pdests[0][1]] = v
            u.result_values = ((DESTS[pc][0], v),)
            latency = 1
        elif k == 30:  # LOAD
            if not d_may_exec(u):
                if u.exec_block_cycle < 0:
                    u.exec_block_cycle = cycle
                    dstats['exec_interventions'] += 1
                    stats['_open_exec'] += 1
                    stats['_open_exec_sum'] += cycle
                u.block_reason = 'defense_execute'
                return False
            if u.exec_block_cycle >= 0:
                eb = u.exec_block_cycle
                u.exec_block_cycle = -1
                dstats['exec_delay_cycles'] += cycle - eb
                stats['_open_exec'] -= 1
                stats['_open_exec_sum'] -= eb
            ps = u.psrcs
            if HASRB[pc]:
                addr = (pvals[ps[0][1]] + pvals[ps[1][1]] + IMM[pc]) & 0xFFFFFFFF
            else:
                addr = (pvals[ps[0][1]] + IMM[pc]) & 0xFFFFFFFF
            u.mem_addr = addr
            best = None
            stall_st = None
            for st in sq:
                if st.seq >= u.seq:
                    continue
                sma = st.mem_addr
                if sma is None:
                    stall_st = st
                    break
                delta = sma - addr
                if -8 < delta < 8:
                    if sma != addr:
                        stall_st = st
                        break
                    if best is None or st.seq > best.seq:
                        best = st
            if stall_st is not None:
                disamb_blocker = stall_st
                u.block_reason = 'disambiguation'
                return False
            if best is not None:
                value = best.store_data
                latency = 2
                u.lsq_prot = best.lsq_prot
                u.forwarded_from = best
                u.mem_level = 'sq'
            else:
                latency = c_access(addr)
                value = mem_read(addr)
                u.lsq_prot = t_word_prot(addr)
                u.mem_level = caches.last_level
            u.mem_value = value
            v = value & 0xFFFFFFFFFFFFFFFF
            pvals[u.pdests[0][1]] = v
            u.result_values = ((DESTS[pc][0], v),)
            d_on_loadexec(u)
        elif k == 10:  # ADDI
            if not d_may_exec(u):
                if u.exec_block_cycle < 0:
                    u.exec_block_cycle = cycle
                    dstats['exec_interventions'] += 1
                    stats['_open_exec'] += 1
                    stats['_open_exec_sum'] += cycle
                u.block_reason = 'defense_execute'
                return False
            if u.exec_block_cycle >= 0:
                eb = u.exec_block_cycle
                u.exec_block_cycle = -1
                dstats['exec_delay_cycles'] += cycle - eb
                stats['_open_exec'] -= 1
                stats['_open_exec_sum'] -= eb
            a = pvals[u.psrcs[0][1]]
            b = IMMM[pc]
            v = (a + b) & 0xFFFFFFFFFFFFFFFF
            pvals[u.pdests[0][1]] = v
            u.result_values = ((DESTS[pc][0], v),)
            latency = 1
        elif k == 23:  # BR
            if not d_may_exec(u):
                if u.exec_block_cycle < 0:
                    u.exec_block_cycle = cycle
                    dstats['exec_interventions'] += 1
                    stats['_open_exec'] += 1
                    stats['_open_exec_sum'] += cycle
                u.block_reason = 'defense_execute'
                return False
            if u.exec_block_cycle >= 0:
                eb = u.exec_block_cycle
                u.exec_block_cycle = -1
                dstats['exec_delay_cycles'] += cycle - eb
                stats['_open_exec'] -= 1
                stats['_open_exec_sum'] -= eb
            fl = pvals[u.psrcs[0][1]]
            c = CONDC[pc]
            if c == 2:  # LT
                tk = (fl & 2) != 0
            elif c == 5:  # GE
                tk = (fl & 2) == 0
            u.taken = tk
            u.actual_next = TGT[pc] if tk else pc + 1
            latency = 1
        elif k == 21:  # CMPI
            if not d_may_exec(u):
                if u.exec_block_cycle < 0:
                    u.exec_block_cycle = cycle
                    dstats['exec_interventions'] += 1
                    stats['_open_exec'] += 1
                    stats['_open_exec_sum'] += cycle
                u.block_reason = 'defense_execute'
                return False
            if u.exec_block_cycle >= 0:
                eb = u.exec_block_cycle
                u.exec_block_cycle = -1
                dstats['exec_delay_cycles'] += cycle - eb
                stats['_open_exec'] -= 1
                stats['_open_exec_sum'] -= eb
            a = pvals[u.psrcs[0][1]]
            b = IMMM[pc]
            fl = 1 if a == b else 0
            if (a ^ 0x8000000000000000) < (b ^ 0x8000000000000000):
                fl |= 2
            if a < b:
                fl |= 4
            pvals[u.pdests[0][1]] = fl
            u.result_values = ((16, fl),)
            latency = 1
        elif k == 26:  # CALL
            if not d_may_exec(u):
                if u.exec_block_cycle < 0:
                    u.exec_block_cycle = cycle
                    dstats['exec_interventions'] += 1
                    stats['_open_exec'] += 1
                    stats['_open_exec_sum'] += cycle
                u.block_reason = 'defense_execute'
                return False
            if u.exec_block_cycle >= 0:
                eb = u.exec_block_cycle
                u.exec_block_cycle = -1
                dstats['exec_delay_cycles'] += cycle - eb
                stats['_open_exec'] -= 1
                stats['_open_exec_sum'] -= eb
            sp = pvals[u.psrcs[0][1]]
            nsp = (sp - 8) & 0xFFFFFFFFFFFFFFFF
            addr = nsp & 0xFFFFFFFF
            u.mem_addr = addr
            u.store_data = pc + 1
            u.lsq_prot = PROT[pc]
            pvals[u.pdests[0][1]] = nsp
            u.result_values = ((15, nsp),)
            u.taken = True
            u.actual_next = TGT[pc]
            c_access(addr)
            latency = 1
        elif k == 15:  # SHLI
            if not d_may_exec(u):
                if u.exec_block_cycle < 0:
                    u.exec_block_cycle = cycle
                    dstats['exec_interventions'] += 1
                    stats['_open_exec'] += 1
                    stats['_open_exec_sum'] += cycle
                u.block_reason = 'defense_execute'
                return False
            if u.exec_block_cycle >= 0:
                eb = u.exec_block_cycle
                u.exec_block_cycle = -1
                dstats['exec_delay_cycles'] += cycle - eb
                stats['_open_exec'] -= 1
                stats['_open_exec_sum'] -= eb
            a = pvals[u.psrcs[0][1]]
            b = IMMM[pc]
            v = (a << (b & 63)) & 0xFFFFFFFFFFFFFFFF
            pvals[u.pdests[0][1]] = v
            u.result_values = ((DESTS[pc][0], v),)
            latency = 1
        elif k == 20:  # CMP
            if not d_may_exec(u):
                if u.exec_block_cycle < 0:
                    u.exec_block_cycle = cycle
                    dstats['exec_interventions'] += 1
                    stats['_open_exec'] += 1
                    stats['_open_exec_sum'] += cycle
                u.block_reason = 'defense_execute'
                return False
            if u.exec_block_cycle >= 0:
                eb = u.exec_block_cycle
                u.exec_block_cycle = -1
                dstats['exec_delay_cycles'] += cycle - eb
                stats['_open_exec'] -= 1
                stats['_open_exec_sum'] -= eb
            ps = u.psrcs
            a = pvals[ps[0][1]]
            b = pvals[ps[1][1]]
            fl = 1 if a == b else 0
            if (a ^ 0x8000000000000000) < (b ^ 0x8000000000000000):
                fl |= 2
            if a < b:
                fl |= 4
            pvals[u.pdests[0][1]] = fl
            u.result_values = ((16, fl),)
            latency = 1
        elif k == 27:  # RET
            if not d_may_exec(u):
                if u.exec_block_cycle < 0:
                    u.exec_block_cycle = cycle
                    dstats['exec_interventions'] += 1
                    stats['_open_exec'] += 1
                    stats['_open_exec_sum'] += cycle
                u.block_reason = 'defense_execute'
                return False
            if u.exec_block_cycle >= 0:
                eb = u.exec_block_cycle
                u.exec_block_cycle = -1
                dstats['exec_delay_cycles'] += cycle - eb
                stats['_open_exec'] -= 1
                stats['_open_exec_sum'] -= eb
            sp = pvals[u.psrcs[0][1]]
            addr = sp & 0xFFFFFFFF
            u.mem_addr = addr
            best = None
            stall_st = None
            for st in sq:
                if st.seq >= u.seq:
                    continue
                sma = st.mem_addr
                if sma is None:
                    stall_st = st
                    break
                delta = sma - addr
                if -8 < delta < 8:
                    if sma != addr:
                        stall_st = st
                        break
                    if best is None or st.seq > best.seq:
                        best = st
            if stall_st is not None:
                disamb_blocker = stall_st
                u.block_reason = 'disambiguation'
                return False
            if best is not None:
                value = best.store_data
                latency = 2
                u.lsq_prot = best.lsq_prot
                u.forwarded_from = best
                u.mem_level = 'sq'
            else:
                latency = c_access(addr)
                value = mem_read(addr)
                u.lsq_prot = t_word_prot(addr)
                u.mem_level = caches.last_level
            u.mem_value = value
            v2 = (sp + 8) & 0xFFFFFFFFFFFFFFFF
            pvals[u.pdests[0][1]] = v2
            u.result_values = ((15, v2),)
            u.taken = True
            u.actual_next = value
            d_on_loadexec(u)
        elif k == 31:  # STORE
            if not d_may_exec(u):
                if u.exec_block_cycle < 0:
                    u.exec_block_cycle = cycle
                    dstats['exec_interventions'] += 1
                    stats['_open_exec'] += 1
                    stats['_open_exec_sum'] += cycle
                u.block_reason = 'defense_execute'
                return False
            if u.exec_block_cycle >= 0:
                eb = u.exec_block_cycle
                u.exec_block_cycle = -1
                dstats['exec_delay_cycles'] += cycle - eb
                stats['_open_exec'] -= 1
                stats['_open_exec_sum'] -= eb
            ps = u.psrcs
            if HASRB[pc]:
                addr = (pvals[ps[0][1]] + pvals[ps[1][1]] + IMM[pc]) & 0xFFFFFFFF
                dp = ps[2][1]
            else:
                addr = (pvals[ps[0][1]] + IMM[pc]) & 0xFFFFFFFF
                dp = ps[1][1]
            u.mem_addr = addr
            u.store_data = pvals[dp]
            u.lsq_prot = pprot[dp]
            c_access(addr)
            latency = 1
        else:  # pragma: no cover
            raise AssertionError('unhandled kind %d' % k)
        u.block_reason = None
        u.issued = True
        u.in_iq = False
        iq_count -= 1
        u.issue_cycle = cycle
        stats['issued_uops'] += 1
        if ISLD[pc]:
            evt_load += 1
        elif ISST[pc]:
            evt_store += 1
        done = cycle + (latency if latency > 1 else 1)
        bkt = wheel.get(done)
        if bkt is None:
            wheel[done] = [u]
            heappush(wtimes, done)
        else:
            bkt.append(u)
        return True

    def attempt_res(u):
        nonlocal evt_resolve, evt_squash, rs_valid, iq_count, fpc, fstall, fblocked
        if not d_may_res(u):
            if u.resolve_block_cycle < 0:
                u.resolve_block_cycle = cycle
                dstats['resolve_interventions'] += 1
                stats['_open_resolve'] += 1
                stats['_open_resolve_sum'] += cycle
            u.block_reason = 'defense_resolution'
            u.resolution_pending = True
            pend_res.append(u)
            rs_valid = False
            return
        if u.resolve_block_cycle >= 0:
            rb = u.resolve_block_cycle
            u.resolve_block_cycle = -1
            dstats['resolve_delay_cycles'] += cycle - rb
            stats['_open_resolve'] -= 1
            stats['_open_resolve_sum'] -= rb
        evt_resolve += 1
        dep = stats['_spec_depth']
        stats[_hist('spec_depth', dep)] += 1
        stats['_spec_depth'] = dep - 1
        u.block_reason = None
        u.resolved = True
        u.resolution_pending = False
        infl = core._inflight_branches
        while infl and (infl[0].squashed or infl[0].resolved):
            infl.popleft()
        bp_train(u.pc, u.inst, True if u.taken else False, u.actual_next, u.bp_index)
        if u.actual_next != u.predicted_next:
            u.mispredicted = True
            # squash everything younger (youngest-first rollback)
            evt_squash += 1
            stats['squashes'] += 1
            stats[SQK[u.pc]] += 1
            bseq = u.seq
            n_sq = 0
            while robq and robq[-1].seq > bseq:
                y = robq.pop()
                y.in_rob = False
                n_sq += 1
                y.squashed = True
                y.squash_cycle = cycle
                if ISBR[y.pc] and not y.resolved:
                    stats['_spec_depth'] -= 1
                if y.exec_block_cycle >= 0:
                    eb = y.exec_block_cycle
                    y.exec_block_cycle = -1
                    dstats['exec_delay_cycles'] += cycle - eb
                    stats['_open_exec'] -= 1
                    stats['_open_exec_sum'] -= eb
                if y.resolve_block_cycle >= 0:
                    rb = y.resolve_block_cycle
                    y.resolve_block_cycle = -1
                    dstats['resolve_delay_cycles'] += cycle - rb
                    stats['_open_resolve'] -= 1
                    stats['_open_resolve_sum'] -= rb
                if y.wakeup_block_cycle >= 0:
                    wb = y.wakeup_block_cycle
                    y.wakeup_block_cycle = -1
                    dstats['wakeup_delay_cycles'] += cycle - wb
                    stats['_open_wakeup'] -= 1
                    stats['_open_wakeup_sum'] -= wb
                for pd, opd in zip(y.pdests, y.old_pdests):
                    rmap[pd[0]] = opd[1]
                for _, pg in y.pdests:
                    prf_free(pg)
                if y.is_load:
                    try:
                        lq.remove(y)
                    except ValueError:
                        pass
                if y.is_store:
                    try:
                        sq.remove(y)
                    except ValueError:
                        pass
                if y.in_iq:
                    y.in_iq = False
                    iq_count -= 1
                d_on_squash(y)
            stats['squashed_uops'] += n_sq
            stats[_hist('squash_cascade', n_sq)] += 1
            for _, fu in fbuf:
                fu.squashed = True
                fu.squash_cycle = cycle
            fbuf.clear()
            core._inflight_branches = deque(
                b for b in core._inflight_branches if not b.squashed)
            infl = core._inflight_branches
            while infl and (infl[0].squashed or infl[0].resolved):
                infl.popleft()
            snap = u.bp_snapshot
            if snap is not None:
                bp_restore(snap)
                if K[u.pc] == 23:  # BR
                    if (u.predicted_next != u.pc + 1) != (True if u.taken else False):
                        bp.direction.history ^= 1
            fpc = u.actual_next
            fstall = cycle + 6
            fblocked = False

    def uop_stall(u):
        if u.issued:
            ml = u.mem_level
            if ml == 'l2' or ml == 'l3' or ml == 'mem':
                return 'stall_cache_miss'
            return 'stall_exec_latency'
        br = u.block_reason
        if br is not None:
            return _B2C.get(br)
        return None

    def classify(head):
        if head is None:
            if cycle < fstall:
                return 'stall_fetch_redirect'
            if not fbuf and not 0 <= fpc < 28:
                return 'stall_no_progress'
            return 'stall_frontend'
        if head.is_branch and head.completed and not head.resolved:
            return _B2C.get(head.block_reason, 'stall_defense_resolution')
        if head.issued:
            return uop_stall(head) or 'stall_exec_latency'
        if head.unready_count > 0:
            for _, pg in head.psrcs:
                if pready[pg]:
                    continue
                producer = producer_of.get(pg)
                if producer is None or producer.squashed:
                    continue
                if producer.wakeup_pending:
                    return 'stall_defense_wakeup'
                cause = uop_stall(producer)
                if cause is not None:
                    return cause
            if rename_block is not None:
                return rename_block
            return 'stall_dependency'
        return uop_stall(head) or 'stall_issue_bw'

    def rename_blocked(u):
        pc = u.pc
        return (len(robq) >= 512
                or len(prf_freeq) < ND[pc]
                or (ISLD[pc] and len(lq) >= 192)
                or (ISST[pc] and len(sq) >= 114)
                or iq_count >= 160)

    while not halted and cycle < maxc:
        if limit is not None and cycle - last_commit >= limit:
            break

        # ---- commit ----
        committed_n = 0
        cause = None
        for _ in range(6):
            if robq:
                head = robq[0]
                if not head.completed or (head.is_branch and not head.resolved):
                    cause = classify(head)
                    break
            else:
                cause = classify(None)
                break
            last_commit = cycle
            hpc = head.pc
            if K[hpc] == 34:  # HALT
                head.committed = True
                head.commit_cycle = cycle
                committed_list.append(head)
                robq.popleft()
                head.in_rob = False
                halted = True
                halt_reason = 'halt'
                committed_n += 1
                break
            if ISST[hpc]:
                ma = head.mem_addr
                mem_write(ma, head.store_data)
                c_access(ma)
                t_set(ma, True if head.lsq_prot else False)
            if ISLD[hpc] and not PROT[hpc]:
                t_clear(head.mem_addr)
            for areg, value in head.result_values:
                arch_values[areg] = value
            for _, old_pg in head.old_pdests:
                prf_free(old_pg)
            if ISBR[hpc]:
                stats['committed_branches'] += 1
                if head.mispredicted:
                    stats['mispredicted_branches'] += 1
            d_on_commit(head)
            head.committed = True
            head.commit_cycle = cycle
            committed_list.append(head)
            robq.popleft()
            head.in_rob = False
            if ISLD[hpc]:
                try:
                    lq.remove(head)
                except ValueError:
                    pass
            if ISST[hpc]:
                try:
                    sq.remove(head)
                except ValueError:
                    pass
            if ISBR[hpc]:
                infl = core._inflight_branches
                while infl and (infl[0].squashed or infl[0].resolved):
                    infl.popleft()
            next_pc = head.actual_next if ISCTRL[hpc] else hpc + 1
            if not 0 <= next_pc < 28:
                halted = True
                halt_reason = 'off_end' if next_pc == 28 else 'bad_pc'
            committed_n += 1
            if halted:
                break

        if not halted:
            # ---- complete / wakeup / resolve ----
            bkt = wheel.pop(cycle, None)
            if bkt is not None:
                for u in bkt:
                    if u.squashed:
                        continue
                    u.executed = True
                    u.complete_cycle = cycle
                    u.completed = True
                    if u.is_branch:
                        attempt_res(u)
                    if u.pdests:
                        if d_may_wake(u):
                            do_wakeup(u)
                        else:
                            if u.wakeup_block_cycle < 0:
                                u.wakeup_block_cycle = cycle
                                dstats['wakeup_interventions'] += 1
                                stats['_open_wakeup'] += 1
                                stats['_open_wakeup_sum'] += cycle
                            u.wakeup_pending = True
                            pend_wake.append(u)
                            wk_valid = False

            # ---- pending-resolution retry ----
            if pend_res:
                if not (rs_valid
                        and rs_squash == evt_squash
                        and rs_resolve == evt_resolve
                        and robq and robq[0].seq < rs_barrier):
                    rs_valid = False
                    squash0 = evt_squash
                    resolve0 = evt_resolve
                    load0 = evt_load
                    pending = pend_res
                    pending.sort()
                    pend_res = []
                    for u in pending:
                        if u.squashed or u.resolved:
                            continue
                        attempt_res(u)
                    if (pend_res and squash0 == evt_squash
                            and resolve0 == evt_resolve and load0 == evt_load):
                        barrier = 4611686018427387904
                        for u in pend_res:
                            if u.block_reason == 'defense_resolution':
                                seq = d_res_recheck(u)
                                if seq is None:
                                    seq = robq[0].seq + 1
                                if seq < barrier:
                                    barrier = seq
                        rs_valid = True
                        rs_squash = squash0
                        rs_resolve = resolve0
                        rs_load = load0
                        rs_barrier = barrier

            # ---- pending-wakeup retry ----
            if pend_wake:
                if not (wk_valid
                        and wk_squash == evt_squash
                        and robq and robq[0].seq < wk_barrier):
                    wk_valid = False
                    squash0 = evt_squash
                    resolve0 = evt_resolve
                    load0 = evt_load
                    pending = pend_wake
                    pend_wake = []
                    for u in pending:
                        if u.squashed:
                            continue
                        if d_may_wake(u):
                            do_wakeup(u)
                        else:
                            pend_wake.append(u)
                    if (pend_wake and squash0 == evt_squash
                            and resolve0 == evt_resolve and load0 == evt_load):
                        barrier = 4611686018427387904
                        head_next = robq[0].seq + 1 if robq else 0
                        for u in pend_wake:
                            seq = d_wake_recheck(u)
                            if seq is None:
                                seq = head_next
                            if seq < barrier:
                                barrier = seq
                        wk_valid = True
                        wk_squash = squash0
                        wk_resolve = resolve0
                        wk_load = load0
                        wk_barrier = barrier

            # ---- issue ----
            issued = 0
            if blocked:
                if not (is_valid
                        and is_squash == evt_squash
                        and is_div == evt_div
                        and cycle < is_retry
                        and (not is_hasdis or is_store == evt_store)
                        and robq and robq[0].seq < is_barrier):
                    is_valid = False
                    squash0 = evt_squash
                    resolve0 = evt_resolve
                    div0 = evt_div
                    store0 = evt_store
                    load0 = evt_load
                    barrier = 4611686018427387904
                    unknown = False
                    has_disamb = False
                    retry_cycle = 4611686018427387904
                    blocked.sort()
                    still_b = []
                    for u in blocked:
                        if u.squashed or u.issued:
                            continue
                        if issued < 6 and try_exec(u):
                            issued += 1
                            continue
                        still_b.append(u)
                        reason = u.block_reason
                        if reason == 'defense_execute':
                            seq = d_exec_recheck(u)
                            if seq is None:
                                unknown = True
                            elif seq < barrier:
                                barrier = seq
                        elif reason == 'disambiguation':
                            has_disamb = True
                            if (disamb_blocker is not None
                                    and disamb_blocker.seq < barrier):
                                barrier = disamb_blocker.seq
                    blocked = still_b
                    if (still_b and issued < 6
                            and squash0 == evt_squash and resolve0 == evt_resolve
                            and div0 == evt_div and store0 == evt_store
                            and load0 == evt_load):
                        if unknown:
                            seq = robq[0].seq + 1
                            if seq < barrier:
                                barrier = seq
                        is_valid = True
                        is_squash = squash0
                        is_resolve = resolve0
                        is_div = div0
                        is_store = store0
                        is_load = load0
                        is_hasdis = has_disamb
                        is_barrier = barrier
                        is_retry = retry_cycle
            while issued < 6 and ready_q:
                u = heappop(ready_q)[1]
                if u.squashed or u.issued:
                    continue
                pc = u.pc
                k = K[pc]
                if k == 0:  # MOVI
                    if not d_may_exec(u):
                        if u.exec_block_cycle < 0:
                            u.exec_block_cycle = cycle
                            dstats['exec_interventions'] += 1
                            stats['_open_exec'] += 1
                            stats['_open_exec_sum'] += cycle
                        u.block_reason = 'defense_execute'
                        blocked.append(u)
                        is_valid = False
                        continue
                    if u.exec_block_cycle >= 0:
                        eb = u.exec_block_cycle
                        u.exec_block_cycle = -1
                        dstats['exec_delay_cycles'] += cycle - eb
                        stats['_open_exec'] -= 1
                        stats['_open_exec_sum'] -= eb
                    v = IMMM[pc]
                    pvals[u.pdests[0][1]] = v
                    u.result_values = ((DESTS[pc][0], v),)
                    latency = 1
                elif k == 30:  # LOAD
                    if not d_may_exec(u):
                        if u.exec_block_cycle < 0:
                            u.exec_block_cycle = cycle
                            dstats['exec_interventions'] += 1
                            stats['_open_exec'] += 1
                            stats['_open_exec_sum'] += cycle
                        u.block_reason = 'defense_execute'
                        blocked.append(u)
                        is_valid = False
                        continue
                    if u.exec_block_cycle >= 0:
                        eb = u.exec_block_cycle
                        u.exec_block_cycle = -1
                        dstats['exec_delay_cycles'] += cycle - eb
                        stats['_open_exec'] -= 1
                        stats['_open_exec_sum'] -= eb
                    ps = u.psrcs
                    if HASRB[pc]:
                        addr = (pvals[ps[0][1]] + pvals[ps[1][1]] + IMM[pc]) & 0xFFFFFFFF
                    else:
                        addr = (pvals[ps[0][1]] + IMM[pc]) & 0xFFFFFFFF
                    u.mem_addr = addr
                    best = None
                    stall_st = None
                    for st in sq:
                        if st.seq >= u.seq:
                            continue
                        sma = st.mem_addr
                        if sma is None:
                            stall_st = st
                            break
                        delta = sma - addr
                        if -8 < delta < 8:
                            if sma != addr:
                                stall_st = st
                                break
                            if best is None or st.seq > best.seq:
                                best = st
                    if stall_st is not None:
                        disamb_blocker = stall_st
                        u.block_reason = 'disambiguation'
                        blocked.append(u)
                        is_valid = False
                        continue
                    if best is not None:
                        value = best.store_data
                        latency = 2
                        u.lsq_prot = best.lsq_prot
                        u.forwarded_from = best
                        u.mem_level = 'sq'
                    else:
                        latency = c_access(addr)
                        value = mem_read(addr)
                        u.lsq_prot = t_word_prot(addr)
                        u.mem_level = caches.last_level
                    u.mem_value = value
                    v = value & 0xFFFFFFFFFFFFFFFF
                    pvals[u.pdests[0][1]] = v
                    u.result_values = ((DESTS[pc][0], v),)
                    d_on_loadexec(u)
                elif k == 10:  # ADDI
                    if not d_may_exec(u):
                        if u.exec_block_cycle < 0:
                            u.exec_block_cycle = cycle
                            dstats['exec_interventions'] += 1
                            stats['_open_exec'] += 1
                            stats['_open_exec_sum'] += cycle
                        u.block_reason = 'defense_execute'
                        blocked.append(u)
                        is_valid = False
                        continue
                    if u.exec_block_cycle >= 0:
                        eb = u.exec_block_cycle
                        u.exec_block_cycle = -1
                        dstats['exec_delay_cycles'] += cycle - eb
                        stats['_open_exec'] -= 1
                        stats['_open_exec_sum'] -= eb
                    a = pvals[u.psrcs[0][1]]
                    b = IMMM[pc]
                    v = (a + b) & 0xFFFFFFFFFFFFFFFF
                    pvals[u.pdests[0][1]] = v
                    u.result_values = ((DESTS[pc][0], v),)
                    latency = 1
                elif k == 23:  # BR
                    if not d_may_exec(u):
                        if u.exec_block_cycle < 0:
                            u.exec_block_cycle = cycle
                            dstats['exec_interventions'] += 1
                            stats['_open_exec'] += 1
                            stats['_open_exec_sum'] += cycle
                        u.block_reason = 'defense_execute'
                        blocked.append(u)
                        is_valid = False
                        continue
                    if u.exec_block_cycle >= 0:
                        eb = u.exec_block_cycle
                        u.exec_block_cycle = -1
                        dstats['exec_delay_cycles'] += cycle - eb
                        stats['_open_exec'] -= 1
                        stats['_open_exec_sum'] -= eb
                    fl = pvals[u.psrcs[0][1]]
                    c = CONDC[pc]
                    if c == 2:  # LT
                        tk = (fl & 2) != 0
                    elif c == 5:  # GE
                        tk = (fl & 2) == 0
                    u.taken = tk
                    u.actual_next = TGT[pc] if tk else pc + 1
                    latency = 1
                elif k == 21:  # CMPI
                    if not d_may_exec(u):
                        if u.exec_block_cycle < 0:
                            u.exec_block_cycle = cycle
                            dstats['exec_interventions'] += 1
                            stats['_open_exec'] += 1
                            stats['_open_exec_sum'] += cycle
                        u.block_reason = 'defense_execute'
                        blocked.append(u)
                        is_valid = False
                        continue
                    if u.exec_block_cycle >= 0:
                        eb = u.exec_block_cycle
                        u.exec_block_cycle = -1
                        dstats['exec_delay_cycles'] += cycle - eb
                        stats['_open_exec'] -= 1
                        stats['_open_exec_sum'] -= eb
                    a = pvals[u.psrcs[0][1]]
                    b = IMMM[pc]
                    fl = 1 if a == b else 0
                    if (a ^ 0x8000000000000000) < (b ^ 0x8000000000000000):
                        fl |= 2
                    if a < b:
                        fl |= 4
                    pvals[u.pdests[0][1]] = fl
                    u.result_values = ((16, fl),)
                    latency = 1
                elif k == 26:  # CALL
                    if not d_may_exec(u):
                        if u.exec_block_cycle < 0:
                            u.exec_block_cycle = cycle
                            dstats['exec_interventions'] += 1
                            stats['_open_exec'] += 1
                            stats['_open_exec_sum'] += cycle
                        u.block_reason = 'defense_execute'
                        blocked.append(u)
                        is_valid = False
                        continue
                    if u.exec_block_cycle >= 0:
                        eb = u.exec_block_cycle
                        u.exec_block_cycle = -1
                        dstats['exec_delay_cycles'] += cycle - eb
                        stats['_open_exec'] -= 1
                        stats['_open_exec_sum'] -= eb
                    sp = pvals[u.psrcs[0][1]]
                    nsp = (sp - 8) & 0xFFFFFFFFFFFFFFFF
                    addr = nsp & 0xFFFFFFFF
                    u.mem_addr = addr
                    u.store_data = pc + 1
                    u.lsq_prot = PROT[pc]
                    pvals[u.pdests[0][1]] = nsp
                    u.result_values = ((15, nsp),)
                    u.taken = True
                    u.actual_next = TGT[pc]
                    c_access(addr)
                    latency = 1
                elif k == 15:  # SHLI
                    if not d_may_exec(u):
                        if u.exec_block_cycle < 0:
                            u.exec_block_cycle = cycle
                            dstats['exec_interventions'] += 1
                            stats['_open_exec'] += 1
                            stats['_open_exec_sum'] += cycle
                        u.block_reason = 'defense_execute'
                        blocked.append(u)
                        is_valid = False
                        continue
                    if u.exec_block_cycle >= 0:
                        eb = u.exec_block_cycle
                        u.exec_block_cycle = -1
                        dstats['exec_delay_cycles'] += cycle - eb
                        stats['_open_exec'] -= 1
                        stats['_open_exec_sum'] -= eb
                    a = pvals[u.psrcs[0][1]]
                    b = IMMM[pc]
                    v = (a << (b & 63)) & 0xFFFFFFFFFFFFFFFF
                    pvals[u.pdests[0][1]] = v
                    u.result_values = ((DESTS[pc][0], v),)
                    latency = 1
                elif k == 20:  # CMP
                    if not d_may_exec(u):
                        if u.exec_block_cycle < 0:
                            u.exec_block_cycle = cycle
                            dstats['exec_interventions'] += 1
                            stats['_open_exec'] += 1
                            stats['_open_exec_sum'] += cycle
                        u.block_reason = 'defense_execute'
                        blocked.append(u)
                        is_valid = False
                        continue
                    if u.exec_block_cycle >= 0:
                        eb = u.exec_block_cycle
                        u.exec_block_cycle = -1
                        dstats['exec_delay_cycles'] += cycle - eb
                        stats['_open_exec'] -= 1
                        stats['_open_exec_sum'] -= eb
                    ps = u.psrcs
                    a = pvals[ps[0][1]]
                    b = pvals[ps[1][1]]
                    fl = 1 if a == b else 0
                    if (a ^ 0x8000000000000000) < (b ^ 0x8000000000000000):
                        fl |= 2
                    if a < b:
                        fl |= 4
                    pvals[u.pdests[0][1]] = fl
                    u.result_values = ((16, fl),)
                    latency = 1
                elif k == 27:  # RET
                    if not d_may_exec(u):
                        if u.exec_block_cycle < 0:
                            u.exec_block_cycle = cycle
                            dstats['exec_interventions'] += 1
                            stats['_open_exec'] += 1
                            stats['_open_exec_sum'] += cycle
                        u.block_reason = 'defense_execute'
                        blocked.append(u)
                        is_valid = False
                        continue
                    if u.exec_block_cycle >= 0:
                        eb = u.exec_block_cycle
                        u.exec_block_cycle = -1
                        dstats['exec_delay_cycles'] += cycle - eb
                        stats['_open_exec'] -= 1
                        stats['_open_exec_sum'] -= eb
                    sp = pvals[u.psrcs[0][1]]
                    addr = sp & 0xFFFFFFFF
                    u.mem_addr = addr
                    best = None
                    stall_st = None
                    for st in sq:
                        if st.seq >= u.seq:
                            continue
                        sma = st.mem_addr
                        if sma is None:
                            stall_st = st
                            break
                        delta = sma - addr
                        if -8 < delta < 8:
                            if sma != addr:
                                stall_st = st
                                break
                            if best is None or st.seq > best.seq:
                                best = st
                    if stall_st is not None:
                        disamb_blocker = stall_st
                        u.block_reason = 'disambiguation'
                        blocked.append(u)
                        is_valid = False
                        continue
                    if best is not None:
                        value = best.store_data
                        latency = 2
                        u.lsq_prot = best.lsq_prot
                        u.forwarded_from = best
                        u.mem_level = 'sq'
                    else:
                        latency = c_access(addr)
                        value = mem_read(addr)
                        u.lsq_prot = t_word_prot(addr)
                        u.mem_level = caches.last_level
                    u.mem_value = value
                    v2 = (sp + 8) & 0xFFFFFFFFFFFFFFFF
                    pvals[u.pdests[0][1]] = v2
                    u.result_values = ((15, v2),)
                    u.taken = True
                    u.actual_next = value
                    d_on_loadexec(u)
                elif k == 31:  # STORE
                    if not d_may_exec(u):
                        if u.exec_block_cycle < 0:
                            u.exec_block_cycle = cycle
                            dstats['exec_interventions'] += 1
                            stats['_open_exec'] += 1
                            stats['_open_exec_sum'] += cycle
                        u.block_reason = 'defense_execute'
                        blocked.append(u)
                        is_valid = False
                        continue
                    if u.exec_block_cycle >= 0:
                        eb = u.exec_block_cycle
                        u.exec_block_cycle = -1
                        dstats['exec_delay_cycles'] += cycle - eb
                        stats['_open_exec'] -= 1
                        stats['_open_exec_sum'] -= eb
                    ps = u.psrcs
                    if HASRB[pc]:
                        addr = (pvals[ps[0][1]] + pvals[ps[1][1]] + IMM[pc]) & 0xFFFFFFFF
                        dp = ps[2][1]
                    else:
                        addr = (pvals[ps[0][1]] + IMM[pc]) & 0xFFFFFFFF
                        dp = ps[1][1]
                    u.mem_addr = addr
                    u.store_data = pvals[dp]
                    u.lsq_prot = pprot[dp]
                    c_access(addr)
                    latency = 1
                else:  # pragma: no cover
                    raise AssertionError('unhandled kind %d' % k)
                u.block_reason = None
                u.issued = True
                u.in_iq = False
                iq_count -= 1
                u.issue_cycle = cycle
                stats['issued_uops'] += 1
                if ISLD[pc]:
                    evt_load += 1
                elif ISST[pc]:
                    evt_store += 1
                done = cycle + (latency if latency > 1 else 1)
                bkt = wheel.get(done)
                if bkt is None:
                    wheel[done] = [u]
                    heappush(wtimes, done)
                else:
                    bkt.append(u)
                issued += 1

            # ---- rename / dispatch ----
            rename_block = None
            for _ in range(6):
                if not fbuf:
                    break
                entry = fbuf[0]
                if entry[0] > cycle:
                    break
                u = entry[1]
                pc = u.pc
                if len(robq) >= 512:
                    rename_block = 'stall_rob_full'
                    break
                n_d = ND[pc]
                if len(prf_freeq) < n_d:
                    rename_block = 'stall_prf_starved'
                    break
                if ISLD[pc] and len(lq) >= 192:
                    rename_block = 'stall_lsq_full'
                    break
                if ISST[pc] and len(sq) >= 114:
                    rename_block = 'stall_lsq_full'
                    break
                if iq_count >= 160:
                    rename_block = 'stall_iq_full'
                    break
                del fbuf[0]
                u.rename_cycle = cycle
                u.psrcs = tuple((a, rmap[a]) for a in SRCS[pc])
                if n_d:
                    pr = PROT[pc]
                    pd_l = []
                    opd_l = []
                    for a in DESTS[pc]:
                        pg = prf_freeq.popleft()
                        opd_l.append((a, rmap[a]))
                        rmap[a] = pg
                        pready[pg] = False
                        pprot[pg] = pr
                        pd_l.append((a, pg))
                        producer_of[pg] = u
                    u.pdests = tuple(pd_l)
                    u.old_pdests = tuple(opd_l)
                d_on_rename(u)
                u.in_rob = True
                robq.append(u)
                if ISLD[pc]:
                    lq.append(u)
                if ISST[pc]:
                    sq.append(u)
                if ISBR[pc]:
                    core._inflight_branches.append(u)
                    stats['_spec_depth'] += 1
                k = K[pc]
                if k == 34:  # rename-complete ops
                    u.executed = True
                    u.completed = True
                    u.resolved = True
                    u.actual_next = pc + 1
                    u.complete_cycle = cycle
                    continue
                u.in_iq = True
                iq_count += 1
                n_un = 0
                for pg in {p for _, p in u.psrcs}:
                    if not pready[pg]:
                        n_un += 1
                        ws = waiters.get(pg)
                        if ws is None:
                            waiters[pg] = [u]
                        else:
                            ws.append(u)
                u.unready_count = n_un
                if not n_un:
                    heappush(ready_q, (u.seq, u))

            # ---- fetch ----
            if not fblocked and cycle >= fstall:
                for _ in range(6):
                    if len(fbuf) >= 12:
                        break
                    pc = fpc
                    if not 0 <= pc < 28:
                        break
                    inst = insts[pc]
                    if ISCTRL[pc]:
                        pred = bp_predict(pc, inst)
                        u = Uop(seqc, pc, inst, pred, cycle)
                        u.bp_snapshot = bp_snapshot()
                        if K[pc] == 23:  # BR
                            u.bp_index = bp.last_br_index
                    else:
                        pred = pc + 1
                        u = Uop(seqc, pc, inst, pred, cycle)
                    seqc += 1
                    fbuf.append((cycle + 4, u))
                    if K[pc] == 34:  # HALT
                        fblocked = True
                        break
                    fpc = pred
                    if pred != pc + 1:
                        break  # one taken control transfer per cycle

        shortfall = 6 - committed_n
        if shortfall > 0:
            if halted:
                cause = 'stall_drain'
            stats[cause if cause is not None else 'stall_frontend'] += shortfall
        cycle += 1

        # ---- fast-forward over provably idle cycles ----
        if not halted:
            head = robq[0] if robq else None
            if ((head is None or not head.completed
                    or (head.is_branch and not head.resolved))
                    and not ready_q):
                ok = True
                if pend_res and not (rs_valid
                        and rs_squash == evt_squash
                        and rs_resolve == evt_resolve
                        and robq and robq[0].seq < rs_barrier):
                    ok = False
                if ok and pend_wake and not (wk_valid
                        and wk_squash == evt_squash
                        and robq and robq[0].seq < wk_barrier):
                    ok = False
                if ok and blocked and not (is_valid
                        and is_squash == evt_squash
                        and is_div == evt_div
                        and cycle < is_retry
                        and (not is_hasdis or is_store == evt_store)
                        and robq and robq[0].seq < is_barrier):
                    ok = False
                if (ok and not fblocked and len(fbuf) < 12
                        and 0 <= fpc < 28 and fstall <= cycle):
                    ok = False  # fetch would deliver next cycle
                if ok:
                    target = maxc
                    if limit is not None:
                        t = last_commit + limit
                        if t < target:
                            target = t
                    if cycle < fstall < target:
                        target = fstall
                    if blocked and is_retry != 4611686018427387904 and is_retry < target:
                        target = is_retry
                    while wtimes and wtimes[0] not in wheel:
                        heappop(wtimes)
                    if wtimes:
                        wt = wtimes[0]
                        if wt <= cycle:
                            ok = False  # a completion is due
                        elif wt < target:
                            target = wt
                    if ok and fbuf:
                        entry = fbuf[0]
                        if not rename_blocked(entry[1]):
                            if entry[0] <= cycle:
                                ok = False  # rename would dispatch
                            elif entry[0] < target:
                                target = entry[0]
                    if ok and target > cycle:
                        span = target - cycle
                        stats[classify(head)] += 6 * span
                        cycle = target
                        ff_cycles += span
                        ff_jumps += 1

    if not halted:
        if (limit is not None and cycle < maxc
                and cycle - last_commit >= limit):
            halt_reason = 'no_progress'
        else:
            halt_reason = 'timeout'

    core.cycle = cycle
    core.seq_counter = seqc
    core.fetch_pc = fpc
    core.fetch_stalled_until = fstall
    core.fetch_blocked = fblocked
    core.halted = halted
    core.halt_reason = halt_reason
    core.div_busy_until = divbusy
    core.iq_count = iq_count
    core._last_commit_cycle = last_commit
    core._rename_block = rename_block
    core._blocked = blocked
    core._pending_wakeup = pend_wake
    core._pending_resolution = pend_res
    return ff_cycles, ff_jumps
