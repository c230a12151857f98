"""Back-end structures: physical register file, rename map, ROB, LSQ.

The rename map supports exact rollback by walking squashed uops in
reverse order and restoring their saved previous mappings — the same
walk restores ProtISA's rename-map protection bits, which travel with
the physical registers.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..isa.registers import NUM_REGS
from .uop import Uop


class PhysRegFile:
    """Values, ready bits, and the per-physical-register tag planes that
    ProtISA (``prot``) and the defenses (``yrot``, ``public``) use."""

    __slots__ = ("num_regs", "values", "ready", "prot", "yrot", "public",
                 "_free")

    def __init__(self, num_regs: int) -> None:
        if num_regs <= NUM_REGS:
            raise ValueError("need more physical than architectural regs")
        self.num_regs = num_regs
        self.values: List[int] = [0] * num_regs
        self.ready: List[bool] = [False] * num_regs
        #: ProtISA protection tag, set at rename from the PROT prefix.
        self.prot: List[bool] = [False] * num_regs
        #: Youngest root of taint (uop seq) or None — see defenses.
        self.yrot: List[Optional[int]] = [None] * num_regs
        #: SPT's "already architecturally transmitted" flag.
        self.public: List[bool] = [False] * num_regs
        self._free: Deque[int] = deque(range(NUM_REGS, num_regs))

    def allocate(self) -> Optional[int]:
        if not self._free:
            return None
        return self._free.popleft()

    def free(self, preg: int) -> None:
        self.ready[preg] = False
        self.yrot[preg] = None
        self.public[preg] = False
        self.prot[preg] = False
        self._free.append(preg)

    @property
    def free_count(self) -> int:
        return len(self._free)


class RenameMap:
    """Architectural to physical register mapping."""

    __slots__ = ("mapping",)

    def __init__(self) -> None:
        # Identity mapping at reset: arch reg i lives in phys reg i.
        self.mapping: List[int] = list(range(NUM_REGS))

    def lookup(self, arch_reg: int) -> int:
        return self.mapping[arch_reg]

    def update(self, arch_reg: int, phys_reg: int) -> int:
        """Map ``arch_reg`` to ``phys_reg``; return the old mapping."""
        old = self.mapping[arch_reg]
        self.mapping[arch_reg] = phys_reg
        return old

    def rollback(self, uop: Uop) -> None:
        """Undo one uop's rename (call in youngest-first order).  Its
        own destinations are undone last first too: ``pop sp`` renames
        SP twice, and its second old mapping is its first new one."""
        for arch_reg, old in reversed(uop.old_pdests):
            self.mapping[arch_reg] = old


class ReorderBuffer:
    """In-order window of in-flight uops."""

    __slots__ = ("capacity", "entries")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: Deque[Uop] = deque()

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    @property
    def head(self) -> Optional[Uop]:
        return self.entries[0] if self.entries else None

    def push(self, uop: Uop) -> None:
        if self.full:
            raise OverflowError("ROB overflow")
        self.entries.append(uop)

    def pop_head(self) -> Uop:
        return self.entries.popleft()

    def squash_younger_than(self, seq: int) -> List[Uop]:
        """Remove and return all uops younger than ``seq`` (youngest
        first, the order rename rollback needs)."""
        squashed: List[Uop] = []
        while self.entries and self.entries[-1].seq > seq:
            squashed.append(self.entries.pop())
        return squashed


class LoadStoreQueue:
    """Split load/store queues with age-ordered search."""

    __slots__ = ("lq_capacity", "sq_capacity", "loads", "stores")

    def __init__(self, lq_capacity: int, sq_capacity: int) -> None:
        self.lq_capacity = lq_capacity
        self.sq_capacity = sq_capacity
        self.loads: Deque[Uop] = deque()
        self.stores: Deque[Uop] = deque()

    def can_insert(self, uop: Uop) -> bool:
        if uop.is_load and len(self.loads) >= self.lq_capacity:
            return False
        if uop.is_store and len(self.stores) >= self.sq_capacity:
            return False
        return True

    @property
    def occupancy(self) -> Tuple[int, int]:
        """(load-queue, store-queue) entry counts, for the tracer."""
        return (len(self.loads), len(self.stores))

    def insert(self, uop: Uop) -> None:
        if uop.is_load:
            self.loads.append(uop)
        if uop.is_store:
            self.stores.append(uop)

    def forwarding_store(self, load: Uop) -> Tuple[str, Optional[Uop]]:
        """Memory disambiguation for an executing load.

        Returns one of:

        * ``("stall", blocker)`` — an older store's address (or exact
          overlap) is unresolved; the load must wait.
        * ``("forward", store)`` — youngest older store to the same
          word; forward its data.
        * ``("memory", None)`` — no conflict; read the cache hierarchy.
        """
        assert load.mem_addr is not None
        best: Optional[Uop] = None
        for store in self.stores:
            if store.seq >= load.seq:
                continue
            if store.mem_addr is None:
                return ("stall", store)
            overlap = abs(store.mem_addr - load.mem_addr) < 8
            if not overlap:
                continue
            if store.mem_addr != load.mem_addr:
                return ("stall", store)  # partial overlap: wait for commit
            if best is None or store.seq > best.seq:
                best = store
        if best is not None:
            return ("forward", best)
        return ("memory", None)

    def remove(self, uop: Uop) -> None:
        if uop.is_load:
            try:
                self.loads.remove(uop)
            except ValueError:
                pass
        if uop.is_store:
            try:
                self.stores.remove(uop)
            except ValueError:
                pass
