"""Multi-core simulation (paper SVIII-A4, Tab. III).

The paper simulates multi-threaded PARSEC end-to-end on a full Alder
Lake configuration: 8 P-cores + 8 E-cores, private L1/L2, one shared
LLC, directory-based MESI.  This module provides the equivalent
substrate: N cores stepping in lockstep over one shared address space,
each with private L1D/L2 (kept coherent by write-invalidation broadcast
at store commit — the observable effect of MESI for our timing-and-tags
model, in which data always comes from the shared backing memory) and a
shared L3.

Threads are data-parallel in the PARSEC style: every core runs the same
program with its thread id in a register, sharding the data space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..arch.executor import STACK_TOP
from ..arch.memory import Memory
from ..isa.program import Program
from .caches import Cache, CacheHierarchy
from .config import CoreConfig, E_CORE, P_CORE
from .pipeline import Core, DEFAULT_MAX_CYCLES

#: Register that carries the thread id into each thread's code.
TID_REG = 13

#: Per-thread stack spacing within the shared address space.
STACK_STRIDE = 0x10000


@dataclass
class MultiCoreResult:
    """Outcome of a multi-threaded run."""

    cycles: int                       # wall clock: slowest thread
    per_thread_cycles: List[int]
    halt_reasons: List[str]
    memory: Memory
    invalidations: int

    @property
    def threads(self) -> int:
        return len(self.per_thread_cycles)


class WriteInvalidation:
    """The write-invalidation broadcast, every core's store-commit
    listener: a store committed on one core drops its line from the
    other cores' private caches (the observable MESI effect).

    It holds the cores' cache hierarchies, not the cores: each core
    holds the broadcast, so a broadcast holding the cores back would
    keep every core of a finished run alive as one reference cycle."""

    def __init__(self) -> None:
        self.caches: List[CacheHierarchy] = []
        self.invalidations = 0

    def __call__(self, writer: Core, addr: int) -> None:
        for caches in self.caches:
            if caches is not writer.caches:
                if caches.l1d.contains(addr):
                    self.invalidations += 1
                caches.invalidate(addr)


class MultiCore:
    """N cores over one address space with a shared L3.

    Runs on the reference interpreter: the cores step in lockstep, one
    ``Core.step()`` each per cycle, so a store committed on one core
    invalidates the others' L1Ds before their next cycle.  The compiled
    engine runs a whole program inside one call, so it cannot
    interleave cores; multicore runs therefore get no sleeping uops or
    fast-forward.  Each core stops as :meth:`Core.run` would stop it
    (:meth:`Core.stopped`): at its halt, at ``max_cycles``, or after
    ``no_progress_limit`` cycles without a commit.
    """

    def __init__(
        self,
        program: Program,
        defense_factory,
        memory: Optional[Memory] = None,
        threads: int = 4,
        p_cores: int = 8,
        p_config: CoreConfig = P_CORE,
        e_config: CoreConfig = E_CORE,
        regs: Optional[Dict[int, int]] = None,
        max_cycles: int = DEFAULT_MAX_CYCLES,
    ) -> None:
        if threads < 1:
            raise ValueError("need at least one thread")
        self.memory = memory.copy() if memory is not None else Memory()
        self.shared_l3 = Cache(p_config.l3)
        self.broadcast = WriteInvalidation()
        self.cores: List[Core] = []
        for tid in range(threads):
            # Hybrid scheduling: the first p_cores threads land on
            # P-cores, the rest on E-cores (Tab. III's 8P + 8E).
            config = p_config if tid < p_cores else e_config
            thread_regs = dict(regs or {})
            thread_regs[TID_REG] = tid
            thread_regs.setdefault(15, STACK_TOP + tid * STACK_STRIDE)
            core = Core(
                program,
                defense_factory(),
                config,
                memory=self.memory,
                regs=thread_regs,
                max_cycles=max_cycles,
                shared_memory=True,
                shared_l3=self.shared_l3,
                store_commit_listener=self.broadcast,
            )
            self.broadcast.caches.append(core.caches)
            self.cores.append(core)

    def run(self) -> MultiCoreResult:
        """Step all cores in lockstep until every thread stops."""
        running = [core for core in self.cores if not core.stopped()]
        while running:
            for core in running:
                core.step()
            running = [core for core in running if not core.stopped()]
        results = [core._result() for core in self.cores]
        for core in self.cores:
            core.defense.attach(None)  # as Core._finish does
        return MultiCoreResult(
            cycles=max(r.cycles for r in results),
            per_thread_cycles=[r.cycles for r in results],
            halt_reasons=[r.halt_reason for r in results],
            memory=self.memory,
            invalidations=self.broadcast.invalidations,
        )


def simulate_mt(program: Program, defense_factory, memory=None,
                threads: int = 4, **kwargs) -> MultiCoreResult:
    """Run a data-parallel program across ``threads`` cores."""
    return MultiCore(program, defense_factory, memory, threads,
                     **kwargs).run()
