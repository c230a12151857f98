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

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..arch.executor import STACK_TOP
from ..arch.memory import Memory
from ..isa.program import Program
from .caches import Cache
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
    per_thread_instructions: List[int] = field(default_factory=list)

    @property
    def threads(self) -> int:
        return len(self.per_thread_cycles)


class MultiCore:
    """N cores over one address space with a shared L3.

    Runs on the reference interpreter: the cores step in lockstep, one
    ``Core.step()`` each per cycle, so a store committed on one core
    invalidates the others' L1Ds before their next cycle.  The compiled
    engine runs a whole program inside one call, so it cannot
    interleave cores; multicore runs therefore get no sleeping uops or
    fast-forward.
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
        self.invalidations = 0
        self.max_cycles = max_cycles
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
                store_commit_listener=self._on_store_commit,
            )
            self.cores.append(core)

    def _on_store_commit(self, writer: Core, addr: int) -> None:
        """Write-invalidation broadcast: the observable MESI effect."""
        for core in self.cores:
            if core is not writer:
                if core.caches.l1d.contains(addr):
                    self.invalidations += 1
                core.caches.invalidate(addr)

    def run(self) -> MultiCoreResult:
        """Step all cores in lockstep until every thread halts."""
        cycle = 0
        while cycle < self.max_cycles:
            all_halted = True
            for core in self.cores:
                if not core.halted:
                    core.step()
                    all_halted = all_halted and core.halted
            if all_halted:
                break
            cycle += 1
        results = [core._result() for core in self.cores]
        return MultiCoreResult(
            cycles=max(r.cycles for r in results),
            per_thread_cycles=[r.cycles for r in results],
            halt_reasons=[r.halt_reason for r in results],
            memory=self.memory,
            invalidations=self.invalidations,
            per_thread_instructions=[r.instructions for r in results],
        )


def simulate_mt(program: Program, defense_factory, memory=None,
                threads: int = 4, **kwargs) -> MultiCoreResult:
    """Run a data-parallel program across ``threads`` cores."""
    return MultiCore(program, defense_factory, memory, threads,
                     **kwargs).run()
