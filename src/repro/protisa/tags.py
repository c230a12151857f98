"""ProtISA's microarchitectural memory-protection tags (paper SIV-C2).

ProtISA cannot afford a shadow memory, so it tracks its memory ProtSet
conservatively through the LSQ and L1D only: one protection bit per L1D
byte, with everything *outside* the L1D assumed protected.  Evictions
therefore forget unprotection (a line refetched from L2 comes back fully
protected).

Three variants reproduce the paper's SIX-A3 ablation:

* ``L1D``     — the real design described above.
* ``NONE``    — no memory tags: all memory always protected.
* ``PERFECT`` — an idealized shadow memory that survives eviction.

Register-side tags (rename-map protection bits copied onto renamed
physical operands, paper SIV-C1/SIV-E) live in
:class:`repro.uarch.structures.PhysRegFile` as the ``prot`` plane and
are maintained by the pipeline's rename stage.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from ..uarch.config import L1DTagMode


class MemoryProtectionTags:
    """Per-byte memory protection bits shadowing the L1D."""

    def __init__(self, mode: L1DTagMode) -> None:
        self.mode = mode
        #: Bytes currently known to be unprotected.  Everything else is
        #: protected (the safe default).
        self._unprotected: Set[int] = set()
        self._l1d = None

    def attach_l1d(self, l1d) -> None:
        """Bind to the L1D whose presence gates unprotection tracking."""
        self._l1d = l1d

    def eviction_listener(self, line_bytes: int
                          ) -> Optional[Callable[[int], None]]:
        """The L1D's eviction callback for ``line_bytes``-byte lines:
        forget unprotection for the evicted line's bytes.  ``None``
        outside ``L1D`` mode, where an eviction forgets nothing.

        It closes over the byte set, not over the tags: the tags hold
        the L1D (:meth:`attach_l1d`), so an L1D holding the tags back
        would leave every core's caches behind as a reference cycle."""
        if self.mode is not L1DTagMode.L1D:
            return None
        unprotected = self._unprotected

        def on_l1d_eviction(line_addr: int) -> None:
            base = line_addr * line_bytes
            for offset in range(line_bytes):
                unprotected.discard(base + offset)

        return on_l1d_eviction

    # ------------------------------------------------------------------

    def _may_track(self, addr: int) -> bool:
        if self.mode is L1DTagMode.NONE:
            return False
        if self.mode is L1DTagMode.PERFECT:
            return True
        return self._l1d is not None and self._l1d.contains(addr)

    # -- queries ---------------------------------------------------------

    def byte_protected(self, addr: int) -> bool:
        return addr not in self._unprotected

    def word_protected(self, addr: int) -> bool:
        """OR of the 8 accessed bytes' protection bits (paper SIV-C2b)."""
        return any(addr + i not in self._unprotected for i in range(8))

    # -- updates ----------------------------------------------------------

    def set_word(self, addr: int, protected: bool) -> None:
        """Store writeback: label written bytes per the store's LSQ bit."""
        if protected:
            for i in range(8):
                self._unprotected.discard(addr + i)
        elif self._may_track(addr):
            for i in range(8):
                self._unprotected.add(addr + i)

    def clear_word(self, addr: int) -> None:
        """Commit of a load with an unprotected output: unprotect the
        accessed bytes (paper SIV-C2b)."""
        if self._may_track(addr):
            for i in range(8):
                self._unprotected.add(addr + i)

    def unprotected_count(self) -> int:
        return len(self._unprotected)
