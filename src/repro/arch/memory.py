"""Sparse byte-addressable memory.

Backing store is a dict of byte addresses; unwritten bytes read as zero.
Both the sequential machine and the O3 core's memory hierarchy sit on
top of this class, so transient wrong-path accesses to arbitrary
addresses are always well-defined.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

from .semantics import ADDR_MASK


class Memory:
    """Little-endian sparse memory with 64-bit word accessors."""

    def __init__(self, initial: Optional[Dict[int, int]] = None) -> None:
        self._bytes: Dict[int, int] = {}
        if initial:
            for addr, value in initial.items():
                self.write_byte(addr, value)

    def copy(self) -> "Memory":
        clone = Memory()
        clone._bytes = dict(self._bytes)
        return clone

    # -- byte access ----------------------------------------------------

    def read_byte(self, addr: int) -> int:
        return self._bytes.get(addr & ADDR_MASK, 0)

    def write_byte(self, addr: int, value: int) -> None:
        self._bytes[addr & ADDR_MASK] = value & 0xFF

    # -- word access ----------------------------------------------------
    # Unrolled over the eight bytes, each address masked on its own, so
    # a word near the top of the address space wraps to address 0.

    def read_word(self, addr: int) -> int:
        get = self._bytes.get
        m = ADDR_MASK
        return (get(addr & m, 0)
                | get((addr + 1) & m, 0) << 8
                | get((addr + 2) & m, 0) << 16
                | get((addr + 3) & m, 0) << 24
                | get((addr + 4) & m, 0) << 32
                | get((addr + 5) & m, 0) << 40
                | get((addr + 6) & m, 0) << 48
                | get((addr + 7) & m, 0) << 56)

    def write_word(self, addr: int, value: int) -> None:
        b = self._bytes
        m = ADDR_MASK
        b[addr & m] = value & 0xFF
        b[(addr + 1) & m] = (value >> 8) & 0xFF
        b[(addr + 2) & m] = (value >> 16) & 0xFF
        b[(addr + 3) & m] = (value >> 24) & 0xFF
        b[(addr + 4) & m] = (value >> 32) & 0xFF
        b[(addr + 5) & m] = (value >> 40) & 0xFF
        b[(addr + 6) & m] = (value >> 48) & 0xFF
        b[(addr + 7) & m] = (value >> 56) & 0xFF

    # -- bulk helpers ---------------------------------------------------

    def write_words(self, addr: int, values: Iterable[int]) -> None:
        for i, value in enumerate(values):
            self.write_word(addr + 8 * i, value)

    def read_words(self, addr: int, count: int) -> Tuple[int, ...]:
        return tuple(self.read_word(addr + 8 * i) for i in range(count))

    def touched_addresses(self) -> Iterator[int]:
        """Byte addresses ever written (for input mutation in fuzzing)."""
        return iter(self._bytes)

    def snapshot(self) -> Dict[int, int]:
        return dict(self._bytes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Memory):
            return NotImplemented
        mine = {a: v for a, v in self._bytes.items() if v}
        theirs = {a: v for a, v in other._bytes.items() if v}
        return mine == theirs

    def __hash__(self):  # pragma: no cover - mutable container
        raise TypeError("Memory is unhashable")

    def __repr__(self) -> str:  # pragma: no cover
        return f"Memory({len(self._bytes)} bytes populated)"
