"""ProtISA memory-protection tag store (paper SIV-C2)."""

from repro.protisa import MemoryProtectionTags
from repro.uarch import CacheHierarchy, L1DTagMode, P_CORE


def make(mode=L1DTagMode.L1D):
    tags = MemoryProtectionTags(mode)
    caches = CacheHierarchy(P_CORE,
                            tags.eviction_listener(P_CORE.l1d.line_bytes))
    tags.attach_l1d(caches.l1d)
    return tags, caches


def test_default_protected():
    tags, _ = make()
    assert tags.word_protected(0x1000)
    assert tags.byte_protected(0x1000)


def test_unprotect_requires_l1d_residence():
    tags, caches = make()
    tags.clear_word(0x1000)          # line absent: cannot track
    assert tags.word_protected(0x1000)
    caches.access(0x1000)
    tags.clear_word(0x1000)
    assert not tags.word_protected(0x1000)


def test_word_protected_is_or_of_bytes():
    tags, caches = make()
    caches.access(0x1000)
    tags.clear_word(0x1000)
    tags.set_word(0x1004, True)      # reprotect the upper half
    assert tags.word_protected(0x1000)
    assert not tags.byte_protected(0x1000)


def test_eviction_forgets_unprotection():
    tags, caches = make()
    caches.access(0x1000)
    tags.clear_word(0x1000)
    assert not tags.word_protected(0x1000)
    # Thrash the set until the line is evicted.
    sets = caches.l1d.num_sets
    for way in range(P_CORE.l1d.assoc + 1):
        caches.access(0x1000 + (way + 1) * sets * 64)
    assert tags.word_protected(0x1000)


def test_none_mode_always_protected():
    tags, caches = make(L1DTagMode.NONE)
    caches.access(0x1000)
    tags.clear_word(0x1000)
    assert tags.word_protected(0x1000)


def test_perfect_mode_survives_eviction():
    tags, caches = make(L1DTagMode.PERFECT)
    tags.clear_word(0x1000)          # no residence requirement
    assert not tags.word_protected(0x1000)
    caches.access(0x1000)
    sets = caches.l1d.num_sets
    for way in range(P_CORE.l1d.assoc + 1):
        caches.access(0x1000 + (way + 1) * sets * 64)
    assert not caches.l1d.contains(0x1000)
    assert not tags.word_protected(0x1000)


def test_store_reprotects():
    tags, caches = make()
    caches.access(0x2000)
    tags.clear_word(0x2000)
    tags.set_word(0x2000, True)
    assert tags.word_protected(0x2000)


def test_unprotected_count():
    tags, caches = make()
    assert tags.unprotected_count() == 0
    caches.access(0x1000)
    tags.clear_word(0x1000)
    assert tags.unprotected_count() == 8
