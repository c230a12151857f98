"""Sparse memory semantics."""

from repro.arch import Memory
from repro.arch.semantics import ADDR_MASK


def test_default_zero():
    assert Memory().read_word(0x1234) == 0


def test_word_little_endian():
    m = Memory()
    m.write_word(0x100, 0x0807060504030201)
    assert m.read_byte(0x100) == 0x01
    assert m.read_byte(0x107) == 0x08


def test_word_roundtrip():
    m = Memory()
    m.write_word(8, (1 << 64) - 2)
    assert m.read_word(8) == (1 << 64) - 2


def test_unaligned_overlap():
    m = Memory()
    m.write_word(0, 0xFFFFFFFFFFFFFFFF)
    m.write_word(4, 0)
    assert m.read_word(0) == 0x00000000FFFFFFFF


def test_address_masking():
    m = Memory()
    m.write_word(ADDR_MASK + 1, 7)   # wraps to 0
    assert m.read_word(0) == 7


def test_word_wraps_at_the_top_of_the_address_space():
    m = Memory()
    m.write_word(0xFFFFFFFC, 0x0807060504030201)
    assert m.snapshot() == {0xFFFFFFFC: 1, 0xFFFFFFFD: 2, 0xFFFFFFFE: 3,
                            0xFFFFFFFF: 4, 0: 5, 1: 6, 2: 7, 3: 8}
    assert m.read_word(0xFFFFFFFC) == 0x0807060504030201
    assert m.read_word(0) == 0x08070605


def test_word_bytes_are_masked_and_zeros_kept():
    m = Memory()
    m.write_word(0x20, -1)
    m.write_word(0x28, 0)
    assert m.snapshot() == {**{a: 0xFF for a in range(0x20, 0x28)},
                            **{a: 0 for a in range(0x28, 0x30)}}
    assert m.read_word(0x20) == (1 << 64) - 1


def test_copy_is_independent():
    m = Memory({0: 1})
    c = m.copy()
    c.write_byte(0, 2)
    assert m.read_byte(0) == 1


def test_equality_ignores_explicit_zeros():
    a = Memory()
    b = Memory()
    a.write_word(0x10, 0)
    assert a == b


def test_bulk_helpers():
    m = Memory()
    m.write_words(0x40, [1, 2, 3])
    assert m.read_words(0x40, 3) == (1, 2, 3)


def test_touched_addresses():
    m = Memory()
    m.write_word(0x40, 1)
    touched = set(m.touched_addresses())
    assert touched == set(range(0x40, 0x48))
