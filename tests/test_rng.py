"""Deterministic seeded random streams."""

import pytest

from forestbuilder.rng import SplitMix64, derive_seed


def test_derive_seed_depends_on_path_order():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1) != derive_seed(2)
    assert 0 <= derive_seed(123456789, 42) < 2**64


def test_next64_is_deterministic():
    a = SplitMix64(99)
    b = SplitMix64(99)
    seq = [a.next64() for _ in range(5)]
    assert seq == [b.next64() for _ in range(5)]
    assert all(0 <= x < 2**64 for x in seq)
    assert len(set(seq)) == 5


def test_randrange_bounds():
    rng = SplitMix64(5)
    values = [rng.randrange(10) for _ in range(1000)]
    assert set(values) == set(range(10))
    assert SplitMix64(0).randrange(1) == 0
    # one 64-bit draw covers n = 2^64 and no more: past it no draw would be
    # accepted, so it raises instead of looping forever
    assert 0 <= SplitMix64(3).randrange(2**64) < 2**64
    for bad in (0, 2**64 + 1):
        with pytest.raises(ValueError):
            SplitMix64(3).randrange(bad)


def test_shuffle_is_a_permutation():
    rng = SplitMix64(11)
    items = list(range(20))
    rng.shuffle(items)
    assert sorted(items) == list(range(20))
    assert items != list(range(20))


def test_sample_distinct_and_deterministic():
    picked = SplitMix64(13).sample(100, 10)
    assert len(picked) == 10 and len(set(picked)) == 10
    assert all(0 <= x < 100 for x in picked)
    assert list(picked) == list(SplitMix64(13).sample(100, 10))
    assert sorted(SplitMix64(17).sample(6, 6)) == list(range(6))
