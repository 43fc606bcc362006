"""Deterministic seeded random streams."""

import pytest

from forestbuilder.rng import _GOLDEN, _LANES, _MUL1, _MUL2, SplitMix64, _derived_seeds, derive_seed


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


def _reference_shuffle(rng: SplitMix64, items: list) -> None:
    # the plain Fisher-Yates loop over randrange that shuffle must reproduce
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


def _assert_matches_reference(state: int, length: int) -> list:
    fast, slow = SplitMix64(state), SplitMix64(state)
    fast_items, slow_items = list(range(length)), list(range(length))
    fast.shuffle(fast_items)
    _reference_shuffle(slow, slow_items)
    assert fast_items == slow_items
    assert fast._state == slow._state
    return fast_items


def _unshift(y: int, shift: int) -> int:
    # inverse of y = x ^ (x >> shift) on 64-bit words
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _unmix(z: int) -> int:
    # inverse of the SplitMix64 finalizer: _mix(_unmix(z)) == z
    z = _unshift(z, 31)
    z = _unshift(z * pow(_MUL2, -1, 2**64) % 2**64, 27)
    return _unshift(z * pow(_MUL1, -1, 2**64) % 2**64, 30)


def test_shuffle_takes_the_rejection_branch_like_randrange():
    # a state whose first draw is 2^64 - 1, the one value randrange(3) rejects
    state = (_unmix(2**64 - 1) - _GOLDEN) % 2**64
    assert SplitMix64(state).next64() == 2**64 - 1
    # length 3 redraws the first swap; for length 4 the draw exceeds the
    # quick bound but randrange(4) accepts it, as 4 divides 2^64
    assert _assert_matches_reference(state, 3) == [2, 0, 1]
    assert _assert_matches_reference(state, 4) == [2, 0, 1, 3]


def test_shuffle_redraws_at_every_block_edge_like_randrange():
    # states whose d-th draw is 2^64 - 1: at the first draw, on either side
    # of the block edges and at the last draw, which randrange(2) accepts
    w = _LANES
    for length in (2 * w + 1, 601):
        for d in (1, w - 1, w, w + 1, 2 * w, 200, length - 1):
            state = (_unmix(2**64 - 1) - d * _GOLDEN) % 2**64
            rng = SplitMix64(state)
            assert [rng.next64() for _ in range(d)][-1] == 2**64 - 1
            _assert_matches_reference(state, length)


def test_shuffle_equals_the_randrange_fisher_yates():
    w = _LANES
    for root in (0, 1, 20261019):
        for stream in range(4):
            state = derive_seed(root, stream)
            for length in [*range(71), w - 1, w, w + 1, 2 * w + 1, 300, 600, 601]:
                _assert_matches_reference(state, length)


def test_derived_seeds_are_the_derive_seed_values():
    for root in (0, 9, 20261019, 2**64 - 1):
        assert list(_derived_seeds(root, (), 0, 2 * _LANES + 3)) == [
            derive_seed(root, t) for t in range(2 * _LANES + 3)]
        assert list(_derived_seeds(root, (4,), 1, 300)) == [
            derive_seed(root, 4, j + 1) for j in range(300)]
    assert list(_derived_seeds(5, (1, 2), 7, 0)) == []
