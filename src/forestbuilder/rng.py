"""Deterministic pseudo-randomness for reproducible experiments.

All randomized code in the package draws from SplitMix64 streams.  A stream
is identified by a 64-bit seed; `derive_seed` hashes a root seed together
with an index path so that independent tasks (trial t of experiment i, say)
get decorrelated streams without any shared mutable state.  That makes every
simulation a pure function of (root seed, structure), which is what the
regression tests rely on.

SplitMix64 is counter-based: the state after k steps is seed + k * GOLDEN
mod 2^64, and each output is a fixed finalizer of its state.  So `_block`
computes up to `_LANES` outputs at once, in one Python int with one 128-bit
lane per output, instead of running the finalizer as a dozen big-int
operations per output.  `SplitMix64.shuffle`, the hot loop of every Monte
Carlo trial, reads its draws from blocks and only reduces and swaps per
draw.  At a draw that `randrange` would reject (probability below
len / 2^64) it moves the state just past that draw and starts the next
block there, so the same swap is redrawn as `randrange` would.  The plain
Fisher-Yates loop `j = randrange(i + 1)` for i = len - 1 .. 1 is the
oracle: the permutation and final state equal its own for every seed and
length, and `tests/test_rng.py` checks them.  `_derived_seeds`, the
estimators' per-trial seeds, reads its outputs from the same blocks.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# the two multipliers of the SplitMix64 finalizer
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

# Lane k of a block holds bits 128k .. 128k + 127: the state (below 2^72 before
# it is reduced) or a 64 x 64-bit product fits in it without a carry into
# lane k + 1.  _ONES has 1 in every lane.  _STEPS has (_LANES - k) * GOLDEN in
# lane k, so the top lane steps once, and shifting all three constants right
# by whole lanes leaves the r lanes that step 1 .. r times.
_LANES = 128
_ONES = sum(1 << 128 * k for k in range(_LANES))
_STEPS = sum((_LANES - k) * _GOLDEN << 128 * k for k in range(_LANES))
_LOW64 = _MASK64 * _ONES
# the lanes' low 64-bit words, top lane first, among the block's native words
_LOW_WORDS = slice(-2, None, -2) if sys.byteorder == "little" else slice(1, None, 2)


def _mix(z: int) -> int:
    # finalizer from the SplitMix64 reference implementation
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


def _block(state: int, r: int) -> memoryview:
    """The next r <= _LANES outputs of the stream at `state`, in order.

    Runs `_mix` on every lane at once.  A right shift lets lane k + 1's low
    bits into lane k's high half, so each lane is cut back to 64 bits before
    every multiply; the last shift's spill stays in the high words, which are
    not read.
    """
    cut = 128 * (_LANES - r)
    ones, steps, low64 = _ONES >> cut, _STEPS >> cut, _LOW64 >> cut
    z = (state * ones + steps) & low64
    z = ((z ^ (z >> 30)) & low64) * _MUL1 & low64
    z = ((z ^ (z >> 27)) & low64) * _MUL2 & low64
    z ^= z >> 31
    return memoryview(z.to_bytes(16 * r, sys.byteorder)).cast("Q")[_LOW_WORDS]


def derive_seed(seed: int, *path: int) -> int:
    """Hash a root seed and an index path into a child seed.

    Distinct paths give (with overwhelming probability) unrelated streams;
    the same path always gives the same stream.
    """
    s = _mix((seed & _MASK64) ^ 0x6A09E667F3BCC909)
    for index in path:
        s = _mix((s + ((index & _MASK64) * _GOLDEN & _MASK64)) & _MASK64)
    return s


def _derived_seeds(seed: int, path: tuple[int, ...], first: int, count: int) -> Iterator[int]:
    """`derive_seed(seed, *path, k)` for k = first .. first + count - 1.

    That seed is _mix(parent + k * GOLDEN), the k-th output of the stream at
    `parent = derive_seed(seed, *path)`, so the seeds come from `_block`.
    """
    state = (derive_seed(seed, *path) + (first - 1) * _GOLDEN) & _MASK64
    while count > 0:
        r = min(count, _LANES)
        yield from _block(state, r)
        state = (state + r * _GOLDEN) & _MASK64
        count -= r


class SplitMix64:
    """Sequential SplitMix64 generator over a 64-bit state."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, so no modulo bias."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        if n > 1 << 64:
            raise ValueError("randrange needs n <= 2**64, the size of one draw")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next64()
            if r < limit:
                return r % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, drawing j as `randrange(i + 1)` would.

        Draws come `_LANES` at a time from `_block`; at a draw that
        randrange would reject, the state moves just past it and the next
        block starts with the redraw for the same i.
        """
        state = self._state
        # every randrange(i + 1) limit 2**64 - 2**64 % (i + 1) is above `safe`,
        # so a draw z <= safe is accepted without computing the limit
        safe = (1 << 64) - len(items)
        top = len(items) - 1
        while top > 0:
            r = min(top, _LANES)
            for i, z in zip(range(top, top - r, -1), _block(state, r)):
                if z > safe and z >= (1 << 64) - (1 << 64) % (i + 1):
                    # z is rejected: randrange(i + 1) redraws from the state
                    # just past it
                    state = (state + (top - i + 1) * _GOLDEN) & _MASK64
                    top = i
                    break
                j = z % (i + 1)
                items[i], items[j] = items[j], items[i]
            else:
                state = (state + r * _GOLDEN) & _MASK64
                top -= r
        self._state = state

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct integers drawn uniformly from range(n).

        Partial Fisher-Yates over a virtual array, so memory is O(k) even
        when n is huge (n is a pair count for random graphs).
        """
        if not 0 <= k <= n:
            raise ValueError("sample needs 0 <= k <= n")
        replacement: dict[int, int] = {}
        picked = []
        for i in range(k):
            j = i + self.randrange(n - i)
            picked.append(replacement.get(j, j))
            replacement[j] = replacement.get(i, i)
        return picked
