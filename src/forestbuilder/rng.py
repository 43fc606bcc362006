"""Deterministic pseudo-randomness for reproducible experiments.

All randomized code in the package draws from SplitMix64 streams.  A stream
is identified by a 64-bit seed; `derive_seed` hashes a root seed together
with an index path so that independent tasks (trial t of experiment i, say)
get decorrelated streams without any shared mutable state.  That makes every
simulation a pure function of (root seed, structure), which is what the
regression tests rely on.

`SplitMix64.shuffle` is the hot loop of every Monte Carlo trial, so it
inlines the state step, the finalizer and the rejection test instead of
calling `randrange`.  Its permutation and final state must stay equal to
those of the Fisher-Yates loop `j = randrange(i + 1)` for i = len - 1 .. 1,
for every seed and length; `tests/test_rng.py` keeps that loop as the oracle.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# the two multipliers of the SplitMix64 finalizer
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    # finalizer from the SplitMix64 reference implementation
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *path: int) -> int:
    """Hash a root seed and an index path into a child seed.

    Distinct paths give (with overwhelming probability) unrelated streams;
    the same path always gives the same stream.
    """
    s = _mix((seed & _MASK64) ^ 0x6A09E667F3BCC909)
    for index in path:
        s = _mix((s + ((index & _MASK64) * _GOLDEN & _MASK64)) & _MASK64)
    return s


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
        """In-place Fisher-Yates shuffle, drawing j as `randrange(i + 1)` would."""
        state = self._state
        # every randrange(i + 1) limit 2**64 - 2**64 % (i + 1) is above `safe`,
        # so a draw z <= safe is accepted without computing the limit
        safe = (1 << 64) - len(items)
        for i in range(len(items) - 1, 0, -1):
            state = (state + _GOLDEN) & _MASK64
            z = ((state ^ (state >> 30)) * _MUL1) & _MASK64
            z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
            z ^= z >> 31
            if z > safe and z >= (1 << 64) - (1 << 64) % (i + 1):
                # z is rejected: randrange redraws from the advanced state
                self._state = state
                j = self.randrange(i + 1)
                state = self._state
            else:
                j = z % (i + 1)
            items[i], items[j] = items[j], items[i]
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
