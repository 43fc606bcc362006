"""Deterministic and random graph family generators.

Deterministic families fix both the labeling and the edge list order, so a
constructor called with the same arguments always returns the identical
Graph object.  Random families are pure functions of their seed.
"""

from __future__ import annotations

from math import comb, isqrt

from .errors import GenerationTimeout, ParameterOutOfRange
from .graphs import Graph
from .rng import SplitMix64, derive_seed

_REGULAR_RETRY_CAP = 10_000


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ParameterOutOfRange("complete graph needs n >= 1")
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_bipartite(s: int, t: int) -> Graph:
    """K_{s,t} with part A = 0..s-1, part B = s..s+t-1."""
    if s < 1 or t < 1:
        raise ParameterOutOfRange("complete bipartite needs s, t >= 1")
    return Graph(s + t, tuple((a, s + b) for a in range(s) for b in range(t)))


def complete_multipartite(sizes: tuple[int, ...]) -> Graph:
    """Complete multipartite graph; parts occupy consecutive label ranges."""
    if not sizes or any(s < 1 for s in sizes):
        raise ParameterOutOfRange("part sizes must all be >= 1")
    part = []
    for pid, size in enumerate(sizes):
        part.extend([pid] * size)
    n = len(part)
    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if part[i] != part[j]
    )
    return Graph(n, edges)


def path_graph(n: int) -> Graph:
    """Path on n vertices (n - 1 edges)."""
    if n < 1:
        raise ParameterOutOfRange("path needs n >= 1")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ParameterOutOfRange("cycle needs n >= 3")
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((0, n - 1))
    return Graph(n, tuple(edges))


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the center labeled 0."""
    if leaves < 1:
        raise ParameterOutOfRange("star needs at least one leaf")
    return Graph(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))


def balanced_bipartite_plus_edge(k: int) -> Graph:
    """K_{k,k+1} plus one edge inside the larger part (2k + 1 vertices).

    Parts are A = 0..k-1 and B = k..2k; the extra edge joins the first two
    vertices of B.
    """
    if k < 1:
        raise ParameterOutOfRange("needs k >= 1")
    base = complete_bipartite(k, k + 1)
    return Graph(base.n, base.edges + ((k, k + 1),))


def gnm_random_graph(n: int, m: int, seed: int) -> Graph:
    """Uniform graph with n vertices and m edges; pure function of the seed."""
    if n < 1:
        raise ParameterOutOfRange("gnm needs n >= 1")
    total = comb(n, 2)
    if not 0 <= m <= total:
        raise ParameterOutOfRange(f"gnm needs 0 <= m <= {total}")
    if total > 1 << 64:
        raise ParameterOutOfRange(f"gnm draws one of at most 2**64 vertex pairs, got C({n}, 2)")
    rng = SplitMix64(derive_seed(seed, 0x6E6D))
    # index q names the q-th pair (i, j), i < j, in row-major order; row r
    # starts at index r(2n - r - 1)/2, so q's row is the floor of the smaller
    # root of r(2n - r - 1)/2 = q.  The isqrt estimate is that floor or one more.
    edges = []
    for q in sorted(rng.sample(total, m)):
        row = (2 * n - 1 - isqrt((2 * n - 1) ** 2 - 8 * q)) // 2
        if row * (2 * n - row - 1) // 2 > q:
            row -= 1
        edges.append((row, row + 1 + q - row * (2 * n - row - 1) // 2))
    return Graph(n, tuple(edges))


def random_regular_graph(n: int, d: int, seed: int) -> Graph:
    """Uniform-ish d-regular graph via the pairing model with rejection.

    Stubs are shuffled and paired; draws with self-loops or repeated pairs
    are rejected wholesale, so conditioned on acceptance the simple graphs
    appear with the pairing-model weights.  d = n - 1 returns K_n, the one
    such graph, which the pairing model almost never draws simple for
    n >= 7.  When the retry budget runs out and d > n - 1 - d, the result is
    the complement of the (n - 1 - d)-regular graph of the same seed; every
    spec the pairing model draws keeps its graph.  Raises GenerationTimeout
    when that fails too, ParameterOutOfRange when n*d is odd or d >= n.
    """
    if n < 1 or d < 0:
        raise ParameterOutOfRange("regular graph needs n >= 1 and d >= 0")
    if d >= n or (n * d) % 2 == 1:
        raise ParameterOutOfRange(f"no simple {d}-regular graph on {n} vertices")
    if d == n - 1:
        return complete_graph(n)
    for attempt in range(_REGULAR_RETRY_CAP):
        rng = SplitMix64(derive_seed(seed, 0x7265, attempt))
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        for u, v in zip(stubs[::2], stubs[1::2]):
            edge = (u, v) if u < v else (v, u)
            if u == v or edge in edges:
                break
            edges.add(edge)
        else:
            return Graph(n, tuple(sorted(edges)))
    if n - 1 - d < d:
        sparse = set(random_regular_graph(n, n - 1 - d, seed).edges)
        pairs = ((u, v) for u in range(n) for v in range(u + 1, n))
        return Graph(n, tuple(e for e in pairs if e not in sparse))
    raise GenerationTimeout(
        f"no simple pairing found for n={n}, d={d} in {_REGULAR_RETRY_CAP} tries"
    )
