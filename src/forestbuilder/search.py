"""Exhaustive small-graph searches over process polynomials.

Each isomorphism class is reported as one canonical graph6 string, its
canonical key.  Enumeration is orderly generation (Read, Every one a
winner, 1978) over lexmax canonical forms, so it keys nothing and dedups
nothing.  One generator, `_grow`, builds both trees and connected graphs a
vertex at a time.  By the connected prefix fact (proved in `canon`),
dropping the last vertex of a lexmax connected graph leaves the lexmax form
one vertex smaller, and that vertex's column holds the string's last
1-bits.  By the last-1 deletion fact, clearing them one at a time keeps
every step lexmax, down to that vertex's earliest edge.  So each form on
k + 1 vertices arises exactly once from one on k vertices: join a last
vertex k to one vertex u (a leaf, and the only step for trees), then add
neighbours v > u of k in increasing order, keeping each step that
`canon._is_lexmax` accepts.
Kept graphs list their edges in graph6 order, as `parse_graph6` of their
key would: a representative is a canonical form whose graph6 is its key.
One source, `_classes`, enumerates the classes for every search and for the
CLI tables, each as its (key, representative) pair, so each key is written
once.  It checks the size cap once, before building any level, and walks
`_grow` once, so each level is built once.
Every search reports replayable records: graphs as graph6 strings plus the
exact polynomials involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterator

from .canon import _is_lexmax, canonical_key, is_edge_transitive
from .distribution import ForestDistribution
from .engine import PolynomialEngine, expected_components, forest_polynomial
from .errors import SizeCapExceeded
from .families import balanced_bipartite_plus_edge, complete_bipartite
from .graph6 import serialize_graph6
from .graphs import Graph

SEARCH_VERTEX_CAP = 8
TREE_VERTEX_CAP = 10
# 2k+1 <= 15 vertices.  k = 7 takes 0.13 s, 9 2.4 s, 10 12 s and 11 77 s at
# 345 MB (shared 2-core box, Python 3.11); k = 12 exceeds the default budget.
CONJECTURE_CAP = 7


def _grow(n: int, tree: bool) -> Iterator[list[Graph]]:
    """The canonical trees, or connected graphs, on 1..n vertices, a level at a time.

    A class on k + 1 vertices grows from its lexmax prefix on k vertices:
    a last vertex k is joined to one vertex, then (for connected graphs) to
    more, in increasing order, each step kept when it is its own lexmax form.
    Levels come in the order they are built, and each is built once.
    """
    level = [Graph(1, ())]
    yield level
    for k in range(1, n):
        # (form, vertex k's last neighbour), from vertex k still isolated
        step = [(Graph(k + 1, g.edges), -1) for g in level]
        level = []
        for _ in range(1 if tree else k):
            step = [
                (h, v)
                for g, last in step
                for v in range(last + 1, k)
                if _is_lexmax(h := Graph(k + 1, g.edges + ((v, k),)))
            ]
            level += (h for h, _ in step)
        yield level


# an isomorphism class: its canonical graph6 key and its representative
_Class = tuple[str, Graph]


def _classes(kind: str, first: int, last: int) -> Iterator[tuple[int, list[_Class]]]:
    """(n, classes) of the "connected" graphs or "tree"s on first..last vertices.

    The one check of each kind's size range, made on the call, before any class is built.
    One walk of `_grow` builds every level up to `last` (none for an empty range), and
    only the levels handed out are keyed and sorted, by (edge count, key).
    """
    tree = kind == "tree"
    low, cap = (1, TREE_VERTEX_CAP) if tree else (2, SEARCH_VERTEX_CAP)
    if not low <= last <= cap:
        raise SizeCapExceeded(f"{kind} enumeration cap is {low}..{cap}")
    levels = enumerate(_grow(last, tree), 1) if first <= last else ()
    return (
        (n, sorted(((serialize_graph6(g), g) for g in level), key=lambda c: (c[1].m, c[0])))
        for n, level in levels
        if n >= first
    )


def _level(kind: str, n: int) -> list[_Class]:
    ((_, classes),) = _classes(kind, n, n)
    return classes


def enumerate_connected_graphs(n: int) -> list[Graph]:
    """Canonical representatives of the connected n-vertex classes, by (edge count, key)."""
    return [g for _, g in _level("connected", n)]


def enumerate_trees(n: int) -> list[Graph]:
    """Canonical representatives of the n-vertex trees, by leaf augmentation, in key order."""
    return [t for _, t in _level("tree", n)]


@dataclass(frozen=True)
class PairReport:
    """Two non-isomorphic graphs sharing one exact polynomial."""

    graph6_a: str
    graph6_b: str
    shared_polynomial: ForestDistribution
    explained_by_corollary4: bool


@dataclass(frozen=True)
class TwinReport:
    """Two graphs with equal edge-value multisets but different polynomials."""

    graph6_a: str
    graph6_b: str
    expected_components: Fraction
    polynomial_a: ForestDistribution
    polynomial_b: ForestDistribution


@dataclass(frozen=True)
class ConjectureReport:
    """Comparison of the odd balanced bipartite-plus-edge graph with K_{k,k+1}."""

    k: int
    holds: bool
    plus_edge_polynomial: ForestDistribution
    bipartite_polynomial: ForestDistribution


def _corollary4_explains(a: _Class, b: _Class) -> bool:
    """One graph edge-transitive and the other isomorphic to it minus an edge."""
    for (_, big), (small_key, small) in ((a, b), (b, a)):
        if big.m != small.m + 1 or big.m < 2:
            continue
        if not is_edge_transitive(big):
            continue
        # edge-transitive: all single deletions are isomorphic, test one
        if canonical_key(big.delete_edge(0)) == small_key:
            return True
    return False


_Member = tuple[_Class, ForestDistribution]


def _bucketed_pairs(
    classes: list[_Class],
    engine: PolynomialEngine | None,
    signature: Callable[[Graph, ForestDistribution], tuple],
) -> Iterator[tuple[_Member, _Member]]:
    """Pairs of classes with equal signatures, as ((key, representative), p_G).

    Pairs come in signature order, then key order.
    """
    buckets: dict[tuple, list[_Member]] = {}
    for key, g in classes:
        dist = forest_polynomial(g, engine)
        buckets.setdefault(signature(g, dist), []).append(((key, g), dist))
    for sig in sorted(buckets):
        yield from combinations(sorted(buckets[sig], key=lambda item: item[0][0]), 2)


def _pair_reports(classes: list[_Class], engine: PolynomialEngine | None) -> list[PairReport]:
    return [
        PairReport(a[0], b[0], dist, _corollary4_explains(a, b))
        for (a, dist), (b, _) in _bucketed_pairs(
            classes, engine, lambda g, dist: tuple(sorted(dist.probs.items()))
        )
    ]


def _edge_degree_sums(g: Graph, _dist: ForestDistribution) -> tuple[int, ...]:
    degs = g.degrees()
    return tuple(sorted(degs[u] + degs[v] for u, v in g.edges))


def find_equal_polynomial_pairs(
    n: int, engine: PolynomialEngine | None = None
) -> list[PairReport]:
    """All unordered pairs of connected n-vertex classes sharing a polynomial."""
    return _pair_reports(_level("connected", n), engine)


def find_edge_degree_twins(
    n: int, engine: PolynomialEngine | None = None
) -> list[TwinReport]:
    """Connected pairs with equal {d(u)+d(v)} edge multisets, unequal polynomials.

    Equal multisets force equal expected component counts, so these witness
    that the expectation does not determine the distribution.
    """
    return [
        TwinReport(a, b, expected_components(g), da, db)
        for ((a, g), da), ((b, _), db) in _bucketed_pairs(
            _level("connected", n), engine, _edge_degree_sums
        )
        if da.probs != db.probs
    ]


def check_conjecture(k: int, engine: PolynomialEngine | None = None) -> ConjectureReport:
    """Exactly compare K_{k,k+1} plus one edge in the larger part with K_{k,k+1}."""
    if not 1 <= k <= CONJECTURE_CAP:
        raise SizeCapExceeded(f"conjecture check cap is 1..{CONJECTURE_CAP}")
    plus = forest_polynomial(balanced_bipartite_plus_edge(k), engine)
    base = forest_polynomial(complete_bipartite(k, k + 1), engine)
    return ConjectureReport(k, plus.probs == base.probs, plus, base)


def check_log_concavity(g: Graph, engine: PolynomialEngine | None = None) -> bool:
    """Whether P(G,k)^2 >= P(G,k-1) P(G,k+1) for every k (missing terms are 0)."""
    dist = forest_polynomial(g, engine)
    if not dist.probs:
        return True
    top = max(dist.probs)
    for k in range(1, top + 1):
        if dist.coefficient(k) ** 2 < dist.coefficient(k - 1) * dist.coefficient(k + 1):
            return False
    return True


def sweep_log_concavity(
    n_max: int, engine: PolynomialEngine | None = None
) -> list[Graph]:
    """Log-concavity violations among connected classes on 2..n_max vertices."""
    graphs = (g for _, level in _classes("connected", 2, n_max) for _, g in level)
    return [g for g in graphs if not check_log_concavity(g, engine)]


def find_tree_pairs(n: int, engine: PolynomialEngine | None = None) -> list[PairReport]:
    """Pairs of non-isomorphic n-vertex trees with equal polynomials."""
    return _pair_reports(_level("tree", n), engine)
