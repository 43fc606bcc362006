"""Exhaustive small-graph searches over process polynomials.

Each isomorphism class is reported as one canonical graph6 string, its
canonical key.  Enumeration dedups each level of edge or leaf augmentations
by the refinement certificate `canon._certificate`, which is much cheaper
than the lexmax search behind the key, and computes `canonical_key` once
per class it returns.  Edge augmentation certifies only the children whose
new edge has the largest degree sum d(a)+d(b) (McKay's canonical deletion,
J. Algorithms 1998); that is complete because deleting such an edge from
any class lands in the previous level, and isomorphisms preserve degrees.
The representatives are parsed from those keys, so a representative is a
canonical form whose own graph6 is its key: it is never keyed twice.
Every search reports replayable records: graphs as graph6 strings plus the
exact polynomials involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .canon import _certificate, canonical_key, is_edge_transitive
from .distribution import ForestDistribution
from .engine import PolynomialEngine, expected_components, forest_polynomial
from .errors import SizeCapExceeded
from .families import balanced_bipartite_plus_edge, complete_bipartite
from .graph6 import parse_graph6, serialize_graph6
from .graphs import Graph, is_connected

SEARCH_VERTEX_CAP = 7
TREE_VERTEX_CAP = 10
EXHAUSTIVE_VERTEX_CAP = 6
CONJECTURE_CAP = 7  # 2k+1 <= 15 vertices; k = 7 is solved in seconds


def _grow(
    level: Iterable[Graph], children: Callable[[Graph], Iterable[Graph]]
) -> list[Graph]:
    """The first child met of each class among the children of `level`.

    Children are deduplicated by refinement certificate, so the kept graphs
    carry whatever labelling their parent and augmentation gave them; they
    are put in canonical form only by the caller, once per class it keeps.
    """
    nxt: dict[tuple[int, ...], Graph] = {}
    for g in level:
        for h in children(g):
            nxt.setdefault(_certificate(h), h)
    return list(nxt.values())


def enumerate_connected_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class of connected n-vertex graphs.

    Grown by edge augmentation: every class with m edges arises from some
    class with m-1 edges by adding back an edge of largest degree sum (drop
    that edge; an isomorphism carries it to an edge of largest degree sum),
    so only such children are deduplicated by certificate, level by level.
    Representatives are canonical forms, ordered by (edge count, canonical
    key).
    """
    if not 2 <= n <= SEARCH_VERTEX_CAP:
        raise SizeCapExceeded(f"connected enumeration cap is 2..{SEARCH_VERTEX_CAP}")
    pairs = list(combinations(range(n), 2))

    def add_edge(g: Graph) -> Iterator[Graph]:
        # canonical deletion: g + uv only when uv has the largest degree sum
        # in the child, s = d(u)+d(v)+2.  Adding uv lifts an old edge's sum
        # by at most 1, so an old edge beats s only when s == top and it is
        # a top edge of g with u or v as an endpoint.
        present = g.edge_set()
        deg = g.degrees()
        sums = [deg[a] + deg[b] for a, b in g.edges]
        top = max(sums, default=0)
        hot = {w for e, s in zip(g.edges, sums) if s == top for w in e}
        for e in pairs:
            if e in present:
                continue
            u, v = e
            s = deg[u] + deg[v] + 2
            if s > top or (s == top and u not in hot and v not in hot):
                yield Graph(n, g.edges + (e,))

    level = [Graph(n, ())]
    found: list[tuple[int, str]] = []
    for m in range(1, len(pairs) + 1):
        level = _grow(level, add_edge)
        found.extend((m, canonical_key(g)) for g in level if is_connected(g))
    return [parse_graph6(key) for _, key in sorted(found)]


def enumerate_connected_graphs_exhaustive(n: int) -> list[Graph]:
    """Independent oracle: filter all 2^C(n,2) edge subsets, dedup, sort."""
    if not 2 <= n <= EXHAUSTIVE_VERTEX_CAP:
        raise SizeCapExceeded(f"exhaustive enumeration cap is 2..{EXHAUSTIVE_VERTEX_CAP}")
    pairs = list(combinations(range(n), 2))
    found: dict[str, int] = {}  # canonical key -> edge count
    for subset in range(1 << len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if (subset >> i) & 1)
        g = Graph(n, edges)
        if is_connected(g):
            found.setdefault(canonical_key(g), len(edges))
    return [parse_graph6(key) for key in sorted(found, key=lambda key: (found[key], key))]


def enumerate_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of n-vertex trees.

    Grown by leaf augmentation (attach a new vertex to each possible host),
    complete because every tree with at least two vertices has a leaf.
    """
    if not 1 <= n <= TREE_VERTEX_CAP:
        raise SizeCapExceeded(f"tree enumeration cap is 1..{TREE_VERTEX_CAP}")

    def add_leaf(t: Graph) -> Iterator[Graph]:
        return (Graph(t.n + 1, t.edges + ((host, t.n),)) for host in range(t.n))

    level = [Graph(1, ())]
    for _ in range(2, n + 1):
        level = _grow(level, add_leaf)
    return [parse_graph6(key) for key in sorted(canonical_key(t) for t in level)]


@dataclass(frozen=True)
class PairReport:
    """Two non-isomorphic graphs sharing one exact polynomial."""

    graph6_a: str
    graph6_b: str
    shared_polynomial: ForestDistribution
    explained_by_corollary4: bool

    def to_json_dict(self) -> dict:
        return {
            "graph6_a": self.graph6_a,
            "graph6_b": self.graph6_b,
            "shared_polynomial": self.shared_polynomial.to_json_dict(),
            "explained_by_corollary4": self.explained_by_corollary4,
        }


@dataclass(frozen=True)
class TwinReport:
    """Two graphs with equal edge-value multisets but different polynomials."""

    graph6_a: str
    graph6_b: str
    expected_components: Fraction
    polynomial_a: ForestDistribution
    polynomial_b: ForestDistribution

    def to_json_dict(self) -> dict:
        e = self.expected_components
        return {
            "graph6_a": self.graph6_a,
            "graph6_b": self.graph6_b,
            "expected_components": f"{e.numerator}/{e.denominator}",
            "polynomial_a": self.polynomial_a.to_json_dict(),
            "polynomial_b": self.polynomial_b.to_json_dict(),
        }


@dataclass(frozen=True)
class ConjectureReport:
    """Comparison of the odd balanced bipartite-plus-edge graph with K_{k,k+1}."""

    k: int
    holds: bool
    plus_edge_polynomial: ForestDistribution
    bipartite_polynomial: ForestDistribution

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "holds": self.holds,
            "plus_edge_polynomial": self.plus_edge_polynomial.to_json_dict(),
            "bipartite_polynomial": self.bipartite_polynomial.to_json_dict(),
        }


def _corollary4_explains(a: Graph, b: Graph) -> bool:
    """One graph edge-transitive and the other isomorphic to it minus an edge.

    Both are representatives, so the smaller one's graph6 is its key.
    """
    for big, small in ((a, b), (b, a)):
        if big.m != small.m + 1 or big.m < 2:
            continue
        if not is_edge_transitive(big):
            continue
        # edge-transitive: all single deletions are isomorphic, test one
        if canonical_key(big.delete_edge(0)) == serialize_graph6(small):
            return True
    return False


_Member = tuple[str, Graph, ForestDistribution]


def _bucketed_pairs(
    graphs: list[Graph],
    engine: PolynomialEngine | None,
    signature: Callable[[Graph, ForestDistribution], tuple],
) -> Iterator[tuple[_Member, _Member]]:
    """Pairs of representatives with equal signatures, as (graph6, graph, p_G).

    Pairs come in signature order, then graph6 order.
    """
    buckets: dict[tuple, list[_Member]] = {}
    for g in graphs:
        dist = forest_polynomial(g, engine)
        buckets.setdefault(signature(g, dist), []).append((serialize_graph6(g), g, dist))
    for sig in sorted(buckets):
        yield from combinations(sorted(buckets[sig], key=lambda item: item[0]), 2)


def _pair_reports(
    graphs: list[Graph], engine: PolynomialEngine | None
) -> list[PairReport]:
    return [
        PairReport(g6a, g6b, dist, _corollary4_explains(ga, gb))
        for (g6a, ga, dist), (g6b, gb, _) in _bucketed_pairs(
            graphs, engine, lambda g, dist: tuple(sorted(dist.probs.items()))
        )
    ]


def _edge_degree_sums(g: Graph, _dist: ForestDistribution) -> tuple[int, ...]:
    degs = g.degrees()
    return tuple(sorted(degs[u] + degs[v] for u, v in g.edges))


def find_equal_polynomial_pairs(
    n: int, engine: PolynomialEngine | None = None
) -> list[PairReport]:
    """All unordered pairs of connected n-vertex classes sharing a polynomial."""
    if not 2 <= n <= SEARCH_VERTEX_CAP:
        raise SizeCapExceeded(f"pair search cap is 2..{SEARCH_VERTEX_CAP}")
    return _pair_reports(enumerate_connected_graphs(n), engine)


def find_edge_degree_twins(
    n: int, engine: PolynomialEngine | None = None
) -> list[TwinReport]:
    """Connected pairs with equal {d(u)+d(v)} edge multisets, unequal polynomials.

    Equal multisets force equal expected component counts, so these witness
    that the expectation does not determine the distribution.
    """
    if not 2 <= n <= SEARCH_VERTEX_CAP:
        raise SizeCapExceeded(f"twin search cap is 2..{SEARCH_VERTEX_CAP}")
    return [
        TwinReport(g6a, g6b, expected_components(ga), da, db)
        for (g6a, ga, da), (g6b, _, db) in _bucketed_pairs(
            enumerate_connected_graphs(n), engine, _edge_degree_sums
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
    if not 2 <= n_max <= SEARCH_VERTEX_CAP:
        raise SizeCapExceeded(f"sweep cap is 2..{SEARCH_VERTEX_CAP}")
    violations = []
    for n in range(2, n_max + 1):
        for g in enumerate_connected_graphs(n):
            if not check_log_concavity(g, engine):
                violations.append(g)
    return violations


def find_tree_pairs(n: int, engine: PolynomialEngine | None = None) -> list[PairReport]:
    """Pairs of non-isomorphic n-vertex trees with equal polynomials."""
    if not 1 <= n <= TREE_VERTEX_CAP:
        raise SizeCapExceeded(f"tree pair cap is 1..{TREE_VERTEX_CAP}")
    return _pair_reports(enumerate_trees(n), engine)
