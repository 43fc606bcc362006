"""Exhaustive small-graph searches over process polynomials.

Enumeration works over isomorphism classes (canonical-key dedup of edge or
leaf augmentations), and every search reports replayable records: graphs as
graph6 strings plus the exact polynomials involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .canon import canonical_key, is_edge_transitive
from .distribution import ForestDistribution
from .engine import PolynomialEngine, expected_components, forest_polynomial
from .errors import SizeCapExceeded
from .families import balanced_bipartite_plus_edge, complete_bipartite
from .graph6 import parse_graph6
from .graphs import Graph, is_connected

SEARCH_VERTEX_CAP = 7
TREE_VERTEX_CAP = 10
EXHAUSTIVE_VERTEX_CAP = 6
CONJECTURE_CAP = 7  # 2k+1 <= 15 vertices; k = 7 is solved in seconds


def enumerate_connected_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class of connected n-vertex graphs.

    Grown by edge augmentation: every class with m edges arises from some
    class with m-1 edges (drop any edge), so augmenting all classes level by
    level and deduplicating by canonical key is complete.  Representatives
    are canonical forms, ordered by (edge count, canonical key).
    """
    if not 2 <= n <= SEARCH_VERTEX_CAP:
        raise SizeCapExceeded(f"connected enumeration cap is 2..{SEARCH_VERTEX_CAP}")
    empty = Graph(n, ())
    level: dict[bytes, Graph] = {canonical_key(empty): empty}
    found: list[tuple[int, bytes]] = []
    total_pairs = n * (n - 1) // 2
    for m in range(1, total_pairs + 1):
        nxt: dict[bytes, Graph] = {}
        for g in level.values():
            present = g.edge_set()
            for u, v in combinations(range(n), 2):
                if (u, v) in present:
                    continue
                h = Graph(n, g.edges + ((u, v),))
                key = canonical_key(h)
                if key not in nxt:
                    nxt[key] = h
        level = nxt
        for key, g in nxt.items():
            if is_connected(g):
                found.append((m, key))
    return [parse_graph6(key.decode("ascii")) for _, key in sorted(found)]


def enumerate_connected_graphs_exhaustive(n: int) -> list[Graph]:
    """Independent oracle: filter all 2^C(n,2) edge subsets, dedup, sort."""
    if not 2 <= n <= EXHAUSTIVE_VERTEX_CAP:
        raise SizeCapExceeded(f"exhaustive enumeration cap is 2..{EXHAUSTIVE_VERTEX_CAP}")
    pairs = list(combinations(range(n), 2))
    seen: set[bytes] = set()
    found: list[tuple[int, bytes]] = []
    for subset in range(1 << len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if (subset >> i) & 1)
        g = Graph(n, edges)
        if not is_connected(g):
            continue
        key = canonical_key(g)
        if key not in seen:
            seen.add(key)
            found.append((len(edges), key))
    return [parse_graph6(key.decode("ascii")) for _, key in sorted(found)]


def enumerate_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of n-vertex trees.

    Grown by leaf augmentation (attach a new vertex to each possible host),
    complete because every tree with at least two vertices has a leaf.
    """
    if not 1 <= n <= TREE_VERTEX_CAP:
        raise SizeCapExceeded(f"tree enumeration cap is 1..{TREE_VERTEX_CAP}")
    level: dict[bytes, Graph] = {}
    single = Graph(1, ())
    level[canonical_key(single)] = single
    for size in range(2, n + 1):
        nxt: dict[bytes, Graph] = {}
        for t in level.values():
            for host in range(t.n):
                h = Graph(t.n + 1, t.edges + ((host, t.n),))
                key = canonical_key(h)
                if key not in nxt:
                    nxt[key] = h
        level = nxt
    keys = sorted(level)
    return [parse_graph6(key.decode("ascii")) for key in keys]


def labeled_trees_prufer(n: int):
    """Yield every labeled tree on n vertices by decoding Prufer sequences.

    Used as a completeness oracle for enumerate_trees at small n; the
    sequence space is n^(n-2) so this is only for testing scale.
    """
    if n < 1:
        raise SizeCapExceeded("needs n >= 1")
    if n == 1:
        yield Graph(1, ())
        return
    if n == 2:
        yield Graph(2, ((0, 1),))
        return

    def decode(seq: tuple[int, ...]) -> Graph:
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        for v in seq:
            for leaf in range(n):
                if degree[leaf] == 1:
                    edges.append((min(leaf, v), max(leaf, v)))
                    degree[leaf] -= 1
                    degree[v] -= 1
                    break
        last = [v for v in range(n) if degree[v] == 1]
        edges.append((last[0], last[1]))
        return Graph(n, tuple(edges))

    seq = [0] * (n - 2)
    while True:
        yield decode(tuple(seq))
        pos = n - 3
        while pos >= 0 and seq[pos] == n - 1:
            seq[pos] = 0
            pos -= 1
        if pos < 0:
            return
        seq[pos] += 1


@dataclass(frozen=True)
class PairReport:
    """Two non-isomorphic graphs sharing one exact polynomial."""

    key_a: bytes
    key_b: bytes
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

    key_a: bytes
    key_b: bytes
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
    """One graph edge-transitive and the other isomorphic to it minus an edge."""
    for big, small in ((a, b), (b, a)):
        if big.m != small.m + 1 or big.m < 2:
            continue
        if not is_edge_transitive(big):
            continue
        # edge-transitive: all single deletions are isomorphic, test one
        if canonical_key(big.delete_edge(0)) == canonical_key(small):
            return True
    return False


def _pair_reports(
    graphs: list[Graph], engine: PolynomialEngine | None
) -> list[PairReport]:
    buckets: dict[tuple, list[tuple[bytes, Graph, ForestDistribution]]] = {}
    for g in graphs:
        dist = forest_polynomial(g, engine)
        signature = tuple(sorted(dist.probs.items()))
        buckets.setdefault(signature, []).append((canonical_key(g), g, dist))
    reports = []
    for signature in sorted(buckets):
        members = sorted(buckets[signature], key=lambda item: item[0])
        if len(members) < 2:
            continue
        for (key_a, ga, dist), (key_b, gb, _) in combinations(members, 2):
            reports.append(
                PairReport(
                    key_a,
                    key_b,
                    key_a.decode("ascii"),
                    key_b.decode("ascii"),
                    dist,
                    _corollary4_explains(ga, gb),
                )
            )
    return reports


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
    buckets: dict[tuple, list[tuple[bytes, Graph, ForestDistribution]]] = {}
    for g in enumerate_connected_graphs(n):
        degs = g.degrees()
        signature = tuple(sorted(degs[u] + degs[v] for u, v in g.edges))
        dist = forest_polynomial(g, engine)
        buckets.setdefault(signature, []).append((canonical_key(g), g, dist))
    reports = []
    for signature in sorted(buckets):
        members = sorted(buckets[signature], key=lambda item: item[0])
        for (key_a, ga, da), (key_b, gb, db) in combinations(members, 2):
            if da.probs == db.probs:
                continue
            reports.append(
                TwinReport(
                    key_a,
                    key_b,
                    key_a.decode("ascii"),
                    key_b.decode("ascii"),
                    expected_components(ga),
                    da,
                    db,
                )
            )
    return reports


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
