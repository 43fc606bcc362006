"""The forest-building process and exact component-count distributions.

Processing an edge ordering keeps each edge that touches at least one
previously untouched vertex; the kept edges form a forest covering every
non-isolated vertex.  kappa counts its trees, equivalently the kept edges
whose endpoints were both untouched.  An edge's endpoints are both
untouched exactly when it comes first among the edges at both endpoints, so
kappa is the number of local minima of a uniform order on the line graph.

Exact distributions come from DFS over all m! orderings (the oracle, capped
at 10 edges) and from sums over covered vertex sets.  In a connected
component with m edges, let C(S) count the orderings in which every edge of
a matching S is a local minimum.  The first of the edges U(S) that touch
W = V(S) must be in S, so C(S) = sum_{e in S} C(S - e) / |U(S)|, and the
sum D(W) of C(S) over the perfect matchings S of G[W] obeys

    D(empty) = m!,    D(W) = sum_{uv in E(G[W])} D(W - u - v) / |U(W)|,

each division exact.  With E_j the sum of D(W) over the sets of 2j
vertices, E_j / m! = E[binom(kappa, j)] and inclusion-exclusion gives

    P(kappa = k) = sum_j (-1)^(j-k) binom(j, k) E_j / m!.

Components are solved one at a time and their laws convolved, so the cost
is the number of covered sets of the largest component.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain
from math import comb, factorial

from .distribution import ForestDistribution, convolve
from .errors import InvalidGraph, MemoryBudgetExceeded, ParameterOutOfRange, SizeCapExceeded
from .graphs import Graph, _compact, components, is_connected

BRUTE_FORCE_EDGE_CAP = 10
DEFAULT_MAX_MEMO_ENTRIES = 1 << 20


@dataclass(frozen=True)
class ProcessResult:
    kept: frozenset[int]
    kappa: int


def run_process(g: Graph, ordering: list[int] | tuple[int, ...]) -> ProcessResult:
    """Run the process for one explicit edge ordering."""
    if sorted(ordering) != list(range(g.m)):
        raise ParameterOutOfRange("ordering must be a permutation of 0..m-1")
    kept, kappa = _scan(_compact(g.edges), ordering)
    return ProcessResult(frozenset(kept), kappa)


def _scan(g: Graph, order: list[int] | tuple[int, ...]) -> tuple[list[int], int]:
    """Kept edge ids and kappa over `order`; the caller ensures it is a permutation."""
    edges = g.edges
    touched = [False] * g.n
    kept = []
    kappa = 0
    for eid in order:
        u, v = edges[eid]
        if touched[u]:
            if touched[v]:
                continue
            touched[v] = True
        elif touched[v]:
            touched[u] = True
        else:
            touched[u] = touched[v] = True
            kappa += 1
        kept.append(eid)
    return kept, kappa


def brute_force_distribution(g: Graph) -> ForestDistribution:
    """Exact distribution by summing over all m! orderings.

    DFS over sets of processed edges: an edge starts a tree exactly when no
    processed edge shares an endpoint with it, so the rest of the ordering
    depends only on that set and suffix counts are shared across prefixes.
    """
    m = g.m
    if m > BRUTE_FORCE_EDGE_CAP:
        raise SizeCapExceeded(f"brute force cap is {BRUTE_FORCE_EDGE_CAP} edges, got {m}")
    if m == 0:
        return ForestDistribution(g.n, 0, {})
    # near[e]: the edges that share an endpoint with e
    near = [sum(1 << f for f, (a, b) in enumerate(g.edges) if {a, b} & {u, v})
            for u, v in g.edges]
    full = (1 << m) - 1

    @cache
    def suffix_counts(used: int) -> dict[int, int]:
        # counts[k] = number of orderings of the unused edges creating k trees
        if used == full:
            return {0: 1}
        counts: dict[int, int] = {}
        for eid in range(m):
            bit = 1 << eid
            if used & bit:
                continue
            tree_event = int(not used & near[eid])
            for k, c in suffix_counts(used | bit).items():
                counts[k + tree_event] = counts.get(k + tree_event, 0) + c
        return counts

    orderings_by_k = suffix_counts(0)
    total = sum(orderings_by_k.values())
    probs = {k: Fraction(c, total) for k, c in sorted(orderings_by_k.items())}
    return ForestDistribution(g.n, m, probs)


def expected_components(g: Graph) -> Fraction:
    """Sum over edges uv of 1/(d(u) + d(v) - 1)."""
    if g.m == 0:
        raise InvalidGraph("expectation needs at least one edge")
    degs = Counter(chain.from_iterable(g.edges))
    return sum((Fraction(1, degs[u] + degs[v] - 1) for u, v in g.edges), Fraction(0))


class PolynomialEngine:
    """Evaluator for exact distributions and one-component values.

    Each connected component is solved by the covered-set sums of the
    module docstring.  The engine keeps one law between calls: that of the
    last component solved, keyed by its labelled edge list (vertex count
    plus edge tuple).  So `one_component` after `distribution` on one graph
    reads the law just solved, and a graph's equal labelled components,
    which `distribution` visits in a row, are solved once.

    `max_memo_entries` bounds the covered sets held at once while solving
    (two levels); exceeding it raises MemoryBudgetExceeded rather than
    thrashing.  Sets are counted as they are inserted, and first by
    closed-form lower bounds L_j on the level sizes: with Delta the maximum
    degree, a set on 2j vertices keeps at least m - j(2 Delta - 1) free
    edges and one on 2j + 2 is reached from at most C(2j + 2, 2) pairs, so
    L_0 = 1, L_{j+1} = L_j max(m - j(2 Delta - 1), 0) // C(2j + 2, 2).  The
    budget counts sets, not bytes: each holds an integer of about log2(m!)
    bits and an m-bit free set (K_20: 310,726 sets, 146 MB).
    """

    def __init__(self, max_memo_entries: int = DEFAULT_MAX_MEMO_ENTRIES):
        self.max_memo_entries = max_memo_entries
        self._last_key: tuple[int, tuple] | None = None
        self._last_law: dict[int, Fraction] = {}

    def distribution(self, g: Graph) -> ForestDistribution:
        """Exact p_G as a distribution; edgeless graphs give the empty map.

        A connected graph is its own component: its law is copied out as it
        stands.  Other graphs visit their components sorted by labelled edge
        list, so equal ones come in a row, and convolve their ordering counts
        (each law times m!), dividing once per coefficient at the end.
        """
        if g.m and is_connected(g):
            return ForestDistribution(g.n, g.m, dict(self._component_law(g)))
        counts, total = {0: 1}, 1
        # small first also keeps integer products small (gnm 30000/6000: 0.11 s, 0.65 s unsorted)
        for piece in sorted(components(g), key=lambda c: (c.n, c.edges)):
            orderings = factorial(piece.m)
            law = self._component_law(piece)
            counts = convolve(
                counts, {k: p.numerator * (orderings // p.denominator) for k, p in law.items()}
            )
            total *= orderings
        probs = {k: Fraction(c, total) for k, c in counts.items() if k > 0}
        return ForestDistribution(g.n, g.m, probs)

    def one_component(self, g: Graph) -> Fraction:
        """P(G,1) for a connected graph: coefficient 1 of its law."""
        if g.m == 0:
            raise InvalidGraph("one-component probability needs at least one edge")
        if not is_connected(g):
            raise InvalidGraph("one-component probability needs a connected graph")
        return self._component_law(g)[1]

    def _component_law(self, comp: Graph) -> dict[int, Fraction]:
        """The law of a connected component, solved unless it is the last one solved."""
        key = (comp.n, comp.edges)
        if key != self._last_key:
            self._last_law = _law(self._covered_sums(comp))
            self._last_key = key
        return self._last_law

    def _covered_sums(self, comp: Graph) -> list[int]:
        """[E_0, E_1, ...] for a connected component, one covered-set level at a time.

        Level j maps each 2j-vertex bitmask W to [D(W), F(W)], F(W) = E - U(W).
        D(W) is pushed along each free edge into W plus its ends, storing F(W)
        less the edges at those ends on first insert, and divided by m - |F|
        once its level is complete.
        """
        m = comp.m
        floor, j, reach = 1, 0, 2 * max(comp.degrees()) - 1
        while floor:
            step = floor * max(m - j * reach, 0) // comb(2 * j + 2, 2)
            if floor + step > self.max_memo_entries:
                raise self._exhausted(f"at least {floor + step}", j)
            floor, j = step, j + 1
        at = [0] * comp.n
        for eid, (u, v) in enumerate(comp.edges):
            at[u] |= 1 << eid
            at[v] |= 1 << eid
        ends = [(1 << u) | (1 << v) for u, v in comp.edges]
        apart = [~(at[u] | at[v]) for u, v in comp.edges]
        level = {0: [factorial(m), (1 << m) - 1]}
        sums = []
        while level:
            sums.append(sum(d for d, _ in level.values()))
            nxt: dict[int, list[int]] = {}
            for w, (d, free) in level.items():
                grow = free
                while grow:
                    low = grow & -grow
                    grow ^= low
                    eid = low.bit_length() - 1
                    key = w | ends[eid]
                    state = nxt.get(key)
                    if state is not None:
                        state[0] += d
                    elif len(level) + len(nxt) < self.max_memo_entries:
                        nxt[key] = [d, free & apart[eid]]
                    else:
                        raise self._exhausted(self.max_memo_entries + 1, len(sums) - 1)
            for state in nxt.values():
                state[0] //= m - state[1].bit_count()
            level = nxt
        return sums

    def _exhausted(self, held: int | str, j: int) -> MemoryBudgetExceeded:
        budget = self.max_memo_entries
        sets = f"{held} covered sets of {2 * j} and {2 * j + 2} vertices at once"
        return MemoryBudgetExceeded(f"matching budget of {budget} entries exhausted: {sets}")

    def memo_sizes(self) -> tuple[int]:
        """The number of component laws held, 0 before any solve and 1 after."""
        return (int(self._last_key is not None),)


def _law(sums: list[int]) -> dict[int, Fraction]:
    """P(kappa = k) for k >= 1 from E_j = m! E[binom(kappa, j)], E_0 = m!."""
    law = {}
    for k in range(1, len(sums)):
        count = sum((-1) ** (j - k) * comb(j, k) * sums[j] for j in range(k, len(sums)))
        if count:
            law[k] = Fraction(count, sums[0])
    return law


def forest_polynomial(g: Graph, engine: PolynomialEngine | None = None) -> ForestDistribution:
    """Exact distribution of the process component count for g.

    Without an engine, a fresh one serves this call alone.
    """
    return (engine or PolynomialEngine()).distribution(g)


def single_component_probability(g: Graph, engine: PolynomialEngine | None = None) -> Fraction:
    """Exact P(G,1) for connected g; without an engine, a fresh one serves this call."""
    return (engine or PolynomialEngine()).one_component(g)
