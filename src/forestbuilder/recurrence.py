"""The edge-deletion recurrence for p_G, kept as an oracle for the engine.

    p_G = p_{G1} * p_{G2} * ...          over connected components,
    p_G = (1/m) * sum_e p_{G - e}        for a component with >= 2 edges,
    p_{K_2} = x,

since the last edge e of a uniform ordering is uniform, and in a connected
graph with at least two edges an earlier edge touches one of its endpoints,
so e starts no tree and kappa is that of the rest of the ordering on G - e.
Component laws are memoized by canonical key (the graph6 string of the
canonical form), so inputs are limited to the canonical vertex cap, and the
cost grows with the number of distinct subgraphs: tests call it on small
graphs only.
"""

from __future__ import annotations

from fractions import Fraction

from .canon import canonical_key
from .distribution import ForestDistribution, convolve
from .graphs import Graph, components


def recurrence_distribution(
    g: Graph, memo: dict[str, dict[int, Fraction]] | None = None
) -> ForestDistribution:
    """Exact p_G by the deletion recurrence, independent of PolynomialEngine.

    `memo` maps canonical keys to component laws; pass one dict to several
    calls to share their subresults, or none for a memo of this call only.
    """
    memo = {} if memo is None else memo

    def product(h: Graph) -> dict[int, Fraction]:
        acc = {0: Fraction(1)}
        for piece in components(h):
            acc = convolve(acc, component(piece))
        return acc

    def component(comp: Graph) -> dict[int, Fraction]:
        if comp.m == 1:
            return {1: Fraction(1)}
        key = canonical_key(comp)
        if key not in memo:
            acc: dict[int, Fraction] = {}
            for eid in range(comp.m):
                for k, p in product(comp.delete_edge(eid)).items():
                    acc[k] = acc.get(k, Fraction(0)) + p
            memo[key] = {k: p / comp.m for k, p in sorted(acc.items()) if p}
        return memo[key]

    probs = {k: p for k, p in product(g).items() if k > 0}
    return ForestDistribution(g.n, g.m, probs)
