"""Canonical labeling, the lexmax test, and edge orbits."""

from itertools import combinations, permutations

import pytest

from forestbuilder.canon import (
    CANONICAL_VERTEX_CAP,
    _is_lexmax,
    _search,
    canonical_key,
    is_edge_transitive,
)
from forestbuilder.errors import SizeCapExceeded
from forestbuilder.families import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from forestbuilder.graph6 import parse_graph6, serialize_graph6
from forestbuilder.graphs import Graph, from_edge_list
from forestbuilder.rng import SplitMix64


def relabel(g: Graph, perm: list[int] | tuple[int, ...]) -> Graph:
    """g with vertex v renamed perm[v], edges kept in their order."""
    pairs = ((perm[u], perm[v]) for u, v in g.edges)
    return Graph(g.n, tuple((a, b) if a < b else (b, a) for a, b in pairs))


def test_key_invariant_under_all_relabelings():
    p4 = path_graph(4)
    keys = {canonical_key(relabel(p4, perm)) for perm in permutations(range(4))}
    assert len(keys) == 1


def test_distinct_classes_get_distinct_keys():
    c4 = cycle_graph(4)
    paw = from_edge_list(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    assert c4.m == paw.m
    assert canonical_key(c4) != canonical_key(paw)


def test_all_four_vertex_classes_separated():
    pairs = list(combinations(range(4), 2))
    keys = set()
    for subset in range(64):
        edges = tuple(pairs[i] for i in range(6) if (subset >> i) & 1)
        keys.add(canonical_key(Graph(4, edges)))
    assert len(keys) == 11


def test_random_relabelings_fixed_key(connected_classes):
    rng = SplitMix64(7)
    for n, graphs in connected_classes.items():
        perm = list(range(n))
        for g in graphs:
            base = canonical_key(g)
            for _ in range(50):
                rng.shuffle(perm)
                assert canonical_key(relabel(g, perm)) == base


def test_twin_classes_canonicalize_at_sixteen_vertices():
    # all vertices twins (K_16, its complement), all leaves twins (K_{1,15}),
    # both parts twin classes (K_{8,8}): factorial without twin pruning
    for g in (complete_graph(16), Graph(16, ()), star_graph(15)):
        assert canonical_key(g) == serialize_graph6(g)
    # lexmax K_{8,8} takes vertex 0 from one part, then the whole other part
    part = (0, *range(9, 16))
    k88 = Graph(16, tuple((a, b) if a < b else (b, a) for a in part for b in range(1, 9)))
    assert canonical_key(complete_bipartite(8, 8)) == serialize_graph6(k88)


def test_lexmax_test_matches_brute_force_oracle():
    # every labelled graph on at most 5 vertices: accepted exactly when its
    # graph6 is the largest over all relabelings, and that largest string is
    # its canonical key (the maximum is taken once per isomorphism class,
    # over the class's labelled graphs)
    for n, classes in enumerate((1, 1, 2, 4, 11, 34)):  # OEIS A000088
        pairs = list(combinations(range(n), 2))
        largest: dict[str, str] = {}
        accepted = 0
        for subset in range(1 << len(pairs)):
            g = Graph(n, tuple(p for i, p in enumerate(pairs) if (subset >> i) & 1))
            text = serialize_graph6(g)
            if text not in largest:
                relabeled = {serialize_graph6(relabel(g, perm)) for perm in permutations(range(n))}
                largest.update(dict.fromkeys(relabeled, max(relabeled)))
            assert _is_lexmax(g) == (text == largest[text]), text
            assert canonical_key(g) == largest[text], text
            accepted += _is_lexmax(g)
        assert accepted == classes


def _graph_where(n: int, adjacent) -> Graph:
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if adjacent(u, v)))


def test_certificate_on_vertex_transitive_graphs():
    # pairs that colour refinement alone cannot split: regular graphs of
    # equal degree, and the 4x4 rook graph against Shrikhande's graph, which
    # share the strongly regular parameters (16, 6, 2, 2)
    ring = [(i, (i + 1) % 8) for i in range(8)]
    outer = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    shrikhande_steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    graphs = [
        cycle_graph(16),
        from_edge_list(16, ring + [(u + 8, v + 8) for u, v in ring]),  # 2 C_8
        from_edge_list(10, outer + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),  # Petersen
        from_edge_list(10, outer + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]),  # prism
        complete_bipartite(8, 8),
        _graph_where(16, lambda u, v: u // 4 == v // 4 or u % 4 == v % 4),
        _graph_where(16, lambda u, v: ((v // 4 - u // 4) % 4, (v - u) % 4) in shrikhande_steps),
    ]
    assert [set(g.degrees()) for g in graphs] == [{2}, {2}, {3}, {3}, {8}, {6}, {6}]
    keys = [canonical_key(g) for g in graphs]
    assert len(set(keys)) == len(graphs)
    rng = SplitMix64(5)
    for g, key in zip(graphs, keys):
        perm = list(range(g.n))
        for _ in range(5):
            rng.shuffle(perm)
            assert canonical_key(relabel(g, perm)) == key


def test_canonical_form_properties():
    # the canonical form is the parsed key: a fixed point, isomorphic to g
    g = from_edge_list(5, [(0, 4), (4, 2), (2, 1), (1, 3), (3, 0)])  # a scrambled C_5
    cf = parse_graph6(canonical_key(g))
    assert canonical_key(cf) == canonical_key(g)
    assert sorted(cf.degrees()) == sorted(g.degrees())
    assert parse_graph6(canonical_key(cf)) == cf
    assert serialize_graph6(cf) == canonical_key(g)


def test_canonical_form_is_the_parsed_canonical_key(connected_classes):
    # representatives are canonical forms: the parsed key of any relabelling
    rng = SplitMix64(41)
    for n in range(2, 7):
        for g in connected_classes[n]:
            assert parse_graph6(canonical_key(g)) == g
            perm = list(range(n))
            rng.shuffle(perm)
            assert parse_graph6(canonical_key(relabel(g, perm))) == g


def _automorphisms_oracle(g: Graph) -> list[tuple[int, ...]]:
    """Oracle: every vertex permutation that maps the edge set onto itself."""
    edges = set(g.edges)
    return [
        sigma
        for sigma in permutations(range(g.n))
        if {(min(sigma[u], sigma[v]), max(sigma[u], sigma[v])) for u, v in g.edges} == edges
    ]


def _edge_transitive_oracle(g: Graph) -> bool:
    """Oracle: the first edge's orbit under the brute-force group is every edge."""
    if not g.edges:
        return True
    u, v = g.edges[0]
    orbit = {(min(s[u], s[v]), max(s[u], s[v])) for s in _automorphisms_oracle(g)}
    return orbit == set(g.edges)


def test_edge_transitivity_matches_brute_force_oracle(connected_classes):
    assert [
        len(_automorphisms_oracle(g))
        for g in (complete_graph(3), complete_graph(4), path_graph(4), cycle_graph(4),
                  complete_bipartite(2, 3), star_graph(3))
    ] == [6, 24, 2, 8, 12, 6]
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for subset in range(1 << len(pairs)):
            g = Graph(n, tuple(p for i, p in enumerate(pairs) if (subset >> i) & 1))
            assert is_edge_transitive(g) == _edge_transitive_oracle(g), g
    classes = [g for n in range(2, 7) for g in connected_classes[n]]
    verdicts = [is_edge_transitive(g) for g in classes]
    assert verdicts == [_edge_transitive_oracle(g) for g in classes]
    assert 0 < sum(verdicts) < len(verdicts)


def test_edge_strings_are_the_edge_orbits():
    # every labelled graph on at most 5 vertices: two edges get the same
    # string of their restricted search exactly when an automorphism of the
    # brute-force group maps one onto the other
    edges_checked = 0
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for subset in range(1 << len(pairs)):
            g = Graph(n, tuple(p for i, p in enumerate(pairs) if (subset >> i) & 1))
            masks = g.adjacency_masks()
            by_string: dict[int, set[tuple[int, int]]] = {}
            for u, v in g.edges:
                string = _search(n, masks, first=1 << u | 1 << v)
                by_string.setdefault(string, set()).add((u, v))
            autos = _automorphisms_oracle(g)
            orbits = {
                frozenset((min(s[u], s[v]), max(s[u], s[v])) for s in autos) for u, v in g.edges
            }
            assert orbits == {frozenset(edges) for edges in by_string.values()}, g
            edges_checked += g.m
    assert edges_checked == 5325  # sum over n of C(n, 2) 2^(C(n, 2) - 1)


def test_edge_transitivity_at_the_vertex_cap():
    # 16 vertices (the prism has 10), where listing automorphisms one by one
    # takes minutes: K_16 alone has 16! of them
    n = CANONICAL_VERTEX_CAP
    cube = _graph_where(n, lambda u, v: (u ^ v).bit_count() == 1)  # Q_4
    rook = _graph_where(n, lambda u, v: u // 4 == v // 4 or u % 4 == v % 4)
    outer = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    prism = from_edge_list(10, outer + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    # 4 (K_4 - e)
    diamonds = _graph_where(n, lambda u, v: u // 4 == v // 4 and (u % 4, v % 4) != (2, 3))
    for g in (complete_graph(n), complete_bipartite(8, 8), star_graph(n - 1),
              cycle_graph(n), cube, rook):
        assert is_edge_transitive(g), g
    for g in (path_graph(n), prism, diamonds):
        assert not is_edge_transitive(g), g


def test_edge_transitive_families():
    for n in range(2, 6):
        assert is_edge_transitive(complete_graph(n))
    for s in range(1, 4):
        for t in range(1, 4):
            assert is_edge_transitive(complete_bipartite(s, t))
    for n in range(3, 7):
        assert is_edge_transitive(cycle_graph(n))
    assert is_edge_transitive(star_graph(5))
    assert is_edge_transitive(Graph(1, ()))
    assert not is_edge_transitive(path_graph(4))
    assert not is_edge_transitive(complete_graph(4).delete_edge(0))


def test_vertex_cap():
    big = Graph(CANONICAL_VERTEX_CAP + 1, ((0, 1),))
    with pytest.raises(SizeCapExceeded, match="canonical labeling cap is 16 vertices, got 17"):
        canonical_key(big)
    with pytest.raises(SizeCapExceeded, match="automorphism cap is 16 vertices, got 17"):
        is_edge_transitive(Graph(CANONICAL_VERTEX_CAP + 1, ((0, 1), (1, 2))))
