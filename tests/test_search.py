"""Exhaustive small-graph searches and their replayable reports."""

from fractions import Fraction
from itertools import combinations

import pytest

import forestbuilder.search as search
from forestbuilder.canon import canonical_key, is_edge_transitive
from forestbuilder.cli import run
from forestbuilder.engine import expected_components, forest_polynomial
from forestbuilder.errors import ParameterOutOfRange, SizeCapExceeded
from forestbuilder.graph6 import parse_graph6, serialize_graph6
from forestbuilder.graphs import Graph, is_connected
from forestbuilder.search import (
    check_conjecture,
    check_log_concavity,
    enumerate_connected_graphs,
    enumerate_trees,
    find_edge_degree_twins,
    find_equal_polynomial_pairs,
    find_tree_pairs,
    sweep_log_concavity,
)

CONNECTED_CLASS_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
ALL_CLASS_COUNTS = {2: 2, 3: 4, 4: 11, 5: 34, 6: 156}  # OEIS A000088
TREE_CLASS_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
EXHAUSTIVE_VERTEX_CAP = 6


def exhaustive_classes(n: int) -> dict[str, Graph]:
    """Oracle for enumerate_connected_graphs: key all 2^C(n,2) edge subsets.

    Maps each canonical key, disconnected graphs' included, to the first
    subset found with it, with no orderly generation; 2^15 subsets at n = 6.
    """
    if not 2 <= n <= EXHAUSTIVE_VERTEX_CAP:
        raise SizeCapExceeded(f"exhaustive enumeration cap is 2..{EXHAUSTIVE_VERTEX_CAP}")
    pairs = list(combinations(range(n), 2))
    found: dict[str, Graph] = {}
    for subset in range(1 << len(pairs)):
        g = Graph(n, tuple(pairs[i] for i in range(len(pairs)) if (subset >> i) & 1))
        found.setdefault(canonical_key(g), g)
    return found


def labeled_trees_prufer(n: int):
    """Yield every labeled tree on n vertices by decoding Prufer sequences.

    Used as a completeness oracle for enumerate_trees at small n; the
    sequence space is n^(n-2) so this is only for testing scale.
    """
    if n < 1:
        raise ParameterOutOfRange("needs n >= 1")
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


def test_connected_class_counts(connected_classes):
    for n, count in CONNECTED_CLASS_COUNTS.items():
        assert len(connected_classes[n]) == count
    with pytest.raises(SizeCapExceeded, match=r"connected enumeration cap is 2\.\.8"):
        enumerate_connected_graphs(1)
    with pytest.raises(SizeCapExceeded, match=r"connected enumeration cap is 2\.\.8"):
        enumerate_connected_graphs(9)


def test_connected_enumeration_matches_exhaustive_oracle():
    for n in range(2, 7):
        classes = exhaustive_classes(n)
        assert len(classes) == ALL_CLASS_COUNTS[n]
        grown = [canonical_key(g) for g in enumerate_connected_graphs(n)]
        # the connected keys, by (edge count, key)
        filtered = sorted((g.m, key) for key, g in classes.items() if is_connected(g))
        assert grown == [key for _, key in filtered]
    with pytest.raises(SizeCapExceeded, match=r"exhaustive enumeration cap is 2\.\.6"):
        exhaustive_classes(7)


def every_vertex_added(g: Graph) -> list[Graph]:
    # a new vertex joined to each nonempty set of the old ones
    return [
        Graph(g.n + 1, g.edges + tuple((u, g.n) for u in range(g.n) if subset >> u & 1))
        for subset in range(1, 1 << g.n)
    ]


def every_leaf_added(t: Graph) -> list[Graph]:
    return [Graph(t.n + 1, t.edges + ((host, t.n),)) for host in range(t.n)]


def test_orderly_generation_keeps_each_class_once_in_canonical_form():
    # every vertex (or leaf) augmentation of every class, for connected
    # graphs on n <= 7 and trees on n <= 10, lands in the next level, whose
    # graphs are their own canonical forms with no key repeated; the levels
    # miss no class, as deleting a non-cut vertex (a leaf of a tree) leaves
    # a connected graph (a tree) one vertex smaller
    graph_levels = [[Graph(1, ())]] + [enumerate_connected_graphs(n) for n in range(2, 8)]
    tree_levels = [[Graph(1, ())]] + [enumerate_trees(n) for n in range(2, 11)]
    for levels, augment in (
        (graph_levels, every_vertex_added),
        (tree_levels, every_leaf_added),
    ):
        for level, nxt in zip(levels, levels[1:]):
            keys = [serialize_graph6(g) for g in nxt]
            assert keys == [canonical_key(g) for g in nxt]
            assert len(set(keys)) == len(keys)
            assert {canonical_key(h) for g in level for h in augment(g)} == set(keys)
    assert [len(level) for level in tree_levels] == TREE_CLASS_COUNTS


def test_orderly_generation_makes_few_lexmax_tests(monkeypatch, engine, connected_classes):
    # one test per child, a neighbour of the last vertex after its latest
    # one: 2,009 at n = 7 (over every level from 2 vertices), 995 accepted;
    # a sweep over 2..7 vertices builds each level once, so it makes no more.
    # Each verdict (the identity as incumbent, walking its ties and stopping
    # when beaten) must match the free search, so a slip in the tie or beaten
    # logic of either shows even where the counts come out right
    calls = []
    real_is_lexmax = search._is_lexmax

    def counting(g):
        calls.append(real_is_lexmax(g))
        assert calls[-1] == (canonical_key(g) == serialize_graph6(g)), serialize_graph6(g)
        return calls[-1]

    monkeypatch.setattr(search, "_is_lexmax", counting)
    assert tuple(enumerate_connected_graphs(7)) == connected_classes[7]
    assert (len(calls), sum(calls)) == (2009, 995)
    calls.clear()
    assert sweep_log_concavity(7, engine) == []
    assert (len(calls), sum(calls)) == (2009, 995)


@pytest.fixture(scope="module")
def eight_vertex_levels():
    """The levels of one walk of the connected generator, on 1..8 vertices."""
    return list(search._grow(8, False))


def test_grow_reaches_every_connected_graph_on_eight_vertices(eight_vertex_levels):
    # A001349(8) = 11,117 connected classes
    graphs = eight_vertex_levels[-1]
    assert len(graphs) == 11117
    assert all(map(is_connected, graphs))


def test_eight_vertex_searches_pinned(monkeypatch, engine, eight_vertex_levels):
    # every search at SEARCH_VERTEX_CAP, each reading the one walk above;
    # one equal-polynomial pair is not explained by Corollary 4
    def walked(n, tree):
        assert not tree and n <= 8
        return iter(eight_vertex_levels[:n])

    # each search evaluates every class; solve each labelled graph once
    laws = {}

    def memo(g, engine=None):
        key = (g.n, g.edges)
        if key not in laws:
            laws[key] = forest_polynomial(g, engine)
        return laws[key]

    monkeypatch.setattr(search, "_grow", walked)
    monkeypatch.setattr(search, "forest_polynomial", memo)
    assert len(enumerate_connected_graphs(8)) == 11117
    assert sweep_log_concavity(8, engine) == []
    reports = find_equal_polynomial_pairs(8, engine)
    assert [(r.graph6_a, r.graph6_b, r.explained_by_corollary4) for r in reports] == [
        ("GqGOOG", "GqGOOK", True),
        ("GsXP_W", "GsXP_[", True),
        ("Gs`zr_", "Gs`zro", True),
        ("G~z\\zw", "G~z\\z{", True),
        ("GsaBzo", "GsaBzw", True),
        ("G~~~~w", "G~~~~{", True),
        ("Gs`_GG", "GsaA?C", False),
        ("GsaCBw", "GsaCB{", True),
    ]
    assert reports[6].shared_polynomial.probs == {1: Fraction(1, 5), 2: Fraction(4, 5)}
    assert len(find_edge_degree_twins(8, engine)) == 30782


def test_each_searched_class_is_solved_once(monkeypatch, capsys, engine):
    # every finder, the sweep and the CLI tables solve class laws only in
    # search._solved, one evaluation per class: 112 connected classes on 6
    # vertices, 142 on 2..6, 47 trees on 9 vertices and 47 on 2..8
    calls = []

    def counting(g, engine=None):
        calls.append(g)
        return forest_polynomial(g, engine)

    monkeypatch.setattr(search, "forest_polynomial", counting)
    for count, search_call in (
        (112, lambda: find_equal_polynomial_pairs(6, engine)),
        (112, lambda: find_edge_degree_twins(6, engine)),
        (47, lambda: find_tree_pairs(9, engine)),
        (142, lambda: sweep_log_concavity(6, engine)),
        (47, lambda: run(["table", "trees", "--max-n", "8"])),
        (142, lambda: run(["table", "small-graphs", "--max-n", "6"])),
    ):
        calls.clear()
        search_call()
        assert len(calls) == count
    capsys.readouterr()


def test_enumeration_representatives_are_connected_and_ordered():
    reps = enumerate_connected_graphs(5)
    assert all(g.n == 5 and is_connected(g) for g in reps)
    order = [(g.m, canonical_key(g)) for g in reps]
    assert order == sorted(order)


def test_representatives_are_their_own_keys(connected_classes):
    # representatives are canonical forms, so their graph6 is the class key
    for graphs in connected_classes.values():
        for g in graphs:
            assert serialize_graph6(g) == canonical_key(g)
    for n in range(1, 11):
        for t in enumerate_trees(n):
            assert serialize_graph6(t) == canonical_key(t)


def test_tree_enumeration_counts():
    for n, count in enumerate(TREE_CLASS_COUNTS, start=1):
        trees = enumerate_trees(n)
        assert len(trees) == count
        assert all(t.m == n - 1 and is_connected(t) for t in trees)
    with pytest.raises(SizeCapExceeded, match=r"tree enumeration cap is 1\.\.10"):
        enumerate_trees(0)
    with pytest.raises(SizeCapExceeded, match=r"tree enumeration cap is 1\.\.10"):
        enumerate_trees(11)


def test_tree_enumeration_matches_prufer_oracle():
    for n in (5, 6, 7):
        labeled = list(labeled_trees_prufer(n))
        assert len(labeled) == n ** (n - 2)
        assert all(g.m == n - 1 and is_connected(g) for g in labeled)
        classes = {canonical_key(g) for g in labeled}
        assert classes == {canonical_key(t) for t in enumerate_trees(n)}


def test_prufer_degenerate_sizes():
    assert [g.edges for g in labeled_trees_prufer(1)] == [()]
    assert [g.edges for g in labeled_trees_prufer(2)] == [((0, 1),)]
    with pytest.raises(ParameterOutOfRange, match="needs n >= 1"):
        list(labeled_trees_prufer(0))


def test_equal_polynomial_pair_census(engine):
    expected = {2: (0, 0), 3: (1, 1), 4: (2, 2), 5: (7, 3), 6: (7, 5)}
    for n, (total, explained) in expected.items():
        reports = find_equal_polynomial_pairs(n, engine)
        assert len(reports) == total
        assert sum(r.explained_by_corollary4 for r in reports) == explained
        for rep in reports:
            ga = parse_graph6(rep.graph6_a)
            gb = parse_graph6(rep.graph6_b)
            assert canonical_key(ga) != canonical_key(gb)
            assert forest_polynomial(ga, engine).probs == rep.shared_polynomial.probs
            assert forest_polynomial(gb, engine).probs == rep.shared_polynomial.probs
    with pytest.raises(SizeCapExceeded, match=r"connected enumeration cap is 2\.\.8"):
        find_equal_polynomial_pairs(9, engine)


def test_smallest_pairs_are_the_known_ones(engine):
    triple = find_equal_polynomial_pairs(3, engine)
    assert [(r.graph6_a, r.graph6_b, r.explained_by_corollary4) for r in triple] == [
        ("Bo", "Bw", True)
    ]
    quads = find_equal_polynomial_pairs(4, engine)
    assert [(r.graph6_a, r.graph6_b, r.explained_by_corollary4) for r in quads] == [
        ("Cq", "Cr", True),
        ("C}", "C~", True),
    ]


def test_pair_census_pinned(engine):
    # n = 5, 6 pinned from the output of the search while its keys were bytes,
    # n = 7 from its output before canonical deletion filtered the children
    pinned = {
        5: [
            ("DqG", "DqK", True),
            ("DsW", "Ds[", True),
            ("DsW", "D}K", False),
            ("Ds[", "D}K", False),
            ("D{c", "D}k", False),
            ("D}G", "D}g", False),
            ("D~w", "D~{", True),
        ],
        6: [
            ("EqGO", "EqGW", True),
            ("Es\\_", "Es\\o", True),
            ("E}lo", "E}lw", True),
            ("E~~o", "E~~w", True),
            ("Es`o", "Es`w", True),
            ("EsP?", "E}G_", False),
            ("Es`?", "E{`?", False),
        ],
        7: [
            ("FqGOO", "FqGOW", True),
            ("Fs`_w", "F}Gg_", False),
            ("Fs`rO", "F}KoW", False),
            ("Fs`z_", "Fs`zo", True),
            ("Fs`z_", "F}oxo", False),
            ("Fs`zo", "F}oxo", False),
            ("Fs`a_", "F}G_O", False),
            ("F~~~o", "F~~~w", True),
            ("F}G__", "F}K__", False),
            ("FsaBo", "FsaBw", True),
        ],
    }
    for n, expected in pinned.items():
        reports = find_equal_polynomial_pairs(n, engine)
        assert [
            (r.graph6_a, r.graph6_b, r.explained_by_corollary4) for r in reports
        ] == expected


def test_explained_flags_confirmed_by_direct_recomputation(engine):
    # an explained pair is one edge-transitive graph and the other graph
    # isomorphic to it minus an edge; re-derive that from scratch, trying
    # every single-edge deletion
    for n in range(3, 7):
        for rep in find_equal_polynomial_pairs(n, engine):
            a = parse_graph6(rep.graph6_a)
            b = parse_graph6(rep.graph6_b)
            confirmed = False
            for big, small in ((a, b), (b, a)):
                if big.m != small.m + 1 or big.m < 2 or not is_edge_transitive(big):
                    continue
                if any(
                    canonical_key(big.delete_edge(i)) == canonical_key(small)
                    for i in range(big.m)
                ):
                    confirmed = True
            assert confirmed == rep.explained_by_corollary4


def test_edge_degree_twins(engine):
    for n in range(2, 6):
        assert find_edge_degree_twins(n, engine) == []
    twins = find_edge_degree_twins(6, engine)
    assert len(twins) == 14
    for tw in twins:
        ga = parse_graph6(tw.graph6_a)
        gb = parse_graph6(tw.graph6_b)
        da, db = ga.degrees(), gb.degrees()
        assert sorted(da[u] + da[v] for u, v in ga.edges) == sorted(
            db[u] + db[v] for u, v in gb.edges
        )
        assert tw.polynomial_a.probs != tw.polynomial_b.probs
        assert expected_components(ga) == tw.expected_components
        assert expected_components(gb) == tw.expected_components
    assert Fraction(17, 10) in {tw.expected_components for tw in twins}


def test_edge_degree_twins_pinned(engine, edge_degree_twins_6):
    twins = find_edge_degree_twins(6, engine)
    assert [(t.graph6_a, t.graph6_b, t.expected_components) for t in twins] == edge_degree_twins_6


def test_conjecture_small_cases(engine):
    for k in (1, 2, 3):
        report = check_conjecture(k, engine)
        assert report.k == k and report.holds
        assert report.plus_edge_polynomial.probs == report.bipartite_polynomial.probs
    third = check_conjecture(3, engine)
    assert third.plus_edge_polynomial.probs == {
        1: Fraction(1, 5),
        2: Fraction(3, 5),
        3: Fraction(1, 5),
    }
    assert third.holds is True
    with pytest.raises(SizeCapExceeded, match=r"conjecture check cap is 1\.\.7"):
        check_conjecture(0, engine)
    with pytest.raises(SizeCapExceeded, match=r"conjecture check cap is 1\.\.7"):
        check_conjecture(8, engine)


def test_log_concavity_checks(engine):
    assert check_log_concavity(Graph(3, ()), engine)
    assert check_log_concavity(parse_graph6("DsW"), engine)
    assert sweep_log_concavity(5, engine) == []
    with pytest.raises(SizeCapExceeded, match=r"connected enumeration cap is 2\.\.8"):
        sweep_log_concavity(1, engine)
    with pytest.raises(SizeCapExceeded, match=r"connected enumeration cap is 2\.\.8"):
        sweep_log_concavity(9, engine)


def test_tree_pairs_empty_at_small_sizes(engine):
    for n in (1, 2, 6, 7):
        assert find_tree_pairs(n, engine) == []
    with pytest.raises(SizeCapExceeded, match=r"tree enumeration cap is 1\.\.10"):
        find_tree_pairs(11, engine)
