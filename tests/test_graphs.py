"""Graph container, edge list text format, and structural helpers."""

import re
from fractions import Fraction
from math import ceil
from time import perf_counter

import pytest

from forestbuilder.engine import (
    ProcessResult,
    brute_force_distribution,
    expected_components,
    forest_polynomial,
    run_process,
)
from forestbuilder.errors import InvalidGraph, SizeCapExceeded
from forestbuilder.families import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    path_graph,
    star_graph,
)
from forestbuilder.graphs import (
    Graph,
    cheeger_constant,
    components,
    edge_codegree,
    format_edge_list,
    from_edge_list,
    is_connected,
    parse_edge_list,
)
from forestbuilder.montecarlo import estimate_distribution


def test_from_edge_list_normalizes_and_keeps_order():
    g = from_edge_list(3, [(1, 0), (2, 1), (0, 2)])
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2), (0, 2))
    assert g.m == 3
    assert g.degrees() == [2, 2, 2]


def test_from_edge_list_rejects_bad_input():
    with pytest.raises(InvalidGraph, match=re.escape("edge (0,3) outside 0..2")):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(InvalidGraph, match="self-loop at vertex 0"):
        from_edge_list(3, [(0, 0)])
    with pytest.raises(InvalidGraph, match=re.escape("edge (0,1) repeated")):
        from_edge_list(3, [(0, 1), (1, 0)])
    with pytest.raises(InvalidGraph, match="vertex count must be nonnegative"):
        from_edge_list(-1, [])


def test_delete_edge_shifts_ids():
    p4 = path_graph(4)
    rest = p4.delete_edge(1)
    assert rest.n == 4
    assert rest.edges == ((0, 1), (2, 3))
    with pytest.raises(IndexError):
        p4.delete_edge(3)


def test_adjacency_masks_match_edges():
    g = from_edge_list(4, [(0, 1), (1, 2), (1, 3)])
    masks = g.adjacency_masks()
    assert masks[1] == 0b1101
    assert masks[0] == 0b0010
    assert masks[3] == 0b0010


def test_edge_list_text_round_trip():
    g = path_graph(4)
    text = format_edge_list(g)
    assert text == "4 3\n0 1\n1 2\n2 3\n"
    assert parse_edge_list(text) == g


def test_edge_list_text_ignores_comments_and_blanks():
    text = "# a path\n\n4 3\n0 1\n# middle edge\n1 2\n2 3\n"
    assert parse_edge_list(text) == path_graph(4)


def test_edge_list_text_rejects_malformed():
    bad_inputs = {
        "": "empty edge list input",
        "4\n0 1\n": 'first line must be "n m"',
        "4 2\n0 1\n": "header says 2 edges, found 1",
        "4 1\n0 1\n1 2\n": "header says 1 edges, found 2",
        "4 1\n0 1 2\n": "bad edge line: '0 1 2'",
        "4 x\n0 1\n": "non-integer field in line '4 x'",
        "4 1\n0 1.5\n": "non-integer field in line '0 1.5'",
    }
    for bad, message in bad_inputs.items():
        with pytest.raises(InvalidGraph, match=re.escape(message)):
            parse_edge_list(bad)


def test_is_connected():
    assert is_connected(path_graph(4))
    assert is_connected(Graph(1, ()))
    assert not is_connected(Graph(3, ()))
    assert not is_connected(from_edge_list(5, [(0, 1), (1, 2), (3, 4)]))


def test_components_split_and_relabel():
    g = from_edge_list(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    tri, edge = components(g)
    assert tri.edges == ((0, 1), (1, 2), (0, 2))
    assert edge.edges == ((0, 1),)


def test_components_skip_isolated_vertices():
    assert components(Graph(3, ())) == []
    assert components(from_edge_list(4, [(1, 2)])) == [Graph(2, ((0, 1),))]
    # a million isolated vertices are never visited, nor swept by a mask
    t0 = perf_counter()
    assert forest_polynomial(Graph(10**6, ((0, 1),))).probs == {1: 1}
    assert perf_counter() - t0 < 1.0
    # 50,000 separate edges are split in memory linear in m (time: m plus a sort),
    # not by one n-bit neighbour mask per vertex
    matching = Graph(100_000, tuple((v, v + 1) for v in range(0, 100_000, 2)))
    t0 = perf_counter()
    assert not is_connected(matching)
    assert forest_polynomial(matching).probs == {50_000: 1}
    assert perf_counter() - t0 < 1.5


def test_declared_vertex_count_sizes_no_table():
    # 10^15 vertices, four of which have edges: no per-vertex table is built
    g = Graph(10**15, ((0, 1), (5, 9)))
    assert components(g) == [Graph(2, ((0, 1),)), Graph(2, ((0, 1),))]
    assert not is_connected(g)
    assert forest_polynomial(g).probs == {2: 1}
    assert expected_components(g) == 2
    assert run_process(g, [1, 0]) == ProcessResult(frozenset({0, 1}), 2)
    assert edge_codegree(g, 0) == 0
    assert brute_force_distribution(g).probs == {2: 1}
    assert estimate_distribution(g, 5, 1).counts == {2: 5}
    # brute force sees which edges meet, not vertex names: C_10 spread x 10^6 is C_10
    c10 = cycle_graph(10)
    spread = Graph(10**7, tuple((u * 10**6, v * 10**6) for u, v in c10.edges))
    assert brute_force_distribution(spread).probs == brute_force_distribution(c10).probs


def test_components_partition_the_edges_of_random_graphs():
    for seed in range(300):
        n = 1 + seed % 12
        g = gnm_random_graph(n, seed * 7 % (n * (n - 1) // 2 + 1), seed)
        pieces = components(g)
        assert all(is_connected(piece) for piece in pieces)
        assert sum(piece.m for piece in pieces) == g.m
        assert sum(piece.n for piece in pieces) == sum(1 for d in g.degrees() if d)
        assert is_connected(g) == (n <= 1 or (len(pieces) == 1 and pieces[0].n == n))


def test_edge_codegree():
    k4 = complete_graph(4)
    assert all(edge_codegree(k4, e) == 4 for e in range(k4.m))
    p4 = path_graph(4)
    assert edge_codegree(p4, 0) == 1
    assert edge_codegree(p4, 1) == 2
    k23 = complete_bipartite(2, 3)
    assert all(edge_codegree(k23, e) == 3 for e in range(k23.m))


def test_edge_codegree_rejects_out_of_range_ids():
    p4 = path_graph(4)
    for edge_id in (-1, p4.m):
        with pytest.raises(IndexError, match=f"edge id {edge_id} out of range"):
            edge_codegree(p4, edge_id)


def test_cheeger_known_values():
    assert cheeger_constant(complete_graph(4)) == Fraction(2, 3)
    assert cheeger_constant(cycle_graph(4)) == Fraction(1, 2)
    assert cheeger_constant(path_graph(4)) == Fraction(1, 3)
    assert cheeger_constant(star_graph(3)) == 1


def test_cheeger_complete_graphs():
    # the sparse side is a half-size clique: cut k(n-k), volume k(n-1)
    for n in range(2, 9):
        assert cheeger_constant(complete_graph(n)) == Fraction(ceil(n / 2), n - 1)


def test_cheeger_disconnected_and_errors():
    assert cheeger_constant(from_edge_list(4, [(0, 1), (2, 3)])) == 0
    with pytest.raises(InvalidGraph, match="cheeger constant needs at least one edge"):
        cheeger_constant(Graph(3, ()))
    with pytest.raises(SizeCapExceeded, match="cheeger cap is 20 vertices, got 21"):
        cheeger_constant(Graph(21, ((0, 1),)))
