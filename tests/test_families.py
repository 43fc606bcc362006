"""Graph family generators, deterministic and seeded."""

import re
import tracemalloc
from math import comb, isqrt

import pytest

from forestbuilder.canon import canonical_key
from forestbuilder.errors import GenerationTimeout, ParameterOutOfRange
from forestbuilder.families import (
    balanced_bipartite_plus_edge,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    gnm_random_graph,
    path_graph,
    random_regular_graph,
    star_graph,
)
from forestbuilder.graph6 import serialize_graph6
from forestbuilder.graphs import Graph
from forestbuilder.rng import SplitMix64, derive_seed


def test_complete_graph():
    k4 = complete_graph(4)
    assert k4.n == 4 and k4.m == 6
    assert k4.degrees() == [3, 3, 3, 3]
    assert complete_graph(1).m == 0
    with pytest.raises(ParameterOutOfRange, match="complete graph needs n >= 1"):
        complete_graph(0)


def test_complete_bipartite_parts():
    g = complete_bipartite(2, 3)
    assert g.n == 5 and g.m == 6
    assert g.degrees() == [3, 3, 2, 2, 2]
    assert (0, 1) not in g.edges and (2, 3) not in g.edges
    assert (0, 2) in g.edges
    with pytest.raises(ParameterOutOfRange, match="complete bipartite needs s, t >= 1"):
        complete_bipartite(0, 3)


def test_complete_multipartite():
    g = complete_multipartite((3, 3, 3))
    assert g.n == 9 and g.m == 27
    assert g.degrees() == [6] * 9
    assert complete_multipartite((4,)).m == 0
    two_parts = complete_multipartite((2, 3))
    assert canonical_key(two_parts) == canonical_key(complete_bipartite(2, 3))
    for parts in [(), (2, 0)]:
        with pytest.raises(ParameterOutOfRange, match="part sizes must all be >= 1"):
            complete_multipartite(parts)


def test_path_cycle_star():
    assert path_graph(1).m == 0
    assert path_graph(5).edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    c5 = cycle_graph(5)
    assert c5.m == 5 and c5.degrees() == [2] * 5
    assert canonical_key(cycle_graph(3)) == canonical_key(complete_graph(3))
    with pytest.raises(ParameterOutOfRange, match="cycle needs n >= 3"):
        cycle_graph(2)
    s = star_graph(4)
    assert s.degrees() == [4, 1, 1, 1, 1]
    with pytest.raises(ParameterOutOfRange, match="star needs at least one leaf"):
        star_graph(0)


def test_balanced_bipartite_plus_edge():
    g = balanced_bipartite_plus_edge(2)
    assert g.n == 5 and g.m == 7
    assert (2, 3) in g.edges  # the extra edge sits inside the larger part
    assert sorted(g.degrees()) == [2, 3, 3, 3, 3]
    with pytest.raises(ParameterOutOfRange, match="needs k >= 1"):
        balanced_bipartite_plus_edge(0)


def test_gnm_deterministic_and_valid():
    assert gnm_random_graph(5, 4, seed=7) == gnm_random_graph(5, 4, seed=7)
    seen = {gnm_random_graph(6, 7, seed=s).edges for s in range(10)}
    assert len(seen) > 1
    for s in range(20):
        g = gnm_random_graph(6, 9, seed=s)
        assert g.n == 6 and g.m == 9
        assert len(set(g.edges)) == 9
    assert gnm_random_graph(4, 6, seed=3) == complete_graph(4)
    assert gnm_random_graph(5, 0, seed=3).m == 0
    with pytest.raises(ParameterOutOfRange, match="gnm needs 0 <= m <= 6"):
        gnm_random_graph(4, 7, seed=0)
    # the fewest vertices with more than 2^64 pairs: past one draw's range
    n = isqrt(2**65) + 2
    assert comb(n - 1, 2) <= 2**64 < comb(n, 2)
    message = f"gnm draws one of at most 2**64 vertex pairs, got C({n}, 2)"
    with pytest.raises(ParameterOutOfRange, match=re.escape(message)):
        gnm_random_graph(n, 1, seed=0)


def test_gnm_maps_drawn_indices_to_row_major_pairs():
    # the drawn indices name pairs in the order this list has them
    for n in range(1, 10):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for m in range(comb(n, 2) + 1):
            for seed in range(3):
                chosen = sorted(SplitMix64(derive_seed(seed, 0x6E6D)).sample(len(pairs), m))
                assert gnm_random_graph(n, m, seed).edges == tuple(pairs[q] for q in chosen)


def test_gnm_maps_indices_to_pairs_at_billions_of_vertices():
    # row r starts at index r(2n - r - 1)/2; every pair must invert to its index
    n, m = 6 * 10**9, 200
    chosen = sorted(SplitMix64(derive_seed(3, 0x6E6D)).sample(comb(n, 2), m))
    g = gnm_random_graph(n, m, seed=3)
    assert all(0 <= i < j < n for i, j in g.edges)
    assert [i * (2 * n - i - 1) // 2 + j - i - 1 for i, j in g.edges] == chosen


def test_gnm_memory_follows_the_edge_count_not_the_pair_count():
    # C(3000, 2) is about 4.5 million pairs; listing them costs hundreds of MB
    tracemalloc.start()
    try:
        g = gnm_random_graph(3000, 10, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == 10
    assert peak < 100_000


def test_random_regular():
    g = random_regular_graph(8, 3, seed=1)
    assert g.n == 8 and g.degrees() == [3] * 8
    assert g == random_regular_graph(8, 3, seed=1)
    # degree 0: the pairing loop has no stubs and returns the edgeless graph
    for n in (1, 2, 5, 8):
        assert random_regular_graph(n, 0, seed=3) == Graph(n, ())
    with pytest.raises(ParameterOutOfRange, match="no simple 3-regular graph on 5 vertices"):
        random_regular_graph(5, 3, seed=0)  # odd degree sum
    with pytest.raises(ParameterOutOfRange, match="no simple 4-regular graph on 4 vertices"):
        random_regular_graph(4, 4, seed=0)  # d >= n
    with pytest.raises(ParameterOutOfRange, match="regular graph needs n >= 1 and d >= 0"):
        random_regular_graph(4, -1, seed=0)
    # every pairing fails, and d = 11 < n - 1 - d leaves no denser complement to draw
    message = "no simple pairing found for n=24, d=11 in 10000 tries"
    with pytest.raises(GenerationTimeout, match=message):
        random_regular_graph(24, 11, seed=1)


def test_random_regular_of_degree_n_minus_one_is_complete():
    # the pairing model drew K_n up to n = 6 and timed out from n = 7 on
    for n in range(4, 13):
        for seed in (1, 2):
            assert random_regular_graph(n, n - 1, seed).edges == complete_graph(n).edges


def test_dense_regular_specs_fall_back_to_the_sparse_complement():
    # the pairing model draws no simple graph for these in its retry budget
    for n, d in ((10, 7), (9, 6), (12, 9)):
        g = random_regular_graph(n, d, seed=1)
        assert g.degrees() == [d] * n
        assert len(set(g.edges)) == g.m and all(u < v for u, v in g.edges)
        sparse = set(random_regular_graph(n, n - 1 - d, seed=1).edges)
        assert set(g.edges) == set(complete_graph(n).edges) - sparse
    # a dense spec the pairing model does draw keeps its graph
    assert serialize_graph6(random_regular_graph(8, 5, seed=1)) == "GV~fI{"
