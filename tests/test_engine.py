"""Process runner, brute-force oracle, and the exact evaluator PolynomialEngine."""

from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial
from time import perf_counter

import pytest

from forestbuilder.closedforms import bipartite_distribution, complete_distribution
from forestbuilder.distribution import convolve
from forestbuilder.engine import (
    PolynomialEngine,
    brute_force_distribution,
    expected_components,
    forest_polynomial,
    run_process,
    single_component_probability,
)
from forestbuilder.errors import (
    InvalidGraph,
    MemoryBudgetExceeded,
    ParameterOutOfRange,
    SizeCapExceeded,
)
from forestbuilder.families import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    path_graph,
    random_regular_graph,
    star_graph,
)
from forestbuilder.graphs import Graph, components, from_edge_list
from forestbuilder.rng import SplitMix64, derive_seed


def matching_sums_oracle(comp):
    """Oracle: [E_0, E_1, ...] of a connected graph summed over its matchings.

    One state per matching S, as an edge-id bitmask, with C(empty) = m! and
    C(S) = sum_{e in S} C(S - e) / |U(S)|, where U(S) is the set of edges that
    touch S; E_j sums C over the j-edge matchings.  The engine keys the same
    sums by covered vertex set instead.  Each matching is built once, from the
    matching without its highest edge, and each level keeps the free sets
    E - U(S) in a list aligned with its dict's insertion order.
    """
    at = [0] * comp.n
    for eid, (u, v) in enumerate(comp.edges):
        at[u] |= 1 << eid
        at[v] |= 1 << eid
    closed = {1 << eid: at[u] | at[v] for eid, (u, v) in enumerate(comp.edges)}
    m = comp.m
    level = {0: factorial(m)}
    frees = [(1 << m) - 1]
    sums = [level[0]]
    while True:
        nxt, nxt_frees = {}, []
        for (s, c), free in zip(level.items(), frees):
            grow = free & -(1 << s.bit_length())
            while grow:
                low = grow & -grow
                grow ^= low
                key = s | low
                total, rest = c, s
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    total += level[key ^ bit]
                left = free & ~closed[low]
                nxt[key] = total // (m - left.bit_count())
                nxt_frees.append(left)
        if not nxt:
            return sums
        sums.append(sum(nxt.values()))
        level, frees = nxt, nxt_frees


def prism_graph(k):
    """C_k x K_2: rims 0..k-1 and k..2k-1, rung i joins i and k + i."""
    rims = [(i, (i + 1) % k) for i in range(k)]
    rungs = [(i, k + i) for i in range(k)]
    return from_edge_list(2 * k, rims + [(k + u, k + v) for u, v in rims] + rungs)


def _assert_spanning_forest(g, result):
    kept = [g.edges[e] for e in result.kept]
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in kept:
        ru, rv = find(u), find(v)
        assert ru != rv  # kept edges never close a cycle
        parent[ru] = rv
    touched = {w for e in kept for w in e}
    degrees = g.degrees()
    assert touched == {v for v in range(g.n) if degrees[v] > 0}
    assert len({find(w) for w in touched}) == result.kappa

TWO_THIRDS_ONE_THIRD = {1: Fraction(2, 3), 2: Fraction(1, 3)}


def test_run_process_keeps_everything_on_a_short_path():
    result = run_process(path_graph(3), (0, 1))
    assert result.kept == {0, 1}
    assert result.kappa == 1


def test_run_process_can_build_two_trees():
    k22 = complete_bipartite(2, 2)
    result = run_process(k22, (0, 3, 1, 2))
    assert result.kept == {0, 3}
    assert result.kappa == 2


def test_run_process_rejects_non_permutations():
    message = r"ordering must be a permutation of 0\.\.m-1"
    for ordering in [(0, 0), (0,)]:
        with pytest.raises(ParameterOutOfRange, match=message):
            run_process(path_graph(3), ordering)


def test_process_output_is_a_spanning_forest():
    g = complete_graph(5)
    rng = SplitMix64(3)
    order = list(range(g.m))
    for _ in range(200):
        rng.shuffle(order)
        _assert_spanning_forest(g, run_process(g, order))


def test_process_output_is_a_spanning_forest_on_random_graphs():
    rng = SplitMix64(17)
    checked = 0
    for draw in range(500):
        n = 3 + rng.randrange(6)
        m = 1 + rng.randrange(comb(n, 2))
        g = gnm_random_graph(n, m, derive_seed(17, draw))
        order = list(range(g.m))
        for _ in range(20):
            rng.shuffle(order)
            _assert_spanning_forest(g, run_process(g, order))
            checked += 1
    assert checked == 10000


def test_brute_force_known_values():
    assert brute_force_distribution(complete_bipartite(2, 2)).probs == TWO_THIRDS_ONE_THIRD
    assert brute_force_distribution(path_graph(4)).probs == TWO_THIRDS_ONE_THIRD
    assert brute_force_distribution(cycle_graph(4)).probs == TWO_THIRDS_ONE_THIRD
    k4 = brute_force_distribution(complete_graph(4))
    assert k4.probs == {1: Fraction(4, 5), 2: Fraction(1, 5)}
    assert brute_force_distribution(Graph(3, ())).probs == {}


def test_brute_force_agrees_with_direct_permutation_sum():
    graphs = [
        path_graph(4),
        complete_graph(3),
        star_graph(3),
        cycle_graph(4),
        complete_bipartite(2, 2),
    ]
    for g in graphs:
        counts: dict[int, int] = {}
        for order in permutations(range(g.m)):
            k = run_process(g, order).kappa
            counts[k] = counts.get(k, 0) + 1
        total = sum(counts.values())
        direct = {k: Fraction(c, total) for k, c in counts.items()}
        assert brute_force_distribution(g).probs == direct


def test_brute_force_edge_cap():
    with pytest.raises(SizeCapExceeded, match="brute force cap is 10 edges, got 11"):
        brute_force_distribution(star_graph(11))


def test_engine_matches_brute_on_varied_graphs(engine):
    graphs = [
        path_graph(6),
        cycle_graph(6),
        complete_graph(5),
        complete_bipartite(3, 3),
        star_graph(6),
        from_edge_list(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]),
    ]
    for g in graphs:
        assert forest_polynomial(g, engine).probs == brute_force_distribution(g).probs


def test_engine_handles_disconnected_graphs(engine):
    g = from_edge_list(7, [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)])
    dist = forest_polynomial(g, engine)
    assert dist.probs == brute_force_distribution(g).probs
    assert dist.probs == {3: Fraction(1)}  # triangle tree plus two isolated edges
    assert forest_polynomial(Graph(4, ()), engine).probs == {}


def test_disjoint_union_distribution_is_a_convolution(engine):
    rng = SplitMix64(23)
    for draw in range(100):
        n1 = 2 + rng.randrange(4)
        n2 = 2 + rng.randrange(4)
        m1 = 1 + rng.randrange(min(5, comb(n1, 2)))
        m2 = 1 + rng.randrange(min(5, comb(n2, 2)))
        a = gnm_random_graph(n1, m1, derive_seed(23, draw, 0))
        b = gnm_random_graph(n2, m2, derive_seed(23, draw, 1))
        union = Graph(n1 + n2, a.edges + tuple((u + n1, v + n1) for u, v in b.edges))
        merged = convolve(engine.distribution(a).probs, engine.distribution(b).probs)
        assert engine.distribution(union).probs == merged


def test_edge_transitive_deletion_keeps_the_polynomial(engine):
    # edge-transitive graphs without isolated edges lose nothing by dropping
    # any single edge
    graphs = [complete_graph(n) for n in (3, 4, 5)]
    graphs += [
        complete_bipartite(s, t)
        for s in range(1, 6)
        for t in range(s, 7 - s)
        if s * t >= 2
    ]
    graphs += [cycle_graph(n) for n in range(3, 8)]
    for g in graphs:
        base = forest_polynomial(g, engine).probs
        for eid in range(g.m):
            assert forest_polynomial(g.delete_edge(eid), engine).probs == base


def test_engine_support_bounds(engine):
    for n in range(2, 7):
        dist = forest_polynomial(complete_graph(n), engine)
        assert dist.total() == 1
        assert min(dist.probs) == 1
        assert max(dist.probs) <= n // 2


def test_probabilities_are_ordering_counts_over_factorial(engine, connected_classes):
    # every coefficient is (number of orderings giving k trees) / m!
    for n in range(2, 6):
        for g in connected_classes[n]:
            dist = forest_polynomial(g, engine)
            assert dist.total() == 1
            for p in dist.probs.values():
                assert (p * factorial(g.m)).denominator == 1


def test_expected_components_edge_sum():
    assert expected_components(complete_graph(4)) == Fraction(6, 5)
    assert expected_components(complete_bipartite(2, 2)) == Fraction(4, 3)
    assert expected_components(path_graph(4)) == Fraction(4, 3)
    with pytest.raises(InvalidGraph, match="expectation needs at least one edge"):
        expected_components(Graph(3, ()))


def test_single_component_values(engine):
    assert single_component_probability(path_graph(4), engine) == Fraction(2, 3)
    assert single_component_probability(star_graph(5), engine) == 1
    assert single_component_probability(cycle_graph(4), engine) == Fraction(2, 3)
    with pytest.raises(InvalidGraph, match="one-component probability needs at least one edge"):
        single_component_probability(Graph(2, ()), engine)
    with pytest.raises(InvalidGraph, match="one-component probability needs a connected graph"):
        single_component_probability(from_edge_list(4, [(0, 1), (2, 3)]), engine)


def _count_solves(monkeypatch):
    solves = []
    solve = PolynomialEngine._covered_sums

    def counted(self, comp):
        solves.append(comp)
        return solve(self, comp)

    monkeypatch.setattr(PolynomialEngine, "_covered_sums", counted)
    return solves


def test_one_component_reads_the_cached_law(monkeypatch):
    solves = _count_solves(monkeypatch)
    own = PolynomialEngine()
    g = random_regular_graph(10, 3, 1)
    dist = own.distribution(g)
    assert own.one_component(g) == dist.coefficient(1)
    assert len(solves) == 1


def test_cubic_graph_past_the_canonical_cap(engine):
    g = random_regular_graph(20, 3, 0)
    dist = forest_polynomial(g, engine)
    assert dist.total() == 1
    assert dist.expected_components() == expected_components(g) == 6


def test_memoization_controls():
    own = PolynomialEngine()
    assert own.memo_sizes() == (0,)
    own.distribution(complete_graph(5))
    assert own.memo_sizes() == (1,)
    tight = PolynomialEngine(max_memo_entries=2)
    with pytest.raises(MemoryBudgetExceeded):
        tight.distribution(complete_graph(5))
    # the budget bounds covered sets held at once, not laws: each of these
    # holds at most 3 sets, so any number of them solve at a budget of 3
    full = PolynomialEngine(max_memo_entries=3)
    paths = [Graph(3, ((0, 1), (1, 2))), Graph(3, ((0, 1), (0, 2))), Graph(3, ((0, 2), (1, 2)))]
    for g in paths + [Graph(2, ((0, 1),)), paths[0]]:
        assert full.distribution(g).probs == brute_force_distribution(g).probs
        assert full.memo_sizes() == (1,)


@pytest.mark.parametrize(
    "g, budget, message",
    [
        # the closed-form lower bound: 1 empty set and one set per edge
        (complete_graph(5), 2, "at least 11 covered sets of 0 and 2 vertices at once"),
        (
            random_regular_graph(10, 3, 0),
            15,
            "at least 16 covered sets of 0 and 2 vertices at once",
        ),
        # the exact count, which raises on the first set past the budget
        (random_regular_graph(10, 3, 0), 60, "61 covered sets of 2 and 4 vertices at once"),
        (random_regular_graph(10, 3, 0), 120, "121 covered sets of 4 and 6 vertices at once"),
        # one short of the 233 matchings of 3 and 4 edges that the matching
        # sums held at once: the covered sets fit, so nothing is raised
        (random_regular_graph(10, 3, 0), 232, None),
    ],
    ids=[
        "k5-2",
        "cubic10-15",
        "cubic10-60",
        "cubic10-120",
        "g4-232-233 matchings of 3 and 4 edges at once",
    ],
)
def test_matching_budget_messages_are_pinned(g, budget, message):
    engine = PolynomialEngine(max_memo_entries=budget)
    if message is None:
        def matchings(k):
            return sum(len({x for e in s for x in e}) == 2 * k for s in combinations(g.edges, k))

        assert matchings(3) + matchings(4) == budget + 1
        assert engine.distribution(g).total() == 1
        return
    with pytest.raises(MemoryBudgetExceeded) as caught:
        engine.distribution(g)
    assert str(caught.value) == f"matching budget of {budget} entries exhausted: {message}"


def test_cubic_graph_solves_at_exactly_its_matching_need():
    # covered sets by level: 1, 15, 73, 123, 45, 1, so at most 73 + 123 at once
    g = random_regular_graph(10, 3, 0)
    with pytest.raises(MemoryBudgetExceeded) as caught:
        PolynomialEngine(max_memo_entries=195).distribution(g)
    assert str(caught.value) == (
        "matching budget of 195 entries exhausted: 196 covered sets of 4 and 6 vertices at once"
    )
    assert PolynomialEngine(max_memo_entries=196).distribution(g).total() == 1


def test_the_lower_bound_stops_large_complete_graphs_at_once():
    # K_50 has C(50, 6) covered sets of six vertices; the closed-form bound
    # sees more than 2^20 before any level is built
    t0 = perf_counter()
    with pytest.raises(MemoryBudgetExceeded) as caught:
        PolynomialEngine().distribution(complete_graph(50))
    assert perf_counter() - t0 < 1.0
    assert str(caught.value).startswith("matching budget of 1048576 entries exhausted: at least ")


def test_a_large_star_is_keyed_in_time_linear_in_its_edges():
    # the law slot keys a component by its edge tuple, not by an edge mask
    # of n(n - 1)/2 bits summed from m big integers
    t0 = perf_counter()
    assert forest_polynomial(star_graph(10_000)).probs == {1: 1}
    assert perf_counter() - t0 < 5.0


def test_kernel_matches_the_matching_sum_oracle(connected_classes):
    engine = PolynomialEngine()
    graphs = [g for n in range(2, 8) for g in connected_classes[n]]
    assert len(graphs) == 995
    graphs += [random_regular_graph(20, 3, 0), prism_graph(10)]
    for g in graphs:
        assert engine._covered_sums(g) == matching_sums_oracle(g)


def test_k16_and_k89_solve_at_the_default_budget():
    # dense graphs: their covered sets are far fewer than their matchings
    assert forest_polynomial(complete_graph(16)) == complete_distribution(16)
    assert forest_polynomial(complete_bipartite(8, 9)) == bipartite_distribution(8, 9)


def test_connected_distribution_does_not_hand_out_the_cached_law():
    own = PolynomialEngine()
    g = cycle_graph(5)
    first = own.distribution(g)
    expected = dict(first.probs)
    first.probs.clear()
    first.probs[7] = Fraction(1)
    assert own.distribution(g).probs == expected == brute_force_distribution(g).probs
    assert own.one_component(g) == expected[1]
    own.distribution(g).probs[1] = Fraction(0)
    assert own.one_component(g) == expected[1]


def test_isolated_vertices_leave_the_law_of_the_rest(engine):
    # vertex 0 isolated, the last vertex isolated, or both: not connected,
    # so these take the component split; disjoint unions are checked by
    # test_disjoint_union_distribution_is_a_convolution
    k4 = complete_graph(4)
    law = engine.distribution(k4).probs
    shifted = tuple((u + 1, v + 1) for u, v in k4.edges)
    for g in (Graph(5, shifted), Graph(5, k4.edges), Graph(6, shifted)):
        dist = engine.distribution(g)
        assert (dist.n, dist.m, dist.probs) == (g.n, g.m, law)
        assert dist.probs == brute_force_distribution(g).probs


def test_memo_holds_one_law_per_connected_graph(connected_classes):
    own = PolynomialEngine()
    assert own.memo_sizes() == (0,)
    g = complete_bipartite(2, 3)
    own.distribution(g)
    own.one_component(g)
    assert own.memo_sizes() == (1,)
    own.distribution(Graph(7, g.edges + ((5, 6),)))
    assert own.memo_sizes() == (1,)
    # the engine keeps only the last law, however many graphs it solved
    assert len(connected_classes[5]) == 21
    for h in connected_classes[5]:
        own.distribution(h)
    assert own.memo_sizes() == (1,)


def test_equal_components_are_solved_once_whatever_their_order(monkeypatch):
    # K_{2,3}, P_4, K_{2,3}, P_4 in least-vertex order: no two equal
    # components are adjacent, so only the sorted visit meets them in a row
    solves = _count_solves(monkeypatch)
    k23, p4 = complete_bipartite(2, 3), path_graph(4)
    edges, n = (), 0
    for piece in (k23, p4, k23, p4):
        edges += tuple((u + n, v + n) for u, v in piece.edges)
        n += piece.n
    g = Graph(n, edges)
    assert [c.edges for c in components(g)] == [k23.edges, p4.edges] * 2
    pair = convolve(*(brute_force_distribution(piece).probs for piece in (k23, p4)))
    assert PolynomialEngine().distribution(g).probs == convolve(pair, pair)
    assert len(solves) == 2


def test_many_small_components_convolve_in_time():
    # sorted by size and convolved as integer counts
    g = gnm_random_graph(30000, 6000, 1)
    assert len(components(g)) == 3904
    t0 = perf_counter()
    dist = PolynomialEngine().distribution(g)
    assert perf_counter() - t0 < 5.0
    assert dist.total() == 1
    assert dist.expected_components() == expected_components(g)
