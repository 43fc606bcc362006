"""End-to-end gate: headline exact values, oracles, and calibrations.

Everything here is either an exact rational identity (zero tolerance) or a
seeded statistical check with a pinned seed; the only float comparison is
the path series test at relative tolerance 1e-9.
"""

import math
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from forestbuilder.canon import canonical_key
from forestbuilder.closedforms import (
    bipartite_distribution,
    bipartite_q,
    complete_distribution,
    gnm_expectation_lower_bound,
    gnm_expected_components,
    path_distribution,
    path_series_coefficients,
)
from forestbuilder.distribution import ForestDistribution, convolve
from forestbuilder.engine import (
    brute_force_distribution,
    expected_components,
    single_component_probability,
)
from forestbuilder.families import (
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    path_graph,
    star_graph,
)
from forestbuilder.graphs import Graph, components
from forestbuilder.montecarlo import estimate_distribution, single_component_decay
from forestbuilder.search import (
    check_conjecture,
    enumerate_trees,
    find_equal_polynomial_pairs,
    find_tree_pairs,
    sweep_log_concavity,
)

CALIBRATION_SEED = 20260815


def recurrence_distribution(
    g: Graph, memo: dict[str, dict[int, Fraction]] | None = None
) -> ForestDistribution:
    """Oracle: exact p_G by the edge-deletion recurrence, independent of the engine.

        p_G = p_{G1} * p_{G2} * ...          over connected components,
        p_G = (1/m) * sum_e p_{G - e}        for a component with >= 2 edges,
        p_{K_2} = x,

    since the last edge e of a uniform ordering is uniform, and in a connected
    graph with at least two edges an earlier edge touches one of its endpoints,
    so e starts no tree and kappa is that of the rest of the ordering on G - e.
    `memo` maps canonical keys to component laws, so inputs are limited to the
    canonical vertex cap; pass one dict to several calls to share their
    subresults.  The cost grows with the number of distinct subgraphs, so it
    runs on small graphs only.
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


def bipartite_q_alt(s: int, t: int, a: int, b: int, l: int) -> Fraction:
    """Oracle: the symmetric form C(a,l)C(s+t-a-1,b-l)/C(s+t-1,b) of bipartite_q.

    Defined on the domain of bipartite_q, where l = -1 gives 0.
    """
    if not 0 <= l <= b:
        return Fraction(0)
    return Fraction(comb(a, l) * comb(s + t - a - 1, b - l), comb(s + t - 1, b))


def test_complete_tripartite_flagship_distribution(engine):
    g = complete_multipartite((3, 3, 3))
    assert engine.distribution(g).probs == {
        1: Fraction(1992, 26125),
        2: Fraction(11724, 26125),
        3: Fraction(10951, 26125),
        4: Fraction(1458, 26125),
    }


def test_engine_matches_recurrence_oracle_on_all_seven_vertex_classes(engine, connected_classes):
    memo = {}  # the oracle's canonical-key memo, shared across the sweep
    assert len(connected_classes[7]) == 853
    for g in connected_classes[7]:
        oracle = recurrence_distribution(g, memo)
        assert engine.distribution(g).probs == oracle.probs
        assert engine.one_component(g) == oracle.coefficient(1)


def test_complete_graph_closed_form_matches_engine(engine):
    for n in range(2, 6):
        closed = complete_distribution(n)
        assert closed.probs == engine.distribution(complete_graph(n)).probs


def test_complete_bipartite_closed_form_matches_engine(engine):
    for s in range(1, 7):
        for t in range(1, 8 - s):
            closed = bipartite_distribution(s, t)
            assert closed.probs == engine.distribution(complete_bipartite(s, t)).probs


def test_brute_force_matches_engine_on_every_small_graph(engine, connected_classes):
    # a connected graph with at most 7 edges has at most 8 vertices, and on
    # 8 vertices it must be a tree, so these classes are exhaustive
    classes = [g for n in range(2, 8) for g in connected_classes[n] if g.m <= 7]
    classes += enumerate_trees(8)
    assert len(classes) == 131
    for g in classes:
        assert brute_force_distribution(g).probs == engine.distribution(g).probs


def test_bipartite_recurrence_boundary_values():
    for s in range(1, 9):
        for t in range(1, 9):
            for a in range(s + 1):
                assert bipartite_q(s, t, a, 0, 0) == 1
                assert bipartite_q(s, t, a, 0, 1) == 0
                assert bipartite_q(s, t, a, 0, 2) == 0
            for b in range(t + 1):
                assert bipartite_q(s, t, 0, b, 0) == 1
                assert bipartite_q(s, t, 0, b, 1) == 0
                assert bipartite_q(s, t, 0, b, 2) == 0


def test_bipartite_recurrence_step_and_symmetric_form():
    # multiplied through by the denominator at + bs - ab, which is positive
    # whenever a, b >= 1
    for s in range(1, 9):
        for t in range(1, 9):
            for a in range(1, s + 1):
                for b in range(1, t + 1):
                    assert bipartite_q(s, t, a, b, -1) == bipartite_q_alt(s, t, a, b, -1) == 0
                    for l in range(min(a, b) + 2):
                        lhs = (a * t + b * s - a * b) * bipartite_q(s, t, a, b, l)
                        rhs = (
                            a * (t - b) * bipartite_q(s, t, a - 1, b, l)
                            + (s - a) * b * bipartite_q(s, t, a, b - 1, l)
                            + a * b * bipartite_q(s, t, a - 1, b - 1, l - 1)
                        )
                        assert lhs == rhs
                        assert bipartite_q(s, t, a, b, l) == bipartite_q_alt(s, t, a, b, l)


def test_edge_sum_expectation_matches_engine(engine, connected_classes):
    for n in range(2, 7):
        for g in connected_classes[n]:
            assert expected_components(g) == engine.distribution(g).expected_components()


def test_random_graph_expectation_matches_exhaustive_average(engine):
    pairs = list(combinations(range(4), 2))
    for m in range(1, 7):
        graphs = [
            Graph(4, tuple(pairs[i] for i in chosen))
            for chosen in combinations(range(6), m)
        ]
        average = sum(
            (engine.distribution(g).expected_components() for g in graphs), Fraction(0)
        ) / len(graphs)
        assert average == gnm_expected_components(4, m)


def test_random_graph_expectation_dominates_bound():
    for n in range(2, 9):
        for m in range(1, comb(n, 2) + 1):
            assert gnm_expectation_lower_bound(n, m) <= gnm_expected_components(n, m)


def test_path_series_matches_exact_evaluations():
    for x in (2, 5):
        series = path_series_coefficients(float(x), 11)
        assert series[0] == 1.0
        for n in range(1, 11):
            exact = path_distribution(n).evaluate(Fraction(x))
            assert math.isclose(series[n], float(exact), rel_tol=1e-9)


def test_cycle_and_path_share_polynomials(engine):
    for n in range(3, 8):
        cycle = engine.distribution(cycle_graph(n))
        assert cycle.probs == engine.distribution(path_graph(n)).probs


def test_complete_and_near_complete_share_polynomials(engine):
    for n in range(3, 6):
        g = complete_graph(n)
        assert engine.distribution(g.delete_edge(0)).probs == engine.distribution(g).probs


def test_plus_edge_conjecture_holds_small(engine):
    for k in (1, 2, 3):
        assert check_conjecture(k, engine).holds


def test_plus_edge_conjecture_holds_k4(engine):
    assert check_conjecture(4, engine).holds


def test_star_and_cycle_single_component_closed_forms(engine):
    for s in range(1, 9):
        assert single_component_probability(star_graph(s), engine) == 1
    for n in range(3, 9):
        value = Fraction(n * 2 ** (n - 2), factorial(n))
        assert single_component_probability(cycle_graph(n), engine) == value


def test_pruned_single_component_matches_engine(engine, connected_classes):
    for n in range(2, 7):
        for g in connected_classes[n]:
            assert single_component_probability(g, engine) == engine.distribution(g).coefficient(1)


def test_monte_carlo_calibration_within_four_sigma(engine):
    graphs = [
        complete_bipartite(2, 2),
        complete_bipartite(2, 3),
        cycle_graph(5),
        path_graph(5),
    ]
    trials = 100000
    for g in graphs:
        exact = engine.distribution(g)
        est = estimate_distribution(g, trials, seed=CALIBRATION_SEED)
        assert sum(est.counts.values()) == trials
        for k in set(est.counts) | set(exact.probs):
            p = float(exact.probs.get(k, Fraction(0)))
            phat = est.counts.get(k, 0) / trials
            sigma = math.sqrt(p * (1.0 - p) / trials)
            assert abs(phat - p) <= 4.0 * sigma
        assert estimate_distribution(g, trials, seed=CALIBRATION_SEED) == est


def test_log_concavity_holds_through_seven_vertices(engine):
    assert sweep_log_concavity(7, engine) == []


def test_no_equal_polynomial_tree_pairs_through_ten(engine):
    for n in range(1, 11):
        assert find_tree_pairs(n, engine) == []


def test_cubic_decay_rates_are_finite_and_positive():
    rows = single_component_decay(3, [8, 12, 16], 50000, seed=CALIBRATION_SEED)
    assert [row.n for row in rows] == [8, 12, 16]
    for row in rows:
        assert 0 < row.p1_hat < 1
        assert math.isfinite(row.neg_log_p1_over_n)
        assert row.neg_log_p1_over_n > 0


def test_pair_census_is_complete_and_replayable(engine):
    census = {2: (0, 0), 3: (1, 1), 4: (2, 2), 5: (7, 3), 6: (7, 5)}
    for n, (total, explained) in census.items():
        reports = find_equal_polynomial_pairs(n, engine)
        assert len(reports) == total
        assert sum(r.explained_by_corollary4 for r in reports) == explained
        rerun = find_equal_polynomial_pairs(n, engine)
        assert [(r.graph6_a, r.graph6_b) for r in rerun] == [
            (r.graph6_a, r.graph6_b) for r in reports
        ]
