"""Closed-form family values used as oracles for the engine."""

import math
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

from forestbuilder.closedforms import (
    bipartite_distribution,
    bipartite_expected_components,
    bipartite_q,
    complete_distribution,
    complete_expected_components,
    cycle_single_component,
    gnm_expectation_lower_bound,
    gnm_expected_components,
    matching_identity_lhs,
    path_distribution,
    path_generating_value,
    path_series_coefficients,
)
from forestbuilder.engine import (
    brute_force_distribution,
    expected_components,
    single_component_probability,
)
from forestbuilder.errors import ParameterOutOfRange
from forestbuilder.families import cycle_graph, path_graph
from forestbuilder.graphs import Graph


def test_complete_distribution_known_values():
    assert complete_distribution(2).probs == {1: Fraction(1)}
    assert complete_distribution(3).probs == {1: Fraction(1)}
    assert complete_distribution(4).probs == {1: Fraction(4, 5), 2: Fraction(1, 5)}
    assert complete_distribution(5).probs == {1: Fraction(4, 7), 2: Fraction(3, 7)}
    for n in range(2, 10):
        dist = complete_distribution(n)
        assert dist.total() == 1
        assert dist.n == n and dist.m == comb(n, 2)
    with pytest.raises(ParameterOutOfRange, match="complete distribution needs n >= 2"):
        complete_distribution(1)


def test_bipartite_distribution_known_values():
    assert bipartite_distribution(1, 1).probs == {1: Fraction(1)}
    assert bipartite_distribution(2, 2).probs == {1: Fraction(2, 3), 2: Fraction(1, 3)}
    assert bipartite_distribution(2, 3).probs == {1: Fraction(1, 2), 2: Fraction(1, 2)}
    for s in range(1, 9):
        for t in range(1, 10 - s):
            dist = bipartite_distribution(s, t)
            assert dist.total() == 1
            assert dist.n == s + t and dist.m == s * t
    with pytest.raises(ParameterOutOfRange, match="bipartite distribution needs s, t >= 1"):
        bipartite_distribution(0, 3)


def test_q_example_and_full_size_values():
    assert bipartite_q(2, 2, 2, 2, 1) == Fraction(2, 3)
    for s in range(1, 5):
        for t in range(1, 5):
            dist = bipartite_distribution(s, t)
            for k in range(1, min(s, t) + 1):
                assert bipartite_q(s, t, s, t, k) == dist.coefficient(k)


def test_q_boundary_and_conventions():
    for s in range(1, 5):
        for t in range(1, 5):
            for a in range(s + 1):
                for l in range(3):
                    assert bipartite_q(s, t, a, 0, l) == (1 if l == 0 else 0)
            for b in range(t + 1):
                for l in range(3):
                    assert bipartite_q(s, t, 0, b, l) == (1 if l == 0 else 0)
            assert bipartite_q(s, t, s, t, -1) == 0


def test_q_rejects_out_of_range_arguments():
    for args in [(2, 2, 3, 2, 1), (2, 2, 2, -1, 1), (0, 2, 0, 2, 1)]:
        with pytest.raises(ParameterOutOfRange, match="need s,t >= 1, 0 <= a <= s, 0 <= b <= t"):
            bipartite_q(*args)
    with pytest.raises(ParameterOutOfRange, match="l >= -1 required"):
        bipartite_q(2, 2, 2, 2, -2)
    with pytest.raises(ParameterOutOfRange, match="0 <= b <= t"):
        bipartite_q(2, 2, 2, 3, 1)


def test_expectation_formulas():
    assert complete_expected_components(4) == Fraction(6, 5)
    assert bipartite_expected_components(2, 3) == Fraction(6, 4)
    for n in range(2, 13):
        assert complete_expected_components(n) == complete_distribution(n).expected_components()
    for s in range(1, 9):
        for t in range(1, 9):
            expect = bipartite_distribution(s, t).expected_components()
            assert expect == Fraction(s * t, s + t - 1)
            assert bipartite_expected_components(s, t) == expect
    # one condition, one class, as for gnm_expected_components
    with pytest.raises(ParameterOutOfRange, match="needs n >= 2"):
        complete_expected_components(1)
    with pytest.raises(ParameterOutOfRange, match="needs s, t >= 1"):
        bipartite_expected_components(0, 1)


def test_gnm_expectation_values():
    assert gnm_expected_components(4, 6) == Fraction(6, 5)
    for n in range(2, 7):
        assert gnm_expected_components(n, 1) == 1
        assert gnm_expected_components(n, comb(n, 2)) == complete_expected_components(n)
    for m in [0, 7]:
        with pytest.raises(ParameterOutOfRange, match="needs 1 <= m <= 6"):
            gnm_expected_components(4, m)
    with pytest.raises(ParameterOutOfRange, match="needs n >= 2"):
        gnm_expected_components(1, 1)


def test_gnm_lower_bound_form():
    assert gnm_expectation_lower_bound(4, 6) == Fraction(6, 5)
    assert gnm_expectation_lower_bound(5, 3) == Fraction(18, 14)
    with pytest.raises(ParameterOutOfRange, match="needs n >= 2 and m >= 1"):
        gnm_expectation_lower_bound(4, 0)


def test_path_distribution_small_and_oracle():
    assert path_distribution(1).probs == {1: Fraction(1)}
    assert path_distribution(2).probs == {1: Fraction(1)}
    assert path_distribution(3).probs == {1: Fraction(2, 3), 2: Fraction(1, 3)}
    assert path_distribution(5).probs == {
        1: Fraction(2, 15),
        2: Fraction(11, 15),
        3: Fraction(2, 15),
    }
    for n in range(1, 10):
        dist = path_distribution(n)
        assert dist.n == n + 1 and dist.m == n
        assert dist.probs == brute_force_distribution(path_graph(n + 1)).probs
    dist = path_distribution(40)
    assert dist.total() == 1
    assert dist.expected_components() == expected_components(path_graph(41))
    with pytest.raises(ParameterOutOfRange, match="path distribution needs n >= 1 edges"):
        path_distribution(0)


def test_series_coefficients_start_at_known_values():
    series = path_series_coefficients(2.0, 5)
    assert series[0] == 1.0
    assert series[1] == pytest.approx(2.0)
    with pytest.raises(ParameterOutOfRange, match="series parameter must satisfy x > 1"):
        path_series_coefficients(1.0, 5)
    with pytest.raises(ParameterOutOfRange, match="need count >= 1"):
        path_series_coefficients(2.0, 0)


def test_series_sums_to_tangent_closed_form():
    for x in (2.0, 5.0):
        series = path_series_coefficients(x, 18)
        for t in (0.01, 0.05):
            partial = sum(c * t**i for i, c in enumerate(series))
            assert math.isclose(partial, path_generating_value(x, t), rel_tol=1e-9)
    assert path_generating_value(2.0, 0.0) == pytest.approx(1.0)
    with pytest.raises(ParameterOutOfRange, match="needs x > 1"):
        path_generating_value(1.0, 0.1)


def test_gnm_expectation_matches_exhaustive_labeled_average(engine):
    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for m in range(1, min(4, len(pairs)) + 1):
            graphs = [
                Graph(n, tuple(pairs[i] for i in chosen))
                for chosen in combinations(range(len(pairs)), m)
            ]
            average = sum(
                (engine.distribution(g).expected_components() for g in graphs),
                Fraction(0),
            ) / len(graphs)
            assert average == gnm_expected_components(n, m)


def test_matching_identity():
    for big_n in range(31):
        assert matching_identity_lhs(big_n) == comb(2 * big_n, big_n)
    with pytest.raises(ParameterOutOfRange, match="needs N >= 0"):
        matching_identity_lhs(-1)


def test_cycle_single_component_values(engine):
    assert cycle_single_component(3) == 1
    assert cycle_single_component(4) == Fraction(2, 3)
    for n in range(3, 9):
        value = Fraction(n * 2 ** (n - 2), factorial(n))
        assert cycle_single_component(n) == value
        assert single_component_probability(cycle_graph(n), engine) == value
    with pytest.raises(ParameterOutOfRange, match="cycle needs n >= 3"):
        cycle_single_component(2)
