"""Seeded Monte Carlo estimators: reproducibility and calibration."""

import math
import tracemalloc
from fractions import Fraction

import pytest

from math import comb

from forestbuilder.closedforms import gnm_expected_components
from forestbuilder.engine import expected_components, run_process
from forestbuilder.errors import InvalidGraph, ParameterOutOfRange
from forestbuilder.families import (
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    gnm_random_graph,
)
from forestbuilder.graphs import Graph
from forestbuilder.montecarlo import (
    estimate_distribution,
    estimate_gnm_expectation,
    single_component_decay,
)
from forestbuilder.rng import SplitMix64, derive_seed


def test_estimate_distribution_is_deterministic():
    g = complete_graph(4)
    first = estimate_distribution(g, 500, seed=11)
    assert estimate_distribution(g, 500, seed=11) == first
    other = estimate_distribution(g, 500, seed=12)
    assert other.counts != first.counts


def test_estimate_distribution_tallies_run_process_over_the_seeded_shuffles():
    # trial t shuffles 0..m-1 with the stream derive_seed(seed, t)
    g = complete_multipartite((2, 2, 3))
    seed, trials = 20261018, 400
    tally: dict[int, int] = {}
    for t in range(trials):
        order = list(range(g.m))
        SplitMix64(derive_seed(seed, t)).shuffle(order)
        kappa = run_process(g, order).kappa
        tally[kappa] = tally.get(kappa, 0) + 1
    assert len(tally) > 1
    assert estimate_distribution(g, trials, seed).counts == tally


def test_isolated_vertices_change_neither_the_counts_nor_the_trial_memory():
    # a trial scans only the vertices that edges touch, so a million isolated
    # vertices leave the counts as they are and allocate nothing per vertex
    g = complete_multipartite((2, 2, 3))
    padded = Graph(g.n + 10**6, g.edges)
    tracemalloc.start()
    try:
        counts = estimate_distribution(padded, 300, seed=4).counts
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == estimate_distribution(g, 300, seed=4).counts
    assert peak < 1_000_000


def test_estimate_distribution_counts_and_moments():
    est = estimate_distribution(complete_graph(5), 2000, seed=3)
    assert sum(est.counts.values()) == 2000
    assert set(est.counts) <= {1, 2}
    mean = sum(k * c for k, c in est.counts.items()) / 2000
    assert est.mean_kappa == mean
    assert est.stderr_kappa > 0


def test_estimate_matches_exact_mean_within_four_sigma(engine):
    g = complete_bipartite(2, 2)
    exact = float(engine.distribution(g).expected_components())
    est = estimate_distribution(g, 20000, seed=20260815)
    assert abs(est.mean_kappa - exact) <= 4 * est.stderr_kappa


def test_constant_outcome_graph_gives_degenerate_counts():
    est = estimate_distribution(complete_graph(3), 50, seed=4)
    assert est.counts == {1: 50}
    assert est.mean_kappa == 1.0 and est.stderr_kappa == 0.0


def test_unbiasedness_at_one_million_trials():
    est = estimate_distribution(complete_bipartite(2, 2), 1000000, seed=20260815)
    assert abs(est.counts.get(2, 0) / 1000000 - 1 / 3) < 0.005


def test_mean_matches_expectation_on_random_graphs():
    rng = SplitMix64(99)
    for draw in range(10):
        n = 3 + rng.randrange(5)
        m = 1 + rng.randrange(comb(n, 2))
        g = gnm_random_graph(n, m, derive_seed(99, draw))
        est = estimate_distribution(g, 100000, seed=derive_seed(7, draw))
        exact = float(expected_components(g))
        assert abs(est.mean_kappa - exact) <= 4 * est.stderr_kappa


def test_estimate_distribution_rejects_bad_input():
    with pytest.raises(InvalidGraph, match="estimation needs at least one edge"):
        estimate_distribution(Graph(3, ()), 10, seed=0)
    with pytest.raises(ParameterOutOfRange, match="needs trials >= 1"):
        estimate_distribution(complete_graph(3), 0, seed=0)


def test_gnm_expectation_estimate_hits_forced_complete_graph():
    # m = C(4,2) leaves a single possible graph, so the target is exactly 6/5
    mean, stderr = estimate_gnm_expectation(4, 6, 40, 50, seed=9)
    assert stderr > 0
    assert abs(mean - 1.2) <= 4 * stderr
    assert estimate_gnm_expectation(4, 6, 40, 50, seed=9) == (mean, stderr)


def test_gnm_expectation_estimate_matches_closed_form():
    mean, stderr = estimate_gnm_expectation(6, 8, 2000, 10, seed=20260815)
    assert abs(mean - float(gnm_expected_components(6, 8))) <= 4 * stderr
    mean, _ = estimate_gnm_expectation(5, 1, 30, 20, seed=2)
    assert mean == 1.0


def test_gnm_expectation_rejects_bad_parameters():
    for args in ((1, 1, 1, 1), (4, 3, 0, 1), (4, 3, 1, 0)):
        with pytest.raises(ParameterOutOfRange, match="needs n >= 2 and positive sample counts"):
            estimate_gnm_expectation(*args, seed=0)
    for args in ((4, 0, 1, 1), (4, 7, 1, 1)):
        with pytest.raises(ParameterOutOfRange, match="needs 1 <= m <= 6"):
            estimate_gnm_expectation(*args, seed=0)


def test_decay_experiment_on_cycles():
    # the only simple 2-regular graphs on 4 and 5 vertices are the cycles
    rows = single_component_decay(2, [4, 5], 400, seed=20260815)
    assert [row.n for row in rows] == [4, 5]
    for row, exact in zip(rows, (Fraction(2, 3), Fraction(1, 3))):
        p = float(exact)
        assert 0 < row.p1_hat <= 1
        assert abs(row.p1_hat - p) <= 4 * math.sqrt(p * (1 - p) / 400)
        assert row.neg_log_p1_over_n == -math.log(row.p1_hat) / row.n
        assert row.cheeger == Fraction(1, 2)


def test_decay_zero_hits_reports_infinite_rate():
    row = single_component_decay(2, [4], 1, seed=1)[0]
    assert row.p1_hat == 0.0
    assert math.isinf(row.neg_log_p1_over_n)


def test_decay_rejects_infeasible_requests():
    with pytest.raises(ParameterOutOfRange, match="no simple 3-regular graph on 5 vertices"):
        single_component_decay(3, [5], 10, seed=0)
    with pytest.raises(ParameterOutOfRange, match="no simple 5-regular graph on 4 vertices"):
        single_component_decay(5, [4], 10, seed=0)
    with pytest.raises(ParameterOutOfRange, match="needs degree d >= 1, got d = 0"):
        single_component_decay(0, [4], 10, seed=0)
    with pytest.raises(ParameterOutOfRange, match="needs trials >= 1"):
        single_component_decay(2, [4], 0, seed=0)


def test_decay_cheeger_blank_past_exhaustive_cap():
    rows = single_component_decay(2, [22], 5, seed=1)
    assert rows[0].cheeger is None
