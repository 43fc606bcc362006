"""Seeded Monte Carlo estimation of process statistics.

Every estimator derives one SplitMix64 stream per trial from (seed, index
path), so trials are independent, reproducible, and could be evaluated in
any order or in parallel with identical aggregate results; counts are
aggregated as exact integers before any division.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .engine import _scan
from .errors import InvalidGraph, ParameterOutOfRange
from .families import gnm_random_graph, random_regular_graph
from .graphs import CHEEGER_VERTEX_CAP, Graph, _compact, cheeger_constant
from .rng import SplitMix64, _derived_seeds, derive_seed


@dataclass(frozen=True)
class EstimatedDistribution:
    """Empirical law of the component count over seeded trials."""

    trials: int
    seed: int
    counts: dict[int, int]
    mean_kappa: float
    stderr_kappa: float


def _tally(g: Graph, seeds: Iterable[int], counts: dict[int, int]) -> None:
    """Count kappa over one process run per seed, each shuffling range(m) afresh.

    The scan runs over `_compact(g)`, so a trial costs O(m), not O(n).
    """
    edges, n = _compact(g)
    for seed in seeds:
        order = list(range(len(edges)))
        SplitMix64(seed).shuffle(order)
        kappa = _scan(edges, n, order)[1]
        counts[kappa] = counts.get(kappa, 0) + 1


def _moments(counts: dict[int, int], trials: int) -> tuple[float, float]:
    mean = sum(k * c for k, c in counts.items()) / trials
    second = sum(k * k * c for k, c in counts.items()) / trials
    variance = max(second - mean * mean, 0.0)
    return mean, math.sqrt(variance / trials)


def estimate_distribution(g: Graph, trials: int, seed: int) -> EstimatedDistribution:
    """Empirical component-count distribution from `trials` seeded orderings."""
    if g.m == 0:
        raise InvalidGraph("estimation needs at least one edge")
    if trials < 1:
        raise ParameterOutOfRange("needs trials >= 1")
    counts: dict[int, int] = {}
    _tally(g, _derived_seeds(seed, (), 0, trials), counts)
    mean, stderr = _moments(counts, trials)
    return EstimatedDistribution(trials, seed, counts, mean, stderr)


def estimate_gnm_expectation(
    n: int, m: int, graph_samples: int, orderings_per_graph: int, seed: int
) -> tuple[float, float]:
    """Estimate E(kappa) over uniform G(n,m) graphs and uniform orderings.

    Each graph draw gets `orderings_per_graph` process runs; the plug-in
    standard error treats all runs as one pooled sample.
    """
    if n < 2 or graph_samples < 1 or orderings_per_graph < 1:
        raise ParameterOutOfRange("needs n >= 2 and positive sample counts")
    if not 1 <= m <= comb(n, 2):
        raise ParameterOutOfRange(f"needs 1 <= m <= {comb(n, 2)}")
    counts: dict[int, int] = {}
    for i in range(graph_samples):
        g = gnm_random_graph(n, m, derive_seed(seed, i, 0))
        _tally(g, _derived_seeds(seed, (i,), 1, orderings_per_graph), counts)
    return _moments(counts, graph_samples * orderings_per_graph)


@dataclass(frozen=True)
class DecayRow:
    """One row of the regular-graph one-component decay experiment."""

    n: int
    p1_hat: float
    neg_log_p1_over_n: float
    cheeger: Fraction | None


def single_component_decay(
    d: int, n_values: list[int], trials: int, seed: int
) -> list[DecayRow]:
    """Estimate P(G,1) for one random d-regular graph per n.

    Reports -log(p1_hat)/n per row (the exponential decay rate scale) and
    the exact Cheeger constant whenever n is within the exhaustive cap.
    """
    if d < 1:
        raise ParameterOutOfRange(f"needs degree d >= 1, got d = {d}")
    if trials < 1:
        raise ParameterOutOfRange("needs trials >= 1")
    for n in n_values:
        if d >= n or (n * d) % 2 == 1:
            raise ParameterOutOfRange(f"no simple {d}-regular graph on {n} vertices")
    rows = []
    for idx, n in enumerate(n_values):
        g = random_regular_graph(n, d, derive_seed(seed, idx))
        counts: dict[int, int] = {}
        _tally(g, _derived_seeds(seed, (idx,), 1, trials), counts)
        p1 = counts.get(1, 0) / trials
        # + 0.0 turns the -0.0 of p1 = 1 into 0.0 and leaves every other rate as is
        rate = -math.log(p1) / n + 0.0 if p1 > 0 else math.inf
        cheeger = cheeger_constant(g) if n <= CHEEGER_VERTEX_CAP else None
        rows.append(DecayRow(n, p1, rate, cheeger))
    return rows
