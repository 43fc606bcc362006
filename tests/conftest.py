"""Shared fixtures: one engine and the connected classes for the whole session.

The engine keeps only the law of the last component it solved, so tests do
not reuse each other's laws; sharing it checks that no call leaves state
that changes the next one's answer.
"""

from fractions import Fraction

import pytest

from forestbuilder.engine import PolynomialEngine
from forestbuilder.search import _classes


@pytest.fixture(scope="session")
def engine():
    return PolynomialEngine()


@pytest.fixture(scope="session")
def connected_classes():
    """Connected isomorphism class representatives keyed by vertex count, from one walk."""
    return {n: tuple(g for _, g in level) for n, level in _classes("connected", 2, 7)}


@pytest.fixture(scope="session")
def edge_degree_twins_6():
    """(graph6_a, graph6_b, E(kappa)) of each edge-degree twin pair on 6 vertices.

    Pinned from the output of the search while its keys were bytes.
    """
    return [
        ("EsWO", "E{CG", Fraction(23, 12)),
        ("EsX?", "E{CO", Fraction(17, 10)),
        ("EsXO", "E{CW", Fraction(28, 15)),
        ("EsXO", "E{OW", Fraction(28, 15)),
        ("E{CW", "E{OW", Fraction(28, 15)),
        ("Es\\?", "E{SO", Fraction(26, 15)),
        ("E}Gg", "E}_g", Fraction(53, 30)),
        ("Es\\_", "E{SW", Fraction(9, 5)),
        ("Es\\_", "E{So", Fraction(9, 5)),
        ("E{SW", "E{So", Fraction(9, 5)),
        ("E}hO", "E}oo", Fraction(359, 210)),
        ("E}Kg", "E}_w", Fraction(7, 4)),
        ("Es\\o", "E{Sw", Fraction(9, 5)),
        ("E}hW", "E}ow", Fraction(61, 35)),
    ]
