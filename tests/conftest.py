"""Shared fixtures: one engine and the connected classes for the whole session.

The engine caches solved components by labelled edge set, so a test that
meets a component an earlier test solved reuses its law.
"""

import pytest

from forestbuilder.engine import PolynomialEngine
from forestbuilder.search import enumerate_connected_graphs


@pytest.fixture(scope="session")
def engine():
    return PolynomialEngine()


@pytest.fixture(scope="session")
def connected_classes():
    """Connected isomorphism class representatives keyed by vertex count."""
    return {n: tuple(enumerate_connected_graphs(n)) for n in range(2, 8)}
