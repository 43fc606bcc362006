"""Exact distribution container and fraction text forms."""

from fractions import Fraction

from forestbuilder.distribution import (
    ForestDistribution,
    convolve,
    format_fraction,
    parse_fraction,
)


def test_fraction_text_forms():
    assert format_fraction(Fraction(6, 5)) == "6/5"
    assert format_fraction(Fraction(3)) == "3/1"
    assert parse_fraction("6/5") == Fraction(6, 5)
    assert parse_fraction("4/8") == Fraction(1, 2)
    assert parse_fraction("7") == Fraction(7)


def test_convolve_identity_and_cancellation():
    one = {0: Fraction(1)}
    poly = {1: Fraction(2, 3), 2: Fraction(1, 3)}
    assert convolve(one, poly) == poly
    product = convolve(
        {0: Fraction(1), 1: Fraction(-1)}, {0: Fraction(1), 1: Fraction(1)}
    )
    assert product == {0: Fraction(1), 2: Fraction(-1)}  # the x term cancels away


def test_distribution_accessors():
    d = ForestDistribution(4, 3, {1: Fraction(2, 3), 2: Fraction(1, 3)})
    assert d.coefficient(1) == Fraction(2, 3)
    assert d.coefficient(5) == 0
    assert d.total() == 1
    assert d.expected_components() == Fraction(4, 3)
    assert d.evaluate(Fraction(1)) == 1
    assert d.evaluate(2) == Fraction(8, 3)

