"""Exact component-count distributions and the "num/den" rational text.

A ForestDistribution records, for one graph, the probability that the
forest-building process ends with k components, as exact rationals.  The
generating polynomial view is the same data: probs[k] is the coefficient
of x^k.  The JSON and text output formats live in `cli`, the one module
that writes output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def format_fraction(q: Fraction) -> str:
    """Exact "num/den" text, denominator kept even when it is 1."""
    return f"{q.numerator}/{q.denominator}"


def parse_fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    if not den:
        return Fraction(int(num))
    return Fraction(int(num), int(den))


def convolve(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    """Product of generating polynomials as sparse maps of Fraction or int coefficients."""
    out: dict[int, Fraction] = {}
    for i, p in a.items():
        for j, q in b.items():
            k = i + j
            out[k] = out.get(k, 0) + p * q
    return {k: v for k, v in sorted(out.items()) if v}


@dataclass(frozen=True, eq=True)
class ForestDistribution:
    """Distribution of the process component count for one graph."""

    n: int
    m: int
    probs: dict[int, Fraction]

    def coefficient(self, k: int) -> Fraction:
        return self.probs.get(k, Fraction(0))

    def total(self) -> Fraction:
        return sum(self.probs.values(), Fraction(0))

    def expected_components(self) -> Fraction:
        return sum((Fraction(k) * p for k, p in self.probs.items()), Fraction(0))

    def evaluate(self, x):
        """Value of the generating polynomial at x (Fraction or float)."""
        return sum(p * x**k for k, p in self.probs.items())
