"""Closed-form values for special families, computed exactly.

Everything here is independent of the exact evaluator `PolynomialEngine`,
so these formulas double as oracles for it: complete and complete
bipartite distributions, the bipartite boundary solution Q, expectation
formulas for fixed families and for the uniform random graph G(n,m), the
path recurrence and its tangent generating function, and the single-cycle
value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, factorial

from .distribution import ForestDistribution, convolve
from .errors import ParameterOutOfRange


def complete_distribution(n: int) -> ForestDistribution:
    """Distribution for K_n: P(k) = C(n-1; n-2k, k, k-1) * 2^(n-2k) / C(2n-2, n)."""
    if n < 2:
        raise ParameterOutOfRange("complete distribution needs n >= 2")
    denom = comb(2 * n - 2, n)
    probs: dict[int, Fraction] = {}
    k = 1
    while n - 2 * k >= 0:
        multinomial = factorial(n - 1) // (
            factorial(n - 2 * k) * factorial(k) * factorial(k - 1)
        )
        probs[k] = Fraction(multinomial * 2 ** (n - 2 * k), denom)
        k += 1
    return ForestDistribution(n, comb(n, 2), probs)


def bipartite_distribution(s: int, t: int) -> ForestDistribution:
    """Distribution for K_{s,t}: P(k) = k(s+t)C(s,k)C(t,k) / (st C(s+t,s))."""
    if s < 1 or t < 1:
        raise ParameterOutOfRange("bipartite distribution needs s, t >= 1")
    denom = s * t * comb(s + t, s)
    probs: dict[int, Fraction] = {}
    for k in range(1, min(s, t) + 1):
        probs[k] = Fraction(k * (s + t) * comb(s, k) * comb(t, k), denom)
    return ForestDistribution(s + t, s * t, probs)


def bipartite_q(s: int, t: int, a: int, b: int, l: int) -> Fraction:
    """Recurrence solution Q_{s,t}(a,b,l) = C(b,l)C(s+t-b-1,a-l)/C(s+t-1,a).

    Boundary values: Q(a,0,l) = Q(0,b,l) = [l = 0], and l = -1 gives 0 by
    convention.  The full-size value Q(s,t,s,t,k) equals P(K_{s,t}, k).
    """
    if s < 1 or t < 1 or not 0 <= a <= s or not 0 <= b <= t:
        raise ParameterOutOfRange("need s,t >= 1, 0 <= a <= s, 0 <= b <= t")
    if l < -1:
        raise ParameterOutOfRange("l >= -1 required")
    if not 0 <= l <= a:
        return Fraction(0)
    return Fraction(comb(b, l) * comb(s + t - b - 1, a - l), comb(s + t - 1, a))


def complete_expected_components(n: int) -> Fraction:
    """E(kappa) for K_n: n(n-1)/(4n-6)."""
    if n < 2:
        raise ParameterOutOfRange("needs n >= 2")
    return Fraction(n * (n - 1), 4 * n - 6)


def bipartite_expected_components(s: int, t: int) -> Fraction:
    """E(kappa) for K_{s,t}: st/(s+t-1)."""
    if s < 1 or t < 1:
        raise ParameterOutOfRange("needs s, t >= 1")
    return Fraction(s * t, s + t - 1)


def gnm_expected_components(n: int, m: int) -> Fraction:
    """E(kappa) over uniform G(n,m) and a uniform ordering.

    C(n,2)/(2n-3) * (1 - C(C(n,2)-m, 2n-3)/C(C(n,2), 2n-3)); the expectation
    telescopes over potential edges, each contributing a hypergeometric
    tail term.  The ratio equals C(C(n,2)-k, m)/C(C(n,2), m), k = 2n-3, so
    both binomials are taken at r = min(m, k).
    """
    if n < 2:
        raise ParameterOutOfRange("needs n >= 2")
    total = comb(n, 2)
    if not 1 <= m <= total:
        raise ParameterOutOfRange(f"needs 1 <= m <= {total}")
    k, r = 2 * n - 3, min(m, 2 * n - 3)
    miss = Fraction(comb(total - m - k + r, r), comb(total, r))
    return Fraction(total, k) * (1 - miss)


def gnm_expectation_lower_bound(n: int, m: int) -> Fraction:
    """Jensen lower bound (mn + m)/(4m + n - 3) for the G(n,m) expectation."""
    if n < 2 or m < 1:
        raise ParameterOutOfRange("needs n >= 2 and m >= 1")
    return Fraction(m * n + m, 4 * m + n - 3)


def path_distribution(n: int) -> ForestDistribution:
    """f_n for the path with n edges, via n*f_n = sum_i f_i * f_{n-1-i}.

    Each g_j maps a component count to ordering counts, g_j = j! f_j, so
    g_j = sum_i C(j-1, i) g_i g_{j-1-i}, with g_0 = 1 and g_1 = x.
    """
    if n < 1:
        raise ParameterOutOfRange("path distribution needs n >= 1 edges")
    g: list[dict[int, int]] = [{0: 1}, {1: 1}]
    for j in range(2, n + 1):
        acc: dict[int, int] = {}
        for i in range(j):
            for k, c in convolve(g[i], g[j - 1 - i]).items():
                acc[k] = acc.get(k, 0) + comb(j - 1, i) * c
        g.append(acc)
    total = factorial(n)
    return ForestDistribution(n + 1, n, {k: Fraction(c, total) for k, c in sorted(g[n].items())})


def path_series_coefficients(x: float, count: int) -> list[float]:
    """First `count` Taylor coefficients of Q(t) for a fixed x > 1.

    Computed by stepping the series form of the defining initial value
    problem Q' = Q^2 + (x - 1), Q(0) = 1: the degree-n+1 coefficient is
    determined by a Cauchy product of lower ones.  This is the package's
    only floating-point computation.
    """
    if not x > 1:
        raise ParameterOutOfRange("series parameter must satisfy x > 1")
    if count < 1:
        raise ParameterOutOfRange("need count >= 1")
    q = [1.0]
    for n in range(count - 1):
        total = sum(q[i] * q[n - i] for i in range(n + 1))
        if n == 0:
            total += x - 1.0
        q.append(total / (n + 1))
    return q


def path_generating_value(x: float, t: float) -> float:
    """Closed form Q(t) = sqrt(x-1) tan(t sqrt(x-1) + arctan(1/sqrt(x-1)))."""
    if not x > 1:
        raise ParameterOutOfRange("needs x > 1")
    r = math.sqrt(x - 1.0)
    return r * math.tan(t * r + math.atan(1.0 / r))


def matching_identity_lhs(big_n: int) -> int:
    """sum_K 2^(N-2K) C(N,K) C(N-K, N-2K); equals the central binomial C(2N,N)."""
    if big_n < 0:
        raise ParameterOutOfRange("needs N >= 0")
    return sum(
        2 ** (big_n - 2 * k) * comb(big_n, k) * comb(big_n - k, big_n - 2 * k)
        for k in range(big_n // 2 + 1)
    )


def cycle_single_component(n: int) -> Fraction:
    """P(C_n, 1) = n * 2^(n-2) / n!."""
    if n < 3:
        raise ParameterOutOfRange("cycle needs n >= 3")
    return Fraction(n * 2 ** (n - 2), factorial(n))
