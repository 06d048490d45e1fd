"""Independent oracles for the test suite.

Nothing here calls into the package's own arithmetic.  Bernoulli numbers
are solved from the defining series product with plain list arithmetic,
correction constants come from an explicit polynomial product, the
product and the exponential of bivariate series from plain dict loops
over every pair of terms, partition
counts from the classic DP table, boundary divisors from brute force
over all (h, subset) pairs, and binomial expansions from literal
enumeration of the 2^k factor choices.  When a package value and an
oracle value agree, the agreement means something.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

FIVE_SPECS = ((0, 4), (1, 1), (2, 0), (2, 1), (3, 2))


def bernoulli_list(kmax: int) -> list[Fraction]:
    """B_0..B_kmax solved from  [(e^t - 1)/t] * [sum_k B_k t^k / k!] = 1.

    Comparing t^n coefficients for n >= 1 gives

        sum_{k=0}^{n} B_k / (k! * (n-k+1)!) = 0,

    which is triangular in B_n.  Second convention: B_1 = -1/2.
    """
    out = [Fraction(1)]
    for n in range(1, kmax + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += out[k] / (factorial(k) * factorial(n - k + 1))
        out.append(-acc * factorial(n))
    return out


def correction_table(mmax: int, with_constant_term: bool = False) -> dict[int, Fraction]:
    """Coefficients of t^m, m >= 3, in the product

        (sum_{h>=1} B_2h t^2h / (2h)!) * (e^t - 1).

    With with_constant_term the second factor is the bare e^t instead;
    the two variants differ by B_m/m! at even m.
    """
    bern = bernoulli_list(mmax)
    left = [Fraction(0)] * (mmax + 1)
    for h in range(1, mmax // 2 + 1):
        left[2 * h] = bern[2 * h] / factorial(2 * h)
    lo = 0 if with_constant_term else 1
    right = [Fraction(1, factorial(j)) if j >= lo else Fraction(0)
             for j in range(mmax + 1)]
    table = {}
    for m in range(3, mmax + 1):
        table[m] = sum((left[i] * right[m - i] for i in range(m + 1)),
                       Fraction(0))
    return table


def series_product(order: int, a: dict[tuple[int, int], Fraction],
                   b: dict[tuple[int, int], Fraction],
                   cross_zero: bool = False) -> dict[tuple[int, int], Fraction]:
    """The truncated product of two bivariate series given as
    {(i, j): coefficient}: every pair of terms is multiplied, and a pair
    above the order, or mixed (i >= 1 and j >= 1) under cross_zero, is
    dropped only afterwards.  Zero coefficients are left out."""
    out: dict[tuple[int, int], Fraction] = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            i, j = i1 + i2, j1 + j2
            if i + j > order or cross_zero and i >= 1 and j >= 1:
                continue
            out[(i, j)] = out.get((i, j), Fraction(0)) + c1 * c2
    return {key: c for key, c in out.items() if c}


def series_exp(order: int, coeffs: dict[tuple[int, int], Fraction],
               cross_zero: bool = False) -> dict[tuple[int, int], Fraction]:
    """exp(s) = sum_k s^k / k! for a truncated bivariate series s with zero
    constant term, given and returned as {(i, j): coefficient} with the
    zero coefficients left out.  Each power is formed by a plain double
    loop over the terms, truncated at the order; under cross_zero the
    mixed monomials (i >= 1 and j >= 1) are dropped, as in the quotient
    by D1*D2 = 0.
    """
    if coeffs.get((0, 0), 0) != 0:
        raise ValueError("exp needs a series with zero constant term")
    total = {(0, 0): Fraction(1)}
    power = {(0, 0): Fraction(1)}
    for k in range(1, order + 1):
        nxt: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in power.items():
            for (i2, j2), c2 in coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i + j > order or cross_zero and i >= 1 and j >= 1:
                    continue
                nxt[(i, j)] = nxt.get((i, j), Fraction(0)) + c1 * c2 / k
        power = nxt
        for key, c in power.items():
            total[key] = total.get(key, Fraction(0)) + c
    return {key: c for key, c in total.items() if c}


def partition_count(n: int) -> int:
    """Number of partitions of n, by the coin-style DP."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def boundary_class_count(g: int, n: int) -> int:
    """Brute-force count of boundary divisor classes on (g, n).

    Every pair (h, A) with 2h - 1 + |A| > 0 and 2(g-h) - 1 + |A^c| > 0,
    identified with (g-h, A^c); plus the irreducible divisor when g >= 1.
    """
    seen = set()
    for h in range(g + 1):
        for bits in range(1 << n):
            side = tuple(i for i in range(n) if bits >> i & 1)
            comp = tuple(i for i in range(n) if not bits >> i & 1)
            if 2 * h - 1 + len(side) <= 0:
                continue
            if 2 * (g - h) - 1 + len(comp) <= 0:
                continue
            seen.add(min((h, side), (g - h, comp)))
    return len(seen) + (1 if g >= 1 else 0)


def power_sym_by_enumeration(k: int) -> dict[tuple[int, int], Fraction]:
    """(x + y)^k via the 2^k factor choices, folded into the monomial
    symmetric basis {(a, b): coefficient} with a >= b."""
    counts: dict[int, int] = {}
    for picks in itertools.product((0, 1), repeat=k):
        a = sum(picks)
        counts[a] = counts.get(a, 0) + 1
    return {(k - b, b): Fraction(counts[b]) for b in range(k // 2 + 1)}


def eval_sym(poly: dict[tuple[int, int], Fraction], x, y) -> Fraction:
    """Evaluate a monomial-symmetric dict at the point (x, y)."""
    x, y = Fraction(x), Fraction(y)
    total = Fraction(0)
    for (a, b), c in poly.items():
        if a == b:
            total += c * x ** a * y ** a
        else:
            total += c * (x ** a * y ** b + x ** b * y ** a)
    return total
