"""Integer partitions and two-variable symmetric polynomial data.

A two-variable symmetric polynomial is stored as a dict mapping monomial
shapes ``(a, b)`` with ``a >= b >= 0`` to Fraction coefficients, where the
shape stands for the monomial symmetric function

    m_(a,b)(x, y) = x^a y^b + x^b y^a     (a > b)
    m_(a,a)(x, y) = x^a y^a.

That basis is what the boundary pushforward operators consume.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Iterator

from .rationals import DomainError, check_int

SymPoly2 = dict[tuple[int, int], Fraction]


def _partitions_rec(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_rec(n - first, first):
            yield (first,) + rest


def partitions(j: int) -> Iterator[tuple[int, ...]]:
    """All partitions of j >= 1 as weakly decreasing tuples, checked at
    the call and yielded lazily.

    Partitions come out in reverse lexicographic order, largest part
    first: (j), ..., (1,)*j.
    """
    check_int(j, 1, "partition weight j")
    return _partitions_rec(j, j)


def partition_chern_coeff(mu: tuple[int, ...]) -> Fraction:
    """Coefficient of prod_r ch_r in the Newton expansion of the Chern class.

    For a partition mu of weight n with m_r parts equal to r,

        c_n = sum_mu  (-1)^(n - len(mu)) * prod_r ((r-1)!)^(m_r) / m_r!
                      * prod_(r in mu) ch_r.

    The empty partition gives c_0 = 1.
    """
    if not isinstance(mu, Iterable):
        raise DomainError(f"partition must be an iterable of ints, got {mu!r}")
    mu = tuple(mu)
    mult: dict[int, int] = {}
    for part in mu:
        check_int(part, 1, "partition part")
        mult[part] = mult.get(part, 0) + 1
    num, den = (-1) ** (sum(mu) - len(mu)), 1
    for r, m_r in mult.items():
        num *= factorial(r - 1) ** m_r
        den *= factorial(m_r)
    return Fraction(num, den)


def power_sym(k: int) -> SymPoly2:
    """(x + y)^k in the two-variable monomial symmetric basis.

    Returns {(k-b, b): C(k, b)} for b = 0 .. floor(k/2); the middle
    binomial is taken once because m_(a,a) already is a single monomial.
    """
    check_int(k, 0, "power_sym exponent k")
    out: SymPoly2 = {}
    for b in range(k // 2 + 1):
        out[(k - b, b)] = Fraction(comb(k, b))
    return out


def alternating_sym(k: int) -> SymPoly2:
    """The alternating sum

        sum_{a+b=k} (-1)^b x^a y^b  =  (x^(k+1) + y^(k+1)) / (x + y)

    for even k >= 0, expressed in the monomial symmetric basis as
    {(k-b, b): (-1)^b}.  The sum is symmetric only when k is even, so odd
    k is rejected.
    """
    if check_int(k, 0, "alternating_sym degree k") % 2:
        raise DomainError(f"alternating_sym needs even k, got {k}")
    return {(k - b, b): Fraction((-1) ** b) for b in range(k // 2 + 1)}
