"""Exact rational arithmetic helpers: Bernoulli numbers and the kappa
correction constants that show up in the curvature expansions.

Everything here is pure ``fractions.Fraction``.  No floats, anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


class DomainError(ValueError):
    """Raised when a quantity is requested outside its mathematical domain."""


def _exact(q) -> Fraction:
    """q as a Fraction; a coefficient or factor must be an int or a Fraction
    (a bool, a float or a string is refused)."""
    if type(q) is not int and not isinstance(q, Fraction):
        raise DomainError(f"coefficient must be an int or a Fraction, got {q!r}")
    return Fraction(q)


def check_int(value, low: int, what: str) -> int:
    """value itself, if it is an int (a bool is not) and at least low."""
    if type(value) is not int or value < low:
        raise DomainError(f"{what} must be an int >= {low}, got {value!r}")
    return value


# Cache of Bernoulli numbers B_0, B_1, ... (second convention:
# B_1 = -1/2), keyed by index.  Its keys are always 0..len-1: a value is
# computed from the entries below it only and stored with setdefault, so
# threads that race to the same index store it once.
_bern: dict[int, Fraction] = {0: Fraction(1)}


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k with B_1 = -1/2.

    Computed from the defining recurrence

        sum_{i=0}^{n} C(n+1, i) * B_i = 0   for n >= 1,

    solved for B_n.  Values are memoized.
    """
    check_int(k, 0, "Bernoulli index k")
    while len(_bern) <= k:
        n = len(_bern)
        acc = Fraction(0)
        for i in range(n):
            acc += comb(n + 1, i) * _bern[i]
        _bern.setdefault(n, -acc / (n + 1))
    return _bern[k]


def kappa_correction(m: int) -> Fraction:
    """Correction constant attached to kappa_m in the corrected pushforward
    expansion of the relative dualizing sheaf:

        sum_{h=1}^{floor((m-1)/2)} B_{2h} / ((2h)! * (m-2h)!)

    Defined for m >= 3.  Equals 1/(2*(m-1)!) - 1/m! in closed form; the
    test suite checks the sum against that identity and against a series
    product oracle.
    """
    check_int(m, 3, "kappa correction index m")
    total = Fraction(0)
    for h in range(1, (m - 1) // 2 + 1):
        total += bernoulli(2 * h) / (factorial(2 * h) * factorial(m - 2 * h))
    return total


def format_rational(q: Fraction) -> str:
    """Render a Fraction as ``p`` or ``p/q`` with no superfluous sign."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
