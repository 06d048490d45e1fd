"""Truncated bivariate formal power series over exact rationals, with an
optional quotient by the relation D1*D2 = 0, used to re-derive and check
every series identity behind the curvature expansions.

The checks:

* the tensor character of the node structure sheaf times the inverse
  dual Todd factor equals D1*D2 times the node correction series;
* the reciprocal Todd series t/(e^t - 1) reproduces the Bernoulli
  expansion, giving an inversion-based oracle for Bernoulli numbers;
* the marked-point product [(D-psi)/(e^(D-psi)-1)]*(e^psi - 1) in the
  quotient ring, compared against closed forms with either tail sign.

The minus-tail closed form (the normalization the main cotangent
expansion is written in) does not match the exact product; the plus-tail
form does.  check_marked_point computes both so the discrepancy is
machine-checkable rather than asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import Mapping

from .rationals import DomainError, _exact, bernoulli, check_choice, check_int, kappa_correction


@dataclass(frozen=True, slots=True)
class BiSeries:
    """Coefficients of D1^i D2^j for i+j <= order; exact and immutable.

    The terms are stored as integer numerators over one denominator: the
    coefficient of D1^i D2^j is n/den for ((i, j), n) in nums.  Every
    series is kept in lowest terms (den > 0, keys sorted, numerators
    nonzero, gcd(den, *numerators) == 1), so equal series have equal
    fields and equal hashes.  den is then the lcm of the reduced
    denominators: for numerators n_k over D, that lcm is
    D / gcd(D, n_1, ..., n_m).

    With cross_zero set, every mixed monomial (i >= 1 and j >= 1) is
    dropped at each arithmetic step, implementing the quotient by
    D1*D2 = 0.
    """

    order: int
    cross_zero: bool = False
    den: int = 1
    nums: tuple[tuple[tuple[int, int], int], ...] = ()

    @staticmethod
    def build(order: int, data: Mapping[tuple[int, int], Fraction | int],
              cross_zero: bool = False) -> "BiSeries":
        """Canonical series from exact (int or Fraction) coefficients;
        zero terms, terms above the order, and mixed terms under
        cross_zero, are dropped.  A mapping's keys are unique, so the kept
        terms are only sorted, never summed."""
        check_int(order, 0, "series order")
        check_choice(cross_zero, (False, True), "cross_zero")
        if not isinstance(data, Mapping):
            raise DomainError(f"series data must be a mapping, got {type(data).__name__}")
        kept = []
        for key, c in data.items():
            if not isinstance(key, tuple) or len(key) != 2:
                raise DomainError(f"exponent pair must be a tuple of two ints, got {key!r}")
            i, j = key
            if type(i) is not int or type(j) is not int or i < 0 or j < 0:
                raise DomainError(f"exponent pair must be two ints >= 0, got ({i!r},{j!r})")
            q = _exact(c)
            if q and i + j <= order and not (cross_zero and i >= 1 and j >= 1):
                kept.append((key, q))
        kept.sort()
        den = lcm(*[q.denominator for _, q in kept])
        return _reduced(order, cross_zero, den,
                        [(key, q.numerator * (den // q.denominator)) for key, q in kept])

    @staticmethod
    def zero(order: int, cross_zero: bool = False) -> "BiSeries":
        return BiSeries.build(order, {}, cross_zero)

    @staticmethod
    def one(order: int, cross_zero: bool = False) -> "BiSeries":
        return BiSeries.build(order, {(0, 0): 1}, cross_zero)

    @staticmethod
    def variable(order: int, index: int, cross_zero: bool = False) -> "BiSeries":
        key = (1, 0) if check_choice(index, (1, 2), "variable index") == 1 else (0, 1)
        return BiSeries.build(order, {key: 1}, cross_zero)

    @property
    def coeffs(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        """The terms as ((i, j), reduced Fraction) pairs, in key order."""
        den = self.den
        return tuple((key, Fraction(n, den)) for key, n in self.nums)

    def as_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.coeffs)

    def coeff(self, i: int, j: int) -> Fraction:
        for key, n in self.nums:
            if key == (i, j):
                return Fraction(n, self.den)
        return Fraction(0)

    def _check_compatible(self, other: "BiSeries") -> None:
        if not isinstance(other, BiSeries):
            raise DomainError(f"expected a BiSeries, got {type(other).__name__}")
        if self.order != other.order or self.cross_zero != other.cross_zero:
            raise DomainError("series have different orders or quotient flags")

    def __add__(self, other: "BiSeries") -> "BiSeries":
        self._check_compatible(other)
        den = lcm(self.den, other.den)
        f1, f2 = den // self.den, den // other.den
        acc = {key: n * f1 for key, n in self.nums}
        for key, n in other.nums:
            acc[key] = acc.get(key, 0) + n * f2
        return _reduced(self.order, self.cross_zero, den,
                        sorted((key, n) for key, n in acc.items() if n))

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        self._check_compatible(other)
        return self + other.scale(-1)

    def scale(self, q: Fraction | int) -> "BiSeries":
        q = _exact(q)
        return _reduced(self.order, self.cross_zero, self.den * q.denominator,
                        [(key, n * q.numerator) for key, n in self.nums] if q else [])

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        """Exact truncated product on the stored numerators: a pair whose
        degree is above the order is never visited, and the output's
        numerators over den1 * den2 are reduced by one content gcd.

        Inside the product the pair (i, j) is the int i*(order+1) + j; as
        j1 + j2 <= order, a product's key is the sum of its factors' keys,
        and packed keys sort as pairs do.  Both quotient flags run the same
        pair loop; under the quotient the mixed keys are then dropped once.
        This is exact, as R -> R/(D1*D2) is a ring map and a mixed term
        only ever gives mixed products.
        """
        self._check_compatible(other)
        order, width = self.order, self.order + 1
        groups: list[list[tuple[int, int]]] = [[] for _ in range(width)]
        for (i, j), n in other.nums:
            groups[i + j].append((i * width + j, n))
        acc: dict[int, int] = {}
        for (i1, j1), n1 in self.nums:
            p1 = i1 * width + j1
            for group in groups[:order - i1 - j1 + 1]:
                for p2, n2 in group:
                    acc[p1 + p2] = acc.get(p1 + p2, 0) + n1 * n2
        if self.cross_zero:
            acc = {p: n for p, n in acc.items() if p < width or p % width == 0}
        return _reduced(order, self.cross_zero, self.den * other.den,
                        [(divmod(p, width), n) for p, n in sorted(acc.items()) if n])

    def inverse(self) -> "BiSeries":
        """Multiplicative inverse; requires a unit (nonzero) constant term.

        With a = A/D and A00 = s|A00| its constant numerator, the
        coefficients found so far are kept as integer numerators N over
        their common denominator E, and b_ij = -s S_ij / (E |A00|) with
        S_ij the sum of A_kl * N_(i-k,j-l) over (k,l) != (0,0).  The sums
        are pushed, not pulled: once b_pq is found, A_kl * N_pq is added
        to the pending sum at (p+k, q+l) for every term of a within the
        order, so a degree's sums are complete when it is reached and only
        nonzero pairs are visited.  A degree's coefficients share the
        denominator E |A00| / g, with g the gcd of E |A00| and their sums;
        E then grows to the lcm with it, and the pending sums are scaled
        up to the new E.  Each degree's numerators are over the E of their
        degree, and are scaled to the last E once at the end.
        """
        order, cross_zero = self.order, self.cross_zero
        a00 = self.nums[0][1] if self.nums and self.nums[0][0] == (0, 0) else 0
        if a00 == 0:
            raise DomainError("cannot invert a series with zero constant term")
        sign, a00 = (1, a00) if a00 > 0 else (-1, -a00)
        rest = sorted((k + l, k, l, n) for (k, l), n in self.nums if k or l)
        pending: list[dict[tuple[int, int], int]] = [{} for _ in range(order + 1)]

        def push(p, q, n):
            for t, k, l, m in rest:
                if p + q + t > order:
                    break
                i, j = p + k, q + l
                if cross_zero and i >= 1 and j >= 1:
                    continue
                sums = pending[i + j]
                sums[(i, j)] = sums.get((i, j), 0) + m * n

        g = gcd(self.den, a00)
        e, n00 = a00 // g, sign * (self.den // g)
        found = [(e, [((0, 0), n00)])]
        push(0, 0, n00)
        for t in range(1, order + 1):
            sums = pending[t]
            ea = e * a00
            g = gcd(ea, *sums.values())
            grown = lcm(e, ea // g)
            if grown != e:
                f = grown // e
                for later in pending[t + 1:]:
                    for key in later:
                        later[key] *= f
                e = grown
            f = -sign * (e * g // ea)
            new = [(key, s // g * f) for key, s in sums.items() if s]
            for (p, q), n in new:
                push(p, q, n)
            found.append((e, new))
        return _reduced(order, cross_zero, e, sorted(
            (key, n * (e // e_t)) for e_t, new in found for key, n in new))


def _reduced(order: int, cross_zero: bool, den: int,
             nums: list[tuple[tuple[int, int], int]]) -> BiSeries:
    """The series with numerators nums (sorted, nonzero) over den > 0, in
    lowest terms: den and every numerator divided by their content gcd."""
    g = gcd(den, *[n for _, n in nums])
    if g != 1:
        den //= g
        nums = [(key, n // g) for key, n in nums]
    return BiSeries(order, cross_zero, den, tuple(nums))


def _univariate(order: int, index: int, fn,
                cross_zero: bool = False) -> BiSeries:
    """Series in the chosen variable alone, with coefficient fn(k) on D^k."""
    first = check_choice(index, (1, 2), "variable index") == 1
    return BiSeries.build(
        order, {((k, 0) if first else (0, k)): fn(k) for k in range(order + 1)}, cross_zero)


def _one_minus_exp_neg_over_t(k: int) -> Fraction:
    """Coefficient of t^k in (1 - e^(-t))/t."""
    return Fraction((-1) ** k, factorial(k + 1))


def one_minus_exp_neg(order: int, index: int) -> BiSeries:
    """1 - e^(-D) in the chosen variable."""
    return _univariate(order, index,
                       lambda k: _one_minus_exp_neg_over_t(k - 1) if k else 0)


def structure_sheaf_pair_ch(order: int) -> BiSeries:
    """(1 - e^(-D1)) * (1 - e^(-D2)): the node structure sheaf character."""
    check_int(order, 2, "node sheaf character order")
    return one_minus_exp_neg(order, 1) * one_minus_exp_neg(order, 2)


def todd_dual_inverse_pair(order: int) -> BiSeries:
    """[D1 D2/(D1+D2)] * (1 - e^(-D1-D2)) / [(1-e^(-D1))(1-e^(-D2))].

    The printed quotient has a removable singularity along D1+D2 = 0, so
    it is computed as a product of three unit-constant factors:
    (1-e^(-s))/s at s = D1+D2, times D1/(1-e^(-D1)), times
    D2/(1-e^(-D2)).
    """
    return _times_unit_todds(node_correction_series(order))


def _times_unit_todds(theta: BiSeries) -> BiSeries:
    """theta * D1/(1-e^(-D1)) * D2/(1-e^(-D2)), at theta's order."""
    def unit_todd(index: int) -> BiSeries:
        return _univariate(theta.order, index, _one_minus_exp_neg_over_t).inverse()

    return theta * unit_todd(1) * unit_todd(2)


def node_correction_series(order: int) -> BiSeries:
    """sum_(j>=1) (-1)^(j-1) (D1+D2)^(j-1) / j!, which is (1-e^(-s))/s at
    s = D1+D2, expanded binomially: (-1)^k C(k,i) / (k+1)! on D1^i D2^(k-i)."""
    check_int(order, 0, "series order")
    top = factorial(order + 1)
    return _reduced(order, False, top, [
        ((i, j), (-1) ** (i + j) * comb(i + j, i) * (top // factorial(i + j + 1)))
        for i in range(order + 1) for j in range(order + 1 - i)])


def _node_sheaf_times_todds(theta: BiSeries) -> BiSeries:
    """structure_sheaf_pair_ch * todd_dual_inverse_pair at theta's order,
    with theta the node correction series.  The sheaf character is
    multiplied in as its two univariate factors, so no product is
    bivariate on both sides."""
    order = theta.order
    return (_times_unit_todds(theta) * one_minus_exp_neg(order, 1)
            * one_minus_exp_neg(order, 2))


def check_node_correction(order: int, inject_fault: bool = False) -> bool:
    """Does ch of the node sheaf times the inverse dual Todd factor equal
    D1*D2 times the node correction series, up to the given order?

    inject_fault flips one sign in the correction series; the check must
    then fail, which guards the harness against vacuity.  The one series
    theta serves both sides, and only the right side's copy is flipped.
    """
    check_int(order, 4, "node correction check order")
    check_choice(inject_fault, (False, True), "inject_fault")
    theta = node_correction_series(order)
    lhs = _node_sheaf_times_todds(theta)
    if inject_fault:
        data = theta.as_dict()
        data[(1, 0)] = -data[(1, 0)]
        theta = BiSeries.build(order, data)
    d1 = BiSeries.variable(order, 1)
    d2 = BiSeries.variable(order, 2)
    return lhs == d1 * d2 * theta


def todd_reciprocal(order: int) -> BiSeries:
    """t/(e^t - 1) as a univariate series in the first variable."""
    check_int(order, 0, "series order")
    return _univariate(order, 1, lambda k: Fraction(1, factorial(k + 1))).inverse()


def check_todd_bernoulli(order: int) -> bool:
    """t/(e^t-1) against 1 - t/2 + sum B_2j t^2j/(2j)! with recurrence values."""
    check_int(order, 2, "Bernoulli expansion check order")
    even = _univariate(order, 1, lambda k: bernoulli(k) / factorial(k)
                       if k % 2 == 0 else 0)
    half_t = BiSeries.variable(order, 1).scale(Fraction(1, 2))
    return todd_reciprocal(order) == even - half_t


def kappa_correction_series_table(m_max: int) -> dict[int, Fraction]:
    """Correction constants read from the generating product.

    The product is (sum_(h>=1) B_2h t^2h/(2h)!) * (e^t - 1); the -1 is
    forced by the summation bound floor((m-1)/2) in the defining sum
    (every term must absorb at least one factor from the exponential).
    """
    check_int(m_max, 3, "largest correction index m_max")
    bern = _univariate(m_max, 1, lambda k: bernoulli(k) / factorial(k)
                       if k >= 2 and k % 2 == 0 else 0)
    expm1 = _univariate(m_max, 1, lambda k: Fraction(1, factorial(k)) if k else 0)
    product = bern * expm1
    return {m: product.coeff(m, 0) for m in range(3, m_max + 1)}


def marked_point_product(order: int) -> BiSeries:
    """[(D1-D2)/(e^(D1-D2)-1)] * (e^(D2)-1) in the quotient D1*D2 = 0.

    D1 plays the boundary divisor class, D2 the cotangent class at the
    marked point.  Computed honestly: powers of D1 - D2 in the quotient
    ring, the unit series (e^U - 1)/U inverted, then the product.
    """
    check_int(order, 1, "marked point product order")
    u = (BiSeries.variable(order, 1, cross_zero=True)
         - BiSeries.variable(order, 2, cross_zero=True))
    unit = BiSeries.zero(order, cross_zero=True)
    power = BiSeries.one(order, cross_zero=True)
    for k in range(order + 1):
        unit = unit + power.scale(Fraction(1, factorial(k + 1)))
        power = power * u
    expm1 = _univariate(order, 2, lambda j: Fraction(1, factorial(j)) if j else 0,
                        cross_zero=True)
    return unit.inverse() * expm1


def marked_point_reference(order: int, tail_sign: int = -1) -> BiSeries:
    """Closed form for the marked point product, as a series in D2 alone:

        sum_(j>=1) psi^j/j!  +  (1/2) sum_(t>=1) psi^(t+1)/t!
                              +  tail_sign * sum_(m>=3) a_m psi^m

    with a_m the kappa correction constant.  tail_sign -1 is the
    normalization the main cotangent expansion uses; tail_sign +1 is the
    sign under which the closed form equals the exact product.
    """
    check_int(order, 0, "series order")
    check_choice(tail_sign, (-1, 1), "tail sign")
    data: dict[tuple[int, int], Fraction] = {}
    for m in range(1, order + 1):
        c = Fraction(1, factorial(m))
        if m >= 2:
            c += Fraction(1, 2 * factorial(m - 1))
        if m >= 3:
            c += tail_sign * kappa_correction(m)
        data[(0, m)] = c
    return BiSeries.build(order, data, cross_zero=True)


def check_marked_point(order: int, tail_sign: int = -1) -> bool:
    """Does the exact marked point product match the closed form with the
    given tail sign, up to the given order?"""
    check_int(order, 3, "marked point check order")
    return marked_point_product(order) == marked_point_reference(order, tail_sign)

