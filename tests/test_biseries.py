"""The truncated bivariate series engine and the identity checks built on it."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from oracles import bernoulli_list, series_exp, series_product
from tautchern import (
    BiSeries,
    DomainError,
    check_marked_point,
    check_node_correction,
    check_todd_bernoulli,
    kappa_coefficient,
    kappa_correction,
    kappa_correction_series_table,
    marked_point_product,
    marked_point_reference,
    node_correction_series,
    structure_sheaf_pair_ch,
    todd_dual_inverse_pair,
    todd_reciprocal,
)
from tautchern.biseries import _node_sheaf_times_todds


# ------------------------------------------------------------------ the ring

def test_build_truncates_and_drops():
    s = BiSeries.build(2, {(0, 0): 1, (3, 0): 7, (1, 0): 0})
    assert s.as_dict() == {(0, 0): Fraction(1)}
    q = BiSeries.build(3, {(1, 1): 5, (2, 0): 1}, cross_zero=True)
    assert q.as_dict() == {(2, 0): Fraction(1)}
    r = BiSeries.build(4, {(2, 1): Fraction(-3, 8), (0, 0): 5, (0, 3): Fraction(7, 9)})
    assert r.coeffs == (((0, 0), Fraction(5)), ((0, 3), Fraction(7, 9)),
                        ((2, 1), Fraction(-3, 8)))
    assert all(type(c) is Fraction for _, c in r.coeffs)


def test_build_validates():
    with pytest.raises(DomainError):
        BiSeries.build(-1, {})
    with pytest.raises(DomainError):
        BiSeries.build(3, {(-1, 0): 1})
    # Only exact input: a float coefficient would be kept as its binary
    # expansion, and a string or a non-int order has no exact meaning.
    for data in ({(0, 0): 0.1}, {(0, 0): "1/3"}, {(0, 0): None}, {(1.0, 0): 1},
                 {(0, True): 1}):
        with pytest.raises(DomainError):
            BiSeries.build(4, data)
    for order in (4.5, True, "4"):
        with pytest.raises(DomainError):
            BiSeries.build(order, {(0, 0): 1})


@pytest.mark.parametrize("key", [frozenset((0, 1)), range(1, 3), (1, 0, 0), "10", 1])
def test_build_takes_only_tuple_keys(key):
    """A key that is not a pair of ints is refused, even when it unpacks
    to two ints: two such keys could name one exponent pair."""
    with pytest.raises(DomainError):
        BiSeries.build(4, {key: 1})


def test_scale_takes_only_exact_factors():
    one = BiSeries.one(4)
    for q in (0.1, "1/3", True):
        with pytest.raises(DomainError):
            one.scale(q)
    assert one.scale(Fraction(1, 3)).coeff(0, 0) == Fraction(1, 3)


def test_variable_and_coeff():
    d1 = BiSeries.variable(3, 1)
    assert d1.coeff(1, 0) == 1
    assert d1.coeff(0, 1) == 0
    with pytest.raises(DomainError):
        BiSeries.variable(3, 0)


@pytest.mark.parametrize("i,j", [(1.0, 0), (True, 0), ("a", 0), (0, 0.0), (0, None)])
def test_coeff_takes_only_int_exponents(i, j):
    """A float or bool equal to an exponent, or a non-number, is refused,
    not read as that exponent or as an absent one."""
    with pytest.raises(DomainError):
        todd_reciprocal(6).coeff(i, j)
    assert todd_reciprocal(6).coeff(1, 0) == Fraction(-1, 2)
    assert todd_reciprocal(6).coeff(-1, 0) == todd_reciprocal(6).coeff(7, 0) == 0


@pytest.mark.parametrize("index", [True, 1.0, 2.0, "1"])
def test_variable_index_must_be_an_int(index):
    """A bool or a float equal to 1 or 2 is refused at the call."""
    with pytest.raises(DomainError):
        BiSeries.variable(3, index)


def test_exp_pinned():
    e = series_exp(2, BiSeries.variable(2, 1).as_dict())
    assert e == {(0, 0): Fraction(1), (1, 0): Fraction(1), (2, 0): Fraction(1, 2)}
    with pytest.raises(ValueError):
        series_exp(2, BiSeries.one(2).as_dict())


@pytest.mark.parametrize("cross_zero", [False, True])
def test_exp_of_the_variables(cross_zero):
    """exp(D1 + D2) is sum D1^i D2^j / (i! j!), or its unmixed terms in
    the quotient ring; exp(D1) exp(D2) gives the same through the
    package's product."""
    order = 7
    d1 = BiSeries.variable(order, 1, cross_zero)
    d2 = BiSeries.variable(order, 2, cross_zero)
    want = BiSeries.build(order, {(i, j): Fraction(1, factorial(i) * factorial(j))
                                  for i in range(order + 1) for j in range(order + 1)},
                          cross_zero)
    assert BiSeries.build(order, series_exp(order, (d1 + d2).as_dict(), cross_zero),
                          cross_zero) == want
    e1, e2 = (BiSeries.build(order, series_exp(order, d.as_dict(), cross_zero), cross_zero)
              for d in (d1, d2))
    assert e1 * e2 == want


def test_inverse_needs_unit():
    with pytest.raises(DomainError):
        BiSeries.variable(3, 1).inverse()


def test_unit_series_round_trip():
    u = BiSeries.build(8, {(k, 0): Fraction((-1) ** k, factorial(k + 1))
                           for k in range(9)})
    assert u * u.inverse() == BiSeries.one(8)
    assert u.inverse() * u == BiSeries.one(8)


def test_incompatible_series_rejected():
    with pytest.raises(DomainError):
        BiSeries.one(3) + BiSeries.one(4)
    with pytest.raises(DomainError):
        BiSeries.one(3) * BiSeries.one(3, cross_zero=True)


# ------------------------------------------------------- node sheaf character

def test_structure_sheaf_pair_pinned():
    s = structure_sheaf_pair_ch(8)
    assert s.coeff(1, 1) == 1
    assert s.coeff(2, 1) == Fraction(-1, 2)
    assert s.coeff(1, 2) == Fraction(-1, 2)
    for i in range(9):
        assert s.coeff(i, 0) == 0
        assert s.coeff(0, i) == 0
    with pytest.raises(DomainError):
        structure_sheaf_pair_ch(1)


def test_dual_todd_inverse_is_a_unit():
    assert todd_dual_inverse_pair(6).coeff(0, 0) == 1


def test_node_correction_series_pinned():
    theta = node_correction_series(4)
    assert theta.coeff(0, 0) == 1
    assert theta.coeff(1, 0) == Fraction(-1, 2)
    assert theta.coeff(0, 1) == Fraction(-1, 2)
    assert theta.coeff(2, 0) == Fraction(1, 6)
    assert theta.coeff(1, 1) == Fraction(1, 3)
    assert theta.coeff(0, 2) == Fraction(1, 6)
    # The binomial expansion of (1 - e^(-s))/s, term by term through build.
    want = BiSeries.build(12, {(i, k - i): Fraction((-1) ** k, factorial(k + 1)) * comb(k, i)
                               for k in range(13) for i in range(k + 1)})
    assert node_correction_series(12) == want
    for order in (-1, 4.5, True):
        with pytest.raises(DomainError):
            node_correction_series(order)


@pytest.mark.parametrize("order", range(4, 13))
def test_node_correction_identity(order):
    assert check_node_correction(order)


@pytest.mark.parametrize("order", [4, 12])
def test_node_correction_detects_injected_fault(order):
    assert not check_node_correction(order, inject_fault=True)


def test_node_correction_order_domain():
    with pytest.raises(DomainError):
        check_node_correction(3)


# -------------------------------------------------------------- todd expansion

def test_todd_reciprocal_pinned():
    t = todd_reciprocal(6)
    assert t.coeff(0, 0) == 1
    assert t.coeff(1, 0) == Fraction(-1, 2)
    assert t.coeff(2, 0) == Fraction(1, 12)
    assert t.coeff(3, 0) == 0


@pytest.mark.parametrize("order", range(2, 21))
def test_todd_bernoulli_expansion(order):
    assert check_todd_bernoulli(order)


def test_todd_bernoulli_order_domain():
    with pytest.raises(DomainError):
        check_todd_bernoulli(1)


def test_todd_reciprocal_reads_bernoulli_numbers():
    """One inversion holds B_k/k! for every k up to its order, as verify
    reads it."""
    oracle = bernoulli_list(30)
    todd = todd_reciprocal(30)
    for k in range(31):
        assert todd.coeff(k, 0) * factorial(k) == oracle[k]


# ------------------------------------------------------- correction constants

def test_correction_table_matches_sum_definition():
    table = kappa_correction_series_table(20)
    for m in range(3, 21):
        assert table[m] == kappa_correction(m)


def test_correction_table_domain():
    with pytest.raises(DomainError):
        kappa_correction_series_table(2)


# ------------------------------------------------------- marked point product

def test_marked_point_product_coefficients():
    p = marked_point_product(10)
    for m in range(1, 11):
        assert p.coeff(0, m) == Fraction(1, factorial(m - 1))
    for i in range(11):
        assert p.coeff(i, 0) == 0
    with pytest.raises(DomainError):
        marked_point_product(0)


def test_marked_point_reference_minus_tail():
    ref = marked_point_reference(12, tail_sign=-1)
    assert ref.coeff(0, 1) == 1
    assert ref.coeff(0, 2) == 1
    for m in range(3, 13):
        assert ref.coeff(0, m) == Fraction(2, factorial(m))
    for m in range(2, 13):
        assert ref.coeff(0, m) == kappa_coefficient(m - 1)


def test_marked_point_reference_plus_tail():
    ref = marked_point_reference(12, tail_sign=1)
    for m in range(1, 13):
        assert ref.coeff(0, m) == Fraction(1, factorial(m - 1))
    with pytest.raises(DomainError):
        marked_point_reference(6, tail_sign=0)


@pytest.mark.parametrize("tail_sign", [True, 1.0, -1.0, Fraction(1)])
def test_marked_point_reference_tail_sign_must_be_an_int(tail_sign):
    """Refused at the call, not later in BiSeries.build; a bool would
    otherwise pass as +1."""
    with pytest.raises(DomainError, match="tail sign"):
        marked_point_reference(4, tail_sign)


@pytest.mark.parametrize("order", range(3, 13))
def test_marked_point_plus_tail_matches_product(order):
    assert check_marked_point(order, tail_sign=1)


@pytest.mark.parametrize("order", range(3, 13))
def test_marked_point_minus_tail_does_not_match(order):
    """The closed form with the minus tail is what the main cotangent
    expansion encodes, and it genuinely differs from the exact product
    from degree 3 on (1/3 against 1/2 at psi^3)."""
    assert not check_marked_point(order, tail_sign=-1)


def test_marked_point_check_domain():
    with pytest.raises(DomainError):
        check_marked_point(2)


# ------------------------------------------------------- reference products

def reference_mul(a: BiSeries, b: BiSeries) -> BiSeries:
    """Every pair of terms multiplied and added as Fractions; the pairs
    above the order are dropped only afterwards."""
    data: dict[tuple[int, int], Fraction] = {}
    for (i1, j1), c1 in a.coeffs:
        for (i2, j2), c2 in b.coeffs:
            i, j = i1 + i2, j1 + j2
            if i + j > a.order:
                continue
            if a.cross_zero and i >= 1 and j >= 1:
                continue
            data[(i, j)] = data.get((i, j), Fraction(0)) + c1 * c2
    return BiSeries.build(a.order, data, a.cross_zero)


def reference_inverse(a: BiSeries) -> BiSeries:
    """Coefficient by coefficient in Fractions: b_00 = 1/c0 and
    b_ij = -(1/c0) sum a_kl b_(i-k,j-l) over (k,l) != (0,0)."""
    c0 = a.coeff(0, 0)
    data = a.as_dict()
    b: dict[tuple[int, int], Fraction] = {(0, 0): 1 / c0}
    for t in range(1, a.order + 1):
        for i in range(t + 1):
            j = t - i
            if a.cross_zero and i >= 1 and j >= 1:
                continue
            s = Fraction(0)
            for (k, l), ak in data.items():
                if (k, l) != (0, 0) and k <= i and l <= j:
                    s += ak * b.get((i - k, j - l), 0)
            if s != 0:
                b[(i, j)] = -s / c0
    return BiSeries.build(a.order, b, a.cross_zero)


# Small fractions, and +-1/k! up to 1/47!, whose common denominators are
# the large ones the identity checks meet.
_ref_vals = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=7),
    st.builds(lambda k, sign: Fraction(sign, factorial(k)),
              st.integers(0, 47), st.sampled_from((1, -1))))
_constants = st.sampled_from(
    (Fraction(1), Fraction(3, 7), Fraction(-2), Fraction(1, factorial(47))))


@st.composite
def _ref_pair(draw, unit=False):
    """Two series of one random order and quotient flag; with unit the
    first has a nonzero constant term."""
    order = draw(st.integers(0, 9))
    cross_zero = draw(st.booleans())
    keys = st.tuples(st.integers(0, order), st.integers(0, order))
    a, b = (draw(st.dictionaries(keys, _ref_vals, max_size=8)) for _ in range(2))
    if unit:
        a[(0, 0)] = draw(_constants)
    return (BiSeries.build(order, a, cross_zero), BiSeries.build(order, b, cross_zero))


@given(_ref_pair())
def test_product_equals_reference(pair):
    a, b = pair
    assert a * b == reference_mul(a, b)


@given(_ref_pair(unit=True))
def test_inverse_equals_reference(pair):
    a, b = pair
    inv = a.inverse()
    assert inv == reference_inverse(a)
    assert a * inv == BiSeries.one(a.order, a.cross_zero)
    assert (a * b) * inv == b


def _assert_lowest_terms(s: BiSeries) -> None:
    """den > 0, sorted nonzero terms, content gcd 1; so den is the lcm of
    the reduced coefficients' denominators."""
    assert type(s.den) is int and s.den > 0
    keys = [key for key, _ in s.nums]
    assert keys == sorted(set(keys))
    assert all(type(n) is int and n != 0 for _, n in s.nums)
    assert gcd(s.den, *[n for _, n in s.nums]) == 1
    assert s.den == lcm(*(c.denominator for _, c in s.coeffs))
    assert all(type(c) is Fraction and c * s.den == n
               for (_, c), (_, n) in zip(s.coeffs, s.nums))


@settings(max_examples=40)
@given(_ref_pair(unit=True), _ref_vals)
def test_every_path_gives_lowest_terms(pair, q):
    a, b = pair
    for s in (a, b, a + b, a - b, a - a, a.scale(q), a.scale(0), a * b, a.inverse()):
        _assert_lowest_terms(s)


@pytest.mark.parametrize("order", [0, 1, 12, 46])
def test_node_correction_series_is_in_lowest_terms(order):
    theta = node_correction_series(order)
    _assert_lowest_terms(theta)
    assert theta.den == factorial(order + 1)


@settings(max_examples=40)
@given(_ref_pair(unit=True), _ref_vals)
def test_routes_to_one_series_are_equal_with_equal_hashes(pair, q):
    a, b = pair
    routes = [
        (a * b, BiSeries.build(a.order, reference_mul(a, b).as_dict(), a.cross_zero)),
        (a.inverse(), reference_inverse(a)),
        (a + b - b, a),
        (a.scale(q) * b, (a * b).scale(q)),
    ]
    for x, y in routes:
        assert x == y and hash(x) == hash(y)


def test_node_sheaf_product_equals_reference():
    a, b = structure_sheaf_pair_ch(24), todd_dual_inverse_pair(24)
    assert a * b == reference_mul(a, b)


def _pure(order: int, index: int, shift: int = 0) -> dict:
    """A dense series in one variable, from degree shift up."""
    return {((k, 0) if index == 1 else (0, k)): Fraction((-1) ** k * (k + 2), factorial(k + 1))
            for k in range(shift, order + 1)}


def _mixed(order: int) -> dict:
    return {(i, j): Fraction(i - 2 * j + 1, 1 + i * j) for i in range(order + 1)
            for j in range(order + 1 - i) if i - 2 * j + 1}


# (left, right) operand data of the packed-key product, each built under
# the case's quotient flag: a constant on either side, pure D1 times pure
# D2, a mixed series (whose mixed terms the quotient drops), and
# constant + D1 times D2 alone.
_PRODUCT_CASES = {
    "constant-left": lambda k: ({(0, 0): Fraction(-3, 7)}, _mixed(k)),
    "constant-right": lambda k: (_mixed(k), {(0, 0): Fraction(5, 2)}),
    "d1-times-d2": lambda k: (_pure(k, 1, 1), _pure(k, 2, 1)),
    "mixed": lambda k: (_mixed(k), _mixed(k)),
    "constant-d1-times-d2": lambda k: (_pure(k, 1), _pure(k, 2, 1)),
}


@pytest.mark.parametrize("case", sorted(_PRODUCT_CASES))
@pytest.mark.parametrize("cross_zero", [False, True])
@pytest.mark.parametrize("order", [0, 1, 5, 12])
def test_packed_product_equals_all_pairs_oracle(case, cross_zero, order):
    left, right = _PRODUCT_CASES[case](order)
    a = BiSeries.build(order, left, cross_zero)
    b = BiSeries.build(order, right, cross_zero)
    got = a * b
    assert got.as_dict() == series_product(order, a.as_dict(), b.as_dict(), cross_zero)
    assert [key for key, _ in got.coeffs] == sorted(got.as_dict())
    assert all(type(i) is int and type(j) is int for (i, j), _ in got.coeffs)


@pytest.mark.parametrize("order", [1, 5, 12])
def test_quotient_product_drops_mixed_operand_terms(order):
    """Mixed terms put into a quotient series directly (not through build)
    meet nothing: every product they take part in is mixed."""
    data = {**_pure(order, 1), **_pure(order, 2, 1), **_mixed(order)}
    den = lcm(*(c.denominator for c in data.values()))
    a = BiSeries(order, True, den, tuple(
        (key, c.numerator * (den // c.denominator)) for key, c in sorted(data.items())))
    assert a.as_dict() == data
    b = BiSeries.build(order, {**_pure(order, 2), **_pure(order, 1, 1)}, cross_zero=True)
    want = series_product(order, data, b.as_dict(), cross_zero=True)
    assert (a * b).as_dict() == want
    assert (b * a).as_dict() == want


@pytest.mark.parametrize("order", range(4, 13))
def test_node_check_left_side_is_the_sheaf_times_the_todd_factor(order):
    """The node check multiplies the sheaf character in as its univariate
    factors; that is the bivariate product it stands for."""
    lhs = _node_sheaf_times_todds(node_correction_series(order))
    assert lhs == structure_sheaf_pair_ch(order) * todd_dual_inverse_pair(order)


def test_unit_todd_inverse_equals_reference():
    u = BiSeries.build(24, {(k, 0): Fraction((-1) ** k, factorial(k + 1))
                            for k in range(25)})
    assert u.inverse() == reference_inverse(u)


def _todd_unit(order: int, index: int, fn) -> BiSeries:
    return BiSeries.build(order, {((k, 0) if index == 1 else (0, k)): fn(k)
                                  for k in range(order + 1)})


@pytest.mark.parametrize("index", [1, 2])
@pytest.mark.parametrize("fn", [lambda k: Fraction((-1) ** k, factorial(k + 1)),
                                lambda k: Fraction(1, factorial(k + 1))],
                         ids=["one-minus-exp-neg", "expm1"])
def test_order_46_todd_units_inverse_equals_reference(index, fn):
    """The univariate units that verify inverts at order 46, in each
    variable: (1 - e^(-t))/t under the node check and (e^t - 1)/t under
    the Bernoulli check."""
    u = _todd_unit(46, index, fn)
    assert u.inverse() == reference_inverse(u)


def test_marked_point_unit_inverse_equals_reference():
    """(e^U - 1)/U at U = D1 - D2 in the quotient ring, at order 46:
    U^k is D1^k + (-D2)^k there for k >= 1."""
    order = 46
    data = {(0, 0): Fraction(1)}
    for k in range(1, order + 1):
        data[(k, 0)] = Fraction(1, factorial(k + 1))
        data[(0, k)] = Fraction((-1) ** k, factorial(k + 1))
    u = BiSeries.build(order, data, cross_zero=True)
    assert u.inverse() == reference_inverse(u)
    assert u * u.inverse() == BiSeries.one(order, cross_zero=True)


def test_inverse_when_the_denominator_grows_after_degree_one():
    """The coefficients of degree <= 1 have denominators 2 and 4; degrees
    2 and 3 bring in 3 and 7, so the pending sums are scaled up twice."""
    u = BiSeries.build(8, {(0, 0): 2, (1, 0): 1, (0, 1): -4, (0, 2): Fraction(1, 3),
                           (2, 1): Fraction(5, 7), (1, 1): 6})
    inv = u.inverse()
    assert inv == reference_inverse(u)
    dens = {d: lcm(*(c.denominator for (i, j), c in inv.coeffs if i + j == d))
            for d in range(4)}
    assert lcm(dens[0], dens[1]) == 4
    assert dens[2] % 3 == 0 and dens[3] % 7 == 0


@given(st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                       st.fractions(min_value=-3, max_value=3, max_denominator=5), max_size=6),
       st.booleans())
def test_exp_of_minus_is_the_inverse(data, cross_zero):
    """exp(-s) is the inverse of exp(s); both exponentials come from the
    oracle, so only the inverse is the package's."""
    data.pop((0, 0), None)
    order = 6
    s = BiSeries.build(order, data, cross_zero)
    e = BiSeries.build(order, series_exp(order, s.as_dict(), cross_zero), cross_zero)
    minus = BiSeries.build(order, series_exp(order, s.scale(-1).as_dict(), cross_zero),
                           cross_zero)
    assert e.inverse() == minus


# ------------------------------------------------------------------ properties

_vals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
_keys = st.tuples(st.integers(0, 4), st.integers(0, 4))
_series = st.dictionaries(_keys, _vals, max_size=5).map(
    lambda d: BiSeries.build(6, d))
_units = _series.map(
    lambda s: BiSeries.build(6, {**s.as_dict(), (0, 0): Fraction(1)}))
_qseries = st.dictionaries(_keys, _vals, max_size=5).map(
    lambda d: BiSeries.build(6, d, cross_zero=True))


@given(_series, _series)
def test_series_multiplication_commutes(a, b):
    assert a * b == b * a


@given(_series, _series, _series)
def test_series_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(_series, _series, _series)
def test_series_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(_units)
def test_series_inverse_round_trip(u):
    assert u * u.inverse() == BiSeries.one(6)


@given(_qseries, _qseries)
def test_quotient_ring_stays_mixed_free(a, b):
    for s in (a + b, a * b, a - b):
        for (i, j), _ in s.coeffs:
            assert i == 0 or j == 0
