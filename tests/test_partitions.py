"""Partition enumeration and two-variable symmetric polynomial data."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from oracles import eval_sym, partition_count, power_sym_by_enumeration
from tautchern import (
    DomainError,
    alternating_sym,
    partition_chern_coeff,
    partitions,
    power_sym,
)


def test_partitions_of_four_golden():
    assert list(partitions(4)) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_small():
    assert list(partitions(1)) == [(1,)]
    assert list(partitions(2)) == [(2,), (1, 1)]
    assert len(list(partitions(5))) == 7


def test_partitions_counts_match_dp():
    for j in range(1, 13):
        assert len(list(partitions(j))) == partition_count(j)


def test_partitions_reverse_lex_order():
    for j in range(1, 11):
        got = list(partitions(j))
        assert got == sorted(got, reverse=True)


def test_partitions_rejects_nonpositive():
    for j in (0, -1, -7):
        with pytest.raises(DomainError):
            list(partitions(j))


@pytest.mark.parametrize("j", [2.0, True, "3", 0, None])
def test_partitions_refuses_at_the_call(j):
    """The argument is checked when partitions is called, before anything
    iterates the result."""
    with pytest.raises(DomainError):
        partitions(j)


@given(st.integers(min_value=1, max_value=12))
def test_partitions_parts_are_valid(j):
    for mu in partitions(j):
        assert sum(mu) == j
        assert all(p >= 1 for p in mu)
        assert list(mu) == sorted(mu, reverse=True)


@pytest.mark.parametrize("mu,value", [
    ((), Fraction(1)),
    ((1,), Fraction(1)),
    ((2,), Fraction(-1)),
    ((1, 1), Fraction(1, 2)),
    ((3,), Fraction(2)),
    ((2, 1), Fraction(-1)),
    ((1, 1, 1), Fraction(1, 6)),
    ((4,), Fraction(-6)),
    ((2, 2), Fraction(1, 2)),
])
def test_partition_chern_coeff_pinned(mu, value):
    """The partition coefficients encode c_2 = ch_1^2/2 - ch_2 and
    c_3 = ch_1^3/6 - ch_1 ch_2 + 2 ch_3."""
    assert partition_chern_coeff(mu) == value


def _product_formula_coeff(mu: tuple[int, ...]) -> Fraction:
    """(-1)^(n - len(mu)) * prod_r ((r-1)!)^(m_r) / m_r!, one Fraction
    factor per distinct part."""
    coeff = Fraction((-1) ** (sum(mu) - len(mu)))
    for r in set(mu):
        m_r = mu.count(r)
        coeff *= Fraction(factorial(r - 1) ** m_r, factorial(m_r))
    return coeff


def test_partition_chern_coeff_equals_product_formula():
    """Every partition of j <= 10, against the formula multiplied out in
    Fractions."""
    for j in range(1, 11):
        for mu in partitions(j):
            assert partition_chern_coeff(mu) == _product_formula_coeff(mu), mu


def test_partition_chern_coeff_rejects_bad_parts():
    with pytest.raises(DomainError):
        partition_chern_coeff((0,))
    with pytest.raises(DomainError):
        partition_chern_coeff((2, -1))


def test_power_sym_pinned():
    assert power_sym(0) == {(0, 0): 1}
    assert power_sym(1) == {(1, 0): 1}
    assert power_sym(2) == {(2, 0): 1, (1, 1): 2}
    assert power_sym(3) == {(3, 0): 1, (2, 1): 3}
    assert power_sym(4) == {(4, 0): 1, (3, 1): 4, (2, 2): 6}


def test_power_sym_matches_enumeration():
    for k in range(9):
        assert power_sym(k) == power_sym_by_enumeration(k)


def test_power_sym_rejects_negative():
    with pytest.raises(DomainError):
        power_sym(-1)


@given(st.integers(min_value=0, max_value=10))
def test_power_sym_at_ones(k):
    assert eval_sym(power_sym(k), 1, 1) == 2 ** k


@given(st.integers(min_value=0, max_value=8),
       st.integers(min_value=-6, max_value=6),
       st.integers(min_value=-6, max_value=6))
def test_power_sym_is_the_binomial_power(k, x, y):
    assert eval_sym(power_sym(k), x, y) == Fraction(x + y) ** k


def test_alternating_sym_pinned():
    assert alternating_sym(0) == {(0, 0): 1}
    assert alternating_sym(2) == {(2, 0): 1, (1, 1): -1}
    assert alternating_sym(4) == {(4, 0): 1, (3, 1): -1, (2, 2): 1}


def test_alternating_sym_rejects_odd_and_negative():
    for k in (1, 3, 5, -2):
        with pytest.raises(DomainError):
            alternating_sym(k)


@given(st.integers(min_value=0, max_value=6).map(lambda h: 2 * h))
def test_alternating_sym_at_ones(k):
    assert eval_sym(alternating_sym(k), 1, 1) == 1


@given(st.integers(min_value=0, max_value=5).map(lambda h: 2 * h),
       st.integers(min_value=-5, max_value=5),
       st.integers(min_value=-5, max_value=5))
def test_alternating_sym_telescopes(k, x, y):
    """(x + y) times the alternating sum is x^(k+1) + y^(k+1)."""
    lhs = Fraction(x + y) * eval_sym(alternating_sym(k), x, y)
    assert lhs == Fraction(x) ** (k + 1) + Fraction(y) ** (k + 1)
