"""Bernoulli numbers, correction constants, and rational formatting."""

from __future__ import annotations

import sys
import threading
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from oracles import bernoulli_list, correction_table
from tautchern import rationals
from tautchern import (
    BiSeries,
    DomainError,
    ModuliSpec,
    TautExpr,
    bernoulli,
    canonical_class,
    ch_bundle,
    check_node_correction,
    check_todd_bernoulli,
    chern_classes,
    chern_exp_oracle,
    chern_from_ch,
    default_labels,
    delta_as_atoms,
    dualize,
    expand_concrete,
    expand_hodge,
    expr_from_json,
    format_rational,
    hodge_ch,
    kappa,
    kappa_coefficient,
    kappa_correction,
    kappa_correction_series_table,
    kappa_tilde_rewrite,
    marked_point_reference,
    partition_chern_coeff,
    partitions,
    power_sym,
    rank,
    render,
    render_json_dict,
    structure_sheaf_pair_ch,
    to_lambda_basis,
    todd_reciprocal,
)
from tautchern.biseries import one_minus_exp_neg
from tautchern.rationals import check_choice, check_int
from tautchern.render import expr_from_json_dict

PINNED_BERNOULLI = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    20: Fraction(-174611, 330),
}


@pytest.mark.parametrize("k,value", sorted(PINNED_BERNOULLI.items()))
def test_bernoulli_pinned_values(k, value):
    assert bernoulli(k) == value


def test_bernoulli_odd_vanish():
    for k in range(3, 31, 2):
        assert bernoulli(k) == 0


def test_bernoulli_matches_series_solve():
    oracle = bernoulli_list(30)
    for k in range(31):
        assert bernoulli(k) == oracle[k]


def test_bernoulli_rejects_negative_index():
    with pytest.raises(DomainError):
        bernoulli(-1)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@pytest.mark.parametrize("k", range(2, 41, 2))
def test_bernoulli_von_staudt_clausen(k):
    """B_k plus the sum of 1/p over primes p with (p-1) | k is an integer.

    A number-theoretic check that shares nothing with either the
    recurrence or any series manipulation.
    """
    total = bernoulli(k)
    for p in range(2, k + 2):
        if _is_prime(p) and k % (p - 1) == 0:
            total += Fraction(1, p)
    assert total.denominator == 1


def test_bernoulli_cache_is_thread_safe():
    results = []

    def worker():
        results.append(bernoulli(60))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    expected = bernoulli_list(60)[60]
    assert results == [expected] * 8


def test_bernoulli_cache_from_empty_under_fast_thread_switches(monkeypatch):
    """Eight threads fill an emptied cache while the interpreter switches
    threads every microsecond; every thread must read every value right."""
    monkeypatch.setattr(rationals, "_bern", {0: Fraction(1)})
    expected = bernoulli_list(70)
    results = []

    def worker():
        results.append([bernoulli(k) for k in range(70, -1, -7)])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[expected[k] for k in range(70, -1, -7)]] * 8
    assert rationals._bern == dict(enumerate(expected))


@pytest.mark.parametrize("m,value", [
    (3, Fraction(1, 12)),
    (4, Fraction(1, 24)),
    (5, Fraction(1, 80)),
    (6, Fraction(1, 360)),
])
def test_kappa_correction_pinned_values(m, value):
    assert kappa_correction(m) == value


def test_kappa_correction_closed_form():
    for m in range(3, 21):
        assert kappa_correction(m) == (Fraction(1, 2 * factorial(m - 1))
                                       - Fraction(1, factorial(m)))


def test_kappa_correction_matches_product_oracle():
    table = correction_table(20)
    for m in range(3, 21):
        assert kappa_correction(m) == table[m]


def test_kappa_correction_bare_exponential_differs():
    """The generating product must use e^t - 1; with the bare e^t the
    even-degree coefficients pick up a spurious B_m/m!."""
    bare = correction_table(12, with_constant_term=True)
    assert bare[4] == Fraction(29, 720)
    assert bare[4] != kappa_correction(4)
    for m in range(3, 13):
        extra = bernoulli(m) / factorial(m) if m % 2 == 0 else Fraction(0)
        assert bare[m] == kappa_correction(m) + extra


def test_kappa_correction_domain():
    for m in (2, 1, 0, -3):
        with pytest.raises(DomainError):
            kappa_correction(m)


def test_format_rational_pinned():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-2)) == "-2"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(-691, 2730)) == "-691/2730"


@given(st.fractions(min_value=-1000, max_value=1000, max_denominator=997))
def test_format_rational_round_trips(q):
    assert Fraction(format_rational(q)) == q


# ------------------------------------------------------ integer arguments

def test_check_int():
    assert check_int(3, 3, "m") == 3
    with pytest.raises(DomainError, match=r"^m must be an int >= 3, got 2$"):
        check_int(2, 3, "m")
    for value in (True, 3.0, "3", None):
        with pytest.raises(DomainError):
            check_int(value, 0, "m")


def test_check_choice():
    assert check_choice(1, (-1, 1), "sign") == 1
    with pytest.raises(DomainError, match=r"^sign must be one of \(-1, 1\), got 2$"):
        check_choice(2, (-1, 1), "sign")
    for value in (True, 1.0, "1", ["x"]):
        with pytest.raises(DomainError):
            check_choice(value, (-1, 1), "sign")
    for value in (1, "no", None):
        with pytest.raises(DomainError):
            check_choice(value, (False, True), "flag")


_SPEC = ModuliSpec(2, default_labels(1))
_CH = {1: TautExpr.of(_SPEC, 2, kappa(1)), 2: TautExpr.of(_SPEC, 2, kappa(2))}

# (name, call on the integer argument, a float that passes the bound, the bound)
_INT_ARGUMENTS = [
    ("bernoulli", bernoulli, 2.0, 0),
    ("kappa_correction", kappa_correction, 3.0, 3),
    ("partitions", lambda j: list(partitions(j)), 2.0, 1),
    ("power_sym", power_sym, 2.0, 0),
    ("kappa_coefficient", kappa_coefficient, 2.0, 1),
    ("todd_reciprocal", todd_reciprocal, 2.0, 0),
    ("one_minus_exp_neg", lambda k: one_minus_exp_neg(k, 1), 2.0, 0),
    ("marked_point_reference", lambda k: marked_point_reference(k, 1), 4.0, 0),
    ("check_todd_bernoulli", check_todd_bernoulli, 2.5, 2),
    ("structure_sheaf_pair_ch", structure_sheaf_pair_ch, 3.5, 2),
    ("kappa_correction_series_table", kappa_correction_series_table, 20.5, 3),
    ("chern_from_ch", lambda j: chern_from_ch(_CH, j), 2.0, 0),
    ("chern_exp_oracle", lambda j: chern_exp_oracle(_CH, j), 2.0, 0),
]


@pytest.mark.parametrize("call,value", [
    pytest.param(call, value, id=f"{name}({value!r})")
    for name, call, real, low in _INT_ARGUMENTS
    for value in [real, "x"] + ([low - 1] if low > 0 else [])
] + [
    pytest.param(lambda ch: chern_from_ch(ch, 2), {1: 5, 2: 6},
                 id="chern_from_ch(non-TautExpr)"),
    pytest.param(lambda ch: chern_exp_oracle(ch, 2), {1: 5, 2: 6},
                 id="chern_exp_oracle(non-TautExpr)"),
    *[pytest.param(lambda items: TautExpr.build(_SPEC, 1, items), items, id=f"build({name})")
      for name, items in [("non-Gen", [(("kappa",), 1)]), ("one-element item", [(kappa(1),)]),
                          ("non-pair item", [5]), ("non-iterable monomial", [(kappa(1), 1)])]],
    pytest.param(lambda fmt: render(_CH[1], fmt), ["text"], id="render(unhashable format)"),
    pytest.param(lambda data: BiSeries.build(3, data), [(0, 0)], id="BiSeries.build(non-mapping)"),
    pytest.param(lambda x: _CH[1] + x, 5, id="TautExpr + int"),
    pytest.param(lambda x: _CH[1] - x, 5, id="TautExpr - int"),
    pytest.param(lambda x: _CH[1] * x, 5, id="TautExpr * int"),
    pytest.param(lambda x: _CH[1].coefficient(x), "x", id="coefficient(non-Gen)"),
    *[pytest.param(call, 5, id=f"{call.__name__}(non-TautExpr)")
      for call in (render, render_json_dict, dualize, expand_hodge, kappa_tilde_rewrite,
                   to_lambda_basis, expand_concrete)],
    pytest.param(lambda spec: TautExpr.build(spec, 1, [((kappa(1),), 1)]), "x",
                 id="build(non-ModuliSpec)"),
    *[pytest.param(lambda spec, call=call: call(spec, 1), "x",
                   id=f"{call.__name__}(non-ModuliSpec)")
      for call in (ch_bundle, chern_classes, hodge_ch, canonical_class, delta_as_atoms)],
    pytest.param(lambda items: TautExpr.build(_SPEC, 1, items), 5, id="build(non-iterable items)"),
    pytest.param(expr_from_json, 5, id="expr_from_json(non-string)"),
    pytest.param(lambda gens: TautExpr.of(_SPEC, 1, gens), 5, id="of(non-iterable generators)"),
    pytest.param(lambda gens: _CH[1].coefficient(gens), 5,
                 id="coefficient(non-iterable generators)"),
    pytest.param(rank, "x", id="rank(non-ModuliSpec)"),
    pytest.param(lambda x: BiSeries.one(3) + x, 5, id="BiSeries + int"),
    pytest.param(lambda x: BiSeries.one(3) - x, 5, id="BiSeries - int"),
    pytest.param(lambda x: BiSeries.one(3) * x, 5, id="BiSeries * int"),
    pytest.param(partition_chern_coeff, 5, id="partition_chern_coeff(non-iterable)"),
    pytest.param(format_rational, 0.5, id="format_rational(float)"),
    *[pytest.param(default_labels, n, id=f"default_labels({n!r})") for n in ("x", -2, True)],
    pytest.param(_CH[1].map_generators, 5, id="map_generators(non-callable)"),
])
def test_bad_arguments_are_domain_errors(call, value):
    """A float, a string or a value below the bound is refused as a
    DomainError, not as a TypeError from deeper inside."""
    with pytest.raises(DomainError):
        call(value)


# ------------------------------------------- flag and choice arguments

def _json_with_mode(mode):
    doc = render_json_dict(_CH[1])
    doc["mode"] = mode
    return expr_from_json_dict(doc)


# (name, call on the flag)
_FLAGS = [
    ("ModuliSpec.concrete", lambda f: ModuliSpec(2, default_labels(1), concrete=f)),
    ("BiSeries.build", lambda f: BiSeries.build(4, {(1, 1): 1}, cross_zero=f)),
    ("BiSeries.zero", lambda f: BiSeries.zero(4, cross_zero=f)),
    ("BiSeries.one", lambda f: BiSeries.one(4, cross_zero=f)),
    ("BiSeries.variable", lambda f: BiSeries.variable(4, 1, cross_zero=f)),
    ("check_node_correction", lambda f: check_node_correction(4, inject_fault=f)),
]

# (name, call on the choice, a wrong value of the right type, whether True is a test)
_CHOICES = [
    ("rank bundle", lambda b: rank(_SPEC, b), "lambda", False),
    ("ch_bundle bundle", lambda b: ch_bundle(_SPEC, 1, b), "hodge", False),
    ("ch_bundle basis", lambda b: ch_bundle(_SPEC, 1, basis=b), "tangent", False),
    ("BiSeries.variable index", lambda i: BiSeries.variable(4, i), 3, True),
    ("one_minus_exp_neg index", lambda i: one_minus_exp_neg(4, i), 3, True),
    ("marked_point_reference", lambda s: marked_point_reference(4, s), 0, True),
    ("render", lambda fmt: render(_CH[1], fmt), "html", False),
    ("JSON mode", _json_with_mode, "weird", False),
]


@pytest.mark.parametrize("call,value", [
    pytest.param(call, value, id=f"{name}({value!r})")
    for name, call in _FLAGS for value in ("no", 1, 0, None)
] + [
    pytest.param(call, value, id=f"{name}({value!r})")
    for name, call, wrong, numeric in _CHOICES
    for value in [wrong, ["x"]] + ([True] if numeric else [])
])
def test_flags_and_choices_refuse_other_values(call, value):
    """A flag takes only False or True, and a choice only one of its
    values with that value's type: a truthy string, an int for a bool, a
    bool for an int and an unhashable list are all DomainErrors."""
    with pytest.raises(DomainError):
        call(value)
