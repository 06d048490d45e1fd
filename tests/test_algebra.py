"""Generators, moduli specifications, splittings, and the graded algebra."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import FIVE_SPECS, boundary_class_count
from tautchern import (
    DomainError,
    Gen,
    ModuliSpec,
    TautExpr,
    default_labels,
    delta_as_atoms,
    delta_class,
    expand_concrete,
    hodge_component,
    irr_push,
    kappa,
    kappa_tilde,
    marked_psi,
    monomial,
    monomial_degree,
    psi_power_sum,
    sep_push_sum,
)

SPEC21 = ModuliSpec(2, default_labels(1))
ORDER = 5


# ---------------------------------------------------------------- generators

def test_generator_degrees():
    assert kappa(3).degree == 3
    assert kappa_tilde(2).degree == 2
    assert psi_power_sum(2).degree == 2
    assert marked_psi("p1").degree == 1
    assert hodge_component(3).degree == 3
    assert delta_class().degree == 1
    assert irr_push(2, 1).degree == 4
    assert sep_push_sum(0, 0).degree == 1
    spec = ModuliSpec(3, default_labels(2), concrete=True)
    assert spec.sep_push(1, ("p2",), 1, 2).degree == 4


def test_generator_factories_validate():
    for bad in (kappa, kappa_tilde, psi_power_sum):
        with pytest.raises(DomainError):
            bad(0)
    with pytest.raises(DomainError):
        hodge_component(2)
    with pytest.raises(DomainError):
        hodge_component(-1)
    with pytest.raises(DomainError):
        irr_push(-1, 0)
    with pytest.raises(DomainError):
        sep_push_sum(0, -2)


def test_pushforward_keys_are_sorted():
    assert irr_push(0, 2).args == (2, 0)
    assert sep_push_sum(1, 3).args == (3, 1)


def test_monomial_sorts_and_grades():
    mono = monomial(delta_class(), kappa(1), hodge_component(1))
    assert mono == (kappa(1), hodge_component(1), delta_class())
    assert monomial_degree(mono) == 3


# ------------------------------------------------------- moduli specification

@pytest.mark.parametrize("g,n", [(0, 0), (0, 1), (0, 2), (1, 0)])
def test_unstable_specs_rejected(g, n):
    with pytest.raises(DomainError, match=r"n > 2 - 2\*g"):
        ModuliSpec(g, default_labels(n))


def test_spec_validates_genus_and_labels():
    with pytest.raises(DomainError):
        ModuliSpec(-1, default_labels(4))
    with pytest.raises(DomainError):
        ModuliSpec(2, ("p1", "p1"))
    # Labels print inside "{...}" and are joined by ","; these would make
    # a rendered atom ambiguous.
    for bad in ("", "a,b", "b}", "{a", "a b", "a\tb", 1, None):
        with pytest.raises(DomainError, match="marking label"):
            ModuliSpec(2, ("p1", bad))
    # A string is not a label list, and the genus must be an int.
    for genus, labels in ((1, "p1"), (1.5, ("p1",)), ("1", ("p1",)), (True, ("p1",))):
        with pytest.raises(DomainError):
            ModuliSpec(genus, labels)


@pytest.mark.parametrize("g,n,dim", [
    (0, 4, 1), (1, 1, 1), (2, 0, 3), (2, 1, 4), (3, 2, 8)])
def test_dimension(g, n, dim):
    spec = ModuliSpec(g, default_labels(n))
    assert spec.n == n
    assert spec.dimension == dim


def test_splitting_stability_genus_two():
    spec = ModuliSpec(2, ())
    assert spec.splitting_is_stable(1, ())
    assert not spec.splitting_is_stable(0, ())
    assert not spec.splitting_is_stable(2, ())
    assert not spec.splitting_is_stable(3, ())


def test_ordered_splittings_genus_three_two_markings():
    spec = ModuliSpec(3, default_labels(2))
    ordered = spec.ordered_splittings()
    assert len(ordered) == 10
    assert (0, ("p1", "p2")) in ordered
    assert (3, ()) in ordered
    assert (0, ("p1",)) not in ordered


def test_mirror_and_canonical_splitting():
    spec = ModuliSpec(3, default_labels(2))
    assert spec.mirror_splitting(0, ("p1", "p2")) == (3, ())
    assert spec.canonical_splitting(3, ()) == (0, ("p1", "p2"))
    assert spec.canonical_splitting(2, ("p1",)) == (1, ("p2",))
    assert spec.canonical_splitting(1, ("p2",)) == (1, ("p2",))


SPEC32C = ModuliSpec(3, default_labels(2), concrete=True)
SPEC21C = ModuliSpec(2, default_labels(1), concrete=True)


@pytest.mark.parametrize("spec,kind,args", [
    (SPEC32C, "sep_push", (2, ("p1",), 0, 0)),
    (SPEC21C, "sep_push", (0, (), 0, 0)),
    (SPEC32C, "sep_push", (1, ("zz",), 0, 0)),
    (SPEC32C, "sep_push", (1, ("p1", "p1"), 0, 0)),
    (SPEC32C, "sep_push", (1, ["p2"], 0, 0)),
    (SPEC32C, "sep_push", (1, ("p2",), 0, 1)),
    (SPEC32C, "irr_push", (0, 2)),
    (SPEC32C, "kappa", (0,)),
    (SPEC32C, "kappa", (-3,)),
    (SPEC32C, "hodge_ch", (2,)),
    (SPEC32C, "bogus", (1,)),
    (SPEC32C, "kappa", ("x",)),
    (SPEC32C, "kappa", (True,)),
    (SPEC32C, "delta", (1,)),
    (SPEC32C, "sep_push", (1, (2,), 0, 0)),
], ids=["non-canonical-side", "unstable-side", "unknown-label",
        "repeated-label", "list-labels", "unsorted-sep-key", "unsorted-irr-key",
        "kappa-zero", "kappa-negative", "even-hodge-ch", "unknown-kind",
        "str-index", "bool-index", "delta-with-args", "non-str-sep-label"])
def test_hand_built_generators_raise_through_build(spec, kind, args):
    """Generators made without the factories are checked where they enter:
    on their own when they are made, against the spec in build."""
    with pytest.raises(DomainError):
        TautExpr.build(spec, 2, [((Gen(kind, args),), 1)])


def test_canonical_splitting_of_an_unstable_side():
    assert SPEC32C.canonical_splitting(0, ("p1",)) == (0, ("p1",))
    assert not SPEC32C.splitting_is_stable(0, ("p1",))


@pytest.mark.parametrize("g,n", FIVE_SPECS)
def test_mirror_is_an_involution(g, n):
    spec = ModuliSpec(g, default_labels(n))
    for h, lab in spec.ordered_splittings():
        assert spec.mirror_splitting(*spec.mirror_splitting(h, lab)) == (h, lab)
        rep = spec.canonical_splitting(h, lab)
        assert spec.canonical_splitting(*rep) == rep
        assert spec.canonical_splitting(*spec.mirror_splitting(h, lab)) == rep


@pytest.mark.parametrize("g,n", FIVE_SPECS)
def test_splitting_class_multiplicities(g, n):
    spec = ModuliSpec(g, default_labels(n))
    classes = spec.splitting_classes()
    assert sum(mult for _, _, mult in classes) == len(spec.ordered_splittings())
    for h, lab, mult in classes:
        self_mirror = spec.mirror_splitting(h, lab) == (h, lab)
        assert mult == (1 if self_mirror else 2)


@pytest.mark.parametrize("g,n,count", [
    (0, 5, 10), (0, 6, 25), (1, 1, 1), (2, 0, 2), (2, 1, 2), (3, 2, 6)])
def test_boundary_counts_pinned(g, n, count):
    assert ModuliSpec(g, default_labels(n)).boundary_count() == count


@pytest.mark.parametrize("g", range(4))
@pytest.mark.parametrize("n", range(7))
def test_boundary_counts_match_brute_force(g, n):
    if n <= 2 - 2 * g:
        return
    spec = ModuliSpec(g, default_labels(n))
    assert spec.boundary_count() == boundary_class_count(g, n)


def test_boundary_divisor_list_shape():
    divisors = ModuliSpec(2, default_labels(1)).boundary_divisors()
    assert divisors[0] == ("irr",)
    assert divisors[1] == ("sep", 1, ())
    assert ModuliSpec(0, default_labels(4)).boundary_divisors()[0][0] == "sep"


def test_sep_push_canonicalizes():
    spec = ModuliSpec(3, default_labels(2), concrete=True)
    atom = spec.sep_push(2, ("p1",), 0, 1)
    assert atom == spec.sep_push(1, ("p2",), 1, 0)
    assert atom.args == (1, ("p2",), 1, 0)


def test_sep_push_validates():
    spec = ModuliSpec(2, default_labels(1), concrete=True)
    with pytest.raises(DomainError):
        spec.sep_push(0, (), 0, 0)
    with pytest.raises(DomainError):
        spec.sep_push(1, ("nope",), 0, 0)
    with pytest.raises(DomainError):
        spec.sep_push(1, (), -1, 0)


# ------------------------------------------------------------- canonical form

def test_build_merges_and_drops():
    e = TautExpr.build(SPEC21, 2, [
        ((kappa(1),), Fraction(1, 2)),
        ((kappa(1),), Fraction(1, 2)),
        ((kappa(2),), Fraction(0)),
        ((kappa(3),), Fraction(7)),
    ])
    assert e.coefficient(kappa(1)) == 1
    assert e.coefficient(kappa(2)) == 0
    assert e.coefficient(kappa(3)) == 0
    assert e.degrees() == [1]


def test_build_rejects_negative_order():
    with pytest.raises(DomainError):
        TautExpr.build(SPEC21, -1, [])
    # The order must be an int, and a coefficient an int or a Fraction.
    for order in ("3", 2.0, True):
        with pytest.raises(DomainError):
            TautExpr.build(SPEC21, order, [])
    for coeff in (0.1, "1", None):
        with pytest.raises(DomainError):
            TautExpr.build(SPEC21, 2, [((kappa(1),), coeff)])


def test_build_drops_vanishing_monomials():
    no_marks = ModuliSpec(2, ())
    assert TautExpr.of(no_marks, 2, psi_power_sum(1)).is_zero()
    genus_zero = ModuliSpec(0, default_labels(4))
    assert TautExpr.of(genus_zero, 2, irr_push(0, 0)).is_zero()
    assert not TautExpr.of(no_marks, 2, irr_push(0, 0)).is_zero()


def test_concrete_mode_caps_at_dimension():
    spec = ModuliSpec(0, default_labels(4), concrete=True)
    e = TautExpr.build(spec, 3, [
        ((kappa(1),), Fraction(1)),
        ((kappa(2),), Fraction(1)),
    ])
    assert e.degrees() == [1]
    generic = ModuliSpec(0, default_labels(4))
    assert TautExpr.of(generic, 3, kappa(2)).degrees() == [2]


def test_mode_validation_of_named_generators():
    with pytest.raises(DomainError):
        TautExpr.of(SPEC21, 2, marked_psi("p1"))
    concrete = ModuliSpec(2, default_labels(1), concrete=True)
    assert TautExpr.of(concrete, 2, marked_psi("p1")).degrees() == [1]
    with pytest.raises(DomainError):
        TautExpr.of(concrete, 2, marked_psi("zz"))
    atom = concrete.sep_push(1, (), 0, 0)
    with pytest.raises(DomainError):
        TautExpr.of(SPEC21, 2, atom)


# ----------------------------------------------------------------- arithmetic

def test_product_with_unit():
    lam = TautExpr.of(SPEC21, 2, hodge_component(1))
    assert lam * TautExpr.one(SPEC21, 2) == lam


def test_product_of_scaled_generators():
    a = TautExpr.of(SPEC21, 2, hodge_component(1), Fraction(3))
    b = TautExpr.of(SPEC21, 2, delta_class(), Fraction(-5))
    prod = a * b
    assert prod.coefficient((hodge_component(1), delta_class())) == -15
    assert len(prod.terms) == 1


def test_square_of_degree_one_class():
    spec = ModuliSpec(2, default_labels(1))
    e = (TautExpr.of(spec, 2, hodge_component(1), -13)
         + TautExpr.of(spec, 2, psi_power_sum(1), -1)
         + TautExpr.of(spec, 2, delta_class(), 2))
    sq = e * e
    lam, psi, delta = hodge_component(1), psi_power_sum(1), delta_class()
    assert sq.coefficient((lam, lam)) == 169
    assert sq.coefficient((lam, psi)) == 26
    assert sq.coefficient((lam, delta)) == -52
    assert sq.coefficient((psi, psi)) == 1
    assert sq.coefficient((psi, delta)) == -4
    assert sq.coefficient((delta, delta)) == 4


def test_sum_of_kappa_two_pieces():
    parts = [Fraction(1, 6), Fraction(1, 4), Fraction(-1, 12)]
    total = TautExpr.zero(SPEC21, 2)
    for c in parts:
        total = total + TautExpr.of(SPEC21, 2, kappa(2), c)
    assert total.coefficient(kappa(2)) == Fraction(1, 3)


def test_mismatched_operands_rejected():
    other = ModuliSpec(3, default_labels(2))
    with pytest.raises(DomainError):
        TautExpr.one(SPEC21, 2) + TautExpr.one(other, 2)
    with pytest.raises(DomainError):
        TautExpr.one(SPEC21, 2) * TautExpr.one(SPEC21, 3)


def test_power_and_truncation():
    lam = TautExpr.of(SPEC21, 3, hodge_component(1))
    assert lam ** 0 == TautExpr.one(SPEC21, 3)
    assert (lam ** 4).is_zero()
    with pytest.raises(DomainError):
        lam ** -1
    delta = TautExpr.of(SPEC21, 2, delta_class())
    assert (delta * delta * delta).is_zero()


def test_component_and_degrees():
    e = (TautExpr.of(SPEC21, 3, kappa(1))
         + TautExpr.of(SPEC21, 3, kappa(2), Fraction(1, 3))
         + TautExpr.of(SPEC21, 3, kappa(3), Fraction(1, 12)))
    assert e.degrees() == [1, 2, 3]
    assert e.component(2) == TautExpr.of(SPEC21, 3, kappa(2), Fraction(1, 3))
    assert e.component(4).is_zero()


# ---------------------------------------------------------------- substitution

def test_substitute_degree_one_relation_round_trips():
    lam = TautExpr.of(SPEC21, 3, hodge_component(1))
    psi = TautExpr.of(SPEC21, 3, psi_power_sum(1))
    delta = TautExpr.of(SPEC21, 3, delta_class())
    k1 = TautExpr.of(SPEC21, 3, kappa(1))
    forward = {kappa(1): lam.scale(12) + psi - delta}
    backward = {hodge_component(1): (k1 - psi + delta).scale(Fraction(1, 12))}
    start = k1 * k1 + k1.scale(5)
    assert start.substitute(forward).substitute(backward) == start


def test_substitute_requires_homogeneous_rule():
    with pytest.raises(DomainError):
        TautExpr.of(SPEC21, 3, kappa(1)).substitute(
            {kappa(1): TautExpr.of(SPEC21, 3, kappa(2))})


def test_substitute_empty_rules_is_identity():
    e = TautExpr.of(SPEC21, 3, kappa(1)) * TautExpr.of(SPEC21, 3, delta_class())
    assert e.substitute({}) == e


def test_expr_equal_is_canonical_comparison():
    a = (TautExpr.of(SPEC21, 2, kappa(1))
         + TautExpr.of(SPEC21, 2, delta_class()))
    b = (TautExpr.of(SPEC21, 2, delta_class())
         + TautExpr.of(SPEC21, 2, kappa(1)))
    assert a == b
    assert a != a.scale(2)


# ---------------------------------------------------------- concrete expansion

def test_delta_atoms_one_marked_elliptic():
    spec = ModuliSpec(1, default_labels(1), concrete=True)
    e = delta_as_atoms(spec, 1)
    assert e.terms == (((irr_push(0, 0),), Fraction(1, 2)),)


def test_delta_atoms_genus_zero_four_markings():
    spec = ModuliSpec(0, default_labels(4), concrete=True)
    e = delta_as_atoms(spec, 1)
    assert len(e.terms) == 3
    for (mono, coeff) in e.terms:
        assert coeff == 1
        assert mono[0].kind == "sep_push"
    assert e.coefficient(spec.sep_push(0, ("p1", "p2"), 0, 0)) == 1


def test_delta_atoms_self_mirror_halves():
    spec = ModuliSpec(2, (), concrete=True)
    e = delta_as_atoms(spec, 1)
    assert e.coefficient(irr_push(0, 0)) == Fraction(1, 2)
    assert e.coefficient(spec.sep_push(1, (), 0, 0)) == Fraction(1, 2)
    marked = ModuliSpec(2, default_labels(1), concrete=True)
    assert delta_as_atoms(marked, 1).coefficient(
        marked.sep_push(1, (), 0, 0)) == 1


def test_delta_atoms_requires_concrete_mode():
    with pytest.raises(DomainError):
        delta_as_atoms(SPEC21, 1)


def test_expand_concrete_psi_sums():
    e = expand_concrete(TautExpr.of(ModuliSpec(0, default_labels(4)), 1,
                                    psi_power_sum(1)))
    assert len(e.terms) == 4
    assert e.coefficient(marked_psi("p3")) == 1

    e2 = expand_concrete(TautExpr.of(SPEC21, 2, psi_power_sum(2)))
    assert e2.coefficient((marked_psi("p1"), marked_psi("p1"))) == 1
    assert len(e2.terms) == 1


def test_expand_concrete_delta_and_aggregate_sep():
    spec = ModuliSpec(3, default_labels(2))
    cspec = ModuliSpec(3, default_labels(2), concrete=True)
    e = expand_concrete(TautExpr.of(spec, 1, delta_class()))
    assert e == delta_as_atoms(cspec, 1)
    agg = expand_concrete(TautExpr.of(spec, 2, sep_push_sum(1, 0)))
    assert len(agg.terms) == 5
    for _, coeff in agg.terms:
        assert coeff == 2


def test_expand_concrete_applies_dimension_cap():
    spec = ModuliSpec(0, default_labels(4))
    e = TautExpr.of(spec, 2, kappa(1)) * TautExpr.of(spec, 2, delta_class())
    assert not e.is_zero()
    assert expand_concrete(e).is_zero()


# ------------------------------------------------------------------ properties

_gens = st.one_of(
    st.integers(1, 3).map(kappa),
    st.integers(1, 3).map(kappa_tilde),
    st.integers(1, 2).map(psi_power_sum),
    st.sampled_from((1, 3)).map(hodge_component),
    st.just(delta_class()),
    st.tuples(st.integers(0, 2), st.integers(0, 2)).map(lambda ab: irr_push(*ab)),
    st.tuples(st.integers(0, 1), st.integers(0, 1)).map(lambda ab: sep_push_sum(*ab)),
)

_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=4)

_exprs = st.lists(
    st.tuples(st.lists(_gens, min_size=0, max_size=2), _coeffs),
    max_size=4,
).map(lambda items: TautExpr.build(
    SPEC21, ORDER, [(tuple(m), c) for m, c in items]))


@given(_exprs)
def test_build_is_idempotent(e):
    assert TautExpr.build(SPEC21, ORDER, e.terms) == e


@given(_exprs, _exprs)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(_exprs, _exprs, _exprs)
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(_exprs, _exprs)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(_exprs, _exprs, _exprs)
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(_exprs, _exprs, _exprs)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(_exprs)
def test_subtraction_cancels(e):
    assert (e - e).is_zero()
    assert e.scale(-1) == -e


@given(_exprs)
def test_grading_splits_into_components(e):
    total = TautExpr.zero(SPEC21, ORDER)
    for d in range(ORDER + 1):
        total = total + e.component(d)
    assert total == e


@given(_exprs, _exprs)
def test_expand_concrete_is_a_ring_map(a, b):
    assert expand_concrete(a + b) == expand_concrete(a) + expand_concrete(b)
    assert expand_concrete(a * b) == expand_concrete(a) * expand_concrete(b)
