"""Generators, moduli specifications, splittings, and the graded algebra."""

from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from oracles import FIVE_SPECS, boundary_class_count
from tautchern import algebra
from tautchern.partitions import partition_chern_coeff, partitions
from tautchern import (
    DomainError,
    Gen,
    ModuliSpec,
    TautExpr,
    ch_bundle,
    ch_cotangent,
    chern_classes,
    chern_exp_oracle,
    default_labels,
    delta_as_atoms,
    delta_class,
    expand_concrete,
    expr_from_json,
    expand_hodge,
    hodge_ch,
    hodge_component,
    irr_push,
    kappa,
    kappa_tilde,
    marked_psi,
    monomial,
    monomial_degree,
    psi_power_sum,
    render_json_dict,
    sep_push_sum,
    to_lambda_basis,
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
    # Argument types are checked before the key is sorted.
    for bad in (lambda: irr_push("x", 0), lambda: sep_push_sum(0, "y"),
                lambda: SPEC32C.sep_push("1", ("p1",), 0, 0)):
        with pytest.raises(DomainError):
            bad()


def test_generator_hash_is_stored_and_unchanged():
    g = SPEC32C.sep_push(1, ("p1",), 1, 0)
    assert hash(g) == hash((g.kind, g.args))
    assert hash(kappa(2)) == hash(Gen("kappa", (2,))) == hash(("kappa", (2,)))


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
    with pytest.raises(DomainError, match="concrete"):
        ModuliSpec(1, ("p1",), concrete="no")


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


SPEC12C = ModuliSpec(1, ("p1", "p2"), concrete=True)


@pytest.mark.parametrize("call", [
    lambda: SPEC12C.splitting_is_stable("1", ("p1",)),
    lambda: SPEC12C.canonical_splitting("1", ("p1",)),
    lambda: SPEC12C.mirror_splitting("1", ("p1",)),
    lambda: SPEC12C.sep_push(1, 5, 0, 0),
    lambda: SPEC12C.splitting_is_stable(0, 5),
], ids=["stable-str-h", "canonical-str-h", "mirror-str-h",
        "sep-push-int-labels", "stable-int-labels"])
def test_splitting_methods_reject_wrong_argument_types(call):
    """A str genus or a label set that is not iterable is a domain error,
    not a TypeError from the comparison or the iteration."""
    with pytest.raises(DomainError):
        call()


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


def test_raw_sep_input_is_checked_without_the_splitting_table():
    """sep_push, build and the JSON parser check one atom in O(n): on 40
    markings (2^40 splittings) none of them makes or reads the table."""
    spec = ModuliSpec(1, default_labels(40), concrete=True)
    before = algebra._splitting_table.cache_info()
    unstable = r"splitting \(h=0, A=\('p1',\)\) is not stable on \(g=1, n=40\)"
    with pytest.raises(DomainError, match=unstable):
        spec.sep_push(0, ("p1",), 0, 0)
    with pytest.raises(DomainError, match=r"sep atom side \(h=1, A=\('p1',\)\) is not canonical"):
        TautExpr.build(spec, 1, [((Gen("sep_push", (1, ("p1",), 0, 0)),), 1)])

    def parse(h, lab, a=0, b=0):
        doc = render_json_dict(TautExpr.of(spec, 1, spec.sep_push(0, ("p1", "p2"), 0, 0)))
        doc["terms"][0]["monomial"][0]["args"] = [h, lab, a, b]
        return expr_from_json(json.dumps(doc))

    with pytest.raises(DomainError, match=unstable):
        parse(0, ["p1"])
    # A stable side or a key that is not canonical is refused, as build
    # refuses it, not moved to the canonical atom.
    with pytest.raises(DomainError, match=r"sep atom side \(h=1, A=\('p1',\)\) is not canonical"):
        parse(1, ["p1"])
    with pytest.raises(DomainError, match=r"sep atom side \(h=0, A=\('p2', 'p1'\)\) is not canonical"):
        parse(0, ["p2", "p1"])
    with pytest.raises(DomainError, match="pushforward key"):
        parse(0, ["p1", "p2"], 0, 1)
    assert parse(0, ["p1", "p2"], 1, 0) == TautExpr.of(spec, 1, spec.sep_push(0, ("p1", "p2"), 1, 0))
    assert algebra._splitting_table.cache_info() == before


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


def reference_mul(a: TautExpr, b: TautExpr) -> TautExpr:
    """The product as every pair of terms, sent through build."""
    return TautExpr.build(a.spec, a.order, [
        (m1 + m2, c1 * c2) for m1, c1 in a.terms for m2, c2 in b.terms])


def test_product_builds_no_pair_above_the_cap(monkeypatch):
    """On (0,5) at order 4 the dimension cap is 2: a degree-2 left term
    meets only the degree-0 right terms, and no monomial above the cap
    is made.  The kernel forms each pair as tuple(sorted(m1 + m2)) on int
    monomials, the ints numbering the call's distinct generators in
    stored order; the pairs are counted at that sort."""
    spec = ModuliSpec(0, default_labels(5), concrete=True)
    a = TautExpr.build(spec, 4, [((), 1), ((kappa(1),), 2), ((kappa(1), delta_class()), 3)])
    b = TautExpr.build(spec, 4, [((), 5), ((marked_psi("p1"),), 7), ((kappa(2),), 1)])
    table = sorted({g for e in (a, b) for m, _ in e.terms for g in m}, key=Gen.sort_key)
    made = []

    def counting_sorted(items, **kw):
        if not kw and type(items) is tuple and all(type(i) is int for i in items):
            made.append(items)
        return sorted(items, **kw)

    monkeypatch.setattr(algebra, "sorted", counting_sorted, raising=False)
    product = a * b
    monkeypatch.undo()
    assert max(sum(table[i].degree for i in m) for m in made) == 2
    assert len(made) == 3 + 2 + 1
    assert product == reference_mul(a, b)


def test_scale_rejects_inexact_factors():
    e = TautExpr.of(SPEC21, 2, kappa(1))
    for scale in (e.scale, e.scale_degrees):
        with pytest.raises(DomainError):
            scale(0.1)
    assert e.scale_degrees(Fraction(1, 2)) == e.scale(Fraction(1, 2))


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


@pytest.mark.parametrize("d", [1.0, "1", True, False, None, Fraction(1)])
def test_component_rejects_a_degree_that_is_not_an_int(d):
    e = TautExpr.of(SPEC21, 3, kappa(1)) + TautExpr.one(SPEC21, 3)
    with pytest.raises(DomainError, match="component degree"):
        e.component(d)
    with pytest.raises(DomainError, match="component degree"):
        ch_bundle(SPEC21, 2).component(d)


def test_component_outside_the_order_is_zero():
    e = TautExpr.of(SPEC21, 3, kappa(1)) + TautExpr.one(SPEC21, 3).scale(2)
    for d in (-5, -1, 4, 100):
        assert e.component(d) == TautExpr.zero(SPEC21, 3)
    assert e.component(0) == TautExpr.one(SPEC21, 3).scale(2)


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


SPEC05C = ModuliSpec(0, default_labels(5), concrete=True)

_concrete_gens = st.one_of(
    st.integers(1, 3).map(kappa),
    st.sampled_from(SPEC05C.labels).map(marked_psi),
    st.just(delta_class()),
    st.builds(lambda side, a, b: SPEC05C.sep_push(side[0], side[1], a, b),
              st.sampled_from([(h, lab) for h, lab, _ in SPEC05C.splitting_classes()]),
              st.integers(0, 1), st.integers(0, 1)),
)

# Concrete (0,5) has dimension 2, below the order 4, so the product's cap
# is the dimension.
_concrete_exprs = st.lists(
    st.tuples(st.lists(_concrete_gens, min_size=0, max_size=3), _coeffs),
    max_size=6,
).map(lambda items: TautExpr.build(
    SPEC05C, 4, [(tuple(m), c) for m, c in items]))


@given(_exprs, _exprs)
def test_product_equals_all_pairs_reference(a, b):
    assert a * b == reference_mul(a, b)


@given(_concrete_exprs, _concrete_exprs)
def test_concrete_product_equals_all_pairs_reference(a, b):
    assert a * b == reference_mul(a, b)


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


def reference_component(e: TautExpr, d: int) -> TautExpr:
    """The degree-d part, found by filtering every term and merging again."""
    return TautExpr._collect(e.spec, e.order,
                             [(m, c) for m, c in e.terms if monomial_degree(m) == d])


@pytest.mark.parametrize("exprs", [_exprs, _concrete_exprs], ids=["generic", "concrete"])
@given(data=st.data())
def test_component_equals_filter_reference(exprs, data):
    e = data.draw(exprs)
    for d in range(-1, e.order + 2):
        assert e.component(d) == reference_component(e, d)


@pytest.mark.parametrize("spec", [SPEC21, ModuliSpec(1, default_labels(3), concrete=True)],
                         ids=["generic-2-1", "concrete-1-3"])
def test_components_and_oracle_match_filter_reference(monkeypatch, spec):
    result = ch_bundle(spec, 4)
    components = result.components()
    classes = chern_exp_oracle(components, 4)
    monkeypatch.setattr(TautExpr, "component", reference_component)
    assert result.components() == components
    assert chern_exp_oracle(result.components(), 4) == classes


def reference_exp_oracle(ch, jmax: int) -> list[TautExpr]:
    """The power loop of the exponential oracle: the log term summed with
    + and scale, then power = (power * log_term) / k added into the total
    for k = 1..jmax, one product at a time."""
    spec, order = ch[1].spec, ch[1].order
    log_term = TautExpr.zero(spec, order)
    for r in range(1, jmax + 1):
        log_term = log_term + ch[r].scale(Fraction((-1) ** (r - 1) * factorial(r - 1)))
    total = TautExpr.one(spec, order)
    power = TautExpr.one(spec, order)
    for k in range(1, jmax + 1):
        power = (power * log_term).scale(Fraction(1, k))
        total = total + power
    return [total.component(j) for j in range(1, jmax + 1)]


@pytest.mark.parametrize("exprs", [_exprs, _concrete_exprs], ids=["generic", "concrete"])
@given(data=st.data())
def test_exp_oracle_equals_power_loop(exprs, data):
    """Each component is a whole drawn expression, so it is inhomogeneous
    and may have a constant term; on concrete (0,5) the dimension 2 caps
    every power below the order 4.  jmax runs from 0 to 6."""
    jmax = data.draw(st.integers(0, 6))
    ch = {r: data.draw(exprs) for r in range(1, max(jmax, 1) + 1)}
    assert chern_exp_oracle(ch, jmax) == reference_exp_oracle(ch, jmax)


@pytest.mark.parametrize("spec,order", [(SPEC21, ORDER), (SPEC05C, 4)],
                         ids=["generic", "concrete"])
def test_exp_oracle_with_a_constant_term(spec, order):
    """A constant in the log term enters every power: with log term 3 + x
    and jmax 2 the total is 1 + (3 + x) + (3 + x)^2 / 2, so c_1 = 4x and
    c_2 = x^2 / 2, with the degree-0 part never reported."""
    one = TautExpr.one(spec, order)
    x = TautExpr.of(spec, order, kappa(1))
    ch = {1: one.scale(3) + x, 2: one.scale(Fraction(-1, 2)) + x * x, 3: x * x * x}
    for jmax in range(4):
        assert chern_exp_oracle(ch, jmax) == reference_exp_oracle(ch, jmax)
    ch = {1: one.scale(3) + x, 2: TautExpr.zero(spec, order)}
    assert chern_exp_oracle(ch, 2) == [x.scale(4), (x * x).scale(Fraction(1, 2))]


def test_exp_oracle_rejects_components_on_another_spec_or_order():
    ch = ch_bundle(SPEC21, 3).components()
    for other in (ch_bundle(SPEC21, 4).component(2),
                  ch_bundle(ModuliSpec(1, default_labels(2)), 3).component(2)):
        with pytest.raises(DomainError):
            chern_exp_oracle({**ch, 2: other}, 3)


@given(_exprs, _exprs)
def test_expand_concrete_is_a_ring_map(a, b):
    assert expand_concrete(a + b) == expand_concrete(a) + expand_concrete(b)
    assert expand_concrete(a * b) == expand_concrete(a) * expand_concrete(b)


# ------------------------------------------------------------ rewrite engine

def reference_map_generators(e: TautExpr, fn, spec: ModuliSpec | None = None,
                             order: int | None = None) -> TautExpr:
    """The rewrite engine as it was before kept generators passed through:
    a generator fn leaves alone gets the identity image TautExpr.of, and
    each product starts from one.scale(c) and multiplies in every image."""
    spec = e.spec if spec is None else spec
    order = e.order if order is None else order
    one = TautExpr.one(spec, order)
    total = TautExpr.zero(spec, order)
    for m, c in e.terms:
        piece = one.scale(c)
        for g in m:
            img = fn(g)
            piece = piece * (TautExpr.of(spec, order, g) if img is None else img)
        total = total + piece
    return total


def reference_concrete_image(cspec: ModuliSpec, order: int, g: Gen):
    """The concrete image of an aggregate generator, with the sep aggregate
    summed over ordered splittings instead of weighted classes."""
    if g.kind == "psi_power_sum":
        return TautExpr.build(cspec, order, [((marked_psi(p),) * g.args[0], 1)
                                             for p in cspec.labels])
    if g.kind == "delta":
        return delta_as_atoms(cspec, order)
    if g.kind == "sep_push_sum":
        return TautExpr.build(cspec, order, [((cspec.sep_push(h, lab, *g.args),), 1)
                                             for h, lab in cspec.ordered_splittings()])
    return None


def _exprs_over(spec: ModuliSpec, order: int, gens, max_gens: int = 2):
    return st.lists(
        st.tuples(st.lists(gens, min_size=0, max_size=max_gens), _coeffs),
        max_size=5,
    ).map(lambda items: TautExpr.build(spec, order, [(tuple(m), c) for m, c in items]))


# Generic (0,5) at order 4: its concrete dimension 2 caps the expansion.
SPEC05 = ModuliSpec(0, default_labels(5))
_exprs05 = _exprs_over(SPEC05, 4, _gens)
_concrete_hodge_exprs = _exprs_over(
    SPEC05C, 4, st.one_of(_concrete_gens, st.just(hodge_component(1))), 3)

# (expression strategy, generators a rule may rewrite): generic (2,1) at
# order 5, and concrete (0,5) at order 4 with the dimension 2 as cap.
_REWRITE_CASES = [
    (_exprs, [kappa(1), kappa(2), psi_power_sum(1), hodge_component(1),
              delta_class(), sep_push_sum(0, 0)]),
    (_concrete_exprs, [kappa(1), kappa(2), marked_psi("p1"), delta_class(),
                       SPEC05C.sep_push(0, ("p1", "p2"), 0, 0)]),
]


@pytest.mark.parametrize("exprs,sources", _REWRITE_CASES, ids=["generic", "concrete"])
@given(data=st.data())
def test_substitute_equals_reference_engine(exprs, sources, data):
    e = data.draw(exprs)
    rules = {src: data.draw(exprs).component(src.degree)
             for src in data.draw(st.lists(st.sampled_from(sources), unique=True,
                                           max_size=3))}
    assert e.substitute(rules) == reference_map_generators(e, rules.get)


@pytest.mark.parametrize("exprs", [_exprs, _exprs05], ids=["g2n1", "g0n5"])
@given(data=st.data())
def test_expand_concrete_equals_reference_engine(exprs, data):
    e = data.draw(exprs)
    cspec = replace(e.spec, concrete=True)
    assert expand_concrete(e) == reference_map_generators(
        e, lambda g: reference_concrete_image(cspec, e.order, g), cspec, e.order)


@pytest.mark.parametrize("exprs", [_exprs, _concrete_hodge_exprs],
                         ids=["generic", "concrete"])
@given(data=st.data())
def test_expand_hodge_equals_reference_engine(exprs, data):
    e = data.draw(exprs)
    full = hodge_ch(e.spec, e.order)
    assert expand_hodge(e) == reference_map_generators(
        e, lambda g: full.component(g.args[0]) if g.kind == "hodge_ch" else None)


@pytest.mark.parametrize("exprs", [_exprs, _concrete_exprs], ids=["generic", "concrete"])
@given(data=st.data())
def test_power_equals_reference_engine(exprs, data):
    e = data.draw(exprs)
    k = data.draw(st.integers(0, 4))
    expected = TautExpr.one(e.spec, e.order)
    for _ in range(k):
        expected = expected * e
    assert e ** k == expected


def reference_sum_of_products(spec: ModuliSpec, order: int, products) -> TautExpr:
    """The naive fold: each piece from its collected seed, times one factor
    at a time through reference_mul, added to a running total."""
    total = TautExpr.zero(spec, order)
    for c, mono, factors in products:
        piece = TautExpr._collect(spec, order, [(mono, c)])
        for f in factors:
            piece = reference_mul(piece, f)
        total = total + piece
    return total


# (expression strategy, generator strategy for seeds): generic (2,1) at
# order 5, and concrete (0,5) at order 4 with the dimension 2 as cap.
_KERNEL_CASES = [(_exprs, _gens), (_concrete_exprs, _concrete_gens)]


@pytest.mark.parametrize("exprs,gens", _KERNEL_CASES, ids=["generic", "concrete"])
@given(data=st.data())
def test_sum_of_products_equals_naive_fold(exprs, gens, data):
    """Factors are drawn from a pool of four objects, so one object repeats
    in and across products; the pool has denominators 7 and 11 beside the
    strategy's 1 to 4; seeds reach degree 9, above either cap; a product
    may have no factor at all."""
    a, b = data.draw(exprs), data.draw(exprs)
    pool = [a, b, a.scale(Fraction(3, 7)), b.scale(Fraction(-5, 11))]
    spec, order = a.spec, a.order
    products = data.draw(st.lists(st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=13),
        st.lists(gens, max_size=3).map(lambda m: monomial(*m)),
        st.lists(st.sampled_from(pool), max_size=3)), max_size=4))
    expected = reference_sum_of_products(spec, order, products)
    assert algebra.sum_of_products(spec, order, products) == expected
    assert algebra.sum_of_products(spec, order, iter(products)) == expected


@pytest.mark.parametrize("exprs", [_exprs, _concrete_exprs], ids=["generic", "concrete"])
@given(data=st.data())
def test_power_equals_naive_fold(exprs, data):
    e = data.draw(exprs)
    k = data.draw(st.integers(0, 6))
    assert e ** k == reference_sum_of_products(e.spec, e.order, [(Fraction(1), (), [e] * k)])


def _shared_prefix_groups(spec: ModuliSpec, order: int):
    """Fixed kernel groups whose chains share prefixes within and across
    groups: one group per class j <= order of chern_from_ch's partition
    chains over the cotangent character (decreasing parts, so (3, 2, 1)
    extends (3, 2)), chern_exp_oracle's powers [ch_1] * k seeded by
    kappa_1, one chain twice in a group, and a chain that only a later
    group repeats."""
    ch = ch_cotangent(spec, order)
    parts = [ch.component(d) for d in range(1, order + 1)]
    groups = [[(partition_chern_coeff(mu), (), [parts[r - 1] for r in mu])
               for mu in partitions(j)] for j in range(1, order + 1)]
    seed = monomial(kappa(1))
    groups.append([(Fraction(1, factorial(k)), seed, [parts[0]] * k) for k in range(order)])
    groups.append([(Fraction(-2, 3), seed, parts[:2]), (Fraction(5), seed, parts[:2]),
                   (Fraction(1, 7), (), [parts[1], parts[0], parts[0]])])
    return ch, groups


def _unshared(groups):
    """The same groups with every factor an equal copy, a distinct object,
    so no two chains share a factor."""
    return [[(c, m, [TautExpr(f.spec, f.order, f.terms) for f in fs]) for c, m, fs in g]
            for g in groups]


def _counting_times(monkeypatch):
    calls = []
    real = algebra._times
    monkeypatch.setattr(algebra, "_times", lambda *args: calls.append(1) or real(*args))
    return calls


@pytest.mark.parametrize("spec,order", [(SPEC21, 5), (ModuliSpec(0, default_labels(5), True), 3)],
                         ids=["generic", "concrete"])
def test_shared_prefixes_equal_unshared_products(monkeypatch, spec, order):
    """Sharing a prefix changes only how often it is formed: the kernel
    gives each group the value of the naive fold, with or without shared
    factor objects, and forms fewer products when they are shared."""
    ch, groups = _shared_prefix_groups(spec, order)
    calls = _counting_times(monkeypatch)
    shared = algebra.sums_of_products(ch.spec, order, groups)
    shared_calls = len(calls)
    unshared = algebra.sums_of_products(ch.spec, order, _unshared(groups))
    assert shared == unshared
    assert shared_calls < len(calls) - shared_calls
    monkeypatch.undo()
    assert shared == [reference_sum_of_products(ch.spec, order, g) for g in groups]
    assert shared[-2] == algebra.sum_of_products(ch.spec, order, groups[-2])


def test_group_without_products_gives_zero():
    e = ch_cotangent(SPEC21, 4)
    zero = TautExpr.zero(SPEC21, 4)
    assert algebra.sums_of_products(SPEC21, 4, []) == []
    assert algebra.sums_of_products(SPEC21, 4, [[], [(Fraction(2), (), [e])], iter([])]) == [
        zero, e.scale(2), zero]
    assert algebra.sums_of_products(SPEC21, 4, [[(Fraction(0), (), [e, e])]]) == [zero]
    assert algebra.sum_of_products(SPEC21, 4, []) == zero


def test_lambda_basis_multiplies_only_rewritten_terms(monkeypatch):
    """Only the kappa_1 and degree-1 sep aggregate terms of the (2,1)
    character have an image; every other term passes through unmultiplied.
    Counted at the kernel's product step: one call multiplies one partial
    piece by one factor."""
    e = ch_cotangent(ModuliSpec(2, ("p1",)), 9)
    calls = []
    real = algebra._times
    monkeypatch.setattr(algebra, "_times", lambda *args: calls.append(1) or real(*args))
    to_lambda_basis(e)
    assert len(calls) == 2


def test_expand_concrete_builds_one_image_per_distinct_generator(monkeypatch):
    """The generic (1,4) c_3 holds four distinct delta and sep aggregate
    generators in 38 terms; fn runs once for each, so the splitting classes
    are listed four times, not once per occurrence."""
    c3 = chern_classes(ModuliSpec(1, default_labels(4)), 3)[1][2]
    calls = []
    real = ModuliSpec.splitting_classes
    monkeypatch.setattr(ModuliSpec, "splitting_classes",
                        lambda self: calls.append(1) or real(self))
    expanded = expand_concrete(c3)
    assert len(c3.terms) == 38
    assert len(calls) == 4
    monkeypatch.undo()
    cspec = replace(c3.spec, concrete=True)
    assert expanded == reference_map_generators(
        c3, lambda g: reference_concrete_image(cspec, c3.order, g), cspec, c3.order)


@pytest.mark.parametrize("call", [
    lambda e: e.substitute({"x": e}),
    lambda e: e.substitute({hodge_component(1): 3}),
    lambda e: e.substitute([(hodge_component(1), e)]),
    lambda e: e ** 2.5,
    lambda e: e ** "2",
    lambda e: e.map_generators(lambda g: 3),
    lambda e: e.map_generators(lambda g: TautExpr.of(SPEC21, 4, g)),
    lambda e: e.map_generators(lambda g: TautExpr.of(ModuliSpec(1, ("p1",)), 3, g)),
], ids=["str-source", "int-image", "pair-list", "float-power", "str-power",
        "map-int-image", "map-other-order", "map-other-spec"])
def test_rewrite_entry_points_reject_bad_input(call):
    with pytest.raises(DomainError):
        call(TautExpr.of(SPEC21, 3, hodge_component(1)))
