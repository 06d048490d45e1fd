"""Assembled characters, duality, basis changes, and Chern class conversion."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from conftest import line_bundle_character, random_graded_character
from oracles import FIVE_SPECS
from tautchern import (
    DomainError,
    Gen,
    ModuliSpec,
    TautExpr,
    alternating_sym,
    bernoulli,
    canonical_class,
    ch_bundle,
    ch_cotangent,
    ch_tangent,
    chern_classes,
    chern_exp_oracle,
    chern_from_ch,
    default_labels,
    delta_as_atoms,
    delta_class,
    dualize,
    expand_concrete,
    expand_hodge,
    hodge_ch,
    hodge_component,
    irr_push,
    kappa,
    kappa_coefficient,
    kappa_tilde,
    kappa_tilde_rewrite,
    partition_chern_coeff,
    partitions,
    power_sym,
    psi_power_sum,
    rank,
    render,
    sep_push_sum,
    to_lambda_basis,
)
from tautchern import formulas
from tautchern.formulas import boundary_argument, boundary_coefficient

SPEC21 = ModuliSpec(2, default_labels(1))


# ------------------------------------------------------------- coefficients

@pytest.mark.parametrize("d,value", [
    (1, Fraction(1)),
    (2, Fraction(1, 3)),
    (3, Fraction(1, 12)),
    (4, Fraction(1, 60)),
])
def test_kappa_coefficient_pinned(d, value):
    assert kappa_coefficient(d) == value


def test_kappa_coefficient_closed_form():
    for d in range(1, 13):
        assert kappa_coefficient(d) == Fraction(2, factorial(d + 1))
    with pytest.raises(DomainError):
        kappa_coefficient(0)


@pytest.mark.parametrize("d,value", [
    (1, Fraction(-1, 2)),
    (2, Fraction(1, 4)),
    (3, Fraction(-1, 12)),
    (4, Fraction(1, 48)),
])
def test_boundary_coefficient_pinned(d, value):
    assert boundary_coefficient(d) == value


def test_boundary_argument_is_binomial_power():
    for d in range(1, 8):
        assert boundary_argument(d) == power_sym(d - 1)
    with pytest.raises(DomainError):
        boundary_coefficient(0)


@pytest.mark.parametrize("g,n", FIVE_SPECS)
def test_rank_values(g, n):
    spec = ModuliSpec(g, default_labels(n))
    assert rank(spec, "cotangent") == 3 * g - 3 + n
    assert rank(spec, "tangent") == 3 * g - 3 + n
    assert rank(spec, "hodge") == g
    with pytest.raises(DomainError):
        rank(spec, "normal")


# ------------------------------------------------------ cotangent character

def test_cotangent_degree_one_structure():
    e = ch_cotangent(SPEC21, 1)
    assert e.coefficient(kappa(1)) == 1
    assert e.coefficient(hodge_component(1)) == 1
    assert e.coefficient(irr_push(0, 0)) == Fraction(-1, 2)
    assert e.coefficient(sep_push_sum(0, 0)) == Fraction(-1, 2)
    assert len(e.terms) == 4


def test_cotangent_degree_two_structure():
    e = ch_cotangent(SPEC21, 2).component(2)
    assert e.coefficient(kappa(2)) == Fraction(1, 3)
    assert e.coefficient(irr_push(1, 0)) == Fraction(1, 4)
    assert e.coefficient(sep_push_sum(1, 0)) == Fraction(1, 4)
    assert len(e.terms) == 3


def test_cotangent_degree_three_structure():
    e = ch_cotangent(SPEC21, 3).component(3)
    assert e.coefficient(kappa(3)) == Fraction(1, 12)
    assert e.coefficient(hodge_component(3)) == 1
    assert e.coefficient(irr_push(2, 0)) == Fraction(-1, 12)
    assert e.coefficient(irr_push(1, 1)) == Fraction(-1, 6)
    assert e.coefficient(sep_push_sum(2, 0)) == Fraction(-1, 12)
    assert e.coefficient(sep_push_sum(1, 1)) == Fraction(-1, 6)


def test_cotangent_order_domain():
    """Order 0 is the zero expression, with the rank reported beside it."""
    assert ch_cotangent(SPEC21, 0) == TautExpr.zero(SPEC21, 0)
    assert ch_bundle(SPEC21, 0).rank == SPEC21.dimension
    for order in (-1, 1.0, True):
        with pytest.raises(DomainError):
            ch_cotangent(SPEC21, order)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: chern_classes(SPEC21, 0.0), id="float-jmax"),
    pytest.param(lambda: chern_classes(SPEC21, False), id="bool-jmax"),
    pytest.param(lambda: chern_classes(SPEC21, 0, basis="bogus"), id="unknown-basis"),
    pytest.param(lambda: chern_classes(SPEC21, 0, "hodge"), id="unknown-bundle"),
    pytest.param(lambda: hodge_ch(SPEC21, 0, half_includes_kappa="no"), id="hodge-switch"),
])
def test_degree_zero_checks_like_degree_one(call):
    """Degree 0 takes the same path as any other order, so it refuses what
    degree 1 refuses."""
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("bundle", ["cotangent", "tangent"])
@pytest.mark.parametrize("basis", ["kappa", "lambda"])
def test_ch_bundle_calls_the_module_level_names(monkeypatch, bundle, basis):
    """ch_bundle looks up ch_cotangent, ch_tangent and to_lambda_basis as
    module globals at each call, so rebinding them (as the benchmark
    tracer does) sees every call."""
    calls = []
    for name in ("ch_cotangent", "ch_tangent", "to_lambda_basis"):
        def wrapper(*args, _name=name, _fn=getattr(formulas, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(formulas, name, wrapper)
    result = ch_bundle(SPEC21, 2, bundle, basis)
    # ch_tangent dualizes ch_cotangent, found through the same globals.
    want = {"cotangent": ["ch_cotangent"], "tangent": ["ch_tangent", "ch_cotangent"]}[bundle]
    want += ["to_lambda_basis"] if basis == "lambda" else []
    assert calls == want
    expected = ch_cotangent(SPEC21, 2) if bundle == "cotangent" else ch_tangent(SPEC21, 2)
    assert result.graded == (to_lambda_basis(expected) if basis == "lambda" else expected)


def test_tangent_negates_odd_degrees():
    cot = ch_cotangent(SPEC21, 4)
    tan = ch_tangent(SPEC21, 4)
    for d in (1, 3):
        assert tan.component(d) == -cot.component(d)
    for d in (2, 4):
        assert tan.component(d) == cot.component(d)
    assert tan.component(3).coefficient(kappa(3)) == Fraction(-1, 12)
    assert tan.component(3).coefficient(hodge_component(3)) == -1


def test_dualize_is_an_involution():
    e = ch_cotangent(ModuliSpec(3, default_labels(2)), 4)
    assert dualize(dualize(e)) == e
    assert dualize(ch_cotangent(SPEC21, 4)) == ch_tangent(SPEC21, 4)


# ---------------------------------------------------------- hodge character

def test_hodge_degree_one_structure():
    e = hodge_ch(SPEC21, 1)
    assert e.coefficient(kappa_tilde(1)) == Fraction(1, 12)
    assert e.coefficient(irr_push(0, 0)) == Fraction(1, 24)
    assert e.coefficient(sep_push_sum(0, 0)) == Fraction(1, 24)


def test_hodge_degree_three_structure():
    e = hodge_ch(SPEC21, 3).component(3)
    assert e.coefficient(kappa_tilde(3)) == Fraction(-1, 720)
    assert e.coefficient(irr_push(2, 0)) == Fraction(-1, 1440)
    assert e.coefficient(irr_push(1, 1)) == Fraction(1, 1440)
    assert e.coefficient(sep_push_sum(2, 0)) == Fraction(-1, 1440)
    assert e.coefficient(sep_push_sum(1, 1)) == Fraction(1, 1440)


def test_hodge_vanishes_in_positive_even_degrees():
    e = hodge_ch(SPEC21, 6)
    for d in (2, 4, 6):
        assert e.component(d).is_zero()
    assert not e.component(1).is_zero()
    assert not e.component(3).is_zero()
    assert not e.component(5).is_zero()


@pytest.mark.parametrize("g,n", FIVE_SPECS)
def test_hodge_degree_one_gives_lambda_relation(g, n):
    """Folding the boundary atoms back into delta must turn the degree-one
    component into (kappa_1 - psi + delta)/12."""
    spec = ModuliSpec(g, default_labels(n))
    e = kappa_tilde_rewrite(hodge_ch(spec, 1), "expand")
    fold = (TautExpr.of(spec, 1, delta_class()).scale(2)
            - TautExpr.of(spec, 1, irr_push(0, 0)))
    e = e.substitute({sep_push_sum(0, 0): fold})
    expected = (TautExpr.of(spec, 1, kappa(1))
                - TautExpr.of(spec, 1, psi_power_sum(1))
                + TautExpr.of(spec, 1, delta_class())).scale(Fraction(1, 12))
    assert e == expected


def test_hodge_half_inside_variant_breaks_the_relation():
    spec = SPEC21
    e = hodge_ch(spec, 1, half_includes_kappa=True)
    assert e.coefficient(kappa_tilde(1)) == Fraction(1, 24)
    e = kappa_tilde_rewrite(e, "expand")
    fold = (TautExpr.of(spec, 1, delta_class()).scale(2)
            - TautExpr.of(spec, 1, irr_push(0, 0)))
    e = e.substitute({sep_push_sum(0, 0): fold})
    expected = (TautExpr.of(spec, 1, kappa(1))
                - TautExpr.of(spec, 1, psi_power_sum(1))
                + TautExpr.of(spec, 1, delta_class())).scale(Fraction(1, 12))
    assert e != expected


def test_hodge_variant_switch_must_be_a_bool():
    """A truthy non-bool such as "no" must not pick the half-on-kappa~
    variant."""
    with pytest.raises(DomainError):
        hodge_ch(SPEC21, 3, half_includes_kappa="no")


def test_expand_hodge_reproduces_components():
    lam = TautExpr.of(SPEC21, 3, hodge_component(1))
    ch3 = TautExpr.of(SPEC21, 3, hodge_component(3))
    assert expand_hodge(lam + ch3) == hodge_ch(SPEC21, 3)


def test_kappa_tilde_rewrite_round_trip():
    e = hodge_ch(SPEC21, 5)
    assert kappa_tilde_rewrite(kappa_tilde_rewrite(e, "expand"), "collect") == e
    no_marks = ModuliSpec(2, ())
    e0 = hodge_ch(no_marks, 3)
    assert kappa_tilde_rewrite(
        kappa_tilde_rewrite(e0, "expand"), "collect") == e0
    with pytest.raises(DomainError):
        kappa_tilde_rewrite(e, "sideways")


# ------------------------------------------------------------- basis change

def test_lambda_basis_text_golden():
    no_marks = ModuliSpec(2, ())
    assert render(to_lambda_basis(ch_cotangent(no_marks, 1))) == \
        "13*lambda - 2*delta"
    assert render(to_lambda_basis(ch_cotangent(SPEC21, 1))) == \
        "13*lambda + psi - 2*delta"


def test_lambda_basis_concrete_text_golden():
    spec = ModuliSpec(2, default_labels(1), concrete=True)
    assert render(to_lambda_basis(ch_cotangent(spec, 1))) == \
        "13*lambda + psi_{p1} - xi_irr_*(1) - 2*xi_{1,{}}_*(1)"


@pytest.mark.parametrize("g,n", FIVE_SPECS)
@pytest.mark.parametrize("concrete", [False, True])
def test_degree_one_matches_canonical_class(g, n, concrete):
    spec = ModuliSpec(g, default_labels(n), concrete=concrete)
    assert to_lambda_basis(ch_cotangent(spec, 1)) == canonical_class(spec, 1)


def test_canonical_class_components():
    e = canonical_class(SPEC21)
    assert e.coefficient(hodge_component(1)) == 13
    assert e.coefficient(psi_power_sum(1)) == 1
    assert e.coefficient(delta_class()) == -2


def test_delta_atom_count_matches_boundary_count():
    for g, n in FIVE_SPECS:
        spec = ModuliSpec(g, default_labels(n), concrete=True)
        assert len(delta_as_atoms(spec, 1).terms) == spec.boundary_count()


# ------------------------------------------------------ chern class conversion

def test_chern_classes_low_degree_formulas():
    ch = ch_bundle(SPEC21, 3).components()
    c = chern_from_ch(ch, 3)
    assert c[0] == ch[1]
    assert c[1] == (ch[1] * ch[1]).scale(Fraction(1, 2)) - ch[2]
    assert c[2] == ((ch[1] * ch[1] * ch[1]).scale(Fraction(1, 6))
                    - ch[1] * ch[2] + ch[3].scale(2))


def test_chern_conversion_matches_exponential_oracle():
    ch = ch_bundle(SPEC21, 4).components()
    assert chern_from_ch(ch, 4) == chern_exp_oracle(ch, 4)
    hodge = {d: hodge_ch(SPEC21, 4).component(d) for d in range(1, 5)}
    assert chern_from_ch(hodge, 4) == chern_exp_oracle(hodge, 4)


def test_chern_conversion_on_random_characters():
    rng = random.Random(5)
    for _ in range(20):
        ch = random_graded_character(rng, SPEC21, 5)
        assert chern_from_ch(ch, 5) == chern_exp_oracle(ch, 5)


def _partition_fold(ch, jmax):
    """c_j as the sum over partitions mu of j of partition_chern_coeff(mu)
    times the product of the ch_r, one class and one product at a time."""
    spec, order = ch[1].spec, ch[1].order
    out = []
    for j in range(1, jmax + 1):
        c = TautExpr.zero(spec, order)
        for mu in partitions(j):
            piece = TautExpr.one(spec, order).scale(partition_chern_coeff(mu))
            for r in mu:
                piece = piece * ch[r]
            c = c + piece
        out.append(c)
    return out


def _inhomogeneous_character():
    """Components that are not homogeneous and carry constant terms, so
    products do not raise the degree and the truncation cuts inside a
    partition product."""
    k1, k2, d = kappa(1), kappa(2), delta_class()
    items = {1: [((), 2), ((k1,), Fraction(-1, 3)), ((d, d), 1)],
             2: [((), Fraction(1, 5)), ((k2,), 3), ((k1, d), Fraction(7, 2))],
             3: [((), -1), ((hodge_component(1),), Fraction(1, 4)), ((k2, k1), 2)],
             4: [((), Fraction(5, 6)), ((kappa(4),), 1)]}
    return {r: TautExpr.build(SPEC21, 4, terms) for r, terms in items.items()}


@pytest.mark.parametrize("ch,jmax", [
    (ch_bundle(SPEC21, 6).components(), 6),
    (ch_bundle(ModuliSpec(0, default_labels(5), concrete=True), 2).components(), 2),
    (_inhomogeneous_character(), 4),
], ids=["generic-2-1", "concrete-0-5", "inhomogeneous"])
def test_chern_conversion_equals_partition_fold(ch, jmax):
    assert chern_from_ch(ch, jmax) == _partition_fold(ch, jmax)


def test_line_bundle_has_no_higher_classes():
    ch = line_bundle_character(SPEC21, 5)
    c = chern_from_ch(ch, 5)
    assert c[0] == TautExpr.of(SPEC21, 5, kappa(1))
    for j in range(1, 5):
        assert c[j].is_zero()


def test_chern_conversion_validates():
    ch = ch_bundle(SPEC21, 2).components()
    assert chern_from_ch(ch, 0) == []
    assert chern_exp_oracle(ch, 0) == []
    with pytest.raises(DomainError):
        chern_from_ch({1: ch[1]}, 2)
    with pytest.raises(DomainError):
        chern_from_ch(ch, -1)
    with pytest.raises(DomainError):
        chern_from_ch([ch[1]], 1)
    with pytest.raises(DomainError):
        chern_exp_oracle({1: ch[1]}, 2)


def test_chern_classes_wrapper():
    bundle_rank, classes = chern_classes(SPEC21, 0)
    assert bundle_rank == 4 and classes == []
    bundle_rank, classes = chern_classes(SPEC21, 1, "tangent", "lambda")
    assert render(classes[0]) == "-13*lambda - psi + 2*delta"
    with pytest.raises(DomainError):
        chern_classes(SPEC21, 1, "conormal")
    with pytest.raises(DomainError):
        ch_bundle(SPEC21, 1, basis="monomial")


# --------------------------------------------------------------- dual routes

@pytest.mark.parametrize("g,n", FIVE_SPECS)
def test_generic_then_concrete_equals_concrete_direct(g, n):
    generic = ModuliSpec(g, default_labels(n))
    concrete = ModuliSpec(g, default_labels(n), concrete=True)
    assert expand_concrete(ch_cotangent(generic, 3)) == \
        ch_cotangent(concrete, 3)


@pytest.mark.parametrize("basis", ("kappa", "lambda"))
@pytest.mark.parametrize("bundle", ("cotangent", "tangent"))
@pytest.mark.parametrize("g,n,jmax", [
    (0, 5, 2), (1, 2, 2), (1, 3, 3), (2, 0, 3), (2, 1, 3)])
def test_concrete_chern_classes_equal_expanded_generic_ones(g, n, jmax, bundle, basis):
    """expand_concrete is a ring map, so it carries the generic Chern
    classes onto the ones computed divisor by divisor."""
    generic = ModuliSpec(g, default_labels(n))
    concrete = ModuliSpec(g, default_labels(n), concrete=True)
    _, classes = chern_classes(generic, jmax, bundle, basis)
    _, direct = chern_classes(concrete, jmax, bundle, basis)
    assert [expand_concrete(c) for c in classes] == direct


def test_concrete_sep_coefficient_merging():
    """One self-mirror divisor keeps the generic coefficient; a mirror
    pair folds two ordered splittings onto one atom and doubles it."""
    no_marks = ModuliSpec(2, (), concrete=True)
    e = ch_cotangent(no_marks, 2).component(2)
    assert e.coefficient(no_marks.sep_push(1, (), 1, 0)) == Fraction(1, 4)
    marked = ModuliSpec(2, default_labels(1), concrete=True)
    e2 = ch_cotangent(marked, 2).component(2)
    assert e2.coefficient(marked.sep_push(1, (), 1, 0)) == Fraction(1, 2)


# ------------------------------------ trusted producers against the checked route

def reference_boundary_items(spec: ModuliSpec, shapes, scalar):
    """The boundary block the checked way: irreducible atoms in every genus
    (build drops them in genus 0) and, in concrete mode, every ordered
    splitting put on its canonical side by sep_push."""
    items = [((irr_push(a, b),), scalar * c) for (a, b), c in shapes.items()]
    if spec.concrete:
        for h, lab in spec.ordered_splittings():
            items += [((spec.sep_push(h, lab, a, b),), scalar * c)
                      for (a, b), c in shapes.items()]
    else:
        items += [((sep_push_sum(a, b),), scalar * c) for (a, b), c in shapes.items()]
    return items


def reference_ch_cotangent(spec: ModuliSpec, order: int) -> TautExpr:
    items = []
    for d in range(1, order + 1):
        items.append(((kappa(d),), kappa_coefficient(d)))
        if d % 2:
            items.append(((hodge_component(d),), 1))
        items += reference_boundary_items(spec, boundary_argument(d), boundary_coefficient(d))
    return TautExpr.build(spec, order, items)


def reference_hodge_ch(spec: ModuliSpec, order: int) -> TautExpr:
    items = []
    for m in range(1, (order + 1) // 2 + 1):
        pref = bernoulli(2 * m) / factorial(2 * m)
        items.append(((kappa_tilde(2 * m - 1),), pref))
        items += reference_boundary_items(spec, alternating_sym(2 * m - 2), pref / 2)
    return TautExpr.build(spec, order, items)


def reference_delta_as_atoms(spec: ModuliSpec, order: int) -> TautExpr:
    """Half the irreducible atom plus half of every ordered splitting."""
    return TautExpr.build(spec, order, [((irr_push(0, 0),), Fraction(1, 2))] + [
        ((spec.sep_push(h, lab, 0, 0),), Fraction(1, 2)) for h, lab in spec.ordered_splittings()])


# Genus 0 (no irreducible atoms), genus 1 and 2, and (2,0), whose middle
# divisor is its own mirror.
TRUSTED_SPECS = [(0, 4), (0, 6), (0, 9), (1, 1), (1, 3), (2, 2), (2, 0)]


@pytest.mark.parametrize("g,n", TRUSTED_SPECS)
def test_trusted_producers_equal_the_checked_route(g, n):
    generic = ModuliSpec(g, default_labels(n))
    spec = ModuliSpec(g, default_labels(n), concrete=True)
    cot = reference_ch_cotangent(spec, 5)
    hodge = reference_hodge_ch(spec, 5)
    assert ch_cotangent(spec, 5) == cot
    assert hodge_ch(spec, 5) == hodge
    assert delta_as_atoms(spec, 1) == reference_delta_as_atoms(spec, 1)
    assert expand_concrete(ch_cotangent(generic, 5)) == cot
    assert expand_hodge(TautExpr.of(spec, 5, hodge_component(3))) == hodge.component(3)
    assert ch_cotangent(generic, 5) == reference_ch_cotangent(generic, 5)
    assert hodge_ch(generic, 5) == reference_hodge_ch(generic, 5)
    if g == 0:
        assert all(gen.kind != "irr_push" for e in (cot, hodge) for m, _ in e.terms for gen in m)


@pytest.mark.parametrize("call", [
    lambda spec: ch_cotangent(spec, 2.0),
    lambda spec: ch_cotangent(spec, True),
    lambda spec: hodge_ch(spec, 3.0),
    lambda spec: hodge_ch(spec, -1),
    lambda spec: delta_as_atoms(spec, -1),
    lambda spec: delta_as_atoms(spec, "1"),
], ids=["ch-float", "ch-bool", "hodge-float", "hodge-negative", "delta-negative", "delta-str"])
def test_trusted_producers_check_their_order(call):
    """The producers merge without build, so they check the order themselves."""
    with pytest.raises(DomainError):
        call(ModuliSpec(1, default_labels(2), concrete=True))


def test_warm_concrete_producers_check_no_splitting(monkeypatch):
    """Once a spec's splitting table exists, the concrete producers read
    canonical sides from it and check no splitting on their own."""
    spec = ModuliSpec(1, default_labels(4), concrete=True)
    spec.ordered_splittings()
    calls = []
    for name in ("canonical_splitting", "_positions"):
        real = getattr(ModuliSpec, name)
        monkeypatch.setattr(ModuliSpec, name,
                            lambda self, *a, real=real, name=name: calls.append(name) or real(self, *a))
    ch_cotangent(spec, 4)
    hodge_ch(spec, 4)
    delta_as_atoms(spec, 1)
    expand_concrete(ch_cotangent(ModuliSpec(1, default_labels(4)), 4))
    assert calls == []


def test_concrete_boundary_makes_one_atom_per_divisor(monkeypatch):
    """A two-sided divisor's atom is made once, weighted by its two ordered
    splittings, not once from each side: on warm concrete (1,4), which has
    no self-mirror divisor, ch_cotangent makes half as many sep atoms as
    there are ordered splittings times boundary shapes."""
    spec = ModuliSpec(1, default_labels(4), concrete=True)
    spec.ordered_splittings()
    made = []
    real = Gen.__post_init__
    monkeypatch.setattr(Gen, "__post_init__", lambda g: made.append(g.kind) or real(g))
    e = ch_cotangent(spec, 4)
    monkeypatch.undo()
    shapes = sum(len(boundary_argument(d)) for d in range(1, 5))
    classes = spec.splitting_classes()
    assert all(mult == 2 for _, _, mult in classes)
    assert made.count("sep_push") == len(classes) * shapes
    assert 2 * made.count("sep_push") == len(spec.ordered_splittings()) * shapes
    assert e == reference_ch_cotangent(spec, 4)

