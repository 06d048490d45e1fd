"""Assembly of the Chern character of the (co)tangent bundle of the
moduli space of stable pointed curves, the Hodge bundle Chern character,
duality, basis changes, and the partition-indexed conversion from Chern
characters to Chern classes with its independent exponential oracle.

Degree-d structure of the cotangent expansion:

    kappa_d   with coefficient 1/(d+1)! + 1/(2*d!) - a_{d+1}
              (the correction constant a enters from degree 2 on),
    ch_d(E)   for odd d,
    boundary  with coefficient (-1)^d / (2*d!) spread over the monomial
              symmetric expansion of (psi' + psi'')^(d-1), pushed along
              the irreducible and the separating boundary maps.

The degree-0 part is the rank 3g-3+n and is reported separately, never
as a term of the graded expression; order 0 is the zero expression.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial
from typing import Mapping

from .algebra import (
    BSEP,
    BSEPA,
    CHE,
    DELTA,
    KAPPA,
    KAPPATILDE,
    PSIPOW,
    Gen,
    ModuliSpec,
    TautExpr,
    _cap,
    _check_compatible,
    check_expr,
    delta_class,
    hodge_component,
    irr_push,
    kappa,
    kappa_tilde,
    marked_psi,
    psi_power_sum,
    sep_push_sum,
    sum_of_products,
    sums_of_products,
)
from .partitions import (
    SymPoly2,
    alternating_sym,
    partition_chern_coeff,
    partitions,
    power_sym,
)
from .rationals import DomainError, bernoulli, check_choice, check_int, kappa_correction

BUNDLES = ("cotangent", "tangent")
BASES = ("kappa", "lambda")


def kappa_coefficient(d: int) -> Fraction:
    """Coefficient of kappa_d in the cotangent Chern character, d >= 1.

    Three sources: 1/(d+1)! from the main exponential sum, 1/(2*d!) from
    the half sum, minus the correction constant a_{d+1} once d >= 2.
    Simplifies to 2/(d+1)!; the test suite checks that identity rather
    than assuming it here.
    """
    check_int(d, 1, "kappa coefficient degree")
    coeff = Fraction(1, factorial(d + 1)) + Fraction(1, 2 * factorial(d))
    if d >= 2:
        coeff -= kappa_correction(d + 1)
    return coeff


def boundary_coefficient(d: int) -> Fraction:
    """Scalar in front of the degree-d boundary pushforward block."""
    check_int(d, 1, "boundary coefficient degree")
    return Fraction((-1) ** d, 2 * factorial(d))


def boundary_argument(d: int) -> SymPoly2:
    """Symmetric psi-polynomial pushed forward at degree d: (x+y)^(d-1)."""
    return power_sym(d - 1)


def rank(spec: ModuliSpec, bundle: str = "cotangent") -> int:
    """Degree-0 value of the Chern character: the bundle rank."""
    _cap(spec, 0)  # the spec check
    check_choice(bundle, (*BUNDLES, "hodge"), "bundle")
    return spec.genus if bundle == "hodge" else spec.dimension


def _boundary_items(spec: ModuliSpec, shapes: SymPoly2, scalar: Fraction):
    """scalar times the pushforwards of the symmetric polynomial shapes
    along the irreducible and the separating boundary maps.

    In concrete mode the separating part is assembled divisor by divisor,
    one atom per class of splitting_classes weighted by its multiplicity;
    the generic route goes through the aggregate atoms instead, so the two
    paths are genuinely independent and can be compared.  Each item is one
    checked generator, none vanishing (no irreducible atoms in genus 0),
    ready for TautExpr._collect.
    """
    scaled = [(a, b, scalar * c) for (a, b), c in shapes.items()]
    items = [((irr_push(a, b),), q) for a, b, q in scaled] if spec.genus >= 1 else []
    if spec.concrete:
        for h, lab, mult in spec.splitting_classes():
            items.extend(((Gen(BSEP, (h, lab, a, b)),), q * mult) for a, b, q in scaled)
    else:
        items.extend(((sep_push_sum(a, b),), q) for a, b, q in scaled)
    return items


def delta_as_atoms(spec: ModuliSpec, order: int) -> TautExpr:
    """The total boundary class in concrete atoms.

    Half the irreducible pushforward of 1 plus half the ordered sum of
    separating pushforwards of 1; merging mirror pairs leaves coefficient
    1 on each two-sided divisor and 1/2 on a self-mirror one.
    """
    if not (isinstance(spec, ModuliSpec) and spec.concrete):
        raise DomainError("concrete boundary expansion needs a concrete ModuliSpec")
    check_int(order, 0, "truncation order")
    items = [((irr_push(0, 0),), Fraction(1, 2))] if spec.genus >= 1 else []
    items += [((Gen(BSEP, (h, lab, 0, 0)),), Fraction(mult, 2))
              for h, lab, mult in spec.splitting_classes()]
    return TautExpr._collect(spec, order, items)


def expand_concrete(e: TautExpr) -> TautExpr:
    """Expand aggregate generators into per-divisor atoms on a concrete spec.

    psi power sums become sums over the named markings, delta becomes the
    concrete boundary expression, and each aggregate sep pushforward
    becomes the multiplicity-weighted sum of its canonical atoms.
    Classes above the dimension are dropped by the concrete truncation.
    """
    cspec = replace(check_expr(e).spec, concrete=True)
    order = e.order

    def fn(g: Gen) -> TautExpr:
        if g.kind == PSIPOW:
            m = g.args[0]
            return TautExpr._collect(cspec, order,
                                     [((marked_psi(p),) * m, Fraction(1))
                                      for p in cspec.labels])
        if g.kind == DELTA:
            return delta_as_atoms(cspec, order)
        if g.kind == BSEPA:
            a, b = g.args
            return TautExpr._collect(cspec, order,
                                     [((Gen(BSEP, (h, lab, a, b)),), Fraction(mult))
                                      for h, lab, mult in cspec.splitting_classes()])

    # Generators valid on e.spec stay valid on cspec; _collect caps the degree.
    return TautExpr._collect(cspec, order, e.terms).map_generators(fn)


def ch_cotangent(spec: ModuliSpec, order: int) -> TautExpr:
    """Graded Chern character of the cotangent bundle, degrees 1..order;
    order 0 gives the zero expression."""
    check_int(order, 0, "character order")
    items: list[tuple[tuple, Fraction]] = []
    for d in range(1, _cap(spec, order) + 1):
        items.append(((kappa(d),), kappa_coefficient(d)))
        if d % 2 == 1:
            items.append(((hodge_component(d),), Fraction(1)))
        items.extend(_boundary_items(spec, boundary_argument(d),
                                     boundary_coefficient(d)))
    return TautExpr._collect(spec, order, items)


def dualize(e: TautExpr) -> TautExpr:
    """Chern character of the dual bundle: degree d scaled by (-1)^d."""
    return check_expr(e).scale_degrees(-1)


def ch_tangent(spec: ModuliSpec, order: int) -> TautExpr:
    return dualize(ch_cotangent(spec, order))


def hodge_ch(spec: ModuliSpec, order: int,
             half_includes_kappa: bool = False) -> TautExpr:
    """Chern character of the Hodge bundle, degrees 1..order: expand_hodge
    of the sum of ch_k(E) over odd k <= order.

    Only odd degrees carry terms; the rank g is reported by rank().
    The kappa~ generators can be rewritten through kappa_tilde_rewrite.
    """
    check_int(order, 0, "character order")
    generators = TautExpr.build(spec, order, [((hodge_component(k),), 1)
                                              for k in range(1, order + 1, 2)])
    return expand_hodge(generators, half_includes_kappa)


def expand_hodge(e: TautExpr, half_includes_kappa: bool = False) -> TautExpr:
    """Replace each ch_k(E) generator by its kappa~/boundary expansion.

    The prefactor B_{k+1}/(k+1)! multiplies kappa~_k plus half the
    boundary pushforwards of the alternating symmetric polynomial of
    degree k-1.  With half_includes_kappa the 1/2 covers the kappa~
    term as well; that reading breaks the degree-1 identity
    lambda = (kappa_1 - psi + delta)/12 and is kept only so the
    inconsistency can be demonstrated.
    """
    check_choice(half_includes_kappa, (False, True), "half_includes_kappa")

    def fn(g):
        if g.kind == CHE:
            k = g.args[0]
            pref = bernoulli(k + 1) / factorial(k + 1)
            kappa_c = pref / 2 if half_includes_kappa else pref
            return TautExpr._collect(
                e.spec, e.order,
                [((kappa_tilde(k),), kappa_c)]
                + _boundary_items(e.spec, alternating_sym(k - 1), pref / 2))

    return check_expr(e).map_generators(fn)


def kappa_tilde_rewrite(e: TautExpr, direction: str = "expand") -> TautExpr:
    """Rewrite kappa~_m <-> kappa_m - (sum of psi^m) in either direction."""
    expand = check_choice(direction, ("expand", "collect"), "rewrite direction") == "expand"
    source, target, sign = (KAPPATILDE, kappa, -1) if expand else (KAPPA, kappa_tilde, 1)
    return check_expr(e).map_generators(lambda g: None if g.kind != source else TautExpr.build(
        e.spec, e.order, [((target(g.args[0]),), 1), ((psi_power_sum(g.args[0]),), sign)]))


def to_lambda_basis(e: TautExpr) -> TautExpr:
    """Rewrite the degree-1 block in terms of lambda, psi, and delta.

    Substitutes kappa_1 = 12*lambda + psi - delta; generic mode also
    folds the degree-1 sep aggregate into delta (the defining relation
    delta = half irr + half sep aggregate) in the same pass, as neither
    image holds the other's source.  Concrete psi and delta are in atom
    form, through expand_concrete.
    """
    spec, order = check_expr(e).spec, e.order
    kappa_1 = TautExpr.build(spec, order, [((hodge_component(1),), 12),
                                           ((psi_power_sum(1),), 1), ((delta_class(),), -1)])
    rules = {kappa(1): expand_concrete(kappa_1) if spec.concrete else kappa_1}
    if not spec.concrete:
        rules[sep_push_sum(0, 0)] = TautExpr.build(
            spec, order, [((delta_class(),), 2), ((irr_push(0, 0),), -1)])
    return e.substitute(rules)


def canonical_class(spec: ModuliSpec, order: int = 1) -> TautExpr:
    """13*lambda + psi - 2*delta, in the mode's native generators: built
    in generic generators, through expand_concrete on a concrete spec."""
    e = TautExpr.build(spec, order, [((hodge_component(1),), 13),
                                     ((psi_power_sum(1),), 1), ((delta_class(),), -2)])
    return expand_concrete(e) if spec.concrete else e


def _character(ch: Mapping[int, TautExpr], jmax: int) -> list[TautExpr]:
    """ch_1..ch_jmax, each a TautExpr on the spec and order of ch_1."""
    check_int(jmax, 0, "class count")
    if not isinstance(ch, Mapping):
        raise DomainError(f"Chern character must be a mapping, got {type(ch).__name__}")
    missing = [j for j in range(1, jmax + 1) if j not in ch]
    if missing:
        raise DomainError(f"missing Chern character components {missing}")
    parts = [ch[j] for j in range(1, jmax + 1)]
    for part in parts:
        _check_compatible(check_expr(parts[0]).spec, parts[0].order, part)
    return parts


def chern_from_ch(ch: Mapping[int, TautExpr], jmax: int) -> list[TautExpr]:
    """Chern classes c_1..c_jmax from graded Chern character components.

    c_j is the sum over partitions mu of j of the partition coefficient
    times the product of the ch components indexed by the parts.  All
    classes are one kernel call, a group per class, with each partition's
    product taken in decreasing parts: (3, 2, 1) extends (3, 2), so the
    shared products are formed once.
    """
    parts = _character(ch, jmax)
    if not parts:
        return []
    spec, order = parts[0].spec, parts[0].order
    return sums_of_products(spec, order, [
        [(partition_chern_coeff(mu), (), [parts[r - 1] for r in mu]) for mu in partitions(j)]
        for j in range(1, jmax + 1)])


def chern_exp_oracle(ch: Mapping[int, TautExpr], jmax: int) -> list[TautExpr]:
    """Independent route: graded exponential of the Newton transform.

    The total Chern class is exp of sum_r (-1)^(r-1) (r-1)! ch_r; the
    degree-j component of the exponential is c_j.  The log term is one
    merge, and the truncated sum of its powers over k! is one kernel call.
    Shares no mathematics with the partition route, only the kernel.
    """
    parts = _character(ch, jmax)
    if not parts:
        return []
    spec, order = parts[0].spec, parts[0].order
    items = []
    for r, part in enumerate(parts, 1):
        scalar = (-1) ** (r - 1) * factorial(r - 1)
        items.extend((m, c * scalar) for m, c in part.terms)
    log_term = TautExpr._collect(spec, order, items)
    total = sum_of_products(spec, order, [(Fraction(1, factorial(k)), (), [log_term] * k)
                                          for k in range(jmax + 1)])
    return [total.component(j) for j in range(1, jmax + 1)]


@dataclass(frozen=True, slots=True)
class ChResult:
    """A graded Chern character together with its degree-0 rank."""

    rank: int
    graded: TautExpr

    def component(self, d: int) -> TautExpr:
        return self.graded.component(d)

    def components(self) -> dict[int, TautExpr]:
        return {d: self.graded.component(d)
                for d in range(1, self.graded.order + 1)}


def ch_bundle(spec: ModuliSpec, order: int, bundle: str = "cotangent",
              basis: str = "kappa") -> ChResult:
    """Chern character of the tangent or cotangent bundle, basis applied."""
    check_choice(bundle, BUNDLES, "bundle")
    check_choice(basis, BASES, "basis")
    # Called by global name, not from a table, so the benchmark tracer sees each call.
    e = ch_cotangent(spec, order) if bundle == "cotangent" else ch_tangent(spec, order)
    return ChResult(rank(spec, bundle), to_lambda_basis(e) if basis == "lambda" else e)


def chern_classes(spec: ModuliSpec, jmax: int, bundle: str = "cotangent",
                  basis: str = "kappa") -> tuple[int, list[TautExpr]]:
    """Rank and the Chern classes c_1..c_jmax of the chosen bundle."""
    result = ch_bundle(spec, jmax, bundle, basis)
    return result.rank, chern_from_ch(result.components(), jmax)
