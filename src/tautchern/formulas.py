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
as a term of the graded expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Mapping

from .algebra import (
    CHE,
    KAPPA,
    KAPPATILDE,
    ModuliSpec,
    TautExpr,
    delta_as_atoms,
    delta_class,
    expand_concrete,
    hodge_component,
    irr_push,
    kappa,
    kappa_tilde,
    marked_psi,
    psi_power_sum,
    sep_push_sum,
    sum_of_products,
)
from .partitions import (
    SymPoly2,
    alternating_sym,
    partition_chern_coeff,
    partitions,
    power_sym,
)
from .rationals import DomainError, bernoulli, kappa_correction

BUNDLES = ("cotangent", "tangent")


def kappa_coefficient(d: int) -> Fraction:
    """Coefficient of kappa_d in the cotangent Chern character, d >= 1.

    Three sources: 1/(d+1)! from the main exponential sum, 1/(2*d!) from
    the half sum, minus the correction constant a_{d+1} once d >= 2.
    Simplifies to 2/(d+1)!; the test suite checks that identity rather
    than assuming it here.
    """
    if d < 1:
        raise DomainError(f"kappa coefficient is defined for degree >= 1, got {d}")
    coeff = Fraction(1, factorial(d + 1)) + Fraction(1, 2 * factorial(d))
    if d >= 2:
        coeff -= kappa_correction(d + 1)
    return coeff


def boundary_coefficient(d: int) -> Fraction:
    """Scalar in front of the degree-d boundary pushforward block."""
    if d < 1:
        raise DomainError(f"boundary coefficient is defined for degree >= 1, got {d}")
    return Fraction((-1) ** d, 2 * factorial(d))


def boundary_argument(d: int) -> SymPoly2:
    """Symmetric psi-polynomial pushed forward at degree d: (x+y)^(d-1)."""
    return power_sym(d - 1)


def rank(spec: ModuliSpec, bundle: str = "cotangent") -> int:
    """Degree-0 value of the Chern character: the bundle rank."""
    if bundle in ("cotangent", "tangent"):
        return spec.dimension
    if bundle == "hodge":
        return spec.genus
    raise DomainError(f"unknown bundle {bundle!r}")


def _boundary_items(spec: ModuliSpec, shapes: SymPoly2, scalar: Fraction):
    """scalar times the pushforwards of the symmetric polynomial shapes
    along the irreducible and the separating boundary maps.

    In concrete mode the separating part is assembled divisor by divisor,
    iterating every ordered stable splitting directly; the generic route
    goes through the aggregate atoms instead, so the two paths are
    genuinely independent and can be compared.
    """
    items = [((irr_push(a, b),), scalar * c) for (a, b), c in shapes.items()]
    if spec.concrete:
        for h, lab in spec.ordered_splittings():
            items.extend(((spec.sep_push(h, lab, a, b),), scalar * c)
                         for (a, b), c in shapes.items())
    else:
        items.extend(((sep_push_sum(a, b),), scalar * c)
                     for (a, b), c in shapes.items())
    return items


def ch_cotangent(spec: ModuliSpec, order: int) -> TautExpr:
    """Graded Chern character of the cotangent bundle, degrees 1..order."""
    if order < 1:
        raise DomainError(f"character order must be >= 1, got {order}")
    items: list[tuple[tuple, Fraction]] = []
    top = min(order, spec.dimension) if spec.concrete else order
    for d in range(1, top + 1):
        items.append(((kappa(d),), kappa_coefficient(d)))
        if d % 2 == 1:
            items.append(((hodge_component(d),), Fraction(1)))
        items.extend(_boundary_items(spec, boundary_argument(d),
                                     boundary_coefficient(d)))
    return TautExpr.build(spec, order, items)


def dualize(e: TautExpr) -> TautExpr:
    """Chern character of the dual bundle: degree d scaled by (-1)^d."""
    return e.scale_degrees(-1)


def ch_tangent(spec: ModuliSpec, order: int) -> TautExpr:
    return dualize(ch_cotangent(spec, order))


def _hodge_component_items(spec: ModuliSpec, m: int,
                           half_includes_kappa: bool):
    """Terms of ch_{2m-1} of the Hodge bundle.

    The prefactor B_{2m}/(2m)! multiplies kappa~_{2m-1} plus half the
    boundary pushforwards of the alternating symmetric polynomial of
    degree 2m-2.  With half_includes_kappa the 1/2 covers the kappa~
    term as well; that reading breaks the degree-1 identity
    lambda = (kappa_1 - psi + delta)/12 and is kept only so the
    inconsistency can be demonstrated.
    """
    pref = bernoulli(2 * m) / factorial(2 * m)
    kappa_c = pref / 2 if half_includes_kappa else pref
    return ([((kappa_tilde(2 * m - 1),), kappa_c)]
            + _boundary_items(spec, alternating_sym(2 * m - 2), pref / 2))


def hodge_ch(spec: ModuliSpec, order: int,
             half_includes_kappa: bool = False) -> TautExpr:
    """Chern character of the Hodge bundle, degrees 1..order.

    Only odd degrees 2m-1 carry terms; the rank g is reported by rank().
    The kappa~ generators can be rewritten through kappa_tilde_rewrite.
    """
    if order < 0:
        raise DomainError(f"character order must be >= 0, got {order}")
    items: list[tuple[tuple, Fraction]] = []
    m = 1
    while 2 * m - 1 <= order:
        items.extend(_hodge_component_items(spec, m, half_includes_kappa))
        m += 1
    return TautExpr.build(spec, order, items)


def expand_hodge(e: TautExpr, half_includes_kappa: bool = False) -> TautExpr:
    """Replace each ch_k(E) generator by its kappa~/boundary expansion."""

    def fn(g):
        if g.kind == CHE:
            m = (g.args[0] + 1) // 2
            return TautExpr.build(
                e.spec, e.order,
                _hodge_component_items(e.spec, m, half_includes_kappa))
        return TautExpr.of(e.spec, e.order, g)

    return e.map_generators(fn)


def kappa_tilde_rewrite(e: TautExpr, direction: str = "expand") -> TautExpr:
    """Rewrite kappa~_m <-> kappa_m - (sum of psi^m) in either direction."""
    if direction == "expand":
        source, target, sign = KAPPATILDE, kappa, -1
    elif direction == "collect":
        source, target, sign = KAPPA, kappa_tilde, 1
    else:
        raise DomainError(f"unknown rewrite direction {direction!r}")
    rules = {}
    for mono, _ in e.terms:
        for g in mono:
            if g.kind == source and g not in rules:
                m = g.args[0]
                rules[g] = TautExpr.build(e.spec, e.order, [
                    ((target(m),), 1), ((psi_power_sum(m),), sign)])
    return e.substitute(rules)


def psi_total(spec: ModuliSpec, order: int) -> TautExpr:
    """The degree-1 psi sum: aggregate in generic mode, named in concrete."""
    if spec.concrete:
        return TautExpr.build(spec, order,
                              [((marked_psi(p),), Fraction(1))
                               for p in spec.labels])
    return TautExpr.of(spec, order, psi_power_sum(1))


def delta_total(spec: ModuliSpec, order: int) -> TautExpr:
    """The total boundary class in the mode's native generators."""
    if spec.concrete:
        return delta_as_atoms(spec, order)
    return TautExpr.of(spec, order, delta_class())


def to_lambda_basis(e: TautExpr) -> TautExpr:
    """Rewrite the degree-1 block in terms of lambda, psi, and delta.

    Generic mode first folds the two degree-1 boundary atoms back into
    delta (the defining relation delta = half irr + half sep aggregate),
    then substitutes kappa_1 = 12*lambda + psi - delta.  Concrete mode
    substitutes kappa_1 with delta already in atom form.
    """
    spec, order = e.spec, e.order
    if not spec.concrete:
        fold = (TautExpr.of(spec, order, delta_class()).scale(2)
                - TautExpr.of(spec, order, irr_push(0, 0)))
        e = e.substitute({sep_push_sum(0, 0): fold})
    rule = (TautExpr.of(spec, order, hodge_component(1)).scale(12)
            + psi_total(spec, order) - delta_total(spec, order))
    return e.substitute({kappa(1): rule})


def canonical_class(spec: ModuliSpec, order: int = 1) -> TautExpr:
    """13*lambda + psi - 2*delta, in the mode's native generators."""
    lam = TautExpr.of(spec, order, hodge_component(1))
    return (lam.scale(13) + psi_total(spec, order)
            - delta_total(spec, order).scale(2))


def chern_from_ch(ch: Mapping[int, TautExpr], jmax: int) -> list[TautExpr]:
    """Chern classes c_1..c_jmax from graded Chern character components.

    c_j is the sum over partitions mu of j of the partition coefficient
    times the product of the ch components indexed by the parts.
    """
    if jmax < 0:
        raise DomainError(f"class count must be >= 0, got {jmax}")
    if jmax == 0:
        return []
    missing = [j for j in range(1, jmax + 1) if j not in ch]
    if missing:
        raise DomainError(f"missing Chern character components {missing}")
    probe = ch[1]
    return [sum_of_products(probe.spec, probe.order,
                            ((partition_chern_coeff(mu), [ch[part] for part in mu])
                             for mu in partitions(j)))
            for j in range(1, jmax + 1)]


def chern_exp_oracle(ch: Mapping[int, TautExpr], jmax: int) -> list[TautExpr]:
    """Independent route: graded exponential of the Newton transform.

    The total Chern class is exp of sum_r (-1)^(r-1) (r-1)! ch_r; the
    degree-j component of the exponential is c_j.  Shares no code with
    the partition route.
    """
    if jmax < 0:
        raise DomainError(f"class count must be >= 0, got {jmax}")
    if jmax == 0:
        return []
    missing = [j for j in range(1, jmax + 1) if j not in ch]
    if missing:
        raise DomainError(f"missing Chern character components {missing}")
    probe = ch[1]
    spec, order = probe.spec, probe.order
    log_term = TautExpr.zero(spec, order)
    for r in range(1, jmax + 1):
        log_term = log_term + ch[r].scale(Fraction((-1) ** (r - 1) * factorial(r - 1)))
    total = TautExpr.one(spec, order)
    power = TautExpr.one(spec, order)
    for k in range(1, jmax + 1):
        power = (power * log_term).scale(Fraction(1, k))
        total = total + power
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
    if bundle == "cotangent":
        e = ch_cotangent(spec, order)
    elif bundle == "tangent":
        e = ch_tangent(spec, order)
    else:
        raise DomainError(f"unknown bundle {bundle!r}; expected one of {BUNDLES}")
    if basis == "lambda":
        e = to_lambda_basis(e)
    elif basis != "kappa":
        raise DomainError(f"unknown basis {basis!r}; expected 'kappa' or 'lambda'")
    return ChResult(rank(spec, bundle), e)


def chern_classes(spec: ModuliSpec, jmax: int, bundle: str = "cotangent",
                  basis: str = "kappa") -> tuple[int, list[TautExpr]]:
    """Rank and the Chern classes c_1..c_jmax of the chosen bundle."""
    if jmax == 0:
        return rank(spec, bundle), []
    result = ch_bundle(spec, jmax, bundle, basis)
    return result.rank, chern_from_ch(result.components(), jmax)
