"""Graded free commutative algebra over the tautological generator alphabet.

Generators are small frozen records (kind + integer/label arguments).  A
monomial is a sorted tuple of generators; an expression is a canonical
tuple of (monomial, coefficient) pairs, in print order, attached to a moduli
specification and a truncation order.  All coefficients are exact
Fractions, and everything is immutable after construction.

Boundary pushforward symbols always carry a *symmetrized* argument: the
key (a, b) with a >= b stands for the monomial symmetric polynomial
m_(a,b) in the two cotangent classes at the node.  For separating atoms
the pair (h, A) is stored as the canonical representative of the
identification (h, A) ~ (g-h, complement of A).
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .rationals import DomainError

# Generator kind tags.  These double as the "gen" names in JSON output.
KAPPA = "kappa"
KAPPATILDE = "kappa_tilde"
PSIPOW = "psi_power_sum"
PSI = "psi"
CHE = "hodge_ch"
DELTA = "delta"
BIRR = "irr_push"
BSEPA = "sep_push_sum"
BSEP = "sep_push"

# The generator set: kind -> (stored rank, print rank, argument types).
# The stored rank orders the generators inside a monomial (fixed once,
# golden tests depend on it).  The print rank puts lambda (= hodge_ch with
# k = 1) before the psi and delta terms, matching the usual
# 13*lambda + psi - 2*delta.  The tuple argument of sep_push is its label
# set, a tuple of strings.
_KINDS = {
    KAPPA: (0, 0, (int,)),
    KAPPATILDE: (1, 1, (int,)),
    PSIPOW: (2, 3, (int,)),
    PSI: (3, 4, (str,)),
    CHE: (4, 2, (int,)),
    DELTA: (5, 5, ()),
    BIRR: (6, 6, (int, int)),
    BSEPA: (7, 7, (int, int)),
    BSEP: (8, 8, (int, tuple, int, int)),
}


def check_args(kind: str, args) -> None:
    """Raise DomainError unless kind names a generator and args is a tuple
    of its argument types (a bool is not an int)."""
    if type(kind) is not str or kind not in _KINDS:
        raise DomainError(f"unknown generator kind {kind!r}")
    types = _KINDS[kind][2]
    if (type(args) is not tuple or len(args) != len(types)
            or any(type(a) is not t for a, t in zip(args, types))
            or kind == BSEP and any(type(p) is not str for p in args[1])):
        raise DomainError(f"{kind} takes arguments "
                          f"({', '.join(t.__name__ for t in types)}), got {args!r}")


@dataclass(frozen=True, slots=True)
class Gen:
    """One tautological generator symbol, checked against the generator
    table when it is made.  Its degree is stored and takes no part in
    equality or hashing."""

    kind: str
    args: tuple = ()
    degree: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        check_args(self.kind, self.args)
        if self.kind in (BIRR, BSEPA, BSEP):
            a, b = self.args[-2:]
            if not a >= b >= 0:
                raise DomainError(f"pushforward key must have a >= b >= 0, got ({a},{b})")
            degree = a + b + 1
        elif self.kind in (PSI, DELTA):
            degree = 1
        else:
            (degree,) = self.args
            if degree < 1 or self.kind == CHE and degree % 2 == 0:
                raise DomainError(f"{self.kind} index must be >= 1 (odd for {CHE}), got {degree}")
        object.__setattr__(self, "degree", degree)

    def sort_key(self):
        return (_KINDS[self.kind][0], self.args)

    def display_key(self):
        return (_KINDS[self.kind][1], self.args)


def kappa(m: int) -> Gen:
    """kappa_m, the pushforward of c_1(omega(D))^(m+1); degree m >= 1."""
    return Gen(KAPPA, (m,))


def kappa_tilde(m: int) -> Gen:
    """kappa~_m, the variant without the marked-point twist; degree m >= 1."""
    return Gen(KAPPATILDE, (m,))


def psi_power_sum(m: int) -> Gen:
    """The aggregate sum of psi_p^m over all markings; degree m >= 1."""
    return Gen(PSIPOW, (m,))


def marked_psi(label: str) -> Gen:
    """psi at one named marking (concrete mode)."""
    return Gen(PSI, (label,))


def hodge_component(k: int) -> Gen:
    """ch_k of the Hodge bundle, k odd; k = 1 is lambda.

    Even positive components vanish identically, so only odd indices are
    representable.
    """
    return Gen(CHE, (k,))


def delta_class() -> Gen:
    """The total boundary class."""
    return Gen(DELTA)


def irr_push(a: int, b: int) -> Gen:
    """Pushforward along the irreducible boundary map of m_(a,b)(psi_q1, psi_q2).

    The key is sorted since only the symmetrization of the argument is
    well defined (the double cover swaps the two branches at the node).
    """
    return Gen(BIRR, (max(a, b), min(a, b)))


def sep_push_sum(a: int, b: int) -> Gen:
    """Aggregate of m_(a,b) pushforwards over every ordered stable splitting.

    Summing over ordered (h, A) absorbs the side swap, so the atom is
    symmetric in (a, b) by construction and the key is stored sorted.
    """
    return Gen(BSEPA, (max(a, b), min(a, b)))


# Labels print inside "{...}" lists separated by ",", so those characters
# (and whitespace) would make a rendered atom ambiguous.
_LABEL = re.compile(r"[^\s,{}]+")


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"p{i}" for i in range(1, n + 1))


@dataclass(frozen=True, slots=True)
class ModuliSpec:
    """The pair (genus, marking labels), plus the generic/concrete switch.

    Concrete mode names every boundary divisor individually and caps
    classes at the dimension 3g-3+n; generic mode works with the
    aggregate boundary symbols and no dimension cap.
    """

    genus: int
    labels: tuple[str, ...] = ()
    concrete: bool = False

    def __post_init__(self):
        if type(self.genus) is not int or self.genus < 0:
            raise DomainError(f"genus must be an int >= 0, got {self.genus!r}")
        if type(self.labels) not in (tuple, list):
            raise DomainError(f"marking labels must be a tuple or list, got {self.labels!r}")
        labels = tuple(self.labels)
        for p in labels:
            if type(p) is not str or not _LABEL.fullmatch(p):
                raise DomainError(
                    f"marking label {p!r} must be a non-empty string without "
                    "',', '{', '}' or whitespace")
        if len(set(labels)) != len(labels):
            raise DomainError(f"marking labels must be distinct, got {labels}")
        object.__setattr__(self, "labels", labels)
        if self.n <= 2 - 2 * self.genus:
            raise DomainError(
                f"unstable specification: stability requires n > 2 - 2*g, "
                f"got g={self.genus}, n={self.n}"
            )

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def dimension(self) -> int:
        return 3 * self.genus - 3 + self.n

    def _positions(self, labels: Iterable[str]) -> tuple[int, ...]:
        """Sorted marking positions of a label subset given in any form."""
        lab = tuple(labels)
        for p in lab:
            if p not in self.labels:
                raise DomainError(f"unknown marking label {p!r}")
        if len(set(lab)) != len(lab):
            raise DomainError("repeated marking label in subset")
        return tuple(sorted(map(self.labels.index, lab)))

    def splitting_is_stable(self, h: int, labels: Iterable[str]) -> bool:
        """Both sides of the separating splitting (h, A) must be stable."""
        if h < 0 or h > self.genus:
            return False
        size = len(self._positions(labels))
        return (2 * h - 1 + size > 0) and (2 * (self.genus - h) - 1 + (self.n - size) > 0)

    def ordered_splittings(self) -> list[tuple[int, tuple[str, ...]]]:
        """Every ordered stable pair (h, A), in a fixed deterministic order."""
        return list(_splitting_table(self))

    def mirror_splitting(self, h: int, labels: Iterable[str]) -> tuple[int, tuple[str, ...]]:
        idx = self._positions(labels)
        return (self.genus - h, tuple(p for i, p in enumerate(self.labels) if i not in idx))

    def canonical_splitting(self, h: int, labels: Iterable[str]) -> tuple[int, tuple[str, ...]]:
        """The smaller of (h, A) and its mirror, compared by (h, |A|,
        marking positions of A)."""
        idx = self._positions(labels)
        comp = tuple(i for i in range(self.n) if i not in idx)
        hh, _, pos = min((h, len(idx), idx), (self.genus - h, len(comp), comp))
        return hh, tuple(self.labels[i] for i in pos)

    def splitting_classes(self) -> list[tuple[int, tuple[str, ...], int]]:
        """Canonical separating divisor representatives with multiplicities.

        The multiplicity counts ordered splittings in the class: 2 for a
        divisor whose mirror differs, 1 for the self-mirror middle case
        (even genus, no markings).  Representatives come in the table's
        order, which is the order of the canonical comparison.
        """
        table = _splitting_table(self)
        counts = Counter(table.values())
        return [(h, lab, counts[side]) for (h, lab), side in table.items()
                if side == (h, lab)]

    def boundary_divisors(self) -> list[tuple]:
        """Canonical list of boundary divisors: ("irr",) then ("sep", h, A)."""
        out: list[tuple] = []
        if self.genus >= 1:
            out.append(("irr",))
        for h, lab, _mult in self.splitting_classes():
            out.append(("sep", h, lab))
        return out

    def boundary_count(self) -> int:
        return len(self.boundary_divisors())

    def sep_push(self, h: int, labels: Iterable[str], a: int, b: int) -> Gen:
        """One separating pushforward atom xi_{h,A}_*(m_(a,b)(psi_r1, psi_r2)).

        Stored on the canonical side of the (h, A) ~ (g-h, A^c)
        identification, with the symmetric argument key sorted.
        """
        if not self.splitting_is_stable(h, labels):
            raise DomainError(
                f"splitting (h={h}, A={tuple(labels)}) is not stable on "
                f"(g={self.genus}, n={self.n})"
            )
        ch, clab = self.canonical_splitting(h, labels)
        return Gen(BSEP, (ch, clab, max(a, b), min(a, b)))


@lru_cache(maxsize=32)
def _splitting_table(spec: ModuliSpec) -> dict:
    """Every ordered stable splitting (h, A) of spec mapped to the canonical
    side of its class, in enumeration order: h, then |A|, then A by
    marking positions.  Computed once per specification and shared, so
    callers only read it."""
    g, n = spec.genus, spec.n
    table = {}
    for h in range(g + 1):
        for size in range(n + 1):
            if 2 * h - 1 + size > 0 and 2 * (g - h) - 1 + (n - size) > 0:
                for idx in itertools.combinations(range(n), size):
                    lab = tuple(spec.labels[i] for i in idx)
                    table[(h, lab)] = spec.canonical_splitting(h, lab)
    return table


Monomial = tuple[Gen, ...]


def monomial(*gens: Gen) -> Monomial:
    return tuple(sorted(gens, key=Gen.sort_key))


def monomial_degree(mono: Monomial) -> int:
    return sum(g.degree for g in mono)


def _validate_gen(gen: Gen, spec: ModuliSpec) -> None:
    if gen.kind == PSI:
        if not spec.concrete:
            raise DomainError("psi at a named marking requires a concrete specification")
        if gen.args[0] not in spec.labels:
            raise DomainError(f"unknown marking label {gen.args[0]!r}")
    elif gen.kind == BSEP:
        if not spec.concrete:
            raise DomainError("individual sep pushforward atoms require a concrete specification")
        h, lab = gen.args[:2]
        if (h, lab) != spec.canonical_splitting(h, lab):
            raise DomainError(f"sep atom side (h={h}, A={lab}) is not canonical")
        if not spec.splitting_is_stable(h, lab):
            raise DomainError(f"sep atom splitting (h={h}, A={lab}) is not stable")


def _monomial_vanishes(mono: Monomial, spec: ModuliSpec) -> bool:
    for g in mono:
        if g.kind == PSIPOW and spec.n == 0:
            return True
        if g.kind == BIRR and spec.genus == 0:
            return True
    return False


@dataclass(frozen=True, slots=True)
class TautExpr:
    """Canonical graded expression: (monomial, coefficient) pairs in print
    order.  Raw input is checked when a Gen is made and, against the spec,
    in build; arithmetic trusts its operands and only merges terms."""

    spec: ModuliSpec
    order: int
    terms: tuple[tuple[Monomial, Fraction], ...] = ()

    @staticmethod
    def build(spec: ModuliSpec, order: int,
              items: Iterable[tuple[Iterable[Gen], Fraction | int]]) -> "TautExpr":
        """Canonicalize raw (generators, coefficient) pairs into an expression.

        Zero coefficients, terms above the truncation order, terms above
        the dimension (concrete mode only), and monomials that vanish
        identically (psi sums with no markings, irreducible atoms in
        genus 0) are all dropped.
        """
        if type(order) is not int or order < 0:
            raise DomainError(f"truncation order must be an int >= 0, got {order!r}")
        checked = []
        for gens, coeff in items:
            if type(coeff) is not int and not isinstance(coeff, Fraction):
                raise DomainError(f"coefficient must be an int or a Fraction, got {coeff!r}")
            q = Fraction(coeff)
            if q == 0:
                continue
            mono = monomial(*gens)
            for g in mono:
                _validate_gen(g, spec)
            if not _monomial_vanishes(mono, spec):
                checked.append((mono, q))
        return TautExpr._collect(spec, order, checked)

    @staticmethod
    def _collect(spec: ModuliSpec, order: int,
                 pairs: Iterable[tuple[Monomial, Fraction]]) -> "TautExpr":
        """Merge (monomial, coefficient) pairs that are already canonical on
        spec: sum repeated monomials, drop zero sums and terms above the
        cap, and sort into print order: by degree, then by the display keys
        of the monomial's generators."""
        cap = min(order, spec.dimension) if spec.concrete else order
        acc: dict[Monomial, Fraction] = {}
        for mono, q in pairs:
            acc[mono] = acc.get(mono, 0) + q
        terms = [(m, c) for m, c in acc.items() if c and monomial_degree(m) <= cap]
        terms.sort(key=lambda mc: (monomial_degree(mc[0]),
                                   tuple(g.display_key() for g in mc[0])))
        return TautExpr(spec, order, tuple(terms))

    @staticmethod
    def zero(spec: ModuliSpec, order: int) -> "TautExpr":
        return TautExpr.build(spec, order, [])

    @staticmethod
    def one(spec: ModuliSpec, order: int) -> "TautExpr":
        return TautExpr.build(spec, order, [((), Fraction(1))])

    @staticmethod
    def of(spec: ModuliSpec, order: int, gens: Gen | Iterable[Gen],
           coeff: Fraction | int = 1) -> "TautExpr":
        if isinstance(gens, Gen):
            gens = (gens,)
        return TautExpr.build(spec, order, [(tuple(gens), coeff)])

    def _check_compatible(self, other: "TautExpr") -> None:
        if self.spec != other.spec:
            raise DomainError("expressions live on different moduli specifications")
        if self.order != other.order:
            raise DomainError(
                f"expressions have different truncation orders "
                f"({self.order} vs {other.order})"
            )

    def __add__(self, other: "TautExpr") -> "TautExpr":
        self._check_compatible(other)
        return TautExpr._collect(self.spec, self.order, self.terms + other.terms)

    def __sub__(self, other: "TautExpr") -> "TautExpr":
        return self + (-other)

    def __neg__(self) -> "TautExpr":
        return self.scale(-1)

    def scale(self, q: Fraction | int) -> "TautExpr":
        q = Fraction(q)
        return TautExpr._collect(self.spec, self.order,
                                 [(m, c * q) for m, c in self.terms])

    def scale_degrees(self, q: Fraction | int) -> "TautExpr":
        """The expression with its degree-d part multiplied by q^d."""
        return TautExpr._collect(self.spec, self.order,
                                 [(m, c * q ** monomial_degree(m)) for m, c in self.terms])

    def __mul__(self, other: "TautExpr") -> "TautExpr":
        self._check_compatible(other)
        return TautExpr._collect(self.spec, self.order, (
            (monomial(*m1, *m2), c1 * c2)
            for m1, c1 in self.terms for m2, c2 in other.terms))

    def __pow__(self, k: int) -> "TautExpr":
        if k < 0:
            raise DomainError(f"expression powers must be >= 0, got {k}")
        out = TautExpr.one(self.spec, self.order)
        for _ in range(k):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> list[int]:
        return sorted({monomial_degree(m) for m, _ in self.terms})

    def component(self, d: int) -> "TautExpr":
        return TautExpr._collect(self.spec, self.order,
                                 [(m, c) for m, c in self.terms
                                  if monomial_degree(m) == d])

    def coefficient(self, gens: Gen | Iterable[Gen]) -> Fraction:
        if isinstance(gens, Gen):
            gens = (gens,)
        target = monomial(*gens)
        for m, c in self.terms:
            if m == target:
                return c
        return Fraction(0)

    def map_generators(self, fn, spec: ModuliSpec | None = None,
                       order: int | None = None) -> "TautExpr":
        """Rebuild the expression with every generator sent through fn.

        fn returns a TautExpr on the target spec/order; products of
        images replace products of generators.  This is the engine under
        both substitution and concrete expansion.
        """
        tspec = spec if spec is not None else self.spec
        torder = order if order is not None else self.order
        return sum_of_products(tspec, torder,
                               ((c, map(fn, m)) for m, c in self.terms))

    def substitute(self, rules: Mapping[Gen, "TautExpr"]) -> "TautExpr":
        """Replace generators by expressions of the same degree everywhere."""
        for src, img in rules.items():
            self._check_compatible(img)
            for m, _ in img.terms:
                if monomial_degree(m) != src.degree:
                    raise DomainError(
                        f"substitution for {src.kind}{src.args} is not "
                        f"homogeneous of degree {src.degree}"
                    )

        def fn(g: Gen) -> "TautExpr":
            if g in rules:
                return rules[g]
            return TautExpr.of(self.spec, self.order, g)

        return self.map_generators(fn)


def sum_of_products(spec: ModuliSpec, order: int,
                    products: Iterable[tuple[Fraction, Iterable[TautExpr]]]) -> TautExpr:
    """The sum of c * f1 * f2 * ... over the (c, factors) pairs, merged once.

    Products of canonical expressions are canonical, so their terms are
    streamed into one collector call and only one product is held at a time.
    """
    one = TautExpr.one(spec, order)

    def terms():
        for c, factors in products:
            piece = one.scale(c)
            for f in factors:
                piece = piece * f
            yield from piece.terms

    return TautExpr._collect(spec, order, terms())


def delta_as_atoms(spec: ModuliSpec, order: int) -> TautExpr:
    """The total boundary class in concrete atoms.

    Half the irreducible pushforward of 1 plus half the ordered sum of
    separating pushforwards of 1; merging mirror pairs leaves coefficient
    1 on each two-sided divisor and 1/2 on a self-mirror one.
    """
    if not spec.concrete:
        raise DomainError("concrete boundary expansion needs a concrete specification")
    items: list[tuple[tuple[Gen, ...], Fraction]] = []
    if spec.genus >= 1:
        items.append(((irr_push(0, 0),), Fraction(1, 2)))
    for h, lab, mult in spec.splitting_classes():
        items.append(((spec.sep_push(h, lab, 0, 0),), Fraction(mult, 2)))
    return TautExpr.build(spec, order, items)


def expand_concrete(e: TautExpr) -> TautExpr:
    """Expand aggregate generators into per-divisor atoms on a concrete spec.

    psi power sums become sums over the named markings, delta becomes the
    concrete boundary expression, and each aggregate sep pushforward
    becomes the multiplicity-weighted sum of its canonical atoms.
    Classes above the dimension are dropped by the concrete truncation.
    """
    cspec = replace(e.spec, concrete=True)
    order = e.order

    def fn(g: Gen) -> TautExpr:
        if g.kind == PSIPOW:
            m = g.args[0]
            return TautExpr.build(cspec, order,
                                  [((marked_psi(p),) * m, Fraction(1))
                                   for p in cspec.labels])
        if g.kind == DELTA:
            return delta_as_atoms(cspec, order)
        if g.kind == BSEPA:
            a, b = g.args
            return TautExpr.build(cspec, order,
                                  [((cspec.sep_push(h, lab, a, b),), Fraction(mult))
                                   for h, lab, mult in cspec.splitting_classes()])
        return TautExpr.of(cspec, order, g)

    return e.map_generators(fn, spec=cspec, order=order)
