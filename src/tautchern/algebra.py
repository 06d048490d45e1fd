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

Every product runs in one kernel, sums_of_products, which sums
c * m * f1 * f2 * ... over each group of (c, m, factors) triples.  A
per-call table numbers the generators in stored order, monomials become
sorted int tuples, coefficients integer numerators over one lcm per
group, and each output term costs one Fraction; the table dies with the
call.  One walk over the tree of chain prefixes forms the product of
each shared prefix (same monomial, same factor objects) once for all
groups, with no coefficient; a chain's numerator enters only where it is
added into its total.  The collector under +, scale and component also
sums integer numerators over one lcm.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .rationals import DomainError, _exact, check_choice, check_int

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
    table when it is made.  Its degree, hash (that of (kind, args)) and
    order keys are stored once and take no part in equality."""

    kind: str
    args: tuple = ()
    degree: int = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)
    sort_key: tuple = field(init=False, compare=False, repr=False)
    display_key: tuple = field(init=False, compare=False, repr=False)

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
        object.__setattr__(self, "_hash", hash((self.kind, self.args)))
        object.__setattr__(self, "sort_key", (_KINDS[self.kind][0], self.args))
        object.__setattr__(self, "display_key", (_KINDS[self.kind][1], self.args))

    def __hash__(self):
        return self._hash


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
    return _sorted_key(BIRR, a, b)


def sep_push_sum(a: int, b: int) -> Gen:
    """Aggregate of m_(a,b) pushforwards over every ordered stable splitting.

    Summing over ordered (h, A) absorbs the side swap, so the atom is
    symmetric in (a, b) by construction and the key is stored sorted.
    """
    return _sorted_key(BSEPA, a, b)


def _sorted_key(kind: str, a: int, b: int) -> Gen:
    """The pushforward atom of kind with key (a, b) sorted; the types are
    checked first, so a wrong one raises DomainError, not TypeError."""
    check_args(kind, (a, b))
    return Gen(kind, (max(a, b), min(a, b)))


# Labels print inside "{...}" lists separated by ",", so those characters
# (and whitespace) would make a rendered atom ambiguous.
_LABEL = re.compile(r"[^\s,{}]+")


def default_labels(n: int) -> tuple[str, ...]:
    check_int(n, 0, "marking count")
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
        check_int(self.genus, 0, "genus")
        check_choice(self.concrete, (False, True), "concrete")
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

    def _positions(self, h: int, labels: Iterable[str]) -> tuple[int, ...]:
        """Sorted marking positions of the label subset of a splitting
        (h, A), with A given as any iterable; h must be an int."""
        if type(h) is not int:
            raise DomainError(f"splitting genus must be an int, got {h!r}")
        try:
            lab = tuple(labels)
        except TypeError:
            raise DomainError(f"splitting labels must be iterable, got {labels!r}") from None
        for p in lab:
            if p not in self.labels:
                raise DomainError(f"unknown marking label {p!r}")
        if len(set(lab)) != len(lab):
            raise DomainError("repeated marking label in subset")
        return tuple(sorted(map(self.labels.index, lab)))

    def _side(self, h: int, labels: Iterable[str]) -> tuple[bool, tuple[int, tuple[str, ...]]]:
        """Whether the splitting (h, A) is stable, and its canonical side,
        from one _positions call and without the splitting table."""
        idx = self._positions(h, labels)
        comp = tuple(i for i in range(self.n) if i not in idx)
        stable = (0 <= h <= self.genus and 2 * h - 1 + len(idx) > 0
                  and 2 * (self.genus - h) - 1 + len(comp) > 0)
        hh, _, pos = min((h, len(idx), idx), (self.genus - h, len(comp), comp))
        return stable, (hh, tuple(self.labels[i] for i in pos))

    def _stable_side(self, h: int, labels: Iterable[str]) -> tuple[int, tuple[str, ...]]:
        """The canonical side of the splitting (h, A), which must be stable."""
        stable, side = self._side(h, labels)
        if not stable:
            raise DomainError(f"splitting (h={h}, A={tuple(labels)}) is not stable on "
                              f"(g={self.genus}, n={self.n})")
        return side

    def splitting_is_stable(self, h: int, labels: Iterable[str]) -> bool:
        """Both sides of the separating splitting (h, A) must be stable."""
        return self._side(h, labels)[0]

    def ordered_splittings(self) -> list[tuple[int, tuple[str, ...]]]:
        """Every ordered stable pair (h, A), in a fixed deterministic order."""
        return list(_splitting_table(self))

    def mirror_splitting(self, h: int, labels: Iterable[str]) -> tuple[int, tuple[str, ...]]:
        idx = self._positions(h, labels)
        check_int(min(h, self.genus - h), 0, "genus of each splitting side")
        return (self.genus - h, tuple(p for i, p in enumerate(self.labels) if i not in idx))

    def canonical_splitting(self, h: int, labels: Iterable[str]) -> tuple[int, tuple[str, ...]]:
        """The smaller of (h, A) and its mirror, compared by (h, |A|,
        marking positions of A)."""
        hh, lab = self._side(h, labels)[1]
        return check_int(hh, 0, "genus of each splitting side"), lab

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

    def boundary_count(self) -> int:
        return (self.genus >= 1) + len(self.splitting_classes())

    def sep_push(self, h: int, labels: Iterable[str], a: int, b: int) -> Gen:
        """One separating pushforward atom xi_{h,A}_*(m_(a,b)(psi_r1, psi_r2)).

        Stored on the canonical side of the (h, A) ~ (g-h, A^c)
        identification, with the symmetric argument key sorted.
        """
        if not all(type(x) is int for x in (h, a, b)):
            raise DomainError(f"sep_push takes int h, a and b, got {(h, a, b)!r}")
        return Gen(BSEP, (*self._stable_side(h, labels), max(a, b), min(a, b)))


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
    if not all(isinstance(g, Gen) for g in gens):
        raise DomainError(f"monomial factors must be Gen, got {gens!r}")
    return tuple(sorted(gens, key=attrgetter("sort_key")))


def _gen_tuple(gens: Gen | Iterable[Gen]) -> tuple:
    """One Gen, or an iterable of them, as a tuple; anything else is a
    DomainError."""
    if isinstance(gens, Gen):
        return (gens,)
    if not isinstance(gens, Iterable):
        raise DomainError(f"generators must be a Gen or an iterable of Gen, got {gens!r}")
    return tuple(gens)


def monomial_degree(mono: Monomial) -> int:
    # Summing a list, not a generator: on a monomial's short tuple the
    # generator costs about half again as much.
    return sum([g.degree for g in mono])


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
        if (h, lab) != spec._stable_side(h, lab):
            raise DomainError(f"sep atom side (h={h}, A={lab}) is not canonical")


def _monomial_vanishes(mono: Monomial, spec: ModuliSpec) -> bool:
    for g in mono:
        if g.kind == PSIPOW and spec.n == 0:
            return True
        if g.kind == BIRR and spec.genus == 0:
            return True
    return False


def _cap(spec: ModuliSpec, order: int) -> int:
    """The highest degree an expression keeps: the truncation order, and
    in concrete mode also the dimension.  build, _collect, ch_cotangent
    and the product kernel all pass here, so this is the one check that
    spec is a ModuliSpec."""
    if not isinstance(spec, ModuliSpec):
        raise DomainError(f"expected a ModuliSpec, got {type(spec).__name__}")
    return min(order, spec.dimension) if spec.concrete else order


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
        genus 0) are all dropped.  An item that is not a pair, or a factor
        that is not a Gen, is refused.
        """
        check_int(order, 0, "truncation order")
        _cap(spec, order)  # the spec check, before any generator is validated on it
        if not isinstance(items, Iterable):
            raise DomainError(f"expression items must be iterable, got {items!r}")
        checked = []
        for item in items:
            try:
                gens, coeff = item
                gens = tuple(gens)
            except (TypeError, ValueError):
                raise DomainError(f"expression items must be (generators, coefficient) "
                                  f"pairs, got {item!r}") from None
            mono = monomial(*gens)
            q = _exact(coeff)
            if q == 0:
                continue
            for g in mono:
                _validate_gen(g, spec)
            if not _monomial_vanishes(mono, spec):
                checked.append((mono, q))
        return TautExpr._collect(spec, order, checked)

    @staticmethod
    def _collect(spec: ModuliSpec, order: int,
                 pairs: Sequence[tuple[Monomial, Fraction]]) -> "TautExpr":
        """Merge (monomial, coefficient) pairs that are already canonical on
        spec: sum repeated monomials, drop zero sums and terms above the
        cap, and sort into print order: by degree, then by the display keys
        of the monomial's generators."""
        cap = _cap(spec, order)
        den = lcm(*[q.denominator for _, q in pairs])
        acc: dict[Monomial, int] = {}
        for mono, q in pairs:
            acc[mono] = acc.get(mono, 0) + q.numerator * (den // q.denominator)
        terms = [(m, Fraction(n, den)) for m, n in acc.items()
                 if n and monomial_degree(m) <= cap]
        terms.sort(key=lambda mc: (monomial_degree(mc[0]),
                                   tuple([g.display_key for g in mc[0]])))
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
        return TautExpr.build(spec, order, [(_gen_tuple(gens), coeff)])

    def __add__(self, other: "TautExpr") -> "TautExpr":
        _check_compatible(self.spec, self.order, other)
        return TautExpr._collect(self.spec, self.order, self.terms + other.terms)

    def __sub__(self, other: "TautExpr") -> "TautExpr":
        return self + (-other)

    def __neg__(self) -> "TautExpr":
        return self.scale(-1)

    def scale(self, q: Fraction | int) -> "TautExpr":
        q = _exact(q)
        return TautExpr._collect(self.spec, self.order,
                                 [(m, c * q) for m, c in self.terms])

    def scale_degrees(self, q: Fraction | int) -> "TautExpr":
        """The expression with its degree-d part multiplied by q^d."""
        q = _exact(q)
        return TautExpr._collect(self.spec, self.order,
                                 [(m, c * q ** monomial_degree(m)) for m, c in self.terms])

    def __mul__(self, other: "TautExpr") -> "TautExpr":
        """The truncated product: each left term times other, in the kernel.
        other is checked here too, since a zero self hands the kernel none."""
        _check_compatible(self.spec, self.order, other)
        return sums_of_products(self.spec, self.order,
                                [[(c, m, (other,)) for m, c in self.terms]])[0]

    def __pow__(self, k: int) -> "TautExpr":
        check_int(k, 0, "expression power")
        return sums_of_products(self.spec, self.order, [[(Fraction(1), (), [self] * k)]])[0]

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> list[int]:
        return sorted({monomial_degree(m) for m, _ in self.terms})

    def component(self, d: int) -> "TautExpr":
        """The degree-d part: a slice, since the terms are in degree order."""
        if type(d) is not int:
            raise DomainError(f"component degree must be an int, got {d!r}")
        terms, degree = self.terms, lambda t: monomial_degree(t[0])
        lo = bisect_left(terms, d, key=degree)
        return TautExpr(self.spec, self.order, terms[lo:bisect_right(terms, d, lo, key=degree)])

    def coefficient(self, gens: Gen | Iterable[Gen]) -> Fraction:
        target = monomial(*_gen_tuple(gens))
        for m, c in self.terms:
            if m == target:
                return c
        return Fraction(0)

    def map_generators(self, fn) -> "TautExpr":
        """Rebuild the expression with each generator g that fn sends to a
        TautExpr (on this spec and order) replaced by that image; fn(g) is
        None keeps g.  fn is called once per distinct generator.  The kept
        generators seed each product unchanged.  This is the engine under
        substitution and under expansion.
        """
        if not callable(fn):
            raise DomainError(f"map_generators needs a callable, got {fn!r}")
        memo: dict[Gen, TautExpr | None] = {}

        def split(m, c):
            images = [memo[g] if g in memo else memo.setdefault(g, fn(g)) for g in m]
            return (c, tuple(g for g, img in zip(m, images) if img is None),
                    [img for img in images if img is not None])

        return sums_of_products(self.spec, self.order, [(split(m, c) for m, c in self.terms)])[0]

    def substitute(self, rules: Mapping[Gen, "TautExpr"]) -> "TautExpr":
        """Replace generators by expressions of the same degree everywhere."""
        if not isinstance(rules, Mapping):
            raise DomainError(f"substitution rules must be a mapping, got {type(rules).__name__}")
        for src, img in rules.items():
            if not isinstance(src, Gen):
                raise DomainError(f"substitution rules map a Gen to a TautExpr, got "
                                  f"{type(src).__name__} -> {type(img).__name__}")
            _check_compatible(self.spec, self.order, img)
            for m, _ in img.terms:
                if monomial_degree(m) != src.degree:
                    raise DomainError(
                        f"substitution for {src.kind}{src.args} is not "
                        f"homogeneous of degree {src.degree}"
                    )
        return self.map_generators(rules.get)


def check_expr(e) -> TautExpr:
    """e itself, if it is a TautExpr; anything else is a DomainError."""
    if not isinstance(e, TautExpr):
        raise DomainError(f"expected a TautExpr, got {type(e).__name__}")
    return e


def _check_compatible(spec: ModuliSpec, order: int, other: TautExpr) -> None:
    if spec != check_expr(other).spec:
        raise DomainError("expressions live on different moduli specifications")
    if order != other.order:
        raise DomainError(
            f"expressions have different truncation orders ({order} vs {other.order})")


def sums_of_products(spec: ModuliSpec, order: int,
                     groups: Iterable[Iterable[tuple[Fraction, Monomial, Iterable[TautExpr]]]]
                     ) -> list[TautExpr]:
    """For each group of (c, m, factors) triples, the sum of
    c * m * f1 * f2 * ..., with each monomial m canonical on spec: the one
    product kernel.  One generator table serves every group, and each
    distinct factor object is read once, by degree, as int monomials with
    numerators over its lcm; a group's pieces run over the lcm of their
    denominators.  Chains (m, f1, ..., fk) with the same m and the same
    first factor objects share a prefix, within a group or across groups:
    one walk over the prefix tree forms m * f1 * ... * fi once for all
    chains that extend it, and a chain's last product, if no other chain
    needs it, goes straight into its total scaled by its numerator."""
    cap = _cap(spec, order)
    groups = [[(c, mono, tuple(fs)) for c, mono, fs in products] for products in groups]
    triples = [t for products in groups for t in products]
    factors = {id(f): f for _, _, fs in triples for f in fs}
    gens = {g for _, mono, _ in triples for g in mono}
    for f in factors.values():
        _check_compatible(spec, order, f)
        gens.update(*[m for m, _ in f.terms])
    # A chain reaches at most its seed's degree plus each factor's top
    # degree, its last term's, since terms are in degree order.
    top = {key: monomial_degree(f.terms[-1][0]) if f.terms else 0 for key, f in factors.items()}
    cap = min(cap, max([monomial_degree(mono) + sum([top[id(f)] for f in fs])
                        for _, mono, fs in triples], default=0))
    table = sorted(gens, key=attrgetter("sort_key"))
    index = {g: i for i, g in enumerate(table)}
    read = {}
    for key, f in factors.items():
        den = lcm(*[c.denominator for _, c in f.terms])
        by_degree = [[] for _ in range(cap + 1)]
        for m, c in f.terms:
            by_degree[monomial_degree(m)].append(
                (tuple([index[g] for g in m]), c.numerator * (den // c.denominator)))
        read[key] = den, by_degree
    # A piece without factors goes straight into its group's total; the
    # others are chains, (factors, group, numerator), by their (degree,
    # int monomial) seed.
    totals = [[{} for _ in range(cap + 1)] for _ in groups]
    seeds: dict[tuple[int, tuple[int, ...]], list] = {}
    bigs = []
    for g, products in enumerate(groups):
        pieces = [(c, monomial_degree(mono), tuple([index[x] for x in mono]), fs)
                  for c, mono, fs in products if c and monomial_degree(mono) <= cap]
        dens = [c.denominator * prod([read[id(f)][0] for f in fs]) for c, _, _, fs in pieces]
        big = lcm(*dens)
        bigs.append(big)
        for (c, d, mono, fs), den in zip(pieces, dens):
            num = c.numerator * (big // den)
            if fs:
                seeds.setdefault((d, mono), []).append((fs, g, num))
            else:
                acc = totals[g][d]
                acc[mono] = acc.get(mono, 0) + num

    def walk(state, chains, depth):
        """Add chains that share their seed and first depth factors into
        their groups' totals; state is that prefix's product, without a
        coefficient.  A chain that ends here is added with its numerator;
        a factor that one chain alone reaches, as its last, multiplies
        straight into that chain's total; any other product is formed once
        and dropped when the chains that extend it are done."""
        after: dict[int, list] = {}
        for chain in chains:
            fs, g, num = chain
            if len(fs) == depth:
                _add(state, num, totals[g])
            else:
                after.setdefault(id(fs[depth]), []).append(chain)
        for key, rest in after.items():
            (fs, g, num), *more = rest
            if not more and len(fs) == depth + 1:
                _times(state, read[key][1], totals[g], cap, num)
            else:
                out = [{} for _ in range(cap + 1)]
                _times(state, read[key][1], out, cap, 1)
                walk([(k, part) for k, part in enumerate(out) if part], rest, depth + 1)

    for (d, mono), chains in seeds.items():
        walk([(d, {mono: 1})], chains, 0)
    rank = {i: r for r, i in enumerate(sorted(range(len(table)),
                                              key=lambda i: table[i].display_key))}
    return [TautExpr(spec, order, tuple(
        (tuple([table[i] for i in m]), Fraction(acc[m], big)) for acc in total
        for m in sorted([m for m, n in acc.items() if n], key=lambda m: [rank[i] for i in m])))
        for total, big in zip(totals, bigs)]


def _add(state, num, total) -> None:
    """Add num times state ((degree, {int monomial: numerator}) parts) into
    total, a list of dicts by degree."""
    for d, part in state:
        acc = total[d]
        for m, n in part.items():
            acc[m] = acc.get(m, 0) + num * n


def _times(state, groups, out, cap: int, num: int) -> None:
    """Add num times state ((degree, {int monomial: numerator}) parts) times
    a factor's degree groups into out; a part of degree d meets groups up
    to cap - d.  num scales the state's entries, not the pairs."""
    for d1, part in state:
        left = list(part.items()) if num == 1 else [(m, n * num) for m, n in part.items()]
        for d2 in range(cap - d1 + 1):
            acc = out[d1 + d2]
            for m2, n2 in groups[d2]:
                for m1, n1 in left:
                    m = tuple(sorted(m1 + m2))
                    acc[m] = acc.get(m, 0) + n1 * n2
