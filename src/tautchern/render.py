"""Deterministic text, LaTeX, and JSON rendering of graded expressions.

Formatting rules for text output, chosen to match the usual way these
formulas are written by hand:

* integer coefficients are attached with "*" (13*lambda, 2*delta);
* fractional coefficients are attached with a space (1/3 kappa_2,
  1/4 xi_irr_*(...)), since "1/3*kappa_2" misreads as 1/(3 kappa_2);
* coefficients of magnitude one are omitted;
* the zero expression renders as "0".

Pushforward atoms print with their symmetric psi-polynomial argument
reconstructed from the key: q-variables at the irreducible node,
r-variables at a separating node.

Each render call keeps one table (_Spelled) that spells each distinct
generator once, as text, LaTeX or JSON; all three writers read it.  A
degree printed on its own is TautExpr.component, a slice found by bisection.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import groupby
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable

from .algebra import (
    BIRR,
    BSEP,
    BSEPA,
    CHE,
    DELTA,
    KAPPA,
    KAPPATILDE,
    PSI,
    PSIPOW,
    Gen,
    ModuliSpec,
    TautExpr,
    check_args,
    check_expr,
    default_labels,
    irr_push,
    sep_push_sum,
)
from .rationals import DomainError, check_choice

FORMATS = ("text", "latex", "json")


@dataclass(frozen=True, slots=True, eq=False)
class Spelling:
    """How one output format spells generators, products and coefficients.

    Patterns are positional str.format templates.  A generator pattern
    takes the generator's index, or for a pushforward the node argument
    (after h and the label set on a separating atom).  Compared and
    hashed by identity, so _sym_arg can memoize on it.
    """

    gens: dict[str, str]
    # Names used instead of the pattern when the index is 1 (psi, lambda).
    unit_names: dict[str, str]
    # Pattern over (stem, branch) for a cotangent class at a node.
    psi_at_node: str
    # Pattern over (base, exponent).
    power: str
    # Product inside a pushforward argument, and between monomial factors.
    arg_times: str
    times: str
    # Coefficient magnitude (num, den) -> (number, separator before the monomial).
    coeff: Callable[[int, int], tuple[str, str]]


def _text_coeff(num: int, den: int) -> tuple[str, str]:
    return (str(num), "*") if den == 1 else (f"{num}/{den}", " ")


def _latex_coeff(num: int, den: int) -> tuple[str, str]:
    return (str(num) if den == 1 else f"\\tfrac{{{num}}}{{{den}}}"), "\\,"


TEXT = Spelling(
    gens={
        KAPPA: "kappa_{0}",
        KAPPATILDE: "kappa~_{0}",
        PSIPOW: "psi^({0})",
        PSI: "psi_{{{0}}}",
        CHE: "ch_{0}(E)",
        DELTA: "delta",
        BIRR: "xi_irr_*({0})",
        BSEPA: "sum_{{h,A}} xi_{{h,A}}_*({0})",
        BSEP: "xi_{{{0},{{{1}}}}}_*({2})",
    },
    unit_names={PSIPOW: "psi", CHE: "lambda"},
    psi_at_node="psi_{{{0}{1}}}",
    power="{0}^{1}",
    arg_times="*",
    times="*",
    coeff=_text_coeff,
)

LATEX = Spelling(
    gens={
        KAPPA: "\\kappa_{{{0}}}",
        KAPPATILDE: "\\tilde{{\\kappa}}_{{{0}}}",
        PSIPOW: "\\psi^{{({0})}}",
        PSI: "\\psi_{{{0}}}",
        CHE: "\\mathrm{{ch}}_{{{0}}}(\\mathbb{{E}})",
        DELTA: "\\delta",
        BIRR: "\\xi_{{\\mathrm{{irr}}*}}({0})",
        BSEPA: "\\sum_{{h,A}} \\xi_{{h,A*}}({0})",
        BSEP: "\\xi_{{{0},\\{{{1}\\}}*}}({2})",
    },
    unit_names={PSIPOW: "\\psi", CHE: "\\lambda"},
    psi_at_node="\\psi_{{{0}_{1}}}",
    power="{0}^{{{1}}}",
    arg_times="",
    times="\\,",
    coeff=_latex_coeff,
)

_SPELLINGS = {"text": TEXT, "latex": LATEX}

# Branch variables at the node: q at the irreducible node, r at a
# separating one.
_NODE_STEM = {BIRR: "q", BSEPA: "r", BSEP: "r"}


@cache
def _sym_arg(a: int, b: int, stem: str, s: Spelling) -> str:
    """m_(a,b) in the two branch classes at a node.  Memoized: only a few
    shapes exist per degree, and every pushforward atom spells one."""
    if (a, b) == (0, 0):
        return "1"

    def var(branch: int, power: int) -> str:
        base = s.psi_at_node.format(stem, branch)
        return base if power == 1 else s.power.format(base, power)

    x = s.arg_times
    if a == b:
        return f"{var(1, a)}{x}{var(2, a)}"
    if b == 0:
        return f"{var(1, a)} + {var(2, a)}"
    return f"{var(1, a)}{x}{var(2, b)} + {var(1, b)}{x}{var(2, a)}"


def _gen(g: Gen, s: Spelling) -> str:
    kind, args = g.kind, g.args
    if kind == BSEP:
        h, lab, a, b = args
        return s.gens[kind].format(h, ",".join(lab), _sym_arg(a, b, _NODE_STEM[kind], s))
    if kind in _NODE_STEM:
        return s.gens[kind].format(_sym_arg(*args, _NODE_STEM[kind], s))
    if args == (1,) and kind in s.unit_names:
        return s.unit_names[kind]
    return s.gens[kind].format(*args)


class _Spelled(dict):
    """One render call's table: generator -> (display key, its spelling by
    spell), spelled on the first lookup.  Equal generators get the same
    entry object, so sorting and grouping entries never compares a Gen."""

    def __init__(self, spell: Callable[[Gen], str]):
        super().__init__()
        self.spell = spell

    def __missing__(self, g: Gen) -> tuple[tuple, str]:
        entry = self[g] = (g.display_key(), self.spell(g))
        return entry

    def display(self, mono: tuple[Gen, ...]) -> list[tuple[tuple, str]]:
        """The entries of a monomial's generators, in display order."""
        return sorted(map(self.__getitem__, mono))


def _render_terms(e: TautExpr, s: Spelling) -> str:
    if not e.terms:
        return "0"
    table = _Spelled(partial(_gen, s=s))
    pieces = []
    for mono, coeff in e.terms:
        num, den = coeff.numerator, coeff.denominator
        mono_str = s.times.join(
            text if (k := len(list(run))) == 1 else s.power.format(text, k)
            for (_, text), run in groupby(table.display(mono)))
        if abs(num) == 1 and den == 1 and mono:
            body = mono_str
        else:
            number, sep = s.coeff(abs(num), den)
            body = number + sep + mono_str if mono else number
        pieces.append((" - " if num < 0 else " + ") + body)
    # The leading term carries a bare minus sign and no plus sign.
    lead = pieces[0]
    pieces[0] = ("-" if lead[1] == "-" else "") + lead[3:]
    return "".join(pieces)


class _Raw(str):
    """JSON text that _json_value writes as it is."""


def _json_value(v, level: int) -> str:
    """json.dumps(v, indent=2) for an int, a str or _Raw text, or a list,
    tuple or dict of those, as written level steps deep in a document.
    The pieces are joined once, so a large document is copied once."""
    out: list[str] = []
    _json_pieces(v, level, out)
    return "".join(out)


def _json_pieces(v, level: int, out: list[str]) -> None:
    if type(v) is str:
        out.append(_json_str(v))
    elif type(v) is int:
        out.append(str(v))
    elif type(v) is _Raw:
        out.append(v)
    elif not v:
        out.append("{}" if type(v) is dict else "[]")
    else:
        inner = "\n" + "  " * (level + 1)
        if type(v) is dict:
            sep, close = "{" + inner, "}"
            for k, x in v.items():
                out.append(f"{sep}{_json_str(k)}: ")
                _json_pieces(x, level + 1, out)
                sep = "," + inner
        else:
            sep, close = "[" + inner, "]"
            for x in v:
                out.append(sep)
                _json_pieces(x, level + 1, out)
                sep = "," + inner
        out.append("\n" + "  " * level + close)


def _json_text(e: TautExpr, level: int = 0) -> str:
    """The expression's JSON document, byte for byte what json.dumps(doc,
    indent=2) gives for it when written level steps deep in an enclosing
    document.  This is the only definition of the schema.

    Terms sit at level + 2 and their generators at level + 4; a
    coefficient is a string of digits, a sign and a slash, so it needs no
    escaping.
    """
    table = _Spelled(lambda g: _json_value({"gen": g.kind, "args": g.args}, level + 4))
    term_in, gen_in = "\n" + "  " * (level + 3), "\n" + "  " * (level + 4)
    gen_sep, term_close = "," + gen_in, "\n" + "  " * (level + 2) + "}"
    terms = []
    for mono, c in e.terms:
        gens = gen_sep.join(text for _, text in table.display(mono))
        monomial = f"[{gen_in}{gens}{term_in}]" if mono else "[]"
        coeff, _ = _text_coeff(c.numerator, c.denominator)
        terms.append(f'{{{term_in}"coeff": "{coeff}",{term_in}"monomial": {monomial}{term_close}')
    spec = e.spec
    return _json_value({
        "g": spec.genus,
        "n": spec.n,
        "degree": e.order,
        "mode": "concrete" if spec.concrete else "generic",
        "labels": spec.labels,
        "terms": [_Raw(t) for t in terms],
    }, level)


def chern_json(rank: int, jmax: int, classes: list[TautExpr]) -> str:
    """The chern command's JSON document {"rank", "jmax", "classes"}, byte
    for byte json.dumps(doc, indent=2), with each class's document written
    in place two levels deep."""
    return _json_value({
        "rank": rank,
        "jmax": jmax,
        "classes": [_Raw(_json_text(c, 2)) for c in classes],
    }, 0)


def render_json_dict(e: TautExpr) -> dict:
    """The expression's JSON document as a dict: the writer's text, parsed."""
    return json.loads(_json_text(check_expr(e)))


def render(e: TautExpr, fmt: str = "text") -> str:
    check_choice(fmt, FORMATS, "output format")
    check_expr(e)
    if fmt == "json":
        return _json_text(e)
    return _render_terms(e, _SPELLINGS[fmt])


_JSON_TYPES = {int: "an integer", str: "a string", list: "an array", dict: "an object"}
_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def _expect(value, kind: type, what: str):
    """value itself, if its JSON type is kind (a bool is not an integer)."""
    if type(value) is not kind:
        raise DomainError(f"{what} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _coeff_from_json(value) -> Fraction:
    if type(value) is int:
        return Fraction(value)
    if type(value) is str and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise DomainError(f"coefficient must be an integer or a string p or p/q, got {value!r}")


def _gen_from_json(doc) -> Gen:
    doc = _expect(doc, dict, "generator")
    kind = _expect(doc.get("gen"), str, "generator name")
    # A JSON array stands for the label tuple of a sep_push atom.
    args = tuple(tuple(a) if type(a) is list else a
                 for a in _expect(doc.get("args", []), list, f"{kind} arguments"))
    check_args(kind, args)
    # The symmetrized kinds sort their key; a sep_push atom is taken as
    # written, and TautExpr.build checks its side on the spec.
    if kind == BIRR:
        return irr_push(*args)
    if kind == BSEPA:
        return sep_push_sum(*args)
    return Gen(kind, args)


def expr_from_json_dict(doc: dict) -> TautExpr:
    doc = _expect(doc, dict, "expression document")
    try:
        g, n, order, terms = doc["g"], doc["n"], doc["degree"], doc["terms"]
    except KeyError as exc:
        raise DomainError(f"malformed expression document: missing {exc}") from None
    for value, what in ((g, "g"), (n, "n"), (order, "degree")):
        _expect(value, int, what)
    mode = check_choice(doc.get("mode", "generic"), ("generic", "concrete"), "mode")
    labels = (_expect(doc["labels"], list, "labels") if "labels" in doc
              else list(default_labels(n)))
    if len(labels) != n:
        raise DomainError(f"label list has {len(labels)} entries but n = {n}")
    spec = ModuliSpec(g, tuple(labels), concrete=(mode == "concrete"))
    items = []
    for t in _expect(terms, list, "terms"):
        t = _expect(t, dict, "term")
        coeff = _coeff_from_json(t.get("coeff"))
        gens = tuple(_gen_from_json(gd)
                     for gd in _expect(t.get("monomial"), list, "monomial"))
        items.append((gens, coeff))
    return TautExpr.build(spec, order, items)


def expr_from_json(text: str) -> TautExpr:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError, TypeError) as exc:
        raise DomainError(f"invalid JSON: {exc}") from None
    return expr_from_json_dict(doc)
