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
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
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
    default_labels,
    hodge_component,
    irr_push,
    kappa,
    kappa_tilde,
    marked_psi,
    psi_power_sum,
    sep_push_sum,
    delta_class,
)
from .rationals import DomainError, format_rational

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
    # Coefficient magnitude -> (number, separator before the monomial).
    coeff: Callable[[Fraction], tuple[str, str]]


def _text_coeff(q: Fraction) -> tuple[str, str]:
    return format_rational(q), "*" if q.denominator == 1 else " "


def _latex_coeff(q: Fraction) -> tuple[str, str]:
    if q.denominator == 1:
        return str(q.numerator), "\\,"
    return f"\\tfrac{{{q.numerator}}}{{{q.denominator}}}", "\\,"


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


def _grouped(mono: tuple[Gen, ...]) -> list[tuple[Gen, int]]:
    """Collapse a sorted monomial into (generator, exponent) runs."""
    out: list[tuple[Gen, int]] = []
    for g in sorted(mono, key=Gen.display_key):
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + 1)
        else:
            out.append((g, 1))
    return out


def _render_terms(e: TautExpr, s: Spelling) -> str:
    if not e.terms:
        return "0"
    pieces = []
    for mono, coeff in e.terms:
        mag = abs(coeff)
        mono_str = s.times.join(
            _gen(g, s) if p == 1 else s.power.format(_gen(g, s), p)
            for g, p in _grouped(mono))
        if mag == 1 and mono:
            body = mono_str
        else:
            number, sep = s.coeff(mag)
            body = number + sep + mono_str if mono else number
        pieces.append((" - " if coeff < 0 else " + ") + body)
    # The leading term carries a bare minus sign and no plus sign.
    lead = pieces[0]
    pieces[0] = ("-" if lead[1] == "-" else "") + lead[3:]
    return "".join(pieces)


def _gen_json(g: Gen) -> dict:
    # The label tuple of a sep_push atom is a JSON array, as in _gen_from_json.
    return {"gen": g.kind, "args": [list(a) if type(a) is tuple else a for a in g.args]}


def render_json_dict(e: TautExpr) -> dict:
    spec = e.spec
    return {
        "g": spec.genus,
        "n": spec.n,
        "degree": e.order,
        "mode": "concrete" if spec.concrete else "generic",
        "labels": list(spec.labels),
        "terms": [
            {
                "coeff": format_rational(c),
                "monomial": [_gen_json(g)
                             for g in sorted(m, key=Gen.display_key)],
            }
            for m, c in e.terms
        ],
    }


def render(e: TautExpr, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(render_json_dict(e), indent=2)
    if fmt not in _SPELLINGS:
        raise DomainError(f"unknown output format {fmt!r}; expected one of {FORMATS}")
    return _render_terms(e, _SPELLINGS[fmt])


# JSON generator name -> factory, which sorts a pushforward key; sep_push
# is built on the spec, which also puts it on its canonical side.
_FACTORIES = {
    KAPPA: kappa,
    KAPPATILDE: kappa_tilde,
    PSIPOW: psi_power_sum,
    PSI: marked_psi,
    CHE: hodge_component,
    DELTA: delta_class,
    BIRR: irr_push,
    BSEPA: sep_push_sum,
}

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


def _gen_from_json(doc, spec: ModuliSpec) -> Gen:
    doc = _expect(doc, dict, "generator")
    kind = _expect(doc.get("gen"), str, "generator name")
    # A JSON array stands for the label tuple of a sep_push atom.
    args = tuple(tuple(a) if type(a) is list else a
                 for a in _expect(doc.get("args", []), list, f"{kind} arguments"))
    check_args(kind, args)
    return spec.sep_push(*args) if kind == BSEP else _FACTORIES[kind](*args)


def expr_from_json_dict(doc: dict) -> TautExpr:
    doc = _expect(doc, dict, "expression document")
    try:
        g, n, order, terms = doc["g"], doc["n"], doc["degree"], doc["terms"]
    except KeyError as exc:
        raise DomainError(f"malformed expression document: missing {exc}") from None
    for value, what in ((g, "g"), (n, "n"), (order, "degree")):
        _expect(value, int, what)
    mode = doc.get("mode", "generic")
    if mode not in ("generic", "concrete"):
        raise DomainError(f"mode must be 'generic' or 'concrete', got {mode!r}")
    labels = _expect(doc.get("labels") or list(default_labels(n)), list, "labels")
    if len(labels) != n:
        raise DomainError(f"label list has {len(labels)} entries but n = {n}")
    spec = ModuliSpec(g, tuple(labels), concrete=(mode == "concrete"))
    items = []
    for t in _expect(terms, list, "terms"):
        t = _expect(t, dict, "term")
        coeff = _coeff_from_json(t.get("coeff"))
        gens = tuple(_gen_from_json(gd, spec)
                     for gd in _expect(t.get("monomial"), list, "monomial"))
        items.append((gens, coeff))
    return TautExpr.build(spec, order, items)


def expr_from_json(text: str) -> TautExpr:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"invalid JSON: {exc}") from None
    return expr_from_json_dict(doc)
