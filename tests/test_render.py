"""Text, LaTeX, and JSON rendering, plus the JSON round trip."""

from __future__ import annotations

import copy
import json
from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import given, strategies as st

from tautchern import (
    DomainError,
    Gen,
    ModuliSpec,
    TautExpr,
    canonical_class,
    ch_bundle,
    ch_cotangent,
    chern_classes,
    default_labels,
    delta_as_atoms,
    delta_class,
    expr_from_json,
    hodge_component,
    irr_push,
    kappa,
    kappa_tilde,
    marked_psi,
    psi_power_sum,
    render,
    render_json_dict,
    sep_push_sum,
)
from tautchern.cli import main
from tautchern.rationals import format_rational
from tautchern.render import LATEX, TEXT, _gen, chern_json

SPEC21 = ModuliSpec(2, default_labels(1))


def test_canonical_class_text_golden():
    assert render(canonical_class(SPEC21)) == "13*lambda + psi - 2*delta"
    no_marks = ModuliSpec(2, ())
    assert render(canonical_class(no_marks)) == "13*lambda - 2*delta"


def test_quarter_irr_text_golden():
    e = TautExpr.of(SPEC21, 2, irr_push(1, 0), Fraction(1, 4))
    assert render(e) == "1/4 xi_irr_*(psi_{q1} + psi_{q2})"


def test_zero_and_constant_rendering():
    assert render(TautExpr.zero(SPEC21, 2)) == "0"
    assert render(TautExpr.one(SPEC21, 2).scale(Fraction(3, 2))) == "3/2"
    assert render(TautExpr.one(SPEC21, 2).scale(-2)) == "-2"


def test_coefficient_separator_rules():
    two_delta = TautExpr.of(SPEC21, 1, delta_class(), 2)
    assert render(two_delta) == "2*delta"
    third_kappa = TautExpr.of(SPEC21, 2, kappa(2), Fraction(1, 3))
    assert render(third_kappa) == "1/3 kappa_2"
    unit = TautExpr.of(SPEC21, 2, kappa(2), -1)
    assert render(unit) == "-kappa_2"


def test_generator_spellings():
    assert render(TautExpr.of(SPEC21, 2, kappa_tilde(2))) == "kappa~_2"
    assert render(TautExpr.of(SPEC21, 2, psi_power_sum(2))) == "psi^(2)"
    assert render(TautExpr.of(SPEC21, 1, psi_power_sum(1))) == "psi"
    assert render(TautExpr.of(SPEC21, 3, hodge_component(3))) == "ch_3(E)"
    assert render(TautExpr.of(SPEC21, 1, hodge_component(1))) == "lambda"
    concrete = ModuliSpec(2, default_labels(1), concrete=True)
    assert render(TautExpr.of(concrete, 1, marked_psi("p1"))) == "psi_{p1}"


def test_pushforward_argument_reconstruction():
    cases = [
        (irr_push(0, 0), "xi_irr_*(1)"),
        (irr_push(1, 0), "xi_irr_*(psi_{q1} + psi_{q2})"),
        (irr_push(1, 1), "xi_irr_*(psi_{q1}*psi_{q2})"),
        (irr_push(2, 0), "xi_irr_*(psi_{q1}^2 + psi_{q2}^2)"),
        (irr_push(2, 1), "xi_irr_*(psi_{q1}^2*psi_{q2} + psi_{q1}*psi_{q2}^2)"),
        (sep_push_sum(1, 0), "sum_{h,A} xi_{h,A}_*(psi_{r1} + psi_{r2})"),
    ]
    for gen, text in cases:
        assert render(TautExpr.of(SPEC21, 5, gen)) == text


def test_concrete_sep_atom_text():
    spec = ModuliSpec(3, default_labels(2), concrete=True)
    e = TautExpr.of(spec, 2, spec.sep_push(2, ("p1",), 1, 0))
    assert render(e) == "xi_{1,{p2}}_*(psi_{r1} + psi_{r2})"
    bare = TautExpr.of(spec, 1, spec.sep_push(3, (), 0, 0))
    assert render(bare) == "xi_{0,{p1,p2}}_*(1)"


def test_repeated_factors_collapse_to_powers():
    lam = TautExpr.of(SPEC21, 4, hodge_component(1))
    assert render(lam * lam) == "lambda^2"
    k1 = TautExpr.of(SPEC21, 4, kappa(1))
    d = TautExpr.of(SPEC21, 4, delta_class())
    assert render(k1 * k1 * d) == "kappa_1^2*delta"


def test_display_order_lambda_before_psi_before_delta():
    e = (TautExpr.of(SPEC21, 2, delta_class())
         + TautExpr.of(SPEC21, 2, psi_power_sum(1))
         + TautExpr.of(SPEC21, 2, hodge_component(1))
         + TautExpr.of(SPEC21, 2, kappa(1)))
    assert render(e) == "kappa_1 + lambda + psi + delta"


def test_latex_golden():
    assert render(canonical_class(SPEC21), "latex") == \
        "13\\,\\lambda + \\psi - 2\\,\\delta"
    e = TautExpr.of(SPEC21, 2, irr_push(1, 0), Fraction(1, 4))
    assert render(e, "latex") == \
        "\\tfrac{1}{4}\\,\\xi_{\\mathrm{irr}*}(\\psi_{q_1} + \\psi_{q_2})"
    assert render(TautExpr.of(SPEC21, 2, kappa_tilde(2)), "latex") == \
        "\\tilde{\\kappa}_{2}"
    lam = TautExpr.of(SPEC21, 4, hodge_component(1))
    assert render(lam * lam, "latex") == "\\lambda^{2}"


CONCRETE32 = ModuliSpec(3, default_labels(2), concrete=True)


def _single(gen, coeff=1, spec=SPEC21):
    return TautExpr.of(spec, 6, gen, coeff)


@pytest.mark.parametrize("expr, text, latex", [
    (_single(psi_power_sum(2)), "psi^(2)", "\\psi^{(2)}"),
    (_single(marked_psi("p1"), spec=ModuliSpec(2, default_labels(1), concrete=True)),
     "psi_{p1}", "\\psi_{p1}"),
    (_single(hodge_component(3)), "ch_3(E)", "\\mathrm{ch}_{3}(\\mathbb{E})"),
    (_single(irr_push(1, 1)), "xi_irr_*(psi_{q1}*psi_{q2})",
     "\\xi_{\\mathrm{irr}*}(\\psi_{q_1}\\psi_{q_2})"),
    (_single(irr_push(2, 1)),
     "xi_irr_*(psi_{q1}^2*psi_{q2} + psi_{q1}*psi_{q2}^2)",
     "\\xi_{\\mathrm{irr}*}(\\psi_{q_1}^{2}\\psi_{q_2} + \\psi_{q_1}\\psi_{q_2}^{2})"),
    (_single(sep_push_sum(1, 0)), "sum_{h,A} xi_{h,A}_*(psi_{r1} + psi_{r2})",
     "\\sum_{h,A} \\xi_{h,A*}(\\psi_{r_1} + \\psi_{r_2})"),
    (_single(CONCRETE32.sep_push(2, ("p1",), 1, 0), spec=CONCRETE32),
     "xi_{1,{p2}}_*(psi_{r1} + psi_{r2})",
     "\\xi_{1,\\{p2\\}*}(\\psi_{r_1} + \\psi_{r_2})"),
    (_single((kappa(1), kappa(1), delta_class()), 2), "2*kappa_1^2*delta",
     "2\\,\\kappa_{1}^{2}\\,\\delta"),
    (_single(kappa_tilde(1), Fraction(-1, 2)) + _single(hodge_component(1)),
     "-1/2 kappa~_1 + lambda", "-\\tfrac{1}{2}\\,\\tilde{\\kappa}_{1} + \\lambda"),
    (TautExpr.one(SPEC21, 6).scale(Fraction(-3, 2)) + _single(psi_power_sum(1), -1),
     "-3/2 - psi", "-\\tfrac{3}{2} - \\psi"),
])
def test_every_generator_spelling(expr, text, latex):
    assert render(expr, "text") == text
    assert render(expr, "latex") == latex


def test_unknown_format_rejected():
    with pytest.raises(DomainError):
        render(TautExpr.one(SPEC21, 1), "html")


def test_json_document_shape():
    doc = render_json_dict(canonical_class(SPEC21))
    assert list(doc) == ["g", "n", "degree", "mode", "labels", "terms"]
    assert doc["g"] == 2 and doc["n"] == 1
    assert doc["mode"] == "generic"
    assert doc["labels"] == ["p1"]
    assert doc["terms"][0] == {
        "coeff": "13", "monomial": [{"gen": "hodge_ch", "args": [1]}]}


def test_json_concrete_delta_document():
    spec = ModuliSpec(2, (), concrete=True)
    doc = render_json_dict(delta_as_atoms(spec, 1))
    assert doc["mode"] == "concrete"
    assert doc["terms"] == [
        {"coeff": "1/2", "monomial": [{"gen": "irr_push", "args": [0, 0]}]},
        {"coeff": "1/2", "monomial": [{"gen": "sep_push", "args": [1, [], 0, 0]}]},
    ]


@pytest.mark.parametrize("concrete", [False, True])
def test_json_round_trip(concrete):
    spec = ModuliSpec(3, default_labels(2), concrete=concrete)
    e = ch_cotangent(spec, 3)
    assert expr_from_json(render(e, "json")) == e


def test_json_round_trip_preserves_mode_and_labels():
    spec = ModuliSpec(0, ("a", "b", "c", "d"), concrete=True)
    e = delta_as_atoms(spec, 1)
    back = expr_from_json(render(e, "json"))
    assert back.spec == spec
    assert back == e


def test_json_sep_atom_on_many_markings():
    """An atom is checked on its own: a spec with 2^40 splittings parses
    one of them without listing the rest."""
    spec = ModuliSpec(1, default_labels(40), concrete=True)
    e = TautExpr.of(spec, 1, spec.sep_push(0, ("p2", "p1"), 0, 0))
    assert expr_from_json(render(e, "json")) == e
    assert spec.splitting_is_stable(1, ("p3",))


def reference_json_dict(e: TautExpr) -> dict:
    """The document as a dict tree, built the way the JSON writer's output
    was defined before the writer existed: json.dumps(doc, indent=2)."""
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
                "monomial": [{"gen": g.kind,
                              "args": [list(a) if type(a) is tuple else a for a in g.args]}
                             for g in sorted(m, key=attrgetter("display_key"))],
            }
            for m, c in e.terms
        ],
    }


def assert_writer_matches_reference(e: TautExpr) -> None:
    assert render(e, "json") == json.dumps(reference_json_dict(e), indent=2)
    assert render_json_dict(e) == reference_json_dict(e)


ODD_LABELS = ModuliSpec(1, ("\u00e9", '"q"', "\\x"), concrete=True)


@pytest.mark.parametrize("e", [
    pytest.param(TautExpr.zero(SPEC21, 3), id="zero"),
    pytest.param(TautExpr.of(SPEC21, 2, delta_class(), -2), id="delta-no-args"),
    pytest.param(canonical_class(ModuliSpec(2, ())), id="empty-labels"),
    pytest.param(TautExpr.one(ModuliSpec(2, ()), 0).scale(3), id="empty-monomial"),
    pytest.param(delta_as_atoms(ModuliSpec(2, (), concrete=True), 1), id="sep-empty-side"),
    pytest.param(ch_cotangent(CONCRETE32, 3), id="concrete-sep-atoms"),
    pytest.param(ch_cotangent(ODD_LABELS, 2), id="escaped-labels"),
])
def test_json_writer_matches_reference(e):
    assert_writer_matches_reference(e)


def _generator_pool(spec: ModuliSpec) -> list[Gen]:
    pool = [kappa(1), kappa(2), kappa_tilde(1), psi_power_sum(2), hodge_component(1),
            hodge_component(3), delta_class(), irr_push(1, 0), irr_push(2, 2),
            sep_push_sum(1, 1)]
    if spec.concrete:
        pool += [marked_psi(p) for p in spec.labels]
        pool += [spec.sep_push(h, lab, 1, 0) for h, lab, _ in spec.splitting_classes()]
    return pool


WRITER_SPECS = [SPEC21, ModuliSpec(2, ()), CONCRETE32, ODD_LABELS]


@st.composite
def expressions(draw) -> TautExpr:
    spec = draw(st.sampled_from(WRITER_SPECS))
    monomials = st.lists(st.sampled_from(_generator_pool(spec)), max_size=4)
    items = draw(st.lists(st.tuples(monomials, st.fractions(max_denominator=12)),
                          max_size=6))
    return TautExpr.build(spec, 8, items)


@given(expressions())
def test_json_writer_matches_reference_on_generated_expressions(e):
    assert_writer_matches_reference(e)


@pytest.mark.parametrize("argv", [
    ("--g", "2", "--n", "1", "--jmax", "0"),
    ("--g", "1", "--n", "3", "--jmax", "3", "--mode", "concrete"),
])
def test_chern_json_matches_reference(capsys, argv):
    assert main(["chern", *argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    spec = ModuliSpec(int(argv[1]), default_labels(int(argv[3])),
                      concrete="concrete" in argv)
    jmax = int(argv[5])
    rank, classes = chern_classes(spec, jmax)
    doc = {"rank": rank, "jmax": jmax,
           "classes": [reference_json_dict(c) for c in classes]}
    assert out == json.dumps(doc, indent=2) + "\n"


def test_chern_json_writes_classes_in_place_with_escaped_labels():
    """The classes are written two levels deep, labels escaped there too."""
    rank, classes = chern_classes(ODD_LABELS, 2)
    doc = {"rank": rank, "jmax": 2, "classes": [reference_json_dict(c) for c in classes]}
    assert chern_json(rank, 2, classes) == json.dumps(doc, indent=2)


DELETE = object()


def _mutate(doc, path, value=DELETE):
    """doc with the entry at path replaced by value, or deleted."""
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _mutated(path, value=DELETE):
    """The canonical class document, mutated at path, as JSON text."""
    return json.dumps(_mutate(render_json_dict(canonical_class(SPEC21)), path, value))


SEP_DOC = json.dumps({
    "g": 0, "n": 4, "degree": 1, "mode": "concrete", "terms": [
        {"coeff": "1", "monomial": [{"gen": "sep_push", "args": [1]}]}]})


@pytest.mark.parametrize("text", [
    pytest.param("not json at all {", id="not-json"),
    pytest.param("[" * 100_000, id="deeply-nested"),
    pytest.param(json.dumps({"g": 2}), id="missing-keys"),
    pytest.param(json.dumps([1, 2]), id="not-an-object"),
    pytest.param(_mutated(("labels",), ["p1", "p2"]), id="label-count"),
    pytest.param(_mutated(("labels",), [1]), id="label-not-str"),
    *[pytest.param(_mutated(("labels",), value), id=f"labels-{value!r}")
      for value in ([], "", 0, False, None, {})],
    pytest.param(_mutated(("mode",), "weird"), id="unknown-mode"),
    pytest.param(_mutated(("g",), "x"), id="genus-not-int"),
    pytest.param(_mutated(("g",), True), id="genus-bool"),
    pytest.param(_mutated(("terms",), 5), id="terms-not-list"),
    pytest.param(_mutated(("terms", 0, "monomial")), id="missing-monomial"),
    pytest.param(_mutated(("terms", 0, "coeff"), "x"), id="coeff-not-rational"),
    pytest.param(_mutated(("terms", 0, "coeff"), "1/0"), id="coeff-zero-denominator"),
    pytest.param(_mutated(("terms", 0, "coeff"), 0.5), id="coeff-float"),
    pytest.param(_mutated(("terms", 0, "coeff"), True), id="coeff-bool"),
    pytest.param(_mutated(("terms", 0, "monomial", 0, "gen"), "mystery"), id="unknown-gen"),
    pytest.param(_mutated(("terms", 0, "monomial", 0, "gen"), ["kappa"]), id="gen-not-str"),
    pytest.param(_mutated(("terms", 0, "monomial", 0), {"gen": "kappa"}), id="missing-args"),
    pytest.param(_mutated(("terms", 0, "monomial", 0, "args"), ["2"]), id="arg-not-int"),
    pytest.param(_mutated(("terms", 0, "monomial", 0, "args"), 1), id="args-not-list"),
    pytest.param(SEP_DOC, id="sep-push-arity"),
    pytest.param(SEP_DOC.replace("[1]", '[0, [["p1"]], 0, 0]'), id="sep-push-label"),
])
def test_json_parse_errors(text):
    with pytest.raises(DomainError):
        expr_from_json(text)


def test_json_defaults_and_integer_coefficients():
    """Default labels only when the key is absent; an empty list is kept
    for n = 0; an integer coefficient is exact."""
    doc = _mutate(render_json_dict(canonical_class(ModuliSpec(2, default_labels(2)))),
                  ("labels",))
    assert expr_from_json(json.dumps(doc)).spec.labels == ("p1", "p2")
    e = canonical_class(ModuliSpec(2, ()))
    assert expr_from_json(render(e, "json")) == e
    doc = _mutate(render_json_dict(e), ("terms", 0, "coeff"), -3)
    assert expr_from_json(json.dumps(doc)).terms[0][1] == -3


def test_json_reader_key_order():
    """irr_push and sep_push_sum read as their sorted keys; a sep_push atom
    is taken as written, so an unsorted key is refused."""
    def doc(kind, args, mode="generic"):
        return json.dumps({"g": 2, "n": 0, "degree": 3, "mode": mode, "terms": [
            {"coeff": "1", "monomial": [{"gen": kind, "args": args}]}]})

    spec = ModuliSpec(2, ())
    assert expr_from_json(doc("irr_push", [0, 1])) == TautExpr.of(spec, 3, irr_push(1, 0))
    assert expr_from_json(doc("sep_push_sum", [0, 2])) == TautExpr.of(spec, 3, sep_push_sum(2, 0))
    concrete = ModuliSpec(2, (), concrete=True)
    assert (expr_from_json(doc("sep_push", [1, [], 1, 0], "concrete"))
            == TautExpr.of(concrete, 3, concrete.sep_push(1, (), 1, 0)))
    with pytest.raises(DomainError):
        expr_from_json(doc("sep_push", [1, [], 0, 1], "concrete"))


# Documents to mutate: generic, and concrete with named atoms and psi.
MUTATION_BASES = [
    render_json_dict(canonical_class(SPEC21)),
    render_json_dict(ch_cotangent(ModuliSpec(1, ("a", "b", "c"), concrete=True), 2)),
    render_json_dict(canonical_class(ModuliSpec(0, default_labels(4), concrete=True))),
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["1/2", "-3", "kappa", "hodge_ch", "psi", "irr_push",
                       "sep_push", "generic", "concrete", "p1", "a"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _paths(node, prefix=()):
    """Every path from the root of a JSON document to one of its entries."""
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@given(st.data())
def test_mutated_json_round_trips_or_raises_domain_error(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(MUTATION_BASES)))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    _mutate(doc, path, data.draw(st.just(DELETE) | JSON_VALUES))
    try:
        e = expr_from_json(json.dumps(doc))
    except DomainError:
        return
    assert expr_from_json(render(e, "json")) == e


def test_rendering_is_deterministic_across_term_order():
    items = [
        ((kappa(1),), Fraction(1)),
        ((delta_class(),), Fraction(-2)),
        ((irr_push(1, 0),), Fraction(1, 4)),
        ((hodge_component(1),), Fraction(13)),
    ]
    a = TautExpr.build(SPEC21, 2, items)
    b = TautExpr.build(SPEC21, 2, list(reversed(items)))
    for fmt in ("text", "latex", "json"):
        assert render(a, fmt) == render(b, fmt)


# ----------------------------------------- all three writers against the reference

def reference_grouped(mono: tuple[Gen, ...]) -> list[tuple[Gen, int]]:
    """Collapse a monomial, sorted into display order, into (generator,
    exponent) runs by comparing generators."""
    out: list[tuple[Gen, int]] = []
    for g in sorted(mono, key=attrgetter("display_key")):
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + 1)
        else:
            out.append((g, 1))
    return out


def _reference_coeff(q: Fraction, fmt: str) -> tuple[str, str]:
    if fmt == "text":
        return format_rational(q), "*" if q.denominator == 1 else " "
    if q.denominator == 1:
        return str(q.numerator), "\\,"
    return f"\\tfrac{{{q.numerator}}}{{{q.denominator}}}", "\\,"


def reference_render(e: TautExpr, fmt: str) -> str:
    """The text and LaTeX writer without a spelling table: every generator
    occurrence spelled again, every monomial grouped by reference_grouped,
    and each coefficient spelled from its Fraction magnitude."""
    s = {"text": TEXT, "latex": LATEX}[fmt]
    if not e.terms:
        return "0"
    pieces = []
    for mono, coeff in e.terms:
        mag = abs(coeff)
        mono_str = s.times.join(
            _gen(g, s) if p == 1 else s.power.format(_gen(g, s), p)
            for g, p in reference_grouped(mono))
        if mag == 1 and mono:
            body = mono_str
        else:
            number, sep = _reference_coeff(mag, fmt)
            body = number + sep + mono_str if mono else number
        pieces.append((" - " if coeff < 0 else " + ") + body)
    lead = pieces[0]
    pieces[0] = ("-" if lead[1] == "-" else "") + lead[3:]
    return "".join(pieces)


def assert_all_writers_match_reference(e: TautExpr) -> None:
    for fmt in ("text", "latex"):
        assert render(e, fmt) == reference_render(e, fmt)
    assert_writer_matches_reference(e)


CONCRETE13 = ModuliSpec(1, default_labels(3), concrete=True)
RENDER_SPECS = [SPEC21, CONCRETE13]


@pytest.mark.parametrize("spec, items", [
    pytest.param(SPEC21, [], id="zero"),
    pytest.param(SPEC21, [((), 5), ((kappa(1),), -1)], id="constant-and-minus-one"),
    pytest.param(SPEC21, [((kappa(1), kappa(1), delta_class(), delta_class(), delta_class()),
                           Fraction(-3, 7))], id="powers"),
    pytest.param(SPEC21, [((psi_power_sum(1), hodge_component(1), hodge_component(1)), 1),
                          ((psi_power_sum(2), hodge_component(3)), Fraction(1, 12))],
                 id="hodge-before-psi-sum"),
    pytest.param(CONCRETE13, [((marked_psi("p2"), hodge_component(1), marked_psi("p1")), -1),
                              ((marked_psi("p3"), marked_psi("p3"), hodge_component(1)), 2),
                              ((), Fraction(-1, 2))],
                 id="hodge-before-marked-psi"),
    pytest.param(CONCRETE13, [((CONCRETE13.sep_push(0, ("p1", "p2"), 0, 0),) * 2, Fraction(5, 3)),
                              ((irr_push(1, 0), delta_class()), -4)],
                 id="concrete-pushforwards"),
])
def test_writers_match_reference_on_chosen_expressions(spec, items):
    assert_all_writers_match_reference(TautExpr.build(spec, 8, items))


_render_coeffs = st.one_of(st.sampled_from([1, -1, 2, -2, Fraction(1, 3), Fraction(-5, 12)]),
                           st.fractions(max_denominator=12))


@st.composite
def render_expressions(draw) -> TautExpr:
    """Expressions on generic (2,1) or concrete (1,3) with up to four
    generators a term, drawn with repeats, so powers and lambda before a
    psi sum or a marked psi show up."""
    spec = draw(st.sampled_from(RENDER_SPECS))
    pool = _generator_pool(spec) + [psi_power_sum(1), hodge_component(1)]
    monomials = st.lists(st.sampled_from(pool), max_size=4)
    return TautExpr.build(spec, 8, draw(st.lists(st.tuples(monomials, _render_coeffs),
                                                 max_size=6)))


@given(render_expressions())
def test_writers_match_reference_on_generated_expressions(e):
    assert_all_writers_match_reference(e)


@pytest.mark.parametrize("classes", [
    pytest.param(lambda: chern_classes(SPEC21, 4)[1], id="chern-2-1"),
    pytest.param(lambda: ch_bundle(CONCRETE13, 3, "tangent").components().values(),
                 id="ch-tangent-concrete-1-3"),
])
def test_writers_match_reference_on_computed_classes(classes):
    for e in classes():
        assert_all_writers_match_reference(e)
