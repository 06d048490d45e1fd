#!/usr/bin/env python3
"""Print the assembled formula tables for a list of moduli specifications.

Covers the coefficient tables (kappa, boundary, correction constants,
Bernoulli numbers), the graded cotangent and tangent characters in both
generator bases, the Hodge character, and the first few Chern classes.

Usage:
    python scripts/print_formula_tables.py
    python scripts/print_formula_tables.py --degree 5 --jmax 4 --specs 2,0 3,2
"""

from __future__ import annotations

import argparse

from tautchern import (
    ModuliSpec,
    bernoulli,
    ch_bundle,
    chern_classes,
    default_labels,
    format_rational,
    hodge_ch,
    kappa_coefficient,
    kappa_correction,
    rank,
    render,
)
from tautchern.formulas import BUNDLES, boundary_coefficient


def parse_specs(raw: list[str]) -> list[tuple[int, int]]:
    out = []
    for item in raw:
        g, n = item.split(",")
        out.append((int(g), int(n)))
    return out


def coefficient_tables(dmax: int) -> None:
    print("coefficient tables")
    print("  d   kappa_d       boundary_d")
    for d in range(1, dmax + 1):
        print(f"  {d}   {format_rational(kappa_coefficient(d)):<12}"
              f"  {format_rational(boundary_coefficient(d))}")
    print()
    print("  m   correction a_m      B_m")
    for m in range(3, dmax + 3):
        print(f"  {m}   {format_rational(kappa_correction(m)):<16}"
              f"    {format_rational(bernoulli(m))}")
    print()


def character_block(g: int, n: int, degree: int, jmax: int) -> None:
    spec = ModuliSpec(g, default_labels(n))
    print(f"=== (g, n) = ({g}, {n}), dimension {spec.dimension}, "
          f"{spec.boundary_count()} boundary divisors ===")
    for bundle in BUNDLES:
        result = ch_bundle(spec, degree, bundle)
        print(f"{bundle}: rank {result.rank}")
        for d in range(1, degree + 1):
            print(f"  deg {d}: {render(result.component(d))}")
    basis = ch_bundle(spec, 1, "cotangent", "lambda")
    print(f"degree-one in the lambda basis: {render(basis.graded)}")
    concrete = ModuliSpec(g, default_labels(n), concrete=True)
    basis_c = ch_bundle(concrete, 1, "cotangent", "lambda")
    print(f"  ... with concrete boundary atoms: {render(basis_c.graded)}")
    print(f"hodge character (rank {rank(spec, 'hodge')}):")
    hodge = hodge_ch(spec, min(degree, 3))
    for d in range(1, min(degree, 3) + 1):
        print(f"  deg {d}: {render(hodge.component(d))}")
    _, classes = chern_classes(spec, jmax)
    for j, c in enumerate(classes, start=1):
        print(f"c_{j} = {render(c)}")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--degree", type=int, default=3)
    parser.add_argument("--jmax", type=int, default=2)
    parser.add_argument("--specs", nargs="*", default=["0,4", "1,1", "2,0", "2,1", "3,2"],
                        help="g,n pairs, e.g. --specs 2,0 3,2")
    args = parser.parse_args()

    coefficient_tables(args.degree + 2)
    for g, n in parse_specs(args.specs):
        character_block(g, n, args.degree, args.jmax)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
