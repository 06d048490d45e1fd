#!/usr/bin/env python3
"""Report on the exact power-series identities behind the coefficient tables.

Runs the two-variable series checks (node correction, Todd reciprocal) at a
configurable order and prints the marked-point comparison table, where the
subtracted-tail closed form visibly departs from the exact quotient-ring
product at degree three while the added-tail variant matches it forever.

Usage:
    python scripts/series_identity_report.py
    python scripts/series_identity_report.py --order 16
"""

from __future__ import annotations

import argparse
from fractions import Fraction
from math import factorial

from tautchern import (
    bernoulli,
    bernoulli_by_series,
    check_marked_point,
    check_node_correction,
    check_todd_bernoulli,
    format_rational,
    kappa_correction,
    kappa_correction_series_table,
    marked_point_table,
)


def series_checks(order: int) -> None:
    print(f"two-variable identities at order {order}")
    print(f"  node correction product:     "
          f"{'PASS' if check_node_correction(order) else 'FAIL'}")
    print(f"  todd reciprocal / Bernoulli: "
          f"{'PASS' if check_todd_bernoulli(order) else 'FAIL'}")
    mismatch = [k for k in range(order + 1)
                if bernoulli_by_series(k) != bernoulli(k)]
    print(f"  series Bernoulli vs recurrence through {order}: "
          f"{'PASS' if not mismatch else f'FAIL at {mismatch}'}")
    print()


def correction_table(mmax: int) -> None:
    print("correction constants a_m: defining sum vs generating products")
    expm1 = kappa_correction_series_table(mmax)
    bare = kappa_correction_series_table(mmax, use_expm1=False)
    print("  m   sum           (e^t - 1) product   e^t product")
    for m in range(3, mmax + 1):
        a = kappa_correction(m)
        flag = "" if bare[m] == a else "   <- differs by B_m/m!"
        print(f"  {m}   {format_rational(a):<12}  {format_rational(expm1[m]):<18}"
              f"  {format_rational(bare[m])}{flag}")
    print()


def marked_point_report(order: int) -> None:
    print("marked-point series: exact product vs both closed-form tails")
    rows = marked_point_table(order)
    print("  m   product       tail -1       tail +1")
    for m, product, minus, plus in rows:
        flag = "   <- departs" if product != minus else ""
        print(f"  {m}   {format_rational(product):<12}  "
              f"{format_rational(minus):<12}  {format_rational(plus)}{flag}")
    minus_ok = check_marked_point(order, tail_sign=-1)
    plus_ok = check_marked_point(order, tail_sign=1)
    print(f"  subtracted tail matches product: {minus_ok}")
    print(f"  added tail matches product:      {plus_ok}")
    gap = [(m, minus - Fraction(2, 1) / factorial(m))
           for m, _, minus, _ in rows if m >= 3]
    uniform = all(d == 0 for _, d in gap)
    print(f"  subtracted-tail coefficient equals 2/m! for every m >= 3: {uniform}")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--order", type=int, default=12)
    args = parser.parse_args()

    series_checks(args.order)
    correction_table(min(args.order, 10))
    marked_point_report(args.order)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
