"""Exact-arithmetic helpers for report cells.

Count-derived percentages and means are kept as rationals until emission and
rounded half-up (ties away from zero) to a fixed number of decimals; binary
floats would misround cells like 1086/5982 * 100.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter
from typing import Iterable

Rational = int | Fraction

#: The exact key of a rational: its normalised (numerator, denominator). A
#: Fraction hashes in Python on every lookup, and a float key would merge
#: distinct values, which may round to different cells.
ratio_key = attrgetter("numerator", "denominator")


def format_fixed(value: Rational, digits: int = 1) -> str:
    """Format an exact rational with exactly `digits` decimals, rounded half-up
    (ties away from zero); integer arithmetic only, since every report cell
    passes through here."""
    scaled = value.numerator * 10**digits
    units, rem = divmod(abs(scaled), value.denominator)
    if 2 * rem >= value.denominator:
        units += 1  # ties away from zero
    sign = "-" if scaled < 0 and units else ""
    if digits == 0:
        return f"{sign}{units}"
    text = str(units).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def percent(part: int, whole: int) -> Fraction:
    """part / whole as an exact percentage; zero denominator yields 0."""
    if whole == 0:
        return Fraction(0)
    return Fraction(100 * part, whole)


def mean(total: Rational, count: int) -> Fraction | None:
    """The exact mean of `count` values that sum to `total`; None when there
    are none. Integer columns (years, production, lag) pass their plain int
    sum, so they need no Fraction until this one."""
    if not count:
        return None
    return Fraction(total, count)


def mean_exact(values: Iterable[Rational]) -> Fraction | None:
    """mean() of rationals; None when there are none.

    Numerators are summed as plain ints per denominator, since millions of
    terms often share a handful of denominators. Those sums are combined over
    the lcm of their denominators into one Fraction, which normalises it.
    """
    sums: dict[int, int] = {}
    count = 0
    for count, value in enumerate(values, 1):
        sums[value.denominator] = sums.get(value.denominator, 0) + value.numerator
    if not count:
        return None
    den, num = _sum_over_lcm(list(sums.items()))
    return mean(Fraction(num, den), count)


def _sum_over_lcm(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """(lcm of the denominators, numerator over it) for nonempty (den, num)
    terms. Merging halves keeps the operands balanced, so many distinct large
    denominators cost far less than adding them one by one."""
    if len(terms) == 1:
        return terms[0]
    mid = len(terms) // 2
    d1, n1 = _sum_over_lcm(terms[:mid])
    d2, n2 = _sum_over_lcm(terms[mid:])
    g = math.gcd(d1, d2)
    return d1 // g * d2, n1 * (d2 // g) + n2 * (d1 // g)
