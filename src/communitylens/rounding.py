"""Exact-arithmetic helpers for report cells.

Count-derived percentages and means are kept as rationals until emission and
rounded half-up (ties away from zero) to a fixed number of decimals; binary
floats would misround cells like 1086/5982 * 100.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

Rational = int | Fraction


def round_half_up(value: Rational, digits: int = 1) -> Fraction:
    """Round an exact rational to `digits` decimals, ties away from zero."""
    scale = 10**digits
    scaled = Fraction(value) * scale
    whole, rem = divmod(scaled.numerator, scaled.denominator)
    # divmod floors, so rem is nonnegative; recheck ties from the floor side
    if 2 * rem >= scaled.denominator:
        whole += 1
    if value < 0 and 2 * rem == scaled.denominator:
        whole -= 1  # floor already moved past zero; ties go away from zero
    return Fraction(whole, scale)


def format_fixed(value: Rational, digits: int = 1) -> str:
    """Format an exact rational with exactly `digits` decimals, rounded as
    round_half_up does; integer arithmetic only, since every report cell
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


def mean_exact(values: Iterable[Rational]) -> Fraction | None:
    """Exact mean of rationals; None when there are none.

    Numerators are summed as plain ints per denominator, and one Fraction is
    built per distinct denominator, which matters when millions of terms share
    a handful of denominators.
    """
    sums: dict[int, int] = {}
    count = 0
    for count, value in enumerate(values, 1):
        sums[value.denominator] = sums.get(value.denominator, 0) + value.numerator
    if not count:
        return None
    return sum((Fraction(num, den) for den, num in sorted(sums.items())), Fraction(0)) / count
