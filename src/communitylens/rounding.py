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


class MeanAccumulator:
    """Exact mean of rationals, accumulated as integers per denominator.

    Hot loops feed (numerator, denominator) pairs; buckets keyed by the
    denominator keep the arithmetic in plain ints until the result is asked
    for, which matters when millions of terms share a handful of denominators.
    """

    __slots__ = ("_buckets", "_count")

    def __init__(self) -> None:
        self._buckets: dict[int, int] = {}
        self._count = 0

    def add(self, numerator: int, denominator: int = 1) -> None:
        self._buckets[denominator] = self._buckets.get(denominator, 0) + numerator
        self._count += 1

    def extend(self, values: Iterable[Rational]) -> None:
        for value in values:
            frac = Fraction(value)
            self.add(frac.numerator, frac.denominator)

    @property
    def count(self) -> int:
        return self._count

    def total(self) -> Fraction:
        return sum(
            (Fraction(num, den) for den, num in sorted(self._buckets.items())),
            Fraction(0),
        )

    def mean(self) -> Fraction | None:
        if self._count == 0:
            return None
        return self.total() / self._count


def mean_exact(values: Iterable[Rational]) -> Fraction | None:
    acc = MeanAccumulator()
    acc.extend(values)
    return acc.mean()
