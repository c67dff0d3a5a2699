import decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from communitylens.rounding import (
    format_fixed,
    mean_exact,
    percent,
    round_half_up,
)


def test_half_up_ties():
    assert round_half_up(Fraction(1, 20) * 10, 1) == Fraction(5, 10)
    assert round_half_up(Fraction(25, 100), 1) == Fraction(3, 10)
    assert round_half_up(Fraction(-25, 100), 1) == Fraction(-3, 10)
    assert round_half_up(Fraction(35, 100), 1) == Fraction(4, 10)


def test_table_ratios_round_correctly():
    # the three ratios that separate half-up from banker's rounding paths
    assert format_fixed(round_half_up(Fraction(100 * 43, 265))) == "16.2"
    assert format_fixed(round_half_up(Fraction(100 * 43, 262))) == "16.4"
    assert format_fixed(round_half_up(Fraction(100 * 1086, 5982))) == "18.2"


def test_format_fixed_pads():
    assert format_fixed(Fraction(100)) == "100.0"
    assert format_fixed(Fraction(0)) == "0.0"
    assert format_fixed(Fraction(1, 2), 2) == "0.50"
    assert format_fixed(Fraction(-3, 10)) == "-0.3"


def _decimal_ref(value, digits):
    # enough precision that the division is exact whenever it terminates
    prec = len(str(abs(value.numerator))) + len(str(value.denominator)) + digits + 20
    with decimal.localcontext(decimal.Context(prec=prec)):
        ref = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
        ref = ref.quantize(
            decimal.Decimal(1).scaleb(-digits), rounding=decimal.ROUND_HALF_UP
        )
        return ref.copy_abs() if ref == 0 else ref  # no signed zero in reports


@given(st.fractions(max_denominator=10**6), st.integers(min_value=0, max_value=4))
def test_half_up_matches_decimal(value, digits):
    assert round_half_up(value, digits) == Fraction(_decimal_ref(value, digits))


@given(st.fractions(max_denominator=10**6), st.integers(min_value=0, max_value=4))
def test_format_fixed_matches_decimal_string(value, digits):
    assert format_fixed(value, digits) == str(_decimal_ref(value, digits))


def test_percent():
    assert percent(43, 262) == Fraction(4300, 262)
    assert percent(0, 10) == Fraction(0)
    assert percent(5, 0) == Fraction(0)  # zero-denominator convention


def test_mean_exact():
    assert mean_exact([]) is None
    assert mean_exact(iter([])) is None
    assert mean_exact([Fraction(1), Fraction(2)]) == Fraction(3, 2)


def test_mean_exact_of_thirds_and_half():
    # (1/3 + 1/3 + 1/2) / 3 stays exact
    assert mean_exact([Fraction(1, 3), Fraction(1, 3), Fraction(1, 2)]) == Fraction(7, 18)


def test_mean_exact_matches_fraction_sum():
    values = [Fraction(100 * k, k + 1) for k in range(1, 50)]
    assert mean_exact(iter(values)) == sum(values, Fraction(0)) / len(values)


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1))
def test_mean_of_integers_is_exact_fraction(xs):
    mean = mean_exact(xs)
    assert isinstance(mean, Fraction)  # reports.cell dispatches on type
    assert mean == Fraction(sum(xs), len(xs))
