import decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from communitylens.indicators import AuthorProfile
from communitylens.reports import cell, emit_quadrant_authors_csv, raw_cell
from communitylens.rounding import (
    format_fixed,
    mean,
    mean_exact,
    percent,
)


def test_half_up_ties():
    assert format_fixed(Fraction(1, 20) * 10, 1) == "0.5"
    assert format_fixed(Fraction(25, 100), 1) == "0.3"
    assert format_fixed(Fraction(-25, 100), 1) == "-0.3"
    assert format_fixed(Fraction(35, 100), 1) == "0.4"


def test_table_ratios_round_correctly():
    # the three ratios that separate half-up from banker's rounding paths
    assert format_fixed(Fraction(100 * 43, 265)) == "16.2"
    assert format_fixed(Fraction(100 * 43, 262)) == "16.4"
    assert format_fixed(Fraction(100 * 1086, 5982)) == "18.2"


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
    assert mean(0, 0) is None
    assert mean(2008 + 2011 + 2011, 3) == mean_exact([2008, 2011, 2011]) == Fraction(6030, 3)


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


@given(
    st.lists(
        st.tuples(st.integers(min_value=-10**40, max_value=10**40),
                  st.integers(min_value=1, max_value=10**30)),
        min_size=1,
        max_size=60,
    )
)
def test_mean_exact_over_many_large_denominators(pairs):
    values = [Fraction(num, den) for num, den in pairs]
    mean = mean_exact(values)
    assert isinstance(mean, Fraction)
    assert mean == sum(map(Fraction, values)) / len(values)


def test_mean_exact_over_distinct_prime_denominators():
    primes = [p for p in range(10**4, 10**4 + 2000) if all(p % q for q in range(2, 101))]
    primes = [p for p in primes if all(p % q for q in range(101, int(p**0.5) + 1))]
    values = [Fraction(k, p) for k, p in enumerate(primes, 1)] + [7, Fraction(7)]
    assert mean_exact(values) == sum(map(Fraction, values)) / len(values)


@pytest.mark.parametrize("raw", [False, True])
def test_quadrant_author_cells_keyed_by_exact_value(raw):
    # equal values as distinct objects, and two values that share a float but
    # round to different cells: a cache keyed by float() would merge them
    half = Fraction(1, 20)
    below = half - Fraction(1, 10**30)
    assert float(below) == float(half)
    focuses = [half, below, Fraction(2, 40), Fraction(100, 3), below + 0, Fraction(200, 6), half]
    profiles = {
        f"a{i}": AuthorProfile(f"a{i}", 2010, 2010, {2010: i % 3 + 1}, {2010: 9}, i % 3 + 1,
                               focus, 0)
        for i, focus in enumerate(focuses)
    }
    groups = dict.fromkeys(profiles, "incidental")
    header = "author_id,production_total,focus_overall,group" + (",focus_overall_raw" if raw else "")
    rows = [
        ",".join([cell(p.author_id), cell(p.production_total), cell(p.focus_overall),
                  cell(groups[p.author_id])] + ([raw_cell(p.focus_overall)] if raw else []))
        for p in profiles.values()
    ]
    assert emit_quadrant_authors_csv(profiles, groups, raw=raw) == "\n".join([header, *rows]) + "\n"
    assert [row.split(",")[2] for row in rows] == ["0.1", "0.0", "0.1", "33.3", "0.0", "33.3", "0.1"]
