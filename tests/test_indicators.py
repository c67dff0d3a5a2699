import math
import random
from fractions import Fraction

import pytest

from communitylens.cohorts import cohort_series, topic_activity
from communitylens.corpus import MissingCareerError
from communitylens.indicators import (
    BANDS,
    MEAN_ANNUAL,
    TOTAL_RATIO,
    CareerDataError,
    author_profiles,
    check_focus_mode,
    production_bands,
    year_summaries,
)

from oracles import TOPICS, make_corpus, oracle_profiles, random_raw_corpus, raw_corpus


def test_single_author_profile():
    corpus = make_corpus([("p1", 2012, ["a1"], ["bd"])], careers={"a1": (2012, {2012: 2})})
    p = author_profiles(corpus, "bd")["a1"]
    assert p.production_total == 1
    assert p.topic_counts == {2012: 1} and p.career_counts == {2012: 2}
    assert p.focus_by_year == {2012: Fraction(50)}
    assert p.focus_overall == Fraction(50)
    assert p.entry_year == 2012 and p.first_year == 2012 and p.entry_lag == 0


def test_focus_modes_differ():
    corpus = make_corpus(
        [("p1", 2012, ["a1"], ["bd"]), ("p2", 2012, ["a1"], ["bd"]), ("p3", 2014, ["a1"], ["bd"])],
        careers={"a1": (2010, {2010: 1, 2012: 4, 2014: 2, 2016: 3})},
    )
    total = author_profiles(corpus, "bd")["a1"]
    annual = author_profiles(corpus, "bd", focus_mode=MEAN_ANNUAL)["a1"]
    assert total.production_total == 3
    assert total.first_year == 2010 and total.entry_year == 2012 and total.entry_lag == 2
    assert total.focus_by_year == {2012: Fraction(50), 2014: Fraction(50)}
    # 3 topic papers over 10 horizon papers vs mean of the two annual shares
    assert total.focus_overall == Fraction(30)
    assert annual.focus_overall == Fraction(50)


def test_focus_mode_aliases():
    assert (TOTAL_RATIO, MEAN_ANNUAL) == ("total", "annual")  # the CLI spellings
    check_focus_mode("total")
    check_focus_mode("annual")
    for alias in ("total_ratio", "mean_annual", "median"):
        with pytest.raises(ValueError):
            check_focus_mode(alias)


def test_career_undercount_rejected():
    corpus = make_corpus(
        [("p1", 2012, ["a1"], ["bd"]), ("p2", 2012, ["a1"], ["bd"])],
        careers={"a1": (2012, {2012: 1})},
    )
    with pytest.raises(CareerDataError):
        author_profiles(corpus, "bd")


def test_missing_career_rejected():
    corpus = make_corpus([("p1", 2012, ["a1"], ["bd"])])
    del corpus.careers["a1"]
    with pytest.raises(MissingCareerError):
        list(author_profiles(corpus, "bd"))


def test_profiles_sorted_by_author(bd2012_corpus):
    profiles = author_profiles(bd2012_corpus, "big data")
    assert list(profiles) == sorted(profiles)
    assert len(profiles) == 265


def test_first_year_group_means(age_corpus):
    summaries = {s.year: s for s in year_summaries(age_corpus, "bd")}
    row = summaries[2012]
    assert row.n_active == 265 and row.n_new == 262 and row.n_old == 3
    assert row.mean_first_year_new == Fraction(525258, 262)
    assert row.mean_first_year_old == Fraction(1994)
    assert row.mean_first_year_all == Fraction(531240, 265)
    # group means bracket the overall mean
    assert row.mean_first_year_old <= row.mean_first_year_all <= row.mean_first_year_new


def test_year_summary_matches_streaming(bd2012_corpus):
    # summaries from the run's shared profiles equal the standalone call, and
    # their author counts agree with the cohort rows
    profiles = author_profiles(bd2012_corpus, "big data")
    rows = cohort_series(bd2012_corpus, "big data")
    summaries = year_summaries(bd2012_corpus, "big data", profiles=profiles)
    assert summaries == year_summaries(bd2012_corpus, "big data")
    for cohort_row, s in zip(rows, summaries):
        assert s.year == cohort_row.year
        assert (s.n_active, s.n_new, s.n_old) == (cohort_row.n_all, cohort_row.n_new, cohort_row.n_old)


def test_empty_year_cells():
    corpus = make_corpus([("p1", 2012, ["a1"], ["bd"])])
    rows = year_summaries(corpus, "bd")
    empty = rows[0]  # 2008: nobody active
    assert empty.n_active == 0
    assert empty.mean_first_year_all is None
    assert empty.mean_focus is None
    assert empty.focus_ci95 is None


def test_ci95_zero_variance():
    corpus = make_corpus(
        [("p1", 2012, ["a1"], ["bd"]), ("p2", 2012, ["a2"], ["bd"])],
        careers={"a1": (2012, {2012: 1}), "a2": (2012, {2012: 1})},
    )
    row = [s for s in year_summaries(corpus, "bd") if s.year == 2012][0]
    assert row.mean_focus == Fraction(100)
    assert row.focus_ci95 == 0.0


def test_ci95_equal_focus_is_exactly_zero():
    # three authors at focus 100/3; float sums of x and x^2 left 5.4e-07
    corpus = make_corpus(
        [(f"p{i}", 2012, [f"a{i}"], ["bd"]) for i in range(3)],
        careers={f"a{i}": (2012, {2012: 3}) for i in range(3)},
    )
    row = [s for s in year_summaries(corpus, "bd") if s.year == 2012][0]
    assert row.mean_focus == Fraction(100, 3)
    assert row.focus_ci95 == 0.0


def test_ci95_single_author():
    corpus = make_corpus([("p1", 2012, ["a1"], ["bd"])])
    row = [s for s in year_summaries(corpus, "bd") if s.year == 2012][0]
    assert row.focus_ci95 == 0.0


def test_ci95_hand_computed():
    corpus = make_corpus(
        [("p1", 2012, ["a1"], ["bd"]), ("p2", 2012, ["a2"], ["bd"])],
        careers={"a1": (2012, {2012: 1}), "a2": (2012, {2012: 2})},
    )
    row = [s for s in year_summaries(corpus, "bd") if s.year == 2012][0]
    # focus values 100 and 50: s = 25*sqrt(2), half-width 1.96*s/sqrt(2) = 49
    assert row.mean_focus == Fraction(75)
    assert math.isclose(row.focus_ci95, 49.0)


def test_production_bands(threshold_corpus):
    profiles = author_profiles(threshold_corpus, "bd")
    bands = production_bands(profiles)
    assert [b.label for b in bands] == ["1", "2", "3-5", "6-10", ">10"]
    assert [b.n_authors for b in bands] == [875, 125, 0, 0, 0]
    assert bands[0].share == Fraction(87.5)
    assert bands[1].share == Fraction(12.5)
    assert sum(b.share for b in bands) == Fraction(100)
    assert bands[0].mean_focus == Fraction(465 * 100 + 410 * 50, 875)
    assert bands[1].mean_focus == Fraction(58)
    assert bands[2].mean_focus is None


def test_band_edges():
    # one author per band boundary: 1, 2, 3, 5, 6, 10, 11
    pubs = []
    for i, k in enumerate([1, 2, 3, 5, 6, 10, 11]):
        for j in range(k):
            pubs.append((f"p{i}_{j}", 2008 + j % 10, [f"a{i}"], ["bd"]))
    bands = production_bands(author_profiles(make_corpus(pubs), "bd"))
    assert [b.n_authors for b in bands] == [1, 1, 2, 2, 1]


def test_streaming_band_profiles_match(threshold_corpus):
    # profiles follow the shared index's author order; bands cover every author
    index = topic_activity(threshold_corpus, "bd")
    profiles = author_profiles(threshold_corpus, "bd")
    assert list(profiles) == list(index.counts)
    assert sum(b.n_authors for b in production_bands(profiles)) == len(index)


def test_bands_empty_topic():
    corpus = make_corpus([("p1", 2012, ["a1"], ["bd"])], topics=["other"])
    bands = production_bands(author_profiles(corpus, "other"))
    assert all(b.n_authors == 0 and b.share == 0 for b in bands)


def test_band_spec_is_total():
    # every positive production lands in exactly one band
    for k in range(1, 40):
        hits = [
            label
            for label, low, high in BANDS
            if k >= low and (high is None or k <= high)
        ]
        assert len(hits) == 1


def test_profiles_match_oracle_on_random_corpora():
    rng = random.Random(404_809)
    for _ in range(25):
        pubs, careers, clusters = random_raw_corpus(rng, max_pubs=60)
        corpus = make_corpus(pubs, careers, clusters, topics=TOPICS)
        raw_pubs, raw_careers, _ = raw_corpus(pubs, careers, clusters)
        for mode in (TOTAL_RATIO, MEAN_ANNUAL):
            got = author_profiles(corpus, "alpha", focus_mode=mode)
            want = oracle_profiles(raw_pubs, raw_careers, "alpha", corpus.horizon, focus_mode=mode)
            assert set(got) == set(want)
            for a, w in want.items():
                p = got[a]
                assert p.first_year == w["yfp"]
                assert p.entry_year == w["entry"]
                assert p.topic_counts == w["counts"]
                assert p.focus_by_year == w["focus_by_year"]
                assert p.production_total == w["production"]
                assert p.focus_overall == w["focus"]
                assert p.entry_lag == w["lag"]
