import random
from fractions import Fraction

import pytest

from communitylens.cohorts import (
    ALL_AUTHORS,
    NEW_AUTHORS,
    UnknownTopicError,
    check_denominator,
    cohort_series,
    topic_activity,
    year_cohorts,
)
from communitylens.corpus import MissingCareerError
from communitylens.rounding import format_fixed

from oracles import TOPICS, make_corpus, oracle_year_cohorts, random_raw_corpus, raw_corpus


def test_single_author_trivial():
    corpus = make_corpus([("p1", 2012, ["a1"], ["bd"])])
    row = year_cohorts(corpus, "bd", 2012)
    assert row.all_authors == row.new_authors == frozenset({"a1"})
    assert row.old_authors == frozenset()
    assert row.newborn_authors == frozenset({"a1"})
    assert row.stayers == frozenset()
    assert row.percent_new == Fraction(100)
    assert row.percent_newborn == Fraction(100)


def test_worked_2012_counts(bd2012_corpus):
    row = year_cohorts(bd2012_corpus, "big data", 2012)
    assert (row.n_all, row.n_old, row.n_new, row.n_newborn, row.n_stay) == (
        265, 3, 262, 107, 43,
    )
    assert format_fixed(row.percent_old) == "1.1"
    assert format_fixed(row.percent_new) == "98.9"
    assert format_fixed(row.percent_newborn) == "40.8"
    assert format_fixed(row.percent_stay()) == "16.4"
    assert format_fixed(row.percent_stay(ALL_AUTHORS)) == "16.2"


def test_returning_authors_become_old(bd2012_corpus):
    row2010 = year_cohorts(bd2012_corpus, "big data", 2010)
    assert row2010.n_all == 3 and row2010.n_old == 0
    # all three republish in 2012, inside their 2-year window
    assert row2010.n_stay == 3
    row2013 = year_cohorts(bd2012_corpus, "big data", 2013)
    assert row2013.n_all == 23 and row2013.n_old == 23 and row2013.n_new == 0
    assert row2013.zero_denominator_fields() == ("percent_newborn", "percent_stay")
    assert row2013.percent_newborn == Fraction(0)


def test_stayers_depend_on_window(bd2012_corpus):
    # 23 republish the next year, 20 the year after
    w1 = year_cohorts(bd2012_corpus, "big data", 2012, stay_window=1)
    w2 = year_cohorts(bd2012_corpus, "big data", 2012, stay_window=2)
    w3 = year_cohorts(bd2012_corpus, "big data", 2012, stay_window=3)
    assert (w1.n_stay, w2.n_stay, w3.n_stay) == (23, 43, 43)
    assert w1.stayers < w2.stayers == w3.stayers


def test_undetermined_tail(bd2012_corpus):
    rows = cohort_series(bd2012_corpus, "big data")
    assert [r.year for r in rows] == list(range(2008, 2018))
    assert [r.stay_determined for r in rows] == [True] * 8 + [False, False]
    assert rows[-1].n_stay is None
    assert rows[-1].percent_stay() is None
    with_window = cohort_series(bd2012_corpus, "big data", stay_window=5)
    assert [r.stay_determined for r in with_window] == [True] * 5 + [False] * 5


def test_window_validation(bd2012_corpus):
    with pytest.raises(ValueError):
        cohort_series(bd2012_corpus, "big data", stay_window=0)
    with pytest.raises(ValueError):
        year_cohorts(bd2012_corpus, "big data", 2012, stay_window=-1)


def test_year_validation(bd2012_corpus):
    with pytest.raises(ValueError):
        year_cohorts(bd2012_corpus, "big data", 2007)
    with pytest.raises(ValueError):
        year_cohorts(bd2012_corpus, "big data", 2018)


def test_unknown_topic(bd2012_corpus):
    with pytest.raises(UnknownTopicError):
        year_cohorts(bd2012_corpus, "nanotech", 2012)
    # the series stays total: all-zero rows instead of an error
    rows = cohort_series(bd2012_corpus, "nanotech")
    assert all(r.n_all == 0 for r in rows)
    assert all(r.percent_new == Fraction(0) for r in rows)


def test_denominator_normalization():
    assert (NEW_AUTHORS, ALL_AUTHORS) == ("new", "all")  # the CLI spellings
    check_denominator("new")
    check_denominator("all")
    for alias in ("new_authors", "most"):
        with pytest.raises(ValueError):
            check_denominator(alias)


def test_row_default_denominator():
    corpus = make_corpus(
        [("p1", 2012, ["a1", "a2"], ["bd"]), ("p2", 2013, ["a1"], ["bd"]),
         ("p3", 2011, ["a3"], ["bd"]), ("p4", 2012, ["a3"], ["bd"])]
    )
    row = year_cohorts(corpus, "bd", 2012, stay_denominator=ALL_AUTHORS)
    # one stayer among two new authors, three active in all
    assert row.n_stay == 1
    assert row.percent_stay() == Fraction(100, 3)
    assert row.percent_stay(NEW_AUTHORS) == Fraction(100, 2)


def test_newborn_uses_career_first_year():
    corpus = make_corpus(
        [("p1", 2012, ["a1"], ["bd"]), ("p2", 2012, ["a2"], ["bd"])],
        careers={"a1": (2012, {2012: 1}), "a2": (2005, {2005: 1, 2012: 1})},
    )
    row = year_cohorts(corpus, "bd", 2012)
    assert row.newborn_authors == frozenset({"a1"})


def test_missing_career_raises():
    corpus = make_corpus([("p1", 2012, ["a1"], ["bd"])])
    del corpus.careers["a1"]
    with pytest.raises(MissingCareerError):
        year_cohorts(corpus, "bd", 2012)


def test_multi_author_counted_once_per_year():
    corpus = make_corpus(
        [("p1", 2012, ["a1", "a2"], ["bd"]), ("p2", 2012, ["a1"], ["bd"])]
    )
    row = year_cohorts(corpus, "bd", 2012)
    assert row.n_all == 2


def test_topic_activity_shared_index(bd2012_corpus):
    activity = topic_activity(bd2012_corpus, "big data")
    assert len(activity) == 265
    assert list(activity.counts) == sorted(activity.counts)
    assert activity.counts["old001"] == {2010: 1, 2012: 1}
    assert activity.clusters == {}  # the fixture has no cluster metadata
    assert topic_activity(bd2012_corpus, "big data") is activity


def test_series_matches_oracle_on_random_corpora():
    rng = random.Random(20814)
    for _ in range(25):
        pubs, careers, clusters = random_raw_corpus(rng, max_pubs=60)
        corpus = make_corpus(pubs, careers, clusters, topics=TOPICS)
        raw_pubs, raw_careers, _ = raw_corpus(pubs, careers, clusters)
        for topic in ("alpha", "beta"):
            rows = cohort_series(corpus, topic, stay_window=2)
            for row in rows:
                want = oracle_year_cohorts(
                    raw_pubs, raw_careers, topic, row.year, 2, corpus.horizon
                )
                assert row.all_authors == frozenset(want["all"])
                assert row.old_authors == frozenset(want["old"])
                assert row.new_authors == frozenset(want["new"])
                assert row.newborn_authors == frozenset(want["newborn"])
                if want["stay"] is None:
                    assert row.stayers is None
                else:
                    assert row.stayers == frozenset(want["stay"])
