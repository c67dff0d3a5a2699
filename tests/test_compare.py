import importlib
import random
from fractions import Fraction

import pytest

from communitylens.classify import classify_authors, resolve_thresholds
from communitylens.cohorts import UnknownTopicError, cohort_series, topic_activity
from communitylens.compare import (
    compare,
    comparison_files,
    diff_bands_csv,
    diff_cohorts_csv,
)
from communitylens.indicators import author_profiles, production_bands, year_summaries

from oracles import TOPICS, make_corpus, oracle_cutoff, random_raw_corpus


TWO_TOPIC_PUBS = [
    ("p01", 2012, ["a1"], ["alpha"]),
    ("p02", 2012, ["a1"], ["alpha"]),
    ("p03", 2012, ["a2"], ["alpha"]),
    ("p04", 2013, ["a2"], ["alpha"]),
    ("p05", 2012, ["x1"], ["alpha", "beta"]),
    ("p06", 2012, ["b1"], ["beta"]),
    ("p07", 2013, ["b1"], ["beta"]),
    ("p08", 2013, ["b1"], ["beta"]),
    ("p09", 2013, ["b2"], ["beta"]),
]
TWO_TOPIC_CAREERS = {
    "a1": (2010, {2010: 1, 2012: 2}),
    "a2": (2012, {2012: 1, 2013: 1}),
    "x1": (2012, {2012: 2}),
    "b1": (2012, {2012: 1, 2013: 2}),
    "b2": (2013, {2013: 1}),
}


def two_topic_corpus(topics=()):
    return make_corpus(TWO_TOPIC_PUBS, TWO_TOPIC_CAREERS, topics=topics)


def random_corpus(seed):
    pubs, careers, clusters = random_raw_corpus(random.Random(seed))
    return make_corpus(pubs, careers, clusters, topics=TOPICS)


def test_self_compare_is_all_zero():
    corpus = two_topic_corpus()
    report = compare(corpus, "alpha", "alpha")
    assert report.side_a == report.side_b
    assert report.overlap == report.side_a.n_authors == 3
    files = comparison_files(report)
    # every difference cell is zero or blank; label columns are skipped
    label_cols = {"diff_cohorts.csv": 0, "diff_indicators.csv": 1,
                  "diff_bands.csv": 1, "diff_quadrant_summary.csv": 3}
    for name, start in label_cols.items():
        for line in files[name].splitlines()[1:]:
            for cell in line.split(",")[start:]:
                assert cell in ("", "0", "0.0", "0.00"), (name, line)


def test_sides_match_standalone_pipeline():
    corpus = two_topic_corpus()
    report = compare(corpus, "alpha", "beta", stay_window=3)
    for side, topic in ((report.side_a, "alpha"), (report.side_b, "beta")):
        assert side.topic == topic
        assert side.cohort_rows == cohort_series(corpus, topic, stay_window=3)
        assert side.summaries == year_summaries(corpus, topic)
        profiles = author_profiles(corpus, topic)
        assert side.profiles == profiles
        assert side.bands == production_bands(profiles)
        want = classify_authors(
            profiles, resolve_thresholds(profiles, "promote"), corpus=corpus, index=topic_activity(corpus, topic)
        )
        assert side.classification == want
    assert report.overlap == 1  # only x1 holds both flags


def test_second_corpus_feeds_side_b():
    corpus_a = random_corpus(1)
    corpus_b = random_corpus(2)
    report = compare(corpus_a, "alpha", "alpha", corpus_b)
    assert report.side_a.cohort_rows == cohort_series(corpus_a, "alpha", stay_window=2)
    assert report.side_b.cohort_rows == cohort_series(corpus_b, "alpha", stay_window=2)
    both = set(report.side_a.profiles) & set(report.side_b.profiles)
    assert report.overlap == len(both)


def test_pooled_thresholds_use_union_of_values():
    corpus = two_topic_corpus()
    split = compare(corpus, "alpha", "beta")
    pooled = compare(corpus, "alpha", "beta", pooled_thresholds=True)
    values_p = [p.production_total for side in (pooled.side_a, pooled.side_b)
                for p in side.profiles.values()]
    values_f = [p.focus_overall for side in (pooled.side_a, pooled.side_b)
                for p in side.profiles.values()]
    want_p, _ = oracle_cutoff(values_p, "promote")
    want_f, _ = oracle_cutoff(values_f, "promote")
    for side in (pooled.side_a, pooled.side_b):
        assert side.classification.thresholds.production_cutoff == want_p
        assert side.classification.thresholds.focus_cutoff == want_f
    # per-side cutoffs differ here, so pooling must actually change something
    assert (
        split.side_a.classification.thresholds != split.side_b.classification.thresholds
    )


def test_degenerate_side_reports_note():
    pubs = [
        ("p1", 2012, ["a1"], ["alpha"]),
        ("p2", 2012, ["a1"], ["alpha"]),
        ("p3", 2013, ["a2"], ["alpha"]),
        ("p4", 2012, ["c1"], ["gamma"]),
        ("p5", 2013, ["c2"], ["gamma"]),
    ]
    careers = {
        "a1": (2012, {2012: 3}),
        "a2": (2013, {2013: 1}),
        "c1": (2012, {2012: 1}),
        "c2": (2013, {2013: 1}),
    }
    corpus = make_corpus(pubs, careers)
    report = compare(corpus, "alpha", "gamma")
    assert report.side_a.classification is not None
    assert report.side_b.classification is None
    assert "production" in report.side_b.classification_note
    files = comparison_files(report)
    assert "a_thresholds.json" in files
    for name in ("b_thresholds.json", "b_quadrant_authors.csv", "b_quadrant_summary.csv"):
        assert name not in files
    assert "classification_note_b" in files["summary.csv"]
    assert "classification_note_a" not in files["summary.csv"]
    # the diff table degrades to header-only rather than inventing zeros
    assert files["diff_quadrant_summary.csv"].count("\n") == 1


@pytest.mark.parametrize("pooled, resolutions", [(False, 2), (True, 1)])
def test_each_side_classified_once(pooled, resolutions, monkeypatch):
    # the package exports the function compare under the submodule's name
    compare_module = importlib.import_module("communitylens.compare")
    calls = []
    for name in ("resolve_thresholds", "classify_authors"):
        real = getattr(compare_module, name)
        monkeypatch.setattr(compare_module, name,
                            lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k))
    compare(two_topic_corpus(), "alpha", "beta", pooled_thresholds=pooled)
    assert calls.count("resolve_thresholds") == resolutions
    assert calls.count("classify_authors") == 2


def test_pooled_cutoffs_classify_a_side_that_alone_is_degenerate():
    # gamma alone: every author has one paper; pooled with alpha: 2 in 1/1/1/2
    pubs = [
        ("p1", 2012, ["a1"], ["alpha"]),
        ("p2", 2012, ["a1"], ["alpha"]),
        ("p3", 2013, ["a2"], ["alpha"]),
        ("p4", 2012, ["c1"], ["gamma"]),
        ("p5", 2013, ["c2"], ["gamma"]),
    ]
    careers = {
        "a1": (2012, {2012: 3}),
        "a2": (2013, {2013: 1}),
        "c1": (2012, {2012: 1}),
        "c2": (2013, {2013: 1}),
    }
    corpus = make_corpus(pubs, careers)
    assert compare(corpus, "alpha", "gamma").side_b.classification is None
    report = compare(corpus, "alpha", "gamma", pooled_thresholds=True)
    for side in (report.side_a, report.side_b):
        assert side.classification_note is None
        t = side.classification.thresholds
        assert (t.production_cutoff, t.focus_cutoff) == (2, Fraction(100))
        assert t.production_trace.promoted
    groups = {a: group for side in (report.side_a, report.side_b)
              for a, group in side.classification.groups.items()}
    assert groups == {"a1": "casual", "a2": "interested", "c1": "interested",
                      "c2": "interested"}
    files = comparison_files(report)
    assert "b_thresholds.json" in files
    assert "classification_note" not in files["summary.csv"]


def test_pooled_values_keep_every_author_whatever_its_id():
    # side a's "q\x00b" and side b's "q" are two authors: all eight values
    # are pooled, so production resolves at 5 rather than degenerating at 1
    pubs = [(f"p{i}", 2012, ["q\x00b"], ["alpha"]) for i in range(5)]
    pubs += [(f"a{i}", 2012, [f"a{i}"], ["alpha"]) for i in range(3)]
    pubs += [(f"c{i}", 2012, [author], ["gamma"]) for i, author in enumerate(["q", "c1", "c2", "c3"])]
    careers = {author: (2012, {2012: 1}) for _, _, (author,), _ in pubs}
    careers["q\x00b"] = (2012, {2012: 5})
    careers["a0"] = (2012, {2012: 2})  # focus 50: only production can be degenerate
    corpus = make_corpus(pubs, careers)
    report = compare(corpus, "alpha", "gamma", pooled_thresholds=True)
    for side in (report.side_a, report.side_b):
        assert side.classification_note is None
        t = side.classification.thresholds
        assert t.production_cutoff == 5 and t.production_trace.promoted
    both = [*report.side_a.profiles.values(), *report.side_b.profiles.values()]
    assert t == resolve_thresholds(dict(enumerate(both)))


def test_pooled_degenerate_values_leave_both_sides_unclassified():
    # alone each side is degenerate in production (2s, 1s); pooled, only focus is
    pubs = [
        ("p1", 2012, ["a1"], ["alpha"]),
        ("p2", 2013, ["a1"], ["alpha"]),
        ("p3", 2012, ["a2"], ["alpha"]),
        ("p4", 2013, ["a2"], ["alpha"]),
        ("p5", 2012, ["c1"], ["gamma"]),
        ("p6", 2013, ["c2"], ["gamma"]),
    ]
    careers = {
        "a1": (2012, {2012: 1, 2013: 1}),
        "a2": (2012, {2012: 1, 2013: 1}),
        "c1": (2012, {2012: 1}),
        "c2": (2013, {2013: 1}),
    }
    corpus = make_corpus(pubs, careers)
    split = compare(corpus, "alpha", "gamma")
    assert split.side_a.classification_note.endswith("production = 2")
    report = compare(corpus, "alpha", "gamma", pooled_thresholds=True)
    note = "cannot resolve a quadrant cutoff: every author has focus = 100"
    for side in (report.side_a, report.side_b):
        assert side.classification is None
        assert side.classification_note == note
    files = comparison_files(report)
    assert not any(name.endswith("thresholds.json") for name in files)
    assert f"classification_note_a,{note}" in files["summary.csv"]
    assert f"classification_note_b,{note}" in files["summary.csv"]
    assert files["diff_quadrant_summary.csv"].count("\n") == 1


def test_unknown_topic_raises():
    corpus = two_topic_corpus(topics=["no-such-topic"])
    with pytest.raises(UnknownTopicError):
        compare(corpus, "alpha", "no-such-topic")
    with pytest.raises(UnknownTopicError):
        compare(corpus, "no-such-topic", "beta")


def test_comparison_file_set_is_complete():
    corpus = two_topic_corpus()
    files = comparison_files(compare(corpus, "alpha", "beta"))
    want = {"summary.csv", "diff_cohorts.csv", "diff_indicators.csv",
            "diff_bands.csv", "diff_quadrant_summary.csv"}
    for prefix in ("a", "b"):
        want |= {
            f"{prefix}_cohorts.csv", f"{prefix}_indicators.csv", f"{prefix}_bands.csv",
            f"{prefix}_quadrant_authors.csv", f"{prefix}_quadrant_summary.csv",
            f"{prefix}_thresholds.json",
        }
    assert set(files) == want
    for body in files.values():
        assert body.endswith("\n")
        assert "\r" not in body


def test_diff_rejects_mismatched_series():
    wide = cohort_series(two_topic_corpus(), "alpha", stay_window=2)
    narrow = cohort_series(
        make_corpus([("p1", 2012, ["a1"], ["alpha"])], horizon=(2012, 2013)),
        "alpha",
        stay_window=1,
    )
    with pytest.raises(ValueError):
        diff_cohorts_csv(wide, narrow)


def test_diff_cells_subtract_exactly():
    corpus = two_topic_corpus()
    report = compare(corpus, "alpha", "beta")
    lines = diff_cohorts_csv(
        report.side_a.cohort_rows, report.side_b.cohort_rows
    ).splitlines()
    # 2012: alpha 3 entrants / beta 2, both all-new, 2 newborns and 1 stayer each
    row_2012 = lines[5].split(",")
    assert row_2012[:5] == ["1", "0", "1", "0", "0"]
    bands = diff_bands_csv(report.side_a.bands, report.side_b.bands).splitlines()
    # one-paper authors: alpha {x1} vs beta {x1, b2}
    assert bands[1].split(",")[:2] == ["1", "-1"]


# Three authors in both topics, listed out of year order, with career years
# before and after the 2008-2017 horizon.
SHARED_PUBS = [
    ("q1", 2014, ["s1", "s2"], ["alpha"]),
    ("q2", 2011, ["s1"], ["alpha", "beta"]),
    ("q3", 2016, ["s1", "s3"], ["beta"]),
    ("q4", 2009, ["s2", "s3"], ["beta"]),
    ("q5", 2013, ["s3"], ["alpha"]),
    ("q6", 2005, ["s1"], ["alpha"]),
]
SHARED_CAREERS = {
    "s1": (2003, {2003: 2, 2005: 1, 2011: 3, 2014: 1, 2016: 2, 2019: 4}),
    "s2": (2009, {2009: 1, 2014: 2, 2018: 1}),
    "s3": (2000, {2000: 1, 2009: 2, 2013: 1, 2016: 1}),
}


@pytest.mark.parametrize("pooled", [False, True])
@pytest.mark.parametrize("focus_mode", ["total", "annual"])
def test_shared_career_totals_leave_each_side_standalone(focus_mode, pooled):
    corpus = make_corpus(SHARED_PUBS, SHARED_CAREERS)
    report = compare(corpus, "alpha", "beta", focus_mode=focus_mode, pooled_thresholds=pooled)
    assert report.overlap == 3
    for side, topic in ((report.side_a, "alpha"), (report.side_b, "beta")):
        fresh = make_corpus(SHARED_PUBS, SHARED_CAREERS)
        assert side.profiles == author_profiles(fresh, topic, focus_mode)
        for p in side.profiles.values():
            assert list(p.topic_counts) == sorted(p.topic_counts)
    if focus_mode == "total":
        # s1: 2 alpha records of the 3 + 1 + 2 career records inside the horizon
        assert report.side_a.profiles["s1"].focus_overall == Fraction(100, 3)
        # s3: 2 beta records of 2 + 1 + 1
        assert report.side_b.profiles["s3"].focus_overall == 50


def test_career_totals_stay_with_their_corpus():
    doubled = {a: (yfp, {y: 2 * n for y, n in counts.items()})
               for a, (yfp, counts) in SHARED_CAREERS.items()}
    report = compare(make_corpus(SHARED_PUBS, SHARED_CAREERS), "alpha", "beta",
                     corpus_b=make_corpus(SHARED_PUBS, doubled))
    assert report.side_a.profiles == author_profiles(make_corpus(SHARED_PUBS, SHARED_CAREERS), "alpha")
    assert report.side_b.profiles == author_profiles(make_corpus(SHARED_PUBS, doubled), "beta")
    assert report.side_b.profiles["s3"].focus_overall == 25


def test_random_corpora_sides_equal_direct_runs():
    checked = 0
    for seed in range(40, 70):
        corpus = random_corpus(seed)
        for denom in ("new", "all"):
            try:
                report = compare(
                    corpus, "alpha", "beta", stay_denominator=denom,
                    focus_mode="annual", threshold_rule="inclusive",
                )
            except UnknownTopicError:
                continue
            for side, topic in ((report.side_a, "alpha"), (report.side_b, "beta")):
                assert side.cohort_rows == cohort_series(
                    corpus, topic, stay_window=2, stay_denominator=denom
                )
                assert side.profiles == author_profiles(
                    corpus, topic, focus_mode="annual"
                )
            checked += 1
    assert checked > 20
