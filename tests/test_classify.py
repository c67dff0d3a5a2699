import gc
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from communitylens.classify import (
    GROUPS,
    INCLUSIVE,
    PROMOTE,
    RULES,
    STRICT,
    CutTrace,
    DegenerateDistributionError,
    QuadrantThresholds,
    assign_group,
    check_rule,
    classify_authors,
    resolve_thresholds,
)
from communitylens.cohorts import topic_activity
from communitylens.corpus import load_corpus
from communitylens.indicators import FOCUS_MODES, AuthorProfile, author_profiles
from communitylens.synthgen import GeneratorConfig, generate

from oracles import (
    TOPICS,
    make_corpus,
    oracle_area_shares,
    oracle_classify,
    oracle_cutoff,
    oracle_profiles,
    random_raw_corpus,
    raw_corpus,
)


def profiles_for(pairs):
    """Synthesize minimal profiles from (production, focus) pairs."""
    pubs = []
    careers = {}
    for i, (production, focus) in enumerate(pairs):
        a = f"a{i:03d}"
        for j in range(production):
            pubs.append((f"p{i}_{j}", 2008 + j % 10, [a], ["bd"]))
        # career counts chosen so total-ratio focus equals the requested value
        total = Fraction(100 * production) / Fraction(focus)
        assert total.denominator == 1, "pick pairs with integral career totals"
        counts = {}
        spread = int(total)
        years = sorted({2008 + j % 10 for j in range(production)})
        per = spread // len(years)
        rem = spread - per * len(years)
        for k, y in enumerate(years):
            counts[y] = per + (1 if k < rem else 0)
        careers[a] = (min(years), counts)
    corpus = make_corpus(pubs, careers)
    return author_profiles(corpus, "bd")


def value_profiles(pairs):
    """Bare profiles carrying only the (production, focus) values the cutoffs read."""
    return {
        f"a{i:03d}": AuthorProfile(f"a{i:03d}", 2008, 2008, {}, {}, production, focus, 0)
        for i, (production, focus) in enumerate(pairs)
    }


# Distinct values that share a float: the float order alone cannot rank them.
_TINY = Fraction(1, 10**30)
_FOCUS_TWINS = [b + d for b in (Fraction(1, 3), Fraction(100, 3), Fraction(200, 7), Fraction(50))
                for d in (-_TINY, 0, _TINY, 2 * _TINY)]
_PRODUCTION_TWINS = [2**53, 2**53 + 1, 2**53 + 2, 1, 2, 3]


def test_float_twins_straddling_p75_rank_in_reverse_order():
    lo, hi = Fraction(1, 3), Fraction(1, 3) + _TINY
    assert lo < hi and float(lo) == float(hi)
    assert float(2**53) == float(2**53 + 1)
    # ascending [0, 0, lo, hi]: rank 3 is lo, though hi comes first in the input
    t = resolve_thresholds(value_profiles([(2, hi), (1, lo), (1, 0), (2, 0)]), INCLUSIVE)
    assert t.focus_cutoff == lo == t.focus_trace.raw_percentile
    # ascending [lo, lo, lo, hi]: rank 3 is the minimum, so promote to hi
    t = resolve_thresholds(value_profiles([(2, hi), (1, lo), (1, lo), (2, lo)]), PROMOTE)
    assert t.focus_trace.raw_percentile == lo
    assert t.focus_cutoff == hi and t.focus_trace.promoted
    # the same for production counts that share a float
    big = 2**53
    t = resolve_thresholds(value_profiles([(big + 1, 1), (big, 2), (big, 3), (big, 4)]), PROMOTE)
    assert t.production_trace.raw_percentile == big
    assert t.production_cutoff == big + 1 and t.production_trace.promoted


# Heavy ties, with equal focus values held as distinct Fraction objects.
_LAST_COPY = ([(1, Fraction(10))] * 2 + [(2, Fraction(20 * k, k)) for k in range(1, 5)]
              + [(3, Fraction(30))] * 2)
_SATURATED_MINIMUM = ([(1, Fraction(50 * k, k)) for k in range(1, 31)] + [(2, Fraction(100))] * 3
                      + [(5, Fraction(90))])
_ONE_PRODUCTION = [(3, Fraction(k, 7)) for k in range(40)]
_ONE_FOCUS = [(k % 5 + 1, Fraction(100 * k, 3 * k)) for k in range(1, 41)]


@settings(max_examples=300, deadline=None)
@example(_LAST_COPY, PROMOTE)  # rank 6 of 8 is the last 2 (and the last 20)
@example(_LAST_COPY, STRICT)
@example(_LAST_COPY, INCLUSIVE)
# productions [1, 1, 1, 2] and focus [50, 50, 50, 100] promote to 2 and 100
@example([(1, Fraction(50)), (1, Fraction(100, 2)), (1, Fraction(50)), (2, Fraction(100))], PROMOTE)
@example(_SATURATED_MINIMUM, PROMOTE)  # rank 26 of 34 is the minimum: promote to 2 and 90
@example(_SATURATED_MINIMUM, STRICT)
@example(_SATURATED_MINIMUM, INCLUSIVE)
@example(_ONE_PRODUCTION, PROMOTE)
@example(_ONE_FOCUS, STRICT)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(min_value=1, max_value=40), st.sampled_from(_PRODUCTION_TWINS)),
            st.one_of(st.fractions(min_value=0, max_value=100), st.sampled_from(_FOCUS_TWINS)),
        ),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from([PROMOTE, STRICT, INCLUSIVE]),
)
def test_resolve_thresholds_matches_oracle_cutoff(pairs, rule):
    profiles = value_profiles(pairs)
    productions = [p for p, _ in pairs]
    focuses = [f for _, f in pairs]
    want_groups = oracle_classify(
        {a: {"production": p, "focus": f} for a, (p, f) in zip(profiles, pairs)}, rule
    )
    if want_groups is None:
        indicator, value = (("production", productions[0]) if len(set(productions)) == 1
                            else ("focus", focuses[0]))
        with pytest.raises(DegenerateDistributionError) as err:
            resolve_thresholds(profiles, rule)
        assert err.value.indicator == indicator
        assert str(err.value) == (
            f"cannot resolve a quadrant cutoff: every author has {indicator} = {value}"
        )
        return
    t = resolve_thresholds(profiles, rule)
    for values, trace, cutoff in (
        (productions, t.production_trace, t.production_cutoff),
        (focuses, t.focus_trace, t.focus_cutoff),
    ):
        want, promoted = oracle_cutoff(values, rule)
        assert cutoff == trace.cutoff == want
        assert trace.promoted == promoted
        assert trace.raw_percentile == sorted(values)[math.ceil(0.75 * len(values)) - 1]
    result = classify_authors(profiles, t)
    assert result.groups == want_groups["groups"]


def test_nearest_rank_examples():
    t = resolve_thresholds(profiles_for([(1, 50), (2, 100), (3, 50), (4, 100)]), INCLUSIVE)
    # ascending [1,2,3,4]: rank ceil(3) = 3 -> cutoff 3
    assert t.production_cutoff == 3
    assert not t.production_trace.promoted


def test_promotion_from_saturated_minimum(threshold_corpus):
    profiles = author_profiles(threshold_corpus, "bd")
    t = resolve_thresholds(profiles)
    assert t.production_cutoff == 2
    assert t.production_trace.promoted
    assert t.production_trace.raw_percentile == Fraction(1)
    assert t.focus_cutoff == Fraction(100)
    assert not t.focus_trace.promoted
    assert t.focus_trace.raw_percentile == Fraction(100)


def test_specialists_exactly_the_planted_set(threshold_corpus):
    profiles = author_profiles(threshold_corpus, "bd")
    result = classify_authors(profiles, resolve_thresholds(profiles))
    specialists = {a for a, group in result.groups.items() if group == "specialist"}
    planted = {
        a for a, p in profiles.items()
        if p.production_total >= 2 and p.focus_overall == Fraction(100)
    }
    assert specialists == {f"spec{i:02d}" for i in range(20)} == planted


def test_degenerate_distribution_aborts():
    with pytest.raises(DegenerateDistributionError) as err:
        resolve_thresholds(profiles_for([(1, 50), (1, 100)]))
    assert err.value.indicator == "production"
    with pytest.raises(DegenerateDistributionError) as err:
        resolve_thresholds(profiles_for([(1, 100), (2, 100)]))
    assert err.value.indicator == "focus"


def test_empty_profiles_rejected():
    with pytest.raises(ValueError):
        resolve_thresholds({})


def test_rule_normalization():
    assert PROMOTE == "promote"  # the CLI spelling
    check_rule("promote")
    for alias in ("nearest_rank_promote", "median"):
        with pytest.raises(ValueError):
            check_rule(alias)


def test_strict_vs_inclusive():
    profiles = profiles_for([(1, 20), (1, 25), (1, 50), (2, 50), (3, 100)])
    # production ascending [1,1,1,2,3]: raw P75 = 2, no promotion
    inclusive = resolve_thresholds(profiles, INCLUSIVE)
    strict = resolve_thresholds(profiles, STRICT)
    assert inclusive.production_cutoff == strict.production_cutoff == 2
    assert inclusive.high_production(2) and not strict.high_production(2)
    assert strict.high_production(3)
    r_inc = classify_authors(profiles, inclusive)
    r_str = classify_authors(profiles, strict)
    high_inc = [a for a, group in r_inc.groups.items() if group in ("specialist", "casual")]
    high_str = [a for a, group in r_str.groups.items() if group in ("specialist", "casual")]
    assert high_inc == ["a003", "a004"]
    assert high_str == ["a004"]


def test_strict_requires_no_promotion_to_exclude_floor(threshold_corpus):
    profiles = author_profiles(threshold_corpus, "bd")
    t = resolve_thresholds(profiles, STRICT)
    # raw P75 stays 1; strict comparison alone lifts the one-paper mass
    assert t.production_cutoff == 1
    assert not t.production_trace.promoted
    assert not t.high_production(1) and t.high_production(2)


def test_assign_group_quadrants():
    profiles = profiles_for([(1, 20), (1, 25), (1, 50), (2, 50), (3, 100)])
    t = resolve_thresholds(profiles, INCLUSIVE)  # production >= 2, focus >= 50
    assert assign_group(t, 3, Fraction(90)) == "specialist"
    assert assign_group(t, 1, Fraction(90)) == "interested"
    assert assign_group(t, 2, Fraction(10)) == "casual"
    assert assign_group(t, 1, Fraction(10)) == "incidental"


def _group_by_fraction_order(t, production, focus):
    """assign_group's reference: the cutoffs compared with Fraction's operators."""
    if t.rule == STRICT:
        high_p, high_f = production > t.production_cutoff, focus > t.focus_cutoff
    else:
        high_p, high_f = production >= t.production_cutoff, focus >= t.focus_cutoff
    if high_p:
        return "specialist" if high_f else "casual"
    return "interested" if high_f else "incidental"


_FOCUS = st.one_of(st.fractions(min_value=0, max_value=100), st.sampled_from(_FOCUS_TWINS))


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(RULES),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    _FOCUS,
    st.data(),
)
def test_assign_group_cross_multiplied_matches_fraction_order(
    rule, production_cutoff, production, cutoff, data
):
    # the value equals the cutoff, is a distinct value with the same float, or
    # is drawn freely (the twins of _FOCUS_TWINS among them)
    focus = data.draw(st.one_of(
        st.just(Fraction(cutoff.numerator, cutoff.denominator)),
        st.sampled_from([cutoff - _TINY, cutoff + _TINY]),
        _FOCUS,
    ))
    trace = CutTrace(raw_percentile=cutoff, cutoff=cutoff, promoted=False)
    t = QuadrantThresholds(production_cutoff, cutoff, rule, trace, trace)
    assert assign_group(t, production, focus) == _group_by_fraction_order(t, production, focus)


def test_groups_partition_and_shares_sum(threshold_corpus):
    profiles = author_profiles(threshold_corpus, "bd")
    result = classify_authors(profiles, resolve_thresholds(profiles))
    assert len(result.groups) == len(profiles)
    assert list(result.groups) == sorted(profiles)
    assert sum(result.community.counts.values()) == len(profiles)
    assert sum(result.community.shares().values()) == Fraction(100)
    assert result.by_area is None


def test_area_shares_count_author_once_per_area():
    clusters = {
        "k1": ("c1", "Mathematics & Computer Science", 10, 0.0, 0.0),
        "k2": ("c2", "Social Sciences & Humanities", 10, 1.0, 1.0),
        "k3": ("c3", "Mathematics & Computer Science", 10, 2.0, 2.0),
    }
    pubs = [
        ("p1", 2012, ["a1"], ["bd"], "k1"),
        ("p2", 2013, ["a1"], ["bd"], "k2"),
        ("p3", 2012, ["a1"], ["bd"], "k3"),  # same area as k1: still one count
        ("p4", 2012, ["a2"], ["bd"], "k1"),
        ("p5", 2012, ["a3"], ["bd"]),  # unclustered: community only
        ("p6", 2013, ["a3"], ["bd"]),
        ("p7", 2014, ["a4"], ["bd"], "k2"),
    ]
    careers = {
        "a1": (2012, {2012: 2, 2013: 1}),
        "a2": (2012, {2012: 2}),
        "a3": (2012, {2012: 1, 2013: 1}),
        "a4": (2014, {2014: 2}),
    }
    corpus = make_corpus(pubs, careers, clusters)
    profiles = author_profiles(corpus, "bd")
    result = classify_authors(
        profiles, resolve_thresholds(profiles), corpus=corpus, index=topic_activity(corpus, "bd")
    )
    assert set(result.by_area) == {
        "Mathematics & Computer Science",
        "Social Sciences & Humanities",
    }
    maths = result.by_area["Mathematics & Computer Science"]
    soc = result.by_area["Social Sciences & Humanities"]
    assert maths.total == 2  # a1 once despite k1+k3, plus a2
    assert soc.total == 2  # a1 and a4
    # a3 has no clustered record and appears in no area table
    assert sum(maths.counts.values()) == maths.total


def test_classification_matches_oracle_on_random_corpora():
    rng = random.Random(75_031)
    checked = 0
    for _ in range(40):
        pubs, careers, clusters = random_raw_corpus(rng, max_pubs=60)
        corpus = make_corpus(pubs, careers, clusters, topics=TOPICS)
        raw_pubs, raw_careers, _ = raw_corpus(pubs, careers, clusters)
        for rule in (PROMOTE, STRICT, INCLUSIVE):
            want_profiles = oracle_profiles(raw_pubs, raw_careers, "alpha", corpus.horizon)
            if not want_profiles:
                continue
            want = oracle_classify(want_profiles, rule)
            profiles = author_profiles(corpus, "alpha")
            if want is None:
                with pytest.raises(DegenerateDistributionError):
                    resolve_thresholds(profiles, rule)
                continue
            t = resolve_thresholds(profiles, rule)
            assert t.production_cutoff == want["production_cutoff"]
            assert t.focus_cutoff == want["focus_cutoff"]
            result = classify_authors(profiles, t)
            assert result.groups == want["groups"]
            checked += 1
    assert checked > 20


def test_area_shares_match_oracle_on_random_corpora():
    rng = random.Random(61_417)
    checked = 0
    for _ in range(40):
        pubs, careers, clusters = random_raw_corpus(rng, max_pubs=60)
        if not clusters:
            continue
        corpus = make_corpus(pubs, careers, clusters, topics=TOPICS)
        raw_pubs, raw_careers, raw_clusters = raw_corpus(pubs, careers, clusters)
        for topic in TOPICS:
            want_profiles = oracle_profiles(raw_pubs, raw_careers, topic, corpus.horizon)
            want = oracle_classify(want_profiles) if want_profiles else None
            if want is None:
                continue
            profiles = author_profiles(corpus, topic)
            result = classify_authors(profiles, resolve_thresholds(profiles), corpus=corpus,
                                      index=topic_activity(corpus, topic))
            want_areas = oracle_area_shares(
                raw_pubs, raw_clusters, topic, corpus.horizon, want["groups"]
            )
            assert list(result.by_area) == sorted(want_areas)
            assert {area: (s.total, s.counts) for area, s in result.by_area.items()} == want_areas
            checked += 1
    assert checked > 20


def test_group_names_stable():
    assert GROUPS == ("specialist", "interested", "casual", "incidental")



@pytest.mark.parametrize("focus_mode", FOCUS_MODES)
def test_profiles_and_groups_keep_one_copy_of_author_data(tmp_path, focus_mode):
    config = GeneratorConfig(seed=3, authors_per_year={y: 30 for y in range(2008, 2018)},
                             n_clusters=6, n_areas=3, topic="alpha")
    generate(config, tmp_path)
    corpus = load_corpus(*(str(tmp_path / name) for name in
                           ("publications.jsonl", "careers.csv", "clusters.csv")),
                         topics=["alpha"])
    profiles = author_profiles(corpus, "alpha", focus_mode)
    for author, p in profiles.items():
        assert p.career_counts is corpus.careers[author].pubs_by_year
    thresholds = resolve_thresholds(profiles)
    index = topic_activity(corpus, "alpha")
    result = classify_authors(profiles, thresholds, corpus=corpus, index=index)
    assert list(result.groups) == list(profiles)
    assert result.by_area
    # a second call counts only what one call keeps: the result, its share
    # tables and a few containers, whatever the number of authors
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        again = classify_authors(profiles, thresholds, corpus=corpus, index=index)
        made = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert again == result
    assert len(profiles) > 100 and made < 20
