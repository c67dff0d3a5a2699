"""Invariants that must hold on arbitrary corpora, driven by hypothesis."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from communitylens.classify import (
    DegenerateDistributionError,
    classify_authors,
    resolve_thresholds,
)
from communitylens.cohorts import ALL_AUTHORS, NEW_AUTHORS, cohort_series, topic_activity
from communitylens.corpus import _compile_terms, _matches
from communitylens.indicators import author_profiles, production_bands
from communitylens.overlay import cluster_overlay, stay_status
from communitylens.reports import (
    emit_bands_csv,
    emit_cohorts_csv,
    emit_indicators_csv,
    emit_overlay_csv,
)
from communitylens.indicators import year_summaries
from communitylens.synthgen import ProductionSampler

from oracles import TOPICS, make_corpus, random_raw_corpus

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def corpus_from_seed(seed, clustered=True):
    pubs, careers, clusters = random_raw_corpus(
        random.Random(seed), max_pubs=60, clustered=clustered
    )
    return make_corpus(pubs, careers, clusters, topics=TOPICS)


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_cohort_partition(seed):
    corpus = corpus_from_seed(seed)
    for topic in ("alpha", "beta"):
        for row in cohort_series(corpus, topic, stay_window=2):
            assert row.n_old + row.n_new == row.n_all
            assert row.old_authors | row.new_authors == row.all_authors
            assert not row.old_authors & row.new_authors
            assert row.newborn_authors <= row.new_authors
            if row.stay_determined:
                assert row.stayers <= row.new_authors
            else:
                assert row.n_stay is None
            if row.n_all:
                assert row.percent_old + row.percent_new == Fraction(100)


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_stay_window_monotone(seed):
    corpus = corpus_from_seed(seed)
    for topic in ("alpha", "beta"):
        by_window = [cohort_series(corpus, topic, stay_window=w) for w in (1, 2, 3)]
        for narrow, wide in zip(by_window, by_window[1:]):
            for a, b in zip(narrow, wide):
                if a.stay_determined and b.stay_determined:
                    assert set(a.stayers) <= set(b.stayers)
                    assert a.n_stay <= b.n_stay


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_stay_denominator_ordering(seed):
    corpus = corpus_from_seed(seed)
    for row in cohort_series(corpus, "alpha", stay_window=2):
        if not row.stay_determined:
            continue
        p_new = row.percent_stay(NEW_AUTHORS)
        p_all = row.percent_stay(ALL_AUTHORS)
        assert p_new >= p_all  # entrants are a subset of the active set


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_entry_never_precedes_first_year(seed):
    corpus = corpus_from_seed(seed)
    for topic in ("alpha", "beta"):
        for profile in author_profiles(corpus, topic).values():
            assert profile.entry_year >= profile.first_year
            assert profile.entry_lag >= 0
            assert profile.production_total >= 1
            assert 0 < profile.focus_overall <= 100


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_band_partition_and_share_sum(seed):
    corpus = corpus_from_seed(seed)
    profiles = author_profiles(corpus, "alpha")
    bands = production_bands(profiles)
    assert sum(b.n_authors for b in bands) == len(profiles)
    if profiles:
        assert sum((b.share for b in bands), Fraction(0)) == Fraction(100)
    for band in bands:
        if not band.n_authors:
            assert band.mean_focus is None


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(["promote", "strict", "inclusive"]))
def test_quadrants_partition_authors(seed, rule):
    corpus = corpus_from_seed(seed)
    profiles = author_profiles(corpus, "alpha")
    if not profiles:
        return
    try:
        thresholds = resolve_thresholds(profiles, rule)
    except DegenerateDistributionError:
        return
    result = classify_authors(
        profiles, thresholds, corpus=corpus, index=topic_activity(corpus, "alpha")
    )
    assert list(result.groups) == sorted(profiles)
    assert sum(result.community.counts.values()) == len(profiles)
    assert sum(result.community.shares().values(), Fraction(0)) == Fraction(100)


@settings(max_examples=40, deadline=None)
@given(seeds, seeds)
def test_record_order_never_changes_reports(seed, shuffle_seed):
    pubs, careers, clusters = random_raw_corpus(random.Random(seed), max_pubs=60)
    corpus = make_corpus(pubs, careers, clusters, topics=TOPICS)
    random.Random(shuffle_seed).shuffle(pubs)
    shuffled = make_corpus(pubs, careers, clusters, topics=TOPICS)

    def render(c):
        rows = cohort_series(c, "alpha", stay_window=2)
        profiles = author_profiles(c, "alpha")
        parts = [
            emit_cohorts_csv(rows, raw=True),
            emit_indicators_csv(year_summaries(c, "alpha"), raw=True),
            emit_bands_csv(production_bands(profiles), raw=True),
        ]
        if c.clusters:
            index = topic_activity(c, "alpha")
            status = stay_status(c, index, profiles, 2)
            parts.append(emit_overlay_csv(cluster_overlay(c, index, profiles, status)))
        return "".join(parts)

    assert render(corpus) == render(shuffled)


@settings(max_examples=80, deadline=None)
@given(
    st.text(alphabet="abcdefg -,.", max_size=60),
    st.text(alphabet="abcdefg -,.", max_size=60),
)
def test_delineation_case_and_padding_invariant(before, after):
    terms = _compile_terms(["big data"])
    hit = f"{before} Big-DATA {after}"
    assert _matches(terms, hit, None, None)
    assert _matches(terms, hit.upper(), None, None)
    miss = f"{before} bigdata {after} dataset big"
    assert not _matches(terms, miss, None, None)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=1.1, max_value=6.0, allow_nan=False),
    st.integers(min_value=2, max_value=5000),
    seeds,
)
def test_sampler_stays_in_support(alpha, max_production, seed):
    sampler = ProductionSampler(alpha, max_production)
    rng = random.Random(seed)
    draws = [sampler.sample(rng) for _ in range(50)]
    assert all(1 <= d <= max_production for d in draws)
    assert 0 < sampler.p_one < 1
    assert sampler.p_one + sampler.p_multi == 1.0
