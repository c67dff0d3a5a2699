"""Acceptance gate: one test per release criterion, in order.

Each test is a single pass/fail line under ``pytest -v``. Criteria 4, 5, and 7
are budgeted (total runtime asserted inside the test); 7 generates a
ten-million-record corpus and runs the command line in subprocesses, so this
file takes a few minutes on purpose.
"""

import logging
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import communitylens
from communitylens.classify import (
    DegenerateDistributionError,
    classify_authors,
    resolve_thresholds,
)
from communitylens.cohorts import ALL_AUTHORS, NEW_AUTHORS, cohort_series, topic_activity
from communitylens.corpus import load_corpus
from communitylens.indicators import (
    author_profiles,
    production_bands,
    year_summaries,
)
from communitylens.overlay import cluster_overlay, stay_status
from communitylens.reports import (
    emit_bands_csv,
    emit_cohorts_csv,
    emit_indicators_csv,
    emit_map_csv,
    emit_overlay_csv,
    sha256_file,
)
from communitylens.rounding import format_fixed
from communitylens.synthgen import GeneratorConfig, generate

from oracles import (
    TOPICS,
    make_corpus,
    oracle_classify,
    oracle_overlay,
    oracle_profiles,
    oracle_year_cohorts,
    random_raw_corpus,
    raw_corpus,
)


@pytest.fixture(autouse=True)
def quiet_overlay_warnings():
    # random corpora trip thousands of legitimate metadata warnings; building
    # the log records would dominate the time budgets below
    logger = logging.getLogger("communitylens")
    level = logger.level
    logger.setLevel(logging.ERROR)
    yield
    logger.setLevel(level)


def test_criterion_1_reference_year_table(bd2012_paths):
    start = time.perf_counter()
    pubs, careers = bd2012_paths
    corpus = load_corpus(str(pubs), careers_path=str(careers), topics=["big data"])
    rows = cohort_series(corpus, "big data", stay_window=2)
    row = next(r for r in rows if r.year == 2012)
    emitted = emit_cohorts_csv(rows).splitlines()[5]
    elapsed = time.perf_counter() - start

    assert (row.n_all, row.n_old, row.n_new, row.n_newborn, row.n_stay) == (
        265, 3, 262, 107, 43
    )
    assert emitted == "265,3,262,107,43,1.1,98.9,40.8,16.4"
    assert format_fixed(row.percent_stay(NEW_AUTHORS), 1) == "16.4"
    assert format_fixed(row.percent_stay(ALL_AUTHORS), 1) == "16.2"
    assert elapsed < 1.0


def test_criterion_2_all_author_stay_shares(series_corpus):
    rows = {
        r.year: r
        for r in cohort_series(series_corpus, "bd", stay_window=2, stay_denominator="all")
    }
    expected = {
        2013: (201, 1178, "17.1"),
        2014: (529, 3219, "16.4"),
        2015: (1086, 5982, "18.2"),
    }
    for year, (n_stay, n_all, share) in expected.items():
        row = rows[year]
        assert (row.n_stay, row.n_all) == (n_stay, n_all)
        assert format_fixed(row.percent_stay(), 1) == share


def test_criterion_3_threshold_reconciliation(threshold_corpus):
    profiles = author_profiles(threshold_corpus, "bd")
    bands = production_bands(profiles)
    one_paper = next(b for b in bands if b.label == "1")
    assert one_paper.share == Fraction(875, 10)  # 87.5%
    full_focus = sum(1 for p in profiles.values() if p.focus_overall == 100)
    assert Fraction(100 * full_focus, len(profiles)) == Fraction(485, 10)  # 48.5%

    thresholds = resolve_thresholds(profiles, "promote")
    assert thresholds.production_cutoff == 2
    assert thresholds.production_trace.promoted
    assert thresholds.focus_cutoff == Fraction(100)
    assert not thresholds.focus_trace.promoted

    result = classify_authors(profiles, thresholds)
    specialists = {a for a, group in result.groups.items() if group == "specialist"}
    by_definition = {
        a for a, p in profiles.items()
        if p.production_total >= 2 and p.focus_overall == 100
    }
    assert specialists == by_definition == {f"spec{i:02d}" for i in range(20)}


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    total_pubs = 0
    for seed in range(10_000, 11_000):
        rng = random.Random(seed)
        pubs, careers, clusters = random_raw_corpus(rng, max_pubs=500)
        corpus = make_corpus(pubs, careers, clusters, topics=TOPICS)
        raw_pubs, raw_careers, raw_clusters = raw_corpus(pubs, careers, clusters)
        total_pubs += len(raw_pubs)
        window = 1 + seed % 3
        topic = "alpha"

        rows = cohort_series(corpus, topic, stay_window=window)
        for row in rows:
            want = oracle_year_cohorts(
                raw_pubs, raw_careers, topic, row.year, window, corpus.horizon
            )
            assert row.all_authors == want["all"]
            assert row.old_authors == want["old"]
            assert row.new_authors == want["new"]
            assert row.newborn_authors == want["newborn"]
            assert row.stayers == (
                frozenset(want["stay"]) if want["stay"] is not None else None
            )

        profiles = author_profiles(corpus, topic)
        want_profiles = oracle_profiles(raw_pubs, raw_careers, topic, corpus.horizon)
        assert set(profiles) == set(want_profiles)
        for author, p in profiles.items():
            w = want_profiles[author]
            assert p.first_year == w["yfp"]
            assert p.entry_year == w["entry"]
            assert p.topic_counts == w["counts"]
            assert p.focus_by_year == w["focus_by_year"]
            assert p.production_total == w["production"]
            assert p.focus_overall == w["focus"]
            assert p.entry_lag == w["lag"]

        if profiles:
            want_quadrants = oracle_classify(want_profiles)
            try:
                result = classify_authors(profiles, resolve_thresholds(profiles, "promote"))
            except DegenerateDistributionError:
                result = None
            assert (result is None) == (want_quadrants is None)
            if result is not None:
                assert result.thresholds.production_cutoff == want_quadrants["production_cutoff"]
                assert result.thresholds.focus_cutoff == want_quadrants["focus_cutoff"]
                assert result.groups == want_quadrants["groups"]

        index = topic_activity(corpus, topic)
        status = stay_status(corpus, index, profiles, window)
        overlay = {r.cluster_id: r for r in cluster_overlay(corpus, index, profiles, status)}
        want_overlay = oracle_overlay(
            raw_pubs, raw_careers, raw_clusters, topic, corpus.horizon, window, want_profiles
        )
        assert set(overlay) == set(want_overlay)
        for cid, row in overlay.items():
            w = want_overlay[cid]
            assert row.n_topic_authors == w["n"]
            assert row.p_au == w["p_au"]
            assert row.p_stay == w["p_stay"]
            assert row.mean_first_year == w["mean_yfp"]
            assert row.mean_entry_year == w["mean_entry"]
            assert row.mean_production == w["mean_production"]
            assert row.mean_focus == w["mean_focus"]

    elapsed = time.perf_counter() - start
    assert total_pubs > 100_000  # the draw really exercises the ≤500 range
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_5_invariant_suite():
    cases = 0

    def render_all(corpus, rows, profiles):
        parts = [
            emit_cohorts_csv(rows, raw=True),
            emit_indicators_csv(year_summaries(corpus, "alpha"), raw=True),
            emit_bands_csv(production_bands(profiles), raw=True),
        ]
        index = topic_activity(corpus, "alpha")
        overlay = cluster_overlay(corpus, index, profiles, stay_status(corpus, index, profiles, 2))
        parts.append(emit_overlay_csv(overlay, raw=True))
        parts.append(emit_map_csv(overlay, "p_au"))
        return "".join(parts)

    for seed in range(50_000, 51_250):
        rng = random.Random(seed)
        pubs, careers, clusters = random_raw_corpus(rng, max_pubs=40)
        corpus = make_corpus(pubs, careers, clusters, topics=TOPICS)
        rows = cohort_series(corpus, "alpha", stay_window=2)
        profiles = author_profiles(corpus, "alpha")

        # family 1: old/new partition the active set
        for row in rows:
            assert row.old_authors | row.new_authors == row.all_authors
            assert not row.old_authors & row.new_authors
            assert row.n_old + row.n_new == row.n_all
        cases += 1

        # family 2: newborns and stayers are entrants
        for row in rows:
            assert row.newborn_authors <= row.new_authors
            if row.stay_determined:
                assert row.stayers <= row.new_authors
        cases += 1

        # family 3: share arithmetic is exact
        for row in rows:
            if row.n_all:
                assert row.percent_old + row.percent_new == Fraction(100)
            if row.stay_determined and row.n_new:
                assert row.percent_stay(NEW_AUTHORS) >= row.percent_stay(ALL_AUTHORS)
        cases += 1

        # family 4: widening the window never loses a stayer
        narrow = rows
        wide = cohort_series(corpus, "alpha", stay_window=3)
        for a, b in zip(narrow, wide):
            if a.stay_determined and b.stay_determined:
                assert a.stayers <= b.stayers
        cases += 1

        # family 5: topic entry never precedes the first publication
        for p in profiles.values():
            assert p.entry_year >= p.first_year
            assert p.entry_lag >= 0
        cases += 1

        # family 6: production bands partition authors; shares sum to 100
        bands = production_bands(profiles)
        assert sum(b.n_authors for b in bands) == len(profiles)
        if profiles:
            assert sum((b.share for b in bands), Fraction(0)) == Fraction(100)
        cases += 1

        # family 7: the four groups partition classified authors
        try:
            result = classify_authors(
                profiles, resolve_thresholds(profiles, "promote"),
                corpus=corpus, index=topic_activity(corpus, "alpha"),
            )
        except (DegenerateDistributionError, ValueError):
            result = None
        if result is not None:
            assert sum(result.community.counts.values()) == len(profiles)
            assert sum(result.community.shares().values(), Fraction(0)) == Fraction(100)
        cases += 1

        # family 8: record order never reaches any report
        random.Random(seed + 1).shuffle(pubs)
        shuffled = make_corpus(pubs, careers, clusters, topics=TOPICS)
        assert render_all(corpus, rows, profiles) == render_all(
            shuffled,
            cohort_series(shuffled, "alpha", stay_window=2),
            author_profiles(shuffled, "alpha"),
        )
        cases += 1

    assert cases == 10_000


def test_criterion_6_generator_statistics(tmp_path):
    config = GeneratorConfig(
        seed=6,
        horizon=(2008, 2017),
        authors_per_year={y: 12_500 for y in range(2008, 2016)},
        stay_prob=0.162,
        lotka_alpha=2.0,
        topic="synth",
        stay_window=2,
    )
    truth = generate(config, tmp_path)
    assert truth.n_authors == 100_000

    corpus = load_corpus(
        str(tmp_path / "publications.jsonl"), careers_path=str(tmp_path / "careers.csv"),
        topics=["synth"],
    )
    bands = production_bands(author_profiles(corpus, "synth"))
    one_paper_share = float(next(b.share for b in bands if b.label == "1"))
    assert abs(one_paper_share - 60.8) <= 2.0

    rows = cohort_series(corpus, "synth", stay_window=2)
    stayers = sum(r.n_stay for r in rows if r.stay_determined)
    entrants = sum(r.n_new for r in rows if r.stay_determined)
    assert entrants == 100_000  # every cohort here closes inside the horizon
    p_stay = stayers / entrants
    assert abs(p_stay - 0.162) <= 0.01


def test_criterion_7_determinism_at_scale(tmp_path_factory):
    base = tmp_path_factory.mktemp("scale10m")
    data = base / "data"
    config = GeneratorConfig(
        seed=7,
        horizon=(2008, 2017),
        authors_per_year={y: 15_000 for y in range(2008, 2018)},
        lotka_alpha=1.5,
        topic="scale",
    )
    try:
        truth = generate(config, data)
        assert truth.n_publications >= 10_000_000

        # the subprocesses import the same source tree as this test process
        src = str(Path(communitylens.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        digests = {}
        for threads in (1, 4, 16):
            out = base / f"run{threads}"
            cmd = [
                sys.executable, "-m", "communitylens.cli", "indicators",
                "--corpus", str(data / "publications.jsonl"),
                "--careers", str(data / "careers.csv"),
                "--topic", "scale", "--threads", str(threads), "--out", str(out),
            ]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            elapsed = time.perf_counter() - start
            assert proc.returncode == 0, proc.stderr
            assert elapsed < 120.0, f"--threads {threads} took {elapsed:.1f}s"
            digests[threads] = tuple(
                sha256_file(out / name)
                for name in ("cohorts.csv", "indicators.csv", "bands.csv")
            )
        assert digests[1] == digests[4] == digests[16]
    finally:
        shutil.rmtree(data, ignore_errors=True)  # ~1 GB, whether or not the run passed


def test_criterion_8_group_mean_tolerance(age_corpus):
    summary = next(
        s for s in year_summaries(age_corpus, "bd") if s.year == 2012
    )
    assert summary.n_new == 262
    assert summary.n_old == 3
    assert format_fixed(summary.mean_first_year_new, 1) == "2004.8"
    assert format_fixed(summary.mean_first_year_old, 1) == "1994.0"
    assert abs(float(summary.mean_first_year_all) - 2004.6) <= 0.15
