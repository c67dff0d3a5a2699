import importlib
import itertools
import json
import logging
import random
import time
from fractions import Fraction

import pytest

from communitylens.cli import main
from communitylens.cohorts import topic_activity
from communitylens.indicators import author_profiles
from communitylens.overlay import ClusterOverlayRow, area_rollup, cluster_overlay, stay_status
from communitylens.reports import emit_map_csv, emit_map_json
from communitylens.synthgen import GeneratorConfig, generate

from oracles import (
    AREAS,
    TOPICS,
    make_corpus,
    oracle_area_rollup,
    oracle_overlay,
    random_raw_corpus,
    raw_corpus,
)

MATHS = "Mathematics & Computer Science"


def overlay_pipeline(corpus, topic="bd", window=2):
    index = topic_activity(corpus, topic)
    profiles = author_profiles(corpus, topic)
    status = stay_status(corpus, index, profiles, window)
    overlay = cluster_overlay(corpus, index, profiles, status)
    areas = area_rollup(overlay, corpus=corpus, index=index, profiles=profiles, status=status)
    return overlay, areas


def single_pub_corpus(spec, clusters):
    """spec: {cluster_id: n_authors}; one 2012 publication per author."""
    pubs = []
    n = 0
    for cid, count in sorted(spec.items()):
        for i in range(count):
            n += 1
            pubs.append((f"p{n:04d}", 2012, [f"{cid}_a{i:03d}"], ["bd"], cid))
    return make_corpus(pubs, clusters=clusters)


def test_p_au_trivial_ratio():
    corpus = single_pub_corpus(
        {"k1": 10}, {"k1": ("lbl", MATHS, 1000, 0.0, 0.0)}
    )
    overlay, _ = overlay_pipeline(corpus)
    assert overlay[0].n_topic_authors == 10
    assert overlay[0].p_au == Fraction(1)


def test_area_average_p_au():
    corpus = single_pub_corpus(
        {"k1": 9, "k2": 5},
        {"k1": ("a", MATHS, 1000, 0.0, 0.0), "k2": ("b", MATHS, 1000, 1.0, 1.0)},
    )
    overlay, areas = overlay_pipeline(corpus)
    assert [r.p_au for r in overlay] == [Fraction(9, 10), Fraction(1, 2)]
    assert len(areas) == 1
    assert areas[0].avg_p_au == Fraction(7, 10)
    assert areas[0].n_clusters == 2
    assert areas[0].top_cluster_id == "k1"
    assert areas[0].top_cluster_p_au == Fraction(9, 10)


def test_area_average_small_means():
    corpus = single_pub_corpus(
        {"k1": 2, "k2": 4},
        {"k1": ("a", MATHS, 1000, 0.0, 0.0), "k2": ("b", MATHS, 1000, 1.0, 1.0)},
    )
    _, areas = overlay_pipeline(corpus)
    assert areas[0].avg_p_au == Fraction(3, 10)


def test_time_lag_mirror():
    # area means: yfp 2009.3, topic entry 2015.7, lag 6.4
    pubs = []
    careers = {}
    for i in range(10):
        a = f"a{i}"
        yfp = 2009 if i < 7 else 2010
        entry = 2015 if i < 3 else 2016
        pubs.append((f"p{i}", entry, [a], ["bd"], "k1"))
        careers[a] = (yfp, {yfp: 1, entry: 1})
    corpus = make_corpus(pubs, careers, {"k1": ("lbl", MATHS, 100, 0.0, 0.0)})
    _, areas = overlay_pipeline(corpus)
    assert areas[0].mean_first_year == Fraction(20093, 10)
    assert areas[0].mean_entry_year == Fraction(20157, 10)
    assert areas[0].mean_lag == Fraction(64, 10)


def test_zero_total_authors_flagged(caplog):
    corpus = single_pub_corpus({"k1": 3}, {"k1": ("lbl", MATHS, 0, 0.0, 0.0)})
    with caplog.at_level(logging.WARNING):
        overlay, areas = overlay_pipeline(corpus)
    assert overlay[0].p_au is None
    assert overlay[0].metadata_conflict  # 3 authors against a claimed total of 0
    assert "total_authors is 0" in caplog.text
    assert areas[0].avg_p_au is None
    assert areas[0].top_cluster_id is None


def test_metadata_conflict_flagged_not_clamped(caplog):
    corpus = single_pub_corpus({"k1": 30}, {"k1": ("lbl", MATHS, 10, 0.0, 0.0)})
    with caplog.at_level(logging.WARNING):
        overlay, _ = overlay_pipeline(corpus)
    assert overlay[0].metadata_conflict
    assert overlay[0].p_au == Fraction(300)  # never clamped to 100
    assert "exceed" in caplog.text


def test_full_counting_and_area_dedup():
    clusters = {
        "k1": ("a", MATHS, 100, 0.0, 0.0),
        "k2": ("b", MATHS, 100, 1.0, 0.0),
        "k3": ("c", "Social Sciences & Humanities", 100, 2.0, 0.0),
    }
    pubs = [
        ("p1", 2012, ["x"], ["bd"], "k1"),
        ("p2", 2013, ["x"], ["bd"], "k2"),  # same author, second cluster
        ("p3", 2012, ["y"], ["bd"], "k2"),
        ("p4", 2012, ["x"], ["bd"], "k3"),  # and a second area
    ]
    corpus = make_corpus(pubs, clusters=clusters)
    overlay, areas = overlay_pipeline(corpus)
    by_id = {r.cluster_id: r for r in overlay}
    assert by_id["k1"].n_topic_authors == 1
    assert by_id["k2"].n_topic_authors == 2
    assert by_id["k3"].n_topic_authors == 1
    maths = [a for a in areas if a.area == MATHS][0]
    assert maths.n_authors_full == 3  # full counting over k1+k2
    assert maths.n_authors == 2  # x deduplicated within the area
    # author x also counts in the other area: dedup is per area, not global
    assert sum(a.n_authors for a in areas) == 3


def test_cluster_without_topic_publications_absent():
    clusters = {
        "k1": ("a", MATHS, 100, 0.0, 0.0),
        "k2": ("b", MATHS, 100, 1.0, 0.0),
    }
    pubs = [
        ("p1", 2012, ["x"], ["bd"], "k1"),
        ("p2", 2012, ["y"], ["other"], "k2"),
    ]
    corpus = make_corpus(pubs, clusters=clusters)
    overlay, _ = overlay_pipeline(corpus)
    assert [r.cluster_id for r in overlay] == ["k1"]


def test_overlay_run_builds_no_cohort_series(tmp_path, monkeypatch):
    # stay status comes from the profiles, so an overlay run needs no cohort rows
    data = tmp_path / "data"
    generate(GeneratorConfig(seed=3, authors_per_year={y: 20 for y in range(2008, 2018)},
                             n_clusters=4, n_areas=2, topic="t"), data)
    calls = []
    for name in ("communitylens.cli", "communitylens.cohorts", "communitylens.overlay"):
        module = importlib.import_module(name)
        if hasattr(module, "cohort_series"):
            monkeypatch.setattr(module, "cohort_series",
                                lambda *a, _real=module.cohort_series, **k:
                                calls.append(a) or _real(*a, **k))
    assert main(["overlay", "--corpus", str(data / "publications.jsonl"),
                 "--careers", str(data / "careers.csv"), "--clusters", str(data / "clusters.csv"),
                 "--topic", "t", "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "areas.csv").exists()
    assert calls == []


def test_overlay_requires_metadata(bd2012_corpus):
    profiles = author_profiles(bd2012_corpus, "big data")
    index = topic_activity(bd2012_corpus, "big data")
    status = stay_status(bd2012_corpus, index, profiles, 2)
    with pytest.raises(ValueError):
        cluster_overlay(bd2012_corpus, index, profiles, status)


def test_p_stay_pools_eligible_entries():
    clusters = {"k1": ("a", MATHS, 100, 0.0, 0.0)}
    pubs = [
        # enters 2012, republishes 2013 -> stayer
        ("p1", 2012, ["s1"], ["bd"], "k1"),
        ("p2", 2013, ["s1"], ["bd"], "k1"),
        # enters 2012, never returns
        ("p3", 2012, ["n1"], ["bd"], "k1"),
        # enters 2016 (> 2015): undetermined, excluded from the pool
        ("p4", 2016, ["u1"], ["bd"], "k1"),
    ]
    corpus = make_corpus(pubs, clusters=clusters)
    overlay, areas = overlay_pipeline(corpus)
    assert overlay[0].p_stay == Fraction(50)
    assert areas[0].pooled_p_stay == Fraction(50)


def test_p_stay_community_status_cluster_scope():
    # the stayer's return lands in another cluster; status is community-level
    clusters = {
        "k1": ("a", MATHS, 100, 0.0, 0.0),
        "k2": ("b", MATHS, 100, 1.0, 0.0),
    }
    pubs = [
        ("p1", 2012, ["s1"], ["bd"], "k1"),
        ("p2", 2013, ["s1"], ["bd"], "k2"),
    ]
    corpus = make_corpus(pubs, clusters=clusters)
    overlay, _ = overlay_pipeline(corpus)
    by_id = {r.cluster_id: r for r in overlay}
    assert by_id["k1"].p_stay == Fraction(100)
    # in k2 the author's community entry year is still 2012
    assert by_id["k2"].p_stay == Fraction(100)


def test_p_stay_none_when_all_entries_undetermined():
    clusters = {"k1": ("a", MATHS, 100, 0.0, 0.0)}
    pubs = [("p1", 2017, ["x"], ["bd"], "k1")]
    corpus = make_corpus(pubs, clusters=clusters)
    overlay, areas = overlay_pipeline(corpus)
    assert overlay[0].p_stay is None
    assert areas[0].avg_p_stay is None
    assert areas[0].pooled_p_stay is None


def test_top_cluster_tie_breaks_to_smallest_id():
    corpus = single_pub_corpus(
        {"k2": 5, "k9": 5, "k10": 4},
        {
            "k2": ("a", MATHS, 100, 0.0, 0.0),
            "k9": ("b", MATHS, 100, 1.0, 0.0),
            "k10": ("c", MATHS, 100, 2.0, 0.0),
        },
    )
    _, areas = overlay_pipeline(corpus)
    assert areas[0].top_cluster_id == "k2"


def test_emit_map_csv_schema():
    corpus = single_pub_corpus(
        {"k1": 10, "k2": 4},
        {"k1": ("alpha", MATHS, 1000, -1.5, 2.0), "k2": ("beta", MATHS, 100, None, None)},
    )
    overlay, _ = overlay_pipeline(corpus)
    lines = emit_map_csv(overlay).splitlines()
    assert lines[0] == "cluster_id,label,area,x,y,size,color"
    assert lines[1] == f"k1,alpha,{MATHS},-1.5,2.0,10,1.0"
    assert lines[2] == f"k2,beta,{MATHS},,,4,4.0"


def test_emit_map_color_metric():
    corpus = single_pub_corpus({"k1": 4}, {"k1": ("a", MATHS, 100, 0.0, 0.0)})
    overlay, _ = overlay_pipeline(corpus)
    assert emit_map_csv(overlay, color_metric="p_stay").splitlines()[1].endswith(",4,0.0")
    assert json.loads(emit_map_json(overlay, color_metric="p_stay"))[0]["color"] == 0.0
    for emit in (emit_map_csv, emit_map_json):
        with pytest.raises(ValueError, match="'size'"):
            emit(overlay, color_metric="size")


def test_emit_map_json():
    corpus = single_pub_corpus({"k1": 10}, {"k1": ("a", MATHS, 1000, 0.5, -0.5)})
    overlay, _ = overlay_pipeline(corpus)
    data = json.loads(emit_map_json(overlay))
    assert data == [
        {
            "cluster_id": "k1",
            "label": "a",
            "area": MATHS,
            "x": 0.5,
            "y": -0.5,
            "size": 10,
            "color": 1.0,
        }
    ]


def test_emit_map_json_rounds_ties_half_up():
    # float rounding would give 12.2 and 0.1 for the first two: round(12.25, 1) == 12.2
    colors = [Fraction(49, 4), Fraction(3, 20), Fraction(1, 20), Fraction(1249, 100),
              Fraction(100), None]
    rows = [
        ClusterOverlayRow(
            cluster_id=f"k{i}", label="c", area=MATHS, x=None, y=None, n_topic_authors=1,
            total_authors=100, p_au=color, p_stay=None, mean_first_year=None,
            mean_entry_year=None, mean_production=None, mean_focus=None,
            metadata_conflict=False,
        )
        for i, color in enumerate(colors)
    ]
    assert [d["color"] for d in json.loads(emit_map_json(rows))] == [
        12.3, 0.2, 0.1, 12.5, 100.0, None
    ]
    assert [line.rsplit(",", 1)[1] for line in emit_map_csv(rows).splitlines()[1:]] == [
        "12.3", "0.2", "0.1", "12.5", "100.0", ""
    ]


def test_emit_map_empty_overlay():
    assert emit_map_csv([]) == "cluster_id,label,area,x,y,size,color\n"
    assert emit_map_json([]) == "[]\n"


def test_large_map_emission_fast_and_stable():
    rows = [
        ClusterOverlayRow(
            cluster_id=f"k{i:04d}",
            label=f"cluster {i}",
            area=AREAS[i % 5],
            x=float(i % 97),
            y=float(i % 89),
            n_topic_authors=i % 300,
            total_authors=1000,
            p_au=Fraction(i % 300, 10),
            p_stay=Fraction(i % 100),
            mean_first_year=None,
            mean_entry_year=None,
            mean_production=None,
            mean_focus=None,
            metadata_conflict=False,
        )
        for i in range(4047)
    ]
    start = time.perf_counter()
    first = emit_map_csv(rows)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert emit_map_csv(rows) == first
    assert len(first.splitlines()) == 4048


def test_overlay_matches_oracle_on_random_corpora():
    rng = random.Random(92_207)
    checked = 0
    for _ in range(30):
        pubs, careers, clusters = random_raw_corpus(rng, max_pubs=60)
        if not clusters:
            continue
        corpus = make_corpus(pubs, careers, clusters, topics=TOPICS)
        raw_pubs, raw_careers, raw_clusters = raw_corpus(pubs, careers, clusters)
        # a 10-year window reaches past the horizon for every entry year
        for topic, window in itertools.product(TOPICS, (1, 2, 3, 10)):
            overlay, areas = overlay_pipeline(corpus, topic, window)
            want = oracle_overlay(
                raw_pubs, raw_careers, raw_clusters, topic, corpus.horizon, window
            )
            assert [r.cluster_id for r in overlay] == sorted(want)
            for r in overlay:
                w = want[r.cluster_id]
                assert r.n_topic_authors == w["n"]
                assert r.p_au == w["p_au"]
                assert r.p_stay == w["p_stay"]
                assert r.mean_first_year == w["mean_yfp"]
                assert r.mean_entry_year == w["mean_entry"]
                assert r.mean_production == w["mean_production"]
                assert r.mean_focus == w["mean_focus"]
            want_areas = oracle_area_rollup(
                raw_pubs, raw_careers, raw_clusters, topic, corpus.horizon, window
            )
            assert [a.area for a in areas] == sorted(want_areas)
            for a in areas:
                w = want_areas[a.area]
                assert a.n_clusters == w["n_clusters"]
                assert a.n_authors == w["n_authors"]
                assert a.n_authors_full == w["n_full"]
                assert a.avg_p_au == w["avg_p_au"]
                assert a.avg_p_stay == w["avg_p_stay"]
                assert a.pooled_p_stay == w["pooled_p_stay"]
                assert a.mean_lag == w["mean_lag"]
            if window == 10:
                assert all(r.p_stay is None for r in overlay)
                assert all(a.pooled_p_stay is None for a in areas)
            checked += 1
    assert checked >= 80
