import json
import random
from fractions import Fraction

import pytest

from communitylens.cohorts import cohort_series
from communitylens.corpus import RESEARCH_AREAS, load_corpus
from communitylens.indicators import author_profiles, production_bands
from communitylens.synthgen import (
    GeneratorConfig,
    InfeasibleConfigError,
    ProductionSampler,
    generate,
)


def small_config(**overrides):
    base = dict(
        seed=7,
        authors_per_year={y: 40 for y in range(2008, 2018)},
        p_newborn=0.4,
        stay_prob=0.2,
        lotka_alpha=2.0,
        topic="synth",
        topic_share=0.5,
        n_clusters=5,
        n_areas=3,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


def load_generated(out_dir, clustered=True):
    return load_corpus(
        str(out_dir / "publications.jsonl"),
        careers_path=str(out_dir / "careers.csv"),
        clusters_path=str(out_dir / "clusters.csv") if clustered else None,
        topics=["synth"],
    )


def generated_records(out_dir):
    with open(out_dir / "publications.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def digests(out_dir):
    from communitylens.reports import sha256_file

    return {p.name: sha256_file(p) for p in sorted(out_dir.iterdir())}


def test_deterministic_by_seed(tmp_path):
    truth_a = generate(small_config(), tmp_path / "a")
    truth_b = generate(small_config(), tmp_path / "b")
    assert digests(tmp_path / "a") == digests(tmp_path / "b")
    assert truth_a == truth_b
    generate(small_config(seed=8), tmp_path / "c")
    assert digests(tmp_path / "a") != digests(tmp_path / "c")


def test_output_passes_validation(tmp_path):
    truth = generate(small_config(), tmp_path)
    report = load_generated(tmp_path).load_report
    assert report.publications_parsed == report.publications_loaded == truth.n_publications
    assert report.dropped_out_of_horizon == report.dropped_doc_type == 0
    assert report.unknown_cluster_count == 0
    assert report.unknown_areas == []
    assert report.career_source == "supplied"


def test_ground_truth_matches_pipeline_exactly(tmp_path):
    truth = generate(small_config(), tmp_path)
    corpus = load_generated(tmp_path)
    rows = cohort_series(corpus, "synth", stay_window=2)
    for row in rows:
        want = truth.per_year[row.year]
        assert row.n_all == want["n_all"]
        assert row.n_new == want["n_new"]
        assert row.n_old == want["n_old"]
        assert row.n_newborn == want["n_newborn"]
        assert row.n_stay == want["n_stay"]
    # undetermined tail must be None on both sides
    assert truth.per_year[2016]["n_stay"] is None
    assert truth.per_year[2017]["n_stay"] is None


def test_ground_truth_bands_match_pipeline(tmp_path):
    truth = generate(small_config(), tmp_path)
    corpus = load_generated(tmp_path)
    bands = production_bands(author_profiles(corpus, "synth"))
    assert {b.label: b.n_authors for b in bands} == truth.band_counts
    n_one = truth.band_counts["1"]
    assert truth.one_paper_share == n_one / truth.n_authors


def test_ground_truth_stay_rate_matches_pipeline(tmp_path):
    truth = generate(small_config(), tmp_path)
    corpus = load_generated(tmp_path)
    rows = cohort_series(corpus, "synth", stay_window=2)
    stayers = sum(r.n_stay for r in rows if r.stay_determined)
    entrants = sum(r.n_new for r in rows if r.stay_determined)
    assert truth.stay_rate_pooled == stayers / entrants


def test_cluster_metadata_consistent(tmp_path):
    generate(small_config(), tmp_path)
    corpus = load_generated(tmp_path)
    assert len(corpus.clusters) == 5
    areas = {meta.area for meta in corpus.clusters.values()}
    assert areas == set(RESEARCH_AREAS[:3])
    records = generated_records(tmp_path)
    for rec in records:
        assert rec["cluster_id"] in corpus.clusters
    # claimed totals dominate the observed topic authors: no conflicts
    by_cluster = {}
    for rec in records:
        by_cluster.setdefault(rec["cluster_id"], set()).update(rec["authors"])
    for cid, authors in by_cluster.items():
        assert corpus.clusters[cid].total_authors >= len(authors)


def test_unclustered_output(tmp_path):
    generate(small_config(n_clusters=0, n_areas=1), tmp_path)
    assert not (tmp_path / "clusters.csv").exists()
    load_generated(tmp_path, clustered=False)
    assert all("cluster_id" not in rec for rec in generated_records(tmp_path))


def test_full_topic_share_has_pure_careers(tmp_path):
    truth = generate(small_config(topic_share=1.0, p_newborn=1.0), tmp_path)
    corpus = load_generated(tmp_path)
    # every author's entire career is the topic output: focus is always 100
    for p in author_profiles(corpus, "synth").values():
        assert p.focus_overall == Fraction(100)
    assert truth.n_publications == corpus.load_report.publications_loaded


def test_ground_truth_json_round_trip(tmp_path):
    truth = generate(small_config(), tmp_path)
    parsed = json.loads((tmp_path / "ground_truth.json").read_text())
    assert parsed["n_authors"] == truth.n_authors
    assert parsed["config"]["seed"] == 7
    assert parsed["per_year"]["2017"]["n_stay"] is None


def test_configs_do_not_share_entrant_counts():
    a, b = GeneratorConfig(), GeneratorConfig()
    a.authors_per_year[2010] = 5
    assert b.authors_per_year == {}
    assert a != b and GeneratorConfig() == b


def test_sampler_bounds_and_one_share():
    sampler = ProductionSampler(2.0, 10_000)
    # truncated zeta(2) mass at k=1 is a shade above 1/zeta(2)
    assert 0.60 < sampler.p_one < 0.62
    rng = random.Random(1)
    draws = [sampler.sample(rng) for _ in range(5000)]
    assert min(draws) == 1
    assert max(draws) <= 10_000
    ones = draws.count(1) / len(draws)
    assert abs(ones - sampler.p_one) < 0.03


def test_sampler_small_support():
    sampler = ProductionSampler(3.0, 2)
    rng = random.Random(2)
    assert set(sampler.sample(rng) for _ in range(200)) == {1, 2}


def test_infeasible_stay_prob():
    with pytest.raises(InfeasibleConfigError) as err:
        generate(small_config(stay_prob=0.9), "unused")
    assert any("stay_prob" in p for p in err.value.problems)


def test_infeasible_collects_all_problems(tmp_path):
    with pytest.raises(InfeasibleConfigError) as err:
        generate(
            small_config(
                horizon=(2017, 2008), p_newborn=1.5, lotka_alpha=0.5, topic_share=0.0
            ),
            tmp_path,
        )
    text = " ".join(err.value.problems)
    for needle in ("horizon", "p_newborn", "lotka_alpha", "topic_share"):
        assert needle in text
    assert not (tmp_path / "publications.jsonl").exists()
    # years the loader rejects: a first career year before 1, a year after 9999
    with pytest.raises(InfeasibleConfigError) as err:
        generate(small_config(horizon=(3, 10003), authors_per_year={3: 20}), tmp_path)
    assert err.value.problems == [
        "horizon end 10003 is after year 9999",
        "horizon start 3 minus career_back_max 15 is before year 1",
    ]
    assert not (tmp_path / "publications.jsonl").exists()


def test_earliest_feasible_horizon_loads(tmp_path):
    # yfp may reach year 1 exactly
    config = small_config(horizon=(16, 20), career_back_max=15, p_newborn=0.0,
                          authors_per_year={16: 200, 20: 5})
    truth = generate(config, tmp_path)
    corpus = load_corpus(tmp_path / "publications.jsonl", tmp_path / "careers.csv",
                         tmp_path / "clusters.csv", (16, 20), topics=["synth"])
    assert len(corpus.careers) == truth.n_authors == 205
    assert min(c.first_year for c in corpus.careers.values()) == 1


def test_infeasible_entrant_years():
    with pytest.raises(InfeasibleConfigError):
        generate(small_config(authors_per_year={2007: 5}), "unused")
    with pytest.raises(InfeasibleConfigError):
        generate(small_config(authors_per_year={2012: -1}), "unused")
    for horizon in ((3, 6), (9998, 10003)):  # career years the loader rejects
        with pytest.raises(InfeasibleConfigError):
            generate(small_config(horizon=horizon, authors_per_year={horizon[0]: 20}), "unused")


def test_infeasible_area_count():
    with pytest.raises(InfeasibleConfigError):
        generate(small_config(n_clusters=2, n_areas=3), "unused")
    with pytest.raises(InfeasibleConfigError):
        generate(small_config(n_clusters=5, n_areas=6), "unused")


def test_stayers_only_among_multi_paper_authors(tmp_path):
    generate(small_config(seed=11), tmp_path)
    corpus = load_generated(tmp_path)
    rows = cohort_series(corpus, "synth", stay_window=2)
    profiles = author_profiles(corpus, "synth")
    for row in rows:
        if not row.stay_determined:
            continue
        for a in row.stayers:
            assert profiles[a].production_total >= 2
