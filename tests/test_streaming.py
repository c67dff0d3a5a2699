"""Loads that index topics while they parse.

``load_corpus(..., topics=...)`` keeps no records and builds each topic's
TopicIndex as it reads the file. Each index must equal the brute-force index
of ``oracles.oracle_indexes``, author order and ascending years included, and
the load's checks and counts (its LoadReport, careers and clusters) must not
depend on which topics it indexes.
"""

import json
import random

import pytest

from communitylens import cli
from communitylens.cohorts import cohort_series, topic_activity
from communitylens.corpus import (
    DEFAULT_HORIZON,
    AuthorCareer,
    ClusterMeta,
    CorpusError,
    load_corpus,
    write_careers_csv,
    write_clusters_csv,
)
from communitylens.synthgen import GeneratorConfig, generate

from oracles import oracle_career_check, oracle_careers, oracle_indexes


def assert_indexes_match(corpus, topics, path, clusters_path=None, **kwargs):
    """Each index of ``corpus`` equals the oracle's, for the same load options."""
    assert list(corpus.topic_indexes) == list(dict.fromkeys(topics))
    expected = oracle_indexes(path, topics, clusters_path, corpus.horizon, **kwargs)
    for topic in topics:
        index = topic_activity(corpus, topic)
        assert index is corpus.topic_indexes[topic]
        counts, clusters = expected[topic]
        assert list(index.counts.items()) == list(counts.items())
        assert all(list(by_year) == sorted(by_year) for by_year in index.counts.values())
        assert index.clusters == clusters


def assert_same_load(unindexed, indexed):
    assert unindexed.topic_indexes == {}
    assert indexed.load_report == unindexed.load_report
    assert indexed.careers == unindexed.careers
    assert indexed.clusters == unindexed.clusters


def load_checked(path, topics, careers=None, clusters=None, horizon=DEFAULT_HORIZON, **kwargs):
    """Load with and without ``topics``; check the indexes, and derived careers,
    against the oracles."""
    corpus = load_corpus(path, careers, clusters, horizon, topics=topics, **kwargs)
    assert_same_load(load_corpus(path, careers, clusters, horizon, **kwargs), corpus)
    assert_indexes_match(corpus, topics, path, clusters, **kwargs)
    if careers is None:
        expected = oracle_careers(path, kwargs.get("doc_types"))
        assert [(a, c.first_year, c.pubs_by_year) for a, c in corpus.careers.items()] == [
            (a, min(by_year), by_year) for a, by_year in expected.items()
        ]
    return corpus


def test_bd2012(bd2012_paths):
    pubs, careers = bd2012_paths
    corpus = load_checked(str(pubs), ("big data",), str(careers))
    assert len(topic_activity(corpus, "big data")) == 265


def mixed_copy(base, seed):
    """Rewrite a synthgen corpus: second topics, coauthors, text, doc types,
    pre-horizon years and unknown cluster ids. Careers must then be derived.

    Coauthor teams come in three kinds: one extra author drawn from earlier
    records, an earlier record's team in reversed order, and a 3-8 author team
    that never repeats (it holds one author of its own)."""
    rng = random.Random(seed)
    authors = []
    teams = []
    lines = []
    for line in (base / "publications.jsonl").read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        authors.append(rec["authors"][0])
        roll = rng.random()
        if roll < 0.2:
            rec["topic_flags"] = ["beta"]
        elif roll < 0.4:
            rec["topic_flags"].append("beta")
        roll = rng.random()
        if roll < 0.3:
            rec["authors"] = list(dict.fromkeys(rec["authors"] + rng.sample(authors, 1)))
        elif roll < 0.4 and teams:
            rec["authors"] = rng.choice(teams)[::-1]
        elif roll < 0.5:
            pool = list(dict.fromkeys(authors))
            size = rng.randint(3, 8)
            co = rng.sample(pool, min(size - 1, len(pool)))
            rec["authors"] = [f"{rec['pub_id']}-co", *co]
        teams.append(rec["authors"])
        if rng.random() < 0.1:
            rec["year"] = 2005
        if rng.random() < 0.1:
            rec["cluster_id"] = "k-unknown"
        rec["title"] = rng.choice(["Big-Data systems", "big datasets", "Graphs", "BIG DATA"])
        if rng.random() < 0.8:
            rec["doc_type"] = rng.choice(["article", "review", "letter"])
        lines.append(json.dumps(rec))
    path = base / "mixed.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_synthgen_corpora(tmp_path, seed):
    config = GeneratorConfig(
        seed=seed, authors_per_year={y: 12 for y in range(2008, 2018)},
        n_clusters=4, n_areas=2, topic="alpha",
    )
    generate(config, tmp_path)
    pubs, careers, clusters = (str(tmp_path / name) for name in
                               ("publications.jsonl", "careers.csv", "clusters.csv"))
    load_checked(pubs, ("alpha", "absent"), careers, clusters)
    mixed = str(mixed_copy(tmp_path, seed))
    kwargs = dict(doc_types=["article", "review"], delineate_terms=["big data"],
                  delineate_topic="beta")
    for cluster_path in (clusters, None):  # without metadata no cluster is indexed
        corpus = load_checked(mixed, ("alpha", "beta", "alpha"), None, cluster_path,
                              (2009, 2016), **kwargs)
        report = corpus.load_report
        assert report.dropped_out_of_horizon and report.dropped_doc_type and report.delineated
        assert bool(corpus.topic_indexes["beta"].clusters) == (cluster_path is not None)
    assert report.unknown_cluster_count == 0
    assert load_corpus(mixed, None, clusters, topics=()).load_report.unknown_cluster_count > 0


def test_topic_not_indexed_is_an_error(bd2012_paths):
    pubs, careers = bd2012_paths
    corpus = load_corpus(str(pubs), str(careers), topics=("big data",))
    with pytest.raises(ValueError, match="'other' was not indexed"):
        topic_activity(corpus, "other")
    with pytest.raises(ValueError, match="not indexed"):
        cohort_series(corpus, "other")  # never a series of empty rows
    nothing = load_corpus(str(pubs), str(careers), topics=())
    assert nothing.topic_indexes == {}
    with pytest.raises(ValueError, match="not indexed"):
        topic_activity(nothing, "big data")


def test_cli_loads_without_records(bd2012_paths, tmp_path, monkeypatch):
    """Every subcommand streams; compare indexes both topics in one load."""
    calls = []

    def spy(*args, **kwargs):
        corpus = load_corpus(*args, **kwargs)
        calls.append((args[0], kwargs["topics"], corpus.topic_indexes))
        return corpus

    monkeypatch.setattr(cli, "load_corpus", spy)
    monkeypatch.delenv("COMMUNITYLENS_CONFIG", raising=False)
    pubs, careers = (str(p) for p in bd2012_paths)
    base = ["--corpus", pubs, "--careers", careers, "--topic", "big data"]
    runs = {
        "validate": ((),),
        "cohorts": (("big data",),),
        "indicators": (("big data",),),
        "compare": (("big data", "other"),),
    }
    for sub, topics in runs.items():
        calls.clear()
        extra = ["--topic-b", "other"] if sub == "compare" else []
        code = cli.main([sub, *base, *extra, "--out", str(tmp_path / sub)])
        assert code == (1 if sub == "compare" else 0)  # topic "other" is absent
        assert [c[1] for c in calls] == list(topics)
        assert all(list(c[2]) == list(c[1]) for c in calls)
    calls.clear()
    argv = ["compare", *base, "--topic-b", "big data", "--corpus-b", pubs, "--careers-b", careers,
            "--out", str(tmp_path / "compare-b")]
    assert cli.main(argv) == 0
    assert [c[1] for c in calls] == [("big data",), ("big data",)]


def tally_records(rng):
    """Records that stress the load's per-year tallies: a1 has many records
    in 2012, records are drawn in no year order, and records dropped by doc
    type or by the horizon share author-years with kept ones."""
    records = []

    def add(year, authors, flags, cluster_id=None, doc_type="article"):
        records.append({"pub_id": f"p{len(records)}", "year": year, "authors": authors,
                        "topic_flags": flags, "cluster_id": cluster_id, "doc_type": doc_type})

    for i in range(15):
        add(2012, ["a1", "a2"] if i % 4 == 0 else ["a1"], ["t"], ("k1", "k2", "k9")[i % 3])
    add(2012, ["a1", "a3"], ["t"], "k1", doc_type="letter")
    add(2012, ["a2"], ["t", "u"], "k2", doc_type="letter")
    add(2006, ["a1", "a3"], ["t"], "k1")
    add(2006, ["a1"], ["u"])
    add(2006, ["a3"], [], doc_type="letter")
    pool = [f"a{j}" for j in range(1, 10)]
    for _ in range(80):
        add(rng.randint(2004, 2017), rng.sample(pool, rng.randint(1, 4)),
            rng.choice([["t"], ["u"], ["t", "u"], []]), rng.choice(["k1", "k2", "k9", None]),
            rng.choice(["article", "article", "letter"]))
    return records


def test_tallies_match_oracles_under_shuffled_order(tmp_path):
    """Indexes and career errors from per-year tallies: the careers file
    under-counts a1's 2012 and omits a9, and every shuffle of the records
    loads, or fails, as the oracles say."""
    rng = random.Random(17)
    records = tally_records(rng)
    pubs, careers_path, clusters_path = (tmp_path / n for n in ("p.jsonl", "c.csv", "k.csv"))
    write_clusters_csv(clusters_path, {
        "k1": ClusterMeta("k1", "one", "Life & Earth Sciences", 50, 0.0, 0.0),
        "k2": ClusterMeta("k2", "two", "Social Sciences & Humanities", 50, 1.0, 1.0),
    })
    pubs.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    observed = oracle_careers(pubs, ["article"])
    assert observed["a1"][2012] >= 15 and 2006 in observed["a1"]

    def write_careers(under=0, omit=()):
        careers = {}
        for author, by_year in observed.items():
            by_year = {y: n + 1 for y, n in by_year.items()}  # careers hold more than the corpus
            if author == "a1":
                by_year[2012] -= 1 + under
            if author not in omit:
                careers[author] = AuthorCareer(author, min(by_year), by_year)
        write_careers_csv(careers_path, careers)

    topics = ("t", "u")
    kwargs = dict(doc_types=["article"])
    for _ in range(3):
        rng.shuffle(records)
        pubs.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        write_careers()
        assert oracle_career_check(pubs, careers_path, ["article"]) is None
        load_checked(str(pubs), topics, str(careers_path), str(clusters_path), **kwargs)
        load_checked(str(pubs), topics, None, str(clusters_path), **kwargs)
        n = observed["a1"][2012]
        for omit, text in ((("a9",), "1 author(s) missing from careers file: a9"),
                           ((), f"1 career conflict(s): a1: {n} record(s) in 2012 exceed career count {n - 1}")):
            write_careers(under=1, omit=omit)
            want = oracle_career_check(pubs, careers_path, ["article"])
            assert str(want) == text
            with pytest.raises(CorpusError) as err:
                load_corpus(str(pubs), str(careers_path), str(clusters_path), topics=topics, **kwargs)
            assert (type(err.value), str(err.value)) == (type(want), text)
