"""Seeded corpus generator for the benchmark, with a ledger of expected counts.

This module is the benchmark's own and imports nothing from the program under
test. It writes ``publications.jsonl``, ``careers.csv`` and ``clusters.csv``
in the program's input formats, and ``ledger.json``: the report counts the
program must reproduce, derived from the generator's own draws.

Records are drawn in year order. Each record carries a label set; its team is
drawn slot by slot from the label's author pool, reusing an earlier author of
that pool with probability ``p_repeat`` (so output per author is heavy
tailed) or creating a new author. A slot may cross to another pool, which
makes authors overlap between topics. Careers list every record of the
stream plus publications outside it, so they always agree with the stream.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HORIZON = (2008, 2017)
WINDOW = 2
# (label, low, high) production bands of the program's bands.csv
BANDS = (("1", 1, 1), ("2", 2, 2), ("3-5", 3, 5), ("6-10", 6, 10), (">10", 11, None))
AREAS = (
    "Biomedical & Health Sciences",
    "Life & Earth Sciences",
    "Mathematics & Computer Science",
    "Physical Sciences & Engineering",
    "Social Sciences & Humanities",
)
DOC_TYPES = ("article", "review", "proceedings", "editorial")
DOC_WEIGHTS = (70, 10, 15, 5)
KEPT_DOC_TYPES = ("article", "review")
TERMS = ("graph mining", "network embedding")
P_NEWBORN = 0.35  # a new author's first publication is the record that adds them
P_EXTRA = 0.3  # a career year also has publications outside the corpus
# Spellings of the planted phrases; each normalises to one of TERMS.
PLANTED = ("graph mining", "Graph Mining", "graph-mining", "Network Embedding", "network-embedding")

# Filler text is built from these syllables, so no filler token can be
# "graph", "mining", "network" or "embedding" and no phrase hits by accident.
_SYLLABLES = ("an", "bel", "cor", "dex", "fil", "gor", "hin", "jul", "kas", "lom",
              "mir", "nov", "pel", "qua", "ros", "sul", "tam", "vor", "wix", "zen")
_WORDS = tuple(a + b for a in _SYLLABLES for b in _SYLLABLES)


@dataclass(frozen=True)
class Shape:
    """Statistical shape of one generated corpus."""

    records: int
    first_year: int  # records before HORIZON[0] are dropped at load
    labels: tuple  # ((label tuple, weight), ...); () is an unlabelled record
    team: tuple[int, int]
    p_repeat: float  # slot reuses an earlier author of its pool
    p_cross: float  # slot is drawn from another pool
    clusters: int
    p_unclustered: float
    p_unknown_cluster: float  # reference to a cluster missing from clusters.csv
    p_plant: float  # share of records carrying a delineation phrase
    text: bool  # doc_type, title and keywords on every record


def _view(records, yfp, topic, *, doc_filter=None, terms=False):
    """Ledger of one topic as the program should see it after loading.

    ``records`` holds (year, team, labels, cluster, doc_type, planted).
    """
    y0, y1 = HORIZON
    activity: dict[int, dict[int, int]] = {}
    members: dict[int, set[int]] = {}
    delineated = 0
    for year, team, labels, cluster, doc_type, planted in records:
        if doc_filter is not None and doc_type not in doc_filter:
            continue
        if not y0 <= year <= y1:
            continue
        if topic not in labels:
            if not (terms and planted):
                continue
            delineated += 1
        for a in team:
            by_year = activity.setdefault(a, {})
            by_year[year] = by_year.get(year, 0) + 1
        if cluster >= 0:
            members.setdefault(cluster, set()).update(team)

    cohorts = {y: [0, 0, 0, 0, 0] for y in range(y0, y1 + 1)}  # all, old, new, newborn, stay
    bands = [0] * len(BANDS)
    for a, by_year in activity.items():
        years = sorted(by_year)
        entry = years[0]
        for y in years:
            cohorts[y][0] += 1
            if y > entry:
                cohorts[y][1] += 1
        cohorts[entry][2] += 1
        if yfp[a] == entry:
            cohorts[entry][3] += 1
        if any(entry < y <= entry + WINDOW for y in years):
            cohorts[entry][4] += 1
        total = sum(by_year.values())
        for i, (_, low, high) in enumerate(BANDS):
            if total >= low and (high is None or total <= high):
                bands[i] += 1
                break
    rows = []
    for y in range(y0, y1 + 1):
        n_all, n_old, n_new, n_newborn, n_stay = cohorts[y]
        rows.append([n_all, n_old, n_new, n_newborn, n_stay if y + WINDOW <= y1 else None])
    return {
        "cohorts": rows,
        "bands": bands,
        "n_authors": len(activity),
        "clusters": {_cluster_id(c): len(m) for c, m in sorted(members.items())},
        "delineated": delineated,
        "authors": set(activity),
    }


def _cluster_id(c: int) -> str:
    return f"C{c:05d}"


def _title(rng: random.Random, planted: str | None) -> str:
    words = rng.choices(_WORDS, k=rng.randint(5, 9))
    if planted is not None:
        words.insert(rng.randrange(len(words) + 1), planted)
    words[0] = words[0].capitalize()
    return " ".join(words)


def generate(shape: Shape, seed: str, out: Path) -> dict:
    """Write the corpus files for ``shape`` under ``out``; return the ledger.

    The same ``seed`` always gives byte-identical files.
    """
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    y0, y1 = HORIZON
    span = range(shape.first_year, y1 + 1)
    growth = [1.06 ** (y - shape.first_year) for y in span]
    years = sorted(rng.choices(span, weights=growth, k=shape.records))
    label_sets = [labels for labels, _ in shape.labels]
    label_weights = [w for _, w in shape.labels]

    pools = ("A", "B", "O")
    slots: dict[str, list[int]] = {p: [] for p in pools}
    yfp: list[int] = []
    records = []
    lo, hi = shape.team
    n_clusters = shape.clusters
    for year in years:
        labels = rng.choices(label_sets, weights=label_weights)[0]
        home = [p for p in ("A", "B") if p in labels] or ["O"]
        size = lo + int((hi - lo + 1) * rng.random() ** 1.6)
        team: list[int] = []
        for _ in range(size):
            pool = rng.choice(pools) if rng.random() < shape.p_cross else rng.choice(home)
            pool_slots = slots[pool]
            author = -1
            if pool_slots and rng.random() < shape.p_repeat:
                author = rng.choice(pool_slots)
            if author < 0 or author in team:
                author = len(yfp)
                yfp.append(year if rng.random() < P_NEWBORN else year - rng.randint(1, 15))
            team.append(author)
            pool_slots.append(author)
        r = rng.random()
        if r < shape.p_unclustered:
            cluster = -1
        elif r < shape.p_unclustered + shape.p_unknown_cluster:
            cluster = -2
        elif "A" in labels:
            cluster = int(n_clusters * 0.5 * rng.random() ** 2)
        elif "B" in labels:
            cluster = int(n_clusters * (0.3 + 0.5 * rng.random() ** 2))
        else:
            cluster = rng.randrange(n_clusters)
        doc_type = rng.choices(DOC_TYPES, weights=DOC_WEIGHTS)[0] if shape.text else None
        planted = shape.text and rng.random() < shape.p_plant
        records.append((year, tuple(team), labels, cluster, doc_type, planted))

    # careers: every record of the stream, plus output outside the corpus
    stream: list[dict[int, int]] = [{} for _ in yfp]
    cluster_authors: list[set[int]] = [set() for _ in range(n_clusters)]
    for year, team, _, cluster, _, _ in records:
        for a in team:
            stream[a][year] = stream[a].get(year, 0) + 1
        if cluster >= 0 and y0 <= year <= y1:
            cluster_authors[cluster].update(team)
    with open(out / "careers.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("author_id,yfp,year,count\n")
        for a, by_year in enumerate(stream):
            counts = dict(by_year)
            counts[yfp[a]] = counts.get(yfp[a], 0) + (yfp[a] not in by_year)
            for y in counts:
                if rng.random() < P_EXTRA:
                    counts[y] += rng.randint(1, 3)
            fh.write("".join(f"a{a:06d},{yfp[a]},{y},{n}\n" for y, n in sorted(counts.items())))

    with open(out / "clusters.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("cluster_id,label,area,total_authors,x,y\n")
        for c in range(n_clusters):
            total = len(cluster_authors[c]) + rng.randint(0, 40)
            x, y = rng.uniform(-50, 50), rng.uniform(-50, 50)
            fh.write(f"{_cluster_id(c)},cluster {c},{AREAS[c % len(AREAS)]},{total},{x:.4f},{y:.4f}\n")

    lines = []
    for i, (year, team, labels, cluster, doc_type, planted) in enumerate(records):
        obj: dict = {"pub_id": f"P{i:07d}", "year": year, "authors": [f"a{a:06d}" for a in team]}
        if labels:
            obj["topic_flags"] = list(labels)
        if cluster >= 0:
            obj["cluster_id"] = _cluster_id(cluster)
        elif cluster == -2:
            obj["cluster_id"] = f"X{rng.randrange(100):03d}"
        if shape.text:
            phrase = rng.choice(PLANTED) if planted else None
            keywords = rng.sample(_WORDS, 3)
            if phrase is not None and rng.random() < 0.3:
                keywords[rng.randrange(3)], phrase = phrase, None
            obj["doc_type"] = doc_type
            obj["title"] = _title(rng, phrase)
            obj["keywords"] = keywords
        lines.append(json.dumps(obj) + "\n")
    rng.shuffle(lines)
    with open(out / "publications.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)

    view_a = _view(records, yfp, "A")
    view_b = _view(records, yfp, "B")
    view_terms = _view(records, yfp, "A", doc_filter=KEPT_DOC_TYPES, terms=True) if shape.text else None
    in_horizon = sum(1 for r in records if y0 <= r[0] <= y1)
    ledger = {
        "lines": len(records),
        "in_horizon": in_horizon,
        "A": view_a,
        "B": view_b,
        "A_terms": view_terms,
        "overlap_ab": len(view_a["authors"] & view_b["authors"]),
    }
    for view in (view_a, view_b, view_terms):
        if view is not None:
            del view["authors"]
    with open(out / "ledger.json", "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    return ledger
