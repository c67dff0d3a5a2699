"""Brute-force oracles and random corpus builders.

Every oracle here recomputes its answer by repeated full scans over raw
publication dicts with nested loops and no shared indexes, so agreement with
the pipeline is evidence, not tautology. The dicts come straight from the
random tuples or the JSON lines, never from the package's own types. Oracles
stay quadratic on purpose; they only ever run on small corpora.
"""

from __future__ import annotations

import csv
import json
import math
import random
from fractions import Fraction

from communitylens.corpus import (
    _CAREERS_HEADER,
    AuthorCareer,
    CareerConflictError,
    ClusterMeta,
    Corpus,
    MalformedRecordError,
    MissingCareerError,
    TopicIndex,
    _compile_terms,
    _csv_reader,
    _matches,
)

AREAS = (
    "Biomedical & Health Sciences",
    "Life & Earth Sciences",
    "Mathematics & Computer Science",
    "Physical Sciences & Engineering",
    "Social Sciences & Humanities",
)


# --- corpus construction helpers ---------------------------------------------


def make_corpus(pubs, careers=None, clusters=None, horizon=(2008, 2017), topics=()):
    """Build a Corpus from loose tuples, indexed the way the loader indexes.

    pubs: iterable of (pub_id, year, authors, topics) or (..., cluster_id).
    careers: {author: (yfp, {year: count})}; None derives from the records.
    clusters: {cluster_id: (label, area, total_authors, x, y)} or None.
    topics: labels indexed even when no record carries them.
    Every topic of an in-horizon record is indexed; a cluster id that names no
    known cluster is left out of the index.
    """
    y0, y1 = horizon
    cluster_map = {cid: ClusterMeta(cid, *meta) for cid, meta in (clusters or {}).items()}
    # topic -> (author -> year -> records, cluster id -> authors)
    found = {topic: ({}, {}) for topic in topics}
    derived: dict[str, dict[int, int]] = {}
    for item in pubs:
        year, authors, flags = item[1:4]
        cluster_id = item[4] if len(item) > 4 else None
        if careers is None:
            for a in authors:
                by_year = derived.setdefault(a, {})
                by_year[year] = by_year.get(year, 0) + 1
        if y0 <= year <= y1:
            for topic in dict.fromkeys(flags):
                counts, members = found.setdefault(topic, ({}, {}))
                for a in authors:
                    by_year = counts.setdefault(a, {})
                    by_year[year] = by_year.get(year, 0) + 1
                if cluster_id in cluster_map:
                    members.setdefault(cluster_id, set()).update(authors)
    if careers is None:
        career_map = {a: AuthorCareer(a, min(by), by) for a, by in derived.items()}
    else:
        career_map = {
            a: AuthorCareer(a, yfp, dict(by_year)) for a, (yfp, by_year) in careers.items()
        }
    indexes = {
        topic: TopicIndex({a: dict(sorted(counts[a].items())) for a in sorted(counts)}, members)
        for topic, (counts, members) in found.items()
    }
    return Corpus(career_map, cluster_map, horizon, indexes)


def raw_corpus(pubs, careers, clusters=None):
    """Plain dicts for the oracles, made from make_corpus's tuples."""
    raw_pubs = [
        {
            "pub_id": str(item[0]),
            "year": item[1],
            "authors": list(item[2]),
            "topics": set(item[3]),
            "cluster_id": item[4] if len(item) > 4 else None,
        }
        for item in pubs
    ]
    raw_careers = {
        a: {"yfp": yfp, "counts": dict(by_year)} for a, (yfp, by_year) in careers.items()
    }
    raw_clusters = {
        cid: {"label": label, "area": area, "total": total, "x": x, "y": y}
        for cid, (label, area, total, x, y) in (clusters or {}).items()
    }
    return raw_pubs, raw_careers, raw_clusters


# --- loader oracle --------------------------------------------------------------


def oracle_indexes(publications_path, topics, clusters_path=None, horizon=(2008, 2017), *,
                   doc_types=None, delineate_terms=None, delineate_topic=None):
    """Brute-force topic indexes of a publications file that loads.

    Each non-blank line is json.loads'ed; the doc-type filter, the horizon
    drop, the unknown-cluster repair and delineation are then applied record
    by record, once per topic. Returns {topic: (counts, clusters)} in the
    shape of a TopicIndex: counts ordered by author, and clusters keyed by
    cluster id.
    """
    with open(publications_path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    known = set()
    if clusters_path is not None:
        with open(clusters_path, newline="", encoding="utf-8") as fh:
            known = {row["cluster_id"] for row in csv.DictReader(fh)}
    out = {}
    for topic in topics:
        counts, clusters = {}, {}
        for rec in records:
            if doc_types is not None and rec.get("doc_type") not in doc_types:
                continue
            year = rec["year"]
            if not horizon[0] <= year <= horizon[1]:
                continue
            flagged = topic in (rec.get("topic_flags") or ())
            if not flagged and delineate_terms and topic == delineate_topic:
                flagged = _matches(_compile_terms(delineate_terms), rec.get("title"),
                                   rec.get("abstract"), rec.get("keywords"))
            if not flagged:
                continue
            for a in rec["authors"]:
                by_year = counts.setdefault(a, {})
                by_year[year] = by_year.get(year, 0) + 1
                if rec.get("cluster_id") in known:
                    clusters.setdefault(rec["cluster_id"], set()).add(a)
        out[topic] = ({a: counts[a] for a in sorted(counts)}, clusters)
    return out


def oracle_careers(publications_path, doc_types=None):
    """Brute-force per-year record counts of each author in a publications file
    that loads, after the doc-type filter and before the horizon drop, in the
    order authors first appear: {author: {year: records}}."""
    careers = {}
    with open(publications_path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if doc_types is not None and rec.get("doc_type") not in doc_types:
                continue
            for a in rec["authors"]:
                by_year = careers.setdefault(a, {})
                by_year[rec["year"]] = by_year.get(rec["year"], 0) + 1
    return careers


def oracle_careers_csv(path):
    """The careers loader as it was before it remembered checked values:
    every row parses and checks its three values and looks its author up.
    It opens the file through the loader's own _csv_reader, so the header
    and decoding checks are shared and the row checks are compared."""
    careers: dict[str, AuthorCareer] = {}
    conflicts: list[tuple[str, str]] = []
    intern_year: dict[int, int] = {}  # one int object per distinct year
    source = str(path)
    with _csv_reader(path, _CAREERS_HEADER) as reader:
        for row in reader:
            line_no = reader.line_num
            if len(row) != 4:
                if not row:
                    continue
                raise MalformedRecordError(source, line_no, f"expected 4 columns, got {len(row)}")
            author_id = row[0]
            if not author_id:
                raise MalformedRecordError(source, line_no, "empty author_id")
            try:
                yfp, year, count = int(row[1]), int(row[2]), int(row[3])
            except ValueError:
                raise MalformedRecordError(
                    source, line_no, f"non-integer value in {row[1:]}"
                ) from None
            if count < 0:
                raise MalformedRecordError(source, line_no, f"negative count {count}")
            if not (1 <= yfp <= 9999 and 1 <= year <= 9999):
                raise MalformedRecordError(
                    source, line_no, f"yfp and year must be in 1..9999, got {yfp} and {year}"
                )
            year = intern_year.setdefault(year, year)
            career = careers.get(author_id)
            if career is None:
                yfp = intern_year.setdefault(yfp, yfp)
                career = careers[author_id] = AuthorCareer(author_id, yfp, {})
            elif career.first_year != yfp:
                reason = f"inconsistent yfp {career.first_year} vs {yfp}"
                conflicts.append((author_id, f"{reason} ({source}, line {line_no})"))
            if count:
                if year < career.first_year:
                    reason = f"count in {year} precedes yfp {career.first_year}"
                    conflicts.append((author_id, f"{reason} ({source}, line {line_no})"))
                career.pubs_by_year[year] = career.pubs_by_year.get(year, 0) + count
    for author_id, career in careers.items():
        if not career.pubs_by_year:
            conflicts.append((author_id, "no positive publication counts"))
    if conflicts:
        conflicts.sort()
        raise CareerConflictError(conflicts)
    return careers


def oracle_career_check(publications_path, careers_path, doc_types=None):
    """The error with which load_corpus rejects a careers file that loads, or
    None: every author of oracle_careers must have a career, and each of their
    years must come no earlier than its yfp and count no more records than it
    lists. The careers file is read with csv.DictReader."""
    observed = oracle_careers(publications_path, doc_types)
    supplied = {}
    with open(careers_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            yfp, counts = supplied.setdefault(row["author_id"], (int(row["yfp"]), {}))
            year = int(row["year"])
            counts[year] = counts.get(year, 0) + int(row["count"])
    missing = sorted(a for a in observed if a not in supplied)
    if missing:
        return MissingCareerError(missing)
    conflicts = []
    for author, by_year in observed.items():
        yfp, counts = supplied[author]
        for year, n in by_year.items():
            if year < yfp:
                conflicts.append((author, f"record in {year} precedes yfp {yfp}"))
            elif counts.get(year, 0) < n:
                conflicts.append((author, f"{n} record(s) in {year} exceed career count "
                                          f"{counts.get(year, 0)}"))
    return CareerConflictError(sorted(conflicts)) if conflicts else None


# --- cohort oracle ------------------------------------------------------------


def oracle_year_cohorts(pubs, careers, topic, year, window, horizon):
    """Quadratic recomputation of one year's cohort sets."""
    y0, y1 = horizon

    def on_topic(p):
        return topic in p["topics"] and y0 <= p["year"] <= y1

    all_authors = set()
    for p in pubs:
        if on_topic(p) and p["year"] == year:
            all_authors.update(p["authors"])
    old = set()
    for a in all_authors:
        for p in pubs:
            if on_topic(p) and p["year"] < year and a in p["authors"]:
                old.add(a)
                break
    new = all_authors - old
    newborn = set()
    for a in new:
        if careers[a]["yfp"] == year:
            newborn.add(a)
    if year + window > y1:
        stay = None
    else:
        stay = set()
        for a in new:
            for p in pubs:
                if on_topic(p) and year < p["year"] <= year + window and a in p["authors"]:
                    stay.add(a)
                    break
    return {
        "all": all_authors,
        "old": old,
        "new": new,
        "newborn": newborn,
        "stay": stay,
    }


# --- profile oracle -----------------------------------------------------------


def oracle_profiles(pubs, careers, topic, horizon, focus_mode="total"):
    y0, y1 = horizon

    def on_topic(p):
        return topic in p["topics"] and y0 <= p["year"] <= y1

    authors = set()
    for p in pubs:
        if on_topic(p):
            authors.update(p["authors"])
    out = {}
    for a in sorted(authors):
        counts = {}
        for p in pubs:
            if on_topic(p) and a in p["authors"]:
                counts[p["year"]] = counts.get(p["year"], 0) + 1
        career = careers[a]
        focus_by_year = {
            y: Fraction(100 * n, career["counts"][y]) for y, n in sorted(counts.items())
        }
        production = sum(counts.values())
        career_total = sum(n for y, n in career["counts"].items() if y0 <= y <= y1)
        if focus_mode == "total":
            overall = Fraction(100 * production, career_total)
        else:
            vals = list(focus_by_year.values())
            overall = sum(vals, Fraction(0)) / len(vals)
        entry = min(counts)
        out[a] = {
            "yfp": career["yfp"],
            "entry": entry,
            "counts": counts,
            "focus_by_year": focus_by_year,
            "production": production,
            "focus": overall,
            "lag": entry - career["yfp"],
        }
    return out


# --- classification oracle -----------------------------------------------------


def oracle_cutoff(values, rule):
    """Independent nearest-rank P75 with explicit promotion."""
    ordered = sorted(values)
    n = len(ordered)
    rank = math.ceil(0.75 * n)
    raw = ordered[rank - 1]
    if rule == "promote" and raw == ordered[0]:
        above = [v for v in ordered if v > ordered[0]]
        return above[0], True
    return raw, False


def oracle_classify(profiles_oracle, rule="promote"):
    productions = [p["production"] for p in profiles_oracle.values()]
    focuses = [p["focus"] for p in profiles_oracle.values()]
    if min(productions) == max(productions) or min(focuses) == max(focuses):
        return None  # degenerate: pipeline must abort
    p_cut, _ = oracle_cutoff(productions, rule)
    f_cut, _ = oracle_cutoff(focuses, rule)

    def high(value, cut):
        return value > cut if rule == "strict" else value >= cut

    groups = {}
    for a, p in profiles_oracle.items():
        hp, hf = high(p["production"], p_cut), high(p["focus"], f_cut)
        if hp and hf:
            groups[a] = "specialist"
        elif hf:
            groups[a] = "interested"
        elif hp:
            groups[a] = "casual"
        else:
            groups[a] = "incidental"
    return {"production_cutoff": p_cut, "focus_cutoff": f_cut, "groups": groups}


def oracle_area_shares(pubs, clusters, topic, horizon, groups):
    """Per-area group counts: an author counts once in each area holding one of
    their clustered topic publications. groups maps author -> group name.
    Returns {area: (total, {group: count})}."""
    y0, y1 = horizon
    areas = sorted({c["area"] for c in clusters.values()})
    out = {}
    for area in areas:
        members = set()
        for a in groups:
            for p in pubs:
                if (topic in p["topics"] and y0 <= p["year"] <= y1 and a in p["authors"]
                        and p["cluster_id"] in clusters
                        and clusters[p["cluster_id"]]["area"] == area):
                    members.add(a)
                    break
        if not members:
            continue
        counts = {g: 0 for g in ("specialist", "interested", "casual", "incidental")}
        for a in members:
            counts[groups[a]] += 1
        out[area] = (len(members), counts)
    return out


# --- overlay oracle -------------------------------------------------------------


def oracle_overlay(pubs, careers, clusters, topic, horizon, window, prof=None):
    """Per-cluster overlay rows; `prof` is oracle_profiles() of the same
    arguments, when the caller has it already."""
    y0, y1 = horizon
    eligible_end = y1 - window
    if prof is None:
        prof = oracle_profiles(pubs, careers, topic, horizon)

    def on_topic(p):
        return topic in p["topics"] and y0 <= p["year"] <= y1

    def is_stayer(a):
        entry = prof[a]["entry"]
        if entry + window > y1:
            return False
        for p in pubs:
            if on_topic(p) and entry < p["year"] <= entry + window and a in p["authors"]:
                return True
        return False

    rows = {}
    for cid in sorted(clusters):
        members = set()
        for p in pubs:
            if on_topic(p) and p["cluster_id"] == cid:
                members.update(a for a in p["authors"] if a in prof)
        if not members:
            continue
        total = clusters[cid]["total"]
        n = len(members)
        eligible = [a for a in members if prof[a]["entry"] <= eligible_end]
        stayed = [a for a in eligible if is_stayer(a)]
        mean = lambda xs: sum(xs, Fraction(0)) / len(xs) if xs else None
        rows[cid] = {
            "n": n,
            "p_au": Fraction(100 * n, total) if total else None,
            "p_stay": Fraction(100 * len(stayed), len(eligible)) if eligible else None,
            "mean_yfp": mean([Fraction(prof[a]["yfp"]) for a in members]),
            "mean_entry": mean([Fraction(prof[a]["entry"]) for a in members]),
            "mean_production": mean([Fraction(prof[a]["production"]) for a in members]),
            "mean_focus": mean([prof[a]["focus"] for a in members]),
            "members": members,
        }
    return rows


def oracle_area_rollup(pubs, careers, clusters, topic, horizon, window):
    prof = oracle_profiles(pubs, careers, topic, horizon)
    overlay = oracle_overlay(pubs, careers, clusters, topic, horizon, window, prof)
    y0, y1 = horizon
    eligible_end = y1 - window

    def on_topic(p):
        return topic in p["topics"] and y0 <= p["year"] <= y1

    def is_stayer(a):
        entry = prof[a]["entry"]
        if entry + window > y1:
            return False
        for p in pubs:
            if on_topic(p) and entry < p["year"] <= entry + window and a in p["authors"]:
                return True
        return False

    areas = {}
    for cid, row in overlay.items():
        area = clusters[cid]["area"]
        areas.setdefault(area, {"cids": [], "authors": set()})
        areas[area]["cids"].append(cid)
        areas[area]["authors"].update(row["members"])
    out = {}
    for area in sorted(areas):
        cids = areas[area]["cids"]
        authors = areas[area]["authors"]
        p_aus = [overlay[c]["p_au"] for c in cids if overlay[c]["p_au"] is not None]
        p_stays = [overlay[c]["p_stay"] for c in cids if overlay[c]["p_stay"] is not None]
        eligible = [a for a in authors if prof[a]["entry"] <= eligible_end]
        stayed = [a for a in eligible if is_stayer(a)]
        mean = lambda xs: sum(xs, Fraction(0)) / len(xs) if xs else None
        out[area] = {
            "n_clusters": len(cids),
            "n_authors": len(authors),
            "n_full": sum(overlay[c]["n"] for c in cids),
            "avg_p_au": mean(p_aus),
            "avg_p_stay": mean(p_stays),
            "pooled_p_stay": Fraction(100 * len(stayed), len(eligible)) if eligible else None,
            "mean_lag": mean([Fraction(prof[a]["lag"]) for a in authors]),
        }
    return out


# --- random corpus generation ---------------------------------------------------


# The topic labels of random corpora; pass them to make_corpus as topics=,
# since a small draw may leave either one without records.
TOPICS = ("alpha", "beta")


def random_raw_corpus(rng: random.Random, max_pubs=80, horizon=(2008, 2017), clustered=True):
    """Random corpus material as loose tuples for make_corpus."""
    y0, y1 = horizon
    n_pubs = rng.randint(1, max_pubs)
    n_authors = rng.randint(1, max(2, n_pubs))
    author_pool = [f"w{i:03d}" for i in range(n_authors)]
    cluster_ids = [f"k{i}" for i in range(rng.randint(1, 6))] if clustered else []
    pubs = []
    for i in range(n_pubs):
        year = rng.randint(y0, y1)
        team = rng.sample(author_pool, k=min(len(author_pool), rng.randint(1, 4)))
        flags = [t for t in TOPICS if rng.random() < 0.45]
        cid = rng.choice(cluster_ids) if cluster_ids and rng.random() < 0.7 else None
        pubs.append((f"p{i:04d}", year, team, flags, cid))

    # Careers: supersets of the observed stream with occasional earlier starts.
    observed: dict[str, dict[int, int]] = {}
    for pub_id, year, team, flags, cid in pubs:
        for a in team:
            observed.setdefault(a, {})
            observed[a][year] = observed[a].get(year, 0) + 1
    careers = {}
    for a, counts in observed.items():
        counts = dict(counts)
        first = min(counts)
        if rng.random() < 0.4:
            first = first - rng.randint(1, 6)
            counts[first] = counts.get(first, 0) + 1
        for y in list(counts):
            if rng.random() < 0.5:
                counts[y] += rng.randint(1, 3)
        careers[a] = (first, counts)

    clusters = None
    if clustered and cluster_ids:
        clusters = {}
        for i, cid in enumerate(cluster_ids):
            total = rng.choice([0, 5, 20, 100, 400])
            clusters[cid] = (
                f"cluster {cid}",
                AREAS[i % len(AREAS)],
                total,
                round(rng.uniform(-50, 50), 3),
                round(rng.uniform(-50, 50), 3),
            )
    return pubs, careers, clusters
