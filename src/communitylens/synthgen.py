"""Synthetic corpus generation with a controlled ground-truth ledger.

The generator plants known per-year cohort counts, a known stay probability,
and a Lotka-tailed productivity distribution, then writes the corpus files
(careers and clusters through the corpus module's writers) plus
ground_truth.json computed during generation, independently of the analysis
pipeline. Deterministic given the seed.

Per-author productivity k is drawn from a discrete power law p(k) ~ k^-alpha
on the truncated support [1, max_production]. A new entrant in year y stays
with probability stay_prob, realized by drawing among multi-paper authors at
rate stay_prob / P(k >= 2): a stayer places a follow-up publication inside
(y, y+window], a non-stayer places any remaining output outside the window.
Entrants whose window leaves the horizon spread output freely; their stay
cells are undetermined downstream either way.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import random
from pathlib import Path
from typing import NamedTuple, Sequence

from .corpus import (
    DEFAULT_HORIZON,
    RESEARCH_AREAS,
    AuthorCareer,
    ClusterMeta,
    Record,
    write_careers_csv,
    write_clusters_csv,
)
from .reports import atomic_write_text


class InfeasibleConfigError(ValueError):
    def __init__(self, problems: Sequence[str]):
        super().__init__("infeasible generator config: " + "; ".join(problems))
        self.problems = list(problems)


class GeneratorConfig(Record):
    __slots__ = _fields = (
        "seed", "horizon", "authors_per_year", "p_newborn", "stay_prob", "lotka_alpha",
        "n_clusters", "n_areas", "topic_share", "topic", "stay_window", "max_production",
        "career_back_max",
    )

    # authors_per_year=None gives each config its own empty dict
    def __init__(self, seed: int = 0, horizon: tuple[int, int] = DEFAULT_HORIZON,
                 authors_per_year: dict[int, int] | None = None, p_newborn: float = 0.35,
                 stay_prob: float = 0.16, lotka_alpha: float = 2.0, n_clusters: int = 0,
                 n_areas: int = 1, topic_share: float = 0.6, topic: str = "topic",
                 stay_window: int = 2, max_production: int = 10_000, career_back_max: int = 15):
        self.seed = seed
        self.horizon = horizon
        self.authors_per_year = {} if authors_per_year is None else authors_per_year
        self.p_newborn = p_newborn
        self.stay_prob = stay_prob
        self.lotka_alpha = lotka_alpha
        self.n_clusters = n_clusters
        self.n_areas = n_areas
        self.topic_share = topic_share
        self.topic = topic
        self.stay_window = stay_window
        self.max_production = max_production
        self.career_back_max = career_back_max

    def as_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self._fields}
        out["horizon"] = list(self.horizon)
        out["authors_per_year"] = {str(y): n for y, n in sorted(self.authors_per_year.items())}
        return out


class ProductionSampler:
    """Inverse-CDF sampler for p(k) ~ k^-alpha on [1, max_production]."""

    def __init__(self, alpha: float, max_production: int):
        if alpha <= 1:
            raise ValueError(f"power-law exponent must exceed 1, got {alpha}")
        weights = [k ** -alpha for k in range(1, max_production + 1)]
        total = math.fsum(weights)
        cum = []
        running = 0.0
        for w in weights:
            running += w
            cum.append(running / total)
        cum[-1] = 1.0  # guard the tail against float shortfall
        self._cum = cum
        self.p_one = weights[0] / total

    @property
    def p_multi(self) -> float:
        """Probability of at least two publications."""
        return 1.0 - self.p_one

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_right(self._cum, rng.random()) + 1


def _check(config: GeneratorConfig) -> ProductionSampler:
    problems = []
    y0, y1 = config.horizon
    if y0 > y1:
        problems.append(f"empty horizon {y0}:{y1}")
    if not 0 <= config.p_newborn <= 1:
        problems.append(f"p_newborn {config.p_newborn} outside [0,1]")
    if not 0 <= config.stay_prob <= 1:
        problems.append(f"stay_prob {config.stay_prob} outside [0,1]")
    if config.lotka_alpha <= 1:
        problems.append(f"lotka_alpha {config.lotka_alpha} must exceed 1")
    if not 0 < config.topic_share <= 1:
        problems.append(f"topic_share {config.topic_share} outside (0,1]")
    if config.stay_window < 1:
        problems.append(f"stay_window {config.stay_window} must be >= 1")
    if config.max_production < 2:
        problems.append(f"max_production {config.max_production} must be >= 2")
    if config.career_back_max < 1:
        problems.append(f"career_back_max {config.career_back_max} must be >= 1")
    # the loader takes years in 1..9999, a first career year included
    if y0 - config.career_back_max < 1:
        problems.append(f"horizon start {y0} minus career_back_max {config.career_back_max} "
                        f"is before year 1")
    if y1 > 9999:
        problems.append(f"horizon end {y1} is after year 9999")
    if config.n_clusters < 0:
        problems.append(f"n_clusters {config.n_clusters} must be >= 0")
    if config.n_clusters > 0 and not 1 <= config.n_areas <= min(len(RESEARCH_AREAS), config.n_clusters):
        problems.append(
            f"n_areas {config.n_areas} must be in 1..{min(len(RESEARCH_AREAS), config.n_clusters)}"
        )
    for year, n in config.authors_per_year.items():
        if not y0 <= year <= y1:
            problems.append(f"entrant year {year} outside horizon")
        if n < 0:
            problems.append(f"negative entrant count for {year}")
    sampler = None
    if config.lotka_alpha > 1 and config.max_production >= 2:
        sampler = ProductionSampler(config.lotka_alpha, config.max_production)
        if config.stay_prob > sampler.p_multi:
            problems.append(
                f"stay_prob {config.stay_prob} exceeds the multi-paper mass "
                f"{sampler.p_multi:.4f} under alpha={config.lotka_alpha}; no assignment exists"
            )
    if problems:
        raise InfeasibleConfigError(sorted(problems))
    assert sampler is not None
    return sampler


class GroundTruth(NamedTuple):
    """True counts recorded while generating, independent of the pipeline."""

    config: dict
    n_authors: int
    n_publications: int
    one_paper_share: float
    stay_rate_pooled: float | None  # stayers / entrants over determined years
    per_year: dict[int, dict[str, int | None]]
    band_counts: dict[str, int]

    def to_json(self) -> str:
        obj = {
            "config": self.config,
            "n_authors": self.n_authors,
            "n_publications": self.n_publications,
            "one_paper_share": self.one_paper_share,
            "stay_rate_pooled": self.stay_rate_pooled,
            "per_year": {str(y): row for y, row in sorted(self.per_year.items())},
            "band_counts": self.band_counts,
        }
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_BAND_EDGES = ((1, 1, "1"), (2, 2, "2"), (3, 5, "3-5"), (6, 10, "6-10"), (11, None, ">10"))


def _band_label(k: int) -> str:
    for low, high, label in _BAND_EDGES:
        if k >= low and (high is None or k <= high):
            return label
    raise AssertionError(k)


def generate(config: GeneratorConfig, out_dir: str | Path) -> GroundTruth:
    """Write publications.jsonl, careers.csv, clusters.csv (when clustered)
    and ground_truth.json under out_dir; returns the ground truth."""
    sampler = _check(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(config.seed)
    y0, y1 = config.horizon
    topic = config.topic
    window = config.stay_window
    share = config.topic_share
    q_stay = config.stay_prob / sampler.p_multi if sampler.p_multi else 0.0

    years = range(y0, y1 + 1)
    all_counts = {y: 0 for y in years}
    new_counts = {y: 0 for y in years}
    old_counts = {y: 0 for y in years}
    newborn_counts = {y: 0 for y in years}
    stay_counts = {y: 0 for y in years}
    band_counts = {label: 0 for _, _, label in _BAND_EDGES}
    one_paper = 0
    n_authors = 0
    n_pubs = 0
    stay_eligible = 0
    stay_true = 0
    careers: dict[str, AuthorCareer] = {}
    cluster_authors: list[set[str]] | None = None
    if config.n_clusters:
        cluster_authors = [set() for _ in range(config.n_clusters)]

    pubs_tmp = out / "publications.jsonl.tmp"
    dumps = json.dumps
    with open(pubs_tmp, "w", encoding="utf-8", newline="\n") as pub_fh:
        for y in years:
            entrants = config.authors_per_year.get(y, 0)
            determined = y + window <= y1
            for i in range(entrants):
                author_id = f"a{y}_{i:08d}"
                k = sampler.sample(rng)
                newborn = rng.random() < config.p_newborn
                first_year = y if newborn else y - rng.randint(1, config.career_back_max)
                topic_years = {y: 1}
                stays = False
                if k > 1:
                    allowed, draws = range(y, y1 + 1), k - 1
                    if determined:
                        stays = rng.random() < q_stay
                        if stays:  # one follow-up inside the window, the rest anywhere
                            topic_years[rng.randint(y + 1, y + window)] = 1
                            draws = k - 2
                        else:
                            allowed = [y, *range(y + window + 1, y1 + 1)]
                    for _ in range(draws):
                        t = allowed[rng.randrange(len(allowed))]
                        topic_years[t] = topic_years.get(t, 0) + 1

                active = sorted(topic_years)
                for t in active:
                    all_counts[t] += 1
                    if t > y:
                        old_counts[t] += 1
                new_counts[y] += 1
                if newborn:
                    newborn_counts[y] += 1
                if determined:
                    stay_eligible += 1
                    if stays:
                        stay_counts[y] += 1
                        stay_true += 1
                band_counts[_band_label(k)] += 1
                if k == 1:
                    one_paper += 1
                n_authors += 1

                for t in active:
                    for _ in range(topic_years[t]):
                        record = {"pub_id": f"p{n_pubs:09d}", "year": t, "authors": [author_id],
                                  "topic_flags": [topic]}
                        n_pubs += 1
                        if cluster_authors is not None:
                            c = rng.randrange(config.n_clusters)
                            cluster_authors[c].add(author_id)
                            record["cluster_id"] = f"c{c:05d}"
                        pub_fh.write(dumps(record, separators=(",", ":")))
                        pub_fh.write("\n")

                # Career rows: topic output plus proportional off-topic output,
                # plus one off-topic publication in the first career year.
                career_rows = dict(topic_years)
                if share < 1:
                    for t in active:
                        c = career_rows[t]
                        career_rows[t] = c + round(c * (1 - share) / share)
                if not newborn:
                    career_rows[first_year] = career_rows.get(first_year, 0) + 1
                careers[author_id] = AuthorCareer(author_id, first_year, career_rows)

    os.replace(pubs_tmp, out / "publications.jsonl")
    tmp = out / "careers.csv.tmp"
    write_careers_csv(tmp, careers)
    os.replace(tmp, out / "careers.csv")

    if cluster_authors is not None:
        clusters = {}
        for c in range(config.n_clusters):
            observed = len(cluster_authors[c])
            uplift = 2.0 + 13.0 * rng.random()
            total = max(observed, math.ceil(observed * uplift)) if observed else rng.randint(0, 50)
            cluster_id = f"c{c:05d}"
            clusters[cluster_id] = ClusterMeta(
                cluster_id, f"cluster {c}", RESEARCH_AREAS[c % config.n_areas], total,
                round(rng.uniform(-100.0, 100.0), 4), round(rng.uniform(-100.0, 100.0), 4),
            )
        tmp = out / "clusters.csv.tmp"
        write_clusters_csv(tmp, clusters)
        os.replace(tmp, out / "clusters.csv")

    per_year: dict[int, dict[str, int | None]] = {}
    for y in years:
        determined = y + window <= y1
        per_year[y] = {
            "n_all": all_counts[y],
            "n_new": new_counts[y],
            "n_old": old_counts[y],
            "n_newborn": newborn_counts[y],
            "n_stay": stay_counts[y] if determined else None,
        }
    truth = GroundTruth(
        config=config.as_dict(),
        n_authors=n_authors,
        n_publications=n_pubs,
        one_paper_share=one_paper / n_authors if n_authors else 0.0,
        stay_rate_pooled=stay_true / stay_eligible if stay_eligible else None,
        per_year=per_year,
        band_counts=band_counts,
    )
    atomic_write_text(out / "ground_truth.json", truth.to_json())
    return truth
