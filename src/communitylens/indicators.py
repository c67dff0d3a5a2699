"""Author-level indicators and their per-year and per-band aggregates.

Each topic author gets a profile: first publication year ever, topic entry
year, per-year topic production, per-year focus (share of that year's total
output that is on-topic), whole-horizon production and focus, and the entry
lag between first publication and first topic publication.

author_profiles() builds one profile per topic author in one integer pass over
the topic index and the careers; it holds the index's own topic counts and the
career's own per-year counts, copying neither. Year summaries and production
bands reduce over those profiles, summing integer columns as ints.
Count-derived means and the focus variance are exact Fractions; only the 95%
interval half-width, one square root of the exact variance, is a float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .cohorts import topic_activity
from .corpus import Corpus, MissingCareerError, Record
from .rounding import _sum_over_lcm, mean, mean_exact, percent

TOTAL_RATIO = "total"
MEAN_ANNUAL = "annual"
FOCUS_MODES = (TOTAL_RATIO, MEAN_ANNUAL)

#: Production bands: (label, low, high); high None = unbounded.
BANDS = (("1", 1, 1), ("2", 2, 2), ("3-5", 3, 5), ("6-10", 6, 10), (">10", 11, None))


class CareerDataError(Exception):
    """Career data cannot support the requested indicator (surfaced, not patched)."""


def check_focus_mode(value: str) -> None:
    if value not in FOCUS_MODES:
        raise ValueError(f"focus mode must be one of {list(FOCUS_MODES)}, got {value!r}")


class AuthorProfile(Record):
    __slots__ = _fields = ("author_id", "first_year", "entry_year", "topic_counts",
                           "career_counts", "production_total", "focus_overall", "entry_lag")

    def __init__(
        self,
        author_id: str,
        first_year: int,  # first publication ever
        entry_year: int,  # first topic publication
        # the index's and the career's own dicts, shared and never to be mutated:
        topic_counts: dict[int, int],  # per-year topic production, year order
        career_counts: dict[int, int],  # per-year total output, every career year
        production_total: int,
        focus_overall: Fraction,
        entry_lag: int,  # entry_year - first_year
    ):
        self.author_id = author_id
        self.first_year = first_year
        self.entry_year = entry_year
        self.topic_counts = topic_counts
        self.career_counts = career_counts
        self.production_total = production_total
        self.focus_overall = focus_overall
        self.entry_lag = entry_lag

    @property
    def focus_by_year(self) -> dict[int, Fraction]:
        """Per-year percentage of output on topic."""
        return {y: Fraction(100 * n, self.career_counts[y]) for y, n in self.topic_counts.items()}


def author_profiles(
    corpus: Corpus,
    topic: str,
    focus_mode: str = TOTAL_RATIO,
) -> dict[str, AuthorProfile]:
    """One profile per distinct topic author, keyed and ordered by author_id.

    Raises MissingCareerError / CareerDataError when the career file lacks an
    author or undercounts a year in which they have topic output.
    """
    check_focus_mode(focus_mode)
    index = topic_activity(corpus, topic)
    y0, y1 = corpus.horizon
    careers = corpus.careers
    missing = [a for a in index.counts if a not in careers]
    if missing:
        raise MissingCareerError(sorted(missing))
    totals = corpus.horizon_totals
    # most authors hold one of a few (production, career total) pairs, which
    # then share one immutable focus Fraction
    shared: dict[tuple[int, int], Fraction] = {}
    profiles: dict[str, AuthorProfile] = {}
    for author, topic_counts in index.counts.items():
        career = careers[author]
        pubs_by_year = career.pubs_by_year
        production = 0
        for y, n_topic in topic_counts.items():
            n_total = pubs_by_year.get(y, 0)
            if n_total < n_topic:
                raise CareerDataError(
                    f"author {author!r}: career lists {n_total} publication(s) in {y} "
                    f"but the corpus holds {n_topic} topic record(s)"
                )
            production += n_topic
        if focus_mode == TOTAL_RATIO:
            career_total = totals.get(author)
            if career_total is None:
                career_total = totals[author] = sum(
                    n for y, n in pubs_by_year.items() if y0 <= y <= y1
                )
            focus = shared.get((production, career_total))
            if focus is None:
                focus = shared[production, career_total] = Fraction(100 * production, career_total)
        else:
            den, num = _sum_over_lcm([(pubs_by_year[y], 100 * n) for y, n in topic_counts.items()])
            focus = mean(Fraction(num, den), len(topic_counts))
        entry = next(iter(topic_counts))
        profiles[author] = AuthorProfile(
            author_id=author,
            first_year=career.first_year,
            entry_year=entry,
            topic_counts=topic_counts,
            career_counts=pubs_by_year,
            production_total=production,
            focus_overall=focus,
            entry_lag=entry - career.first_year,
        )
    return profiles


class YearIndicatorSummary(NamedTuple):
    """Means over the authors active on the topic in one year.

    Absent groups yield None cells. focus_ci95 is the 95% half-width of the
    mean focus under the normal approximation (1.96 * s / sqrt(n), sample sd
    with ddof=1): None when the year has no active authors, 0.0 when it has
    one.
    """

    year: int
    n_active: int
    n_new: int
    n_old: int
    mean_first_year_all: Fraction | None
    mean_first_year_new: Fraction | None
    mean_first_year_old: Fraction | None
    mean_entry_year: Fraction | None
    mean_production: Fraction | None
    mean_focus: Fraction | None
    focus_ci95: float | None


def _focus_mean_ci(n: int, sums: dict[int, int], sumsq: dict[int, int]) -> tuple[Fraction, float]:
    """Mean focus 100 * n_topic / n_total over a year's n active authors, and
    its 95% half-width, from the numerators and their squares summed as ints
    per career count. Merged over the lcm of the counts, the mean and the
    sample variance are exact."""
    den, num = _sum_over_lcm(list(sums.items()))
    mean_focus = mean(Fraction(num, den), n)
    if n < 2:
        return mean_focus, 0.0
    den, num = _sum_over_lcm([(d * d, sq) for d, sq in sumsq.items()])
    var = (Fraction(num, den) - n * mean_focus * mean_focus) / (n - 1)
    return mean_focus, 1.96 * math.sqrt(var / n)


def _year_summary(year: int, active: list[tuple[AuthorProfile, int, int]]) -> YearIndicatorSummary:
    """Summary of one year from its (profile, topic count, career count)
    triples, in one pass of integer sums."""
    n_new = first_new = first_old = entry_sum = production = 0
    sums: dict[int, int] = {}
    sumsq: dict[int, int] = {}
    for p, n_topic, n_total in active:
        if p.entry_year == year:
            n_new += 1
            first_new += p.first_year
        else:
            first_old += p.first_year
        entry_sum += p.entry_year
        production += n_topic
        x = 100 * n_topic
        sums[n_total] = sums.get(n_total, 0) + x
        sumsq[n_total] = sumsq.get(n_total, 0) + x * x
    n = len(active)
    mean_focus, ci = _focus_mean_ci(n, sums, sumsq) if n else (None, None)
    return YearIndicatorSummary(
        year=year,
        n_active=n,
        n_new=n_new,
        n_old=n - n_new,
        mean_first_year_all=mean(first_new + first_old, n),
        mean_first_year_new=mean(first_new, n_new),
        mean_first_year_old=mean(first_old, n - n_new),
        mean_entry_year=mean(entry_sum, n),
        mean_production=mean(production, n),
        mean_focus=mean_focus,
        focus_ci95=ci,
    )


def year_summaries(
    corpus: Corpus,
    topic: str,
    *,
    profiles: dict[str, AuthorProfile] | None = None,
) -> list[YearIndicatorSummary]:
    """Per-year summaries for every horizon year, reduced over the profiles."""
    if profiles is None:
        profiles = author_profiles(corpus, topic)
    y0, y1 = corpus.horizon
    active: dict[int, list[tuple[AuthorProfile, int, int]]] = {y: [] for y in range(y0, y1 + 1)}
    for p in profiles.values():
        career_counts = p.career_counts
        for y, n_topic in p.topic_counts.items():
            active[y].append((p, n_topic, career_counts[y]))
    return [_year_summary(y, active[y]) for y in range(y0, y1 + 1)]


class ProductionBand(NamedTuple):
    label: str
    low: int
    high: int | None
    n_authors: int
    share: Fraction  # percent of all topic authors
    mean_focus: Fraction | None


def production_bands(profiles: dict[str, AuthorProfile]) -> list[ProductionBand]:
    """Partition authors by whole-horizon production; mean focus per band."""
    focus: list[list[Fraction]] = [[] for _ in BANDS]
    for p in profiles.values():
        for i, (_, low, high) in enumerate(BANDS):
            if p.production_total >= low and (high is None or p.production_total <= high):
                focus[i].append(p.focus_overall)
                break
    return [
        ProductionBand(label, low, high, len(values), percent(len(values), len(profiles)),
                       mean_exact(values))
        for (label, low, high), values in zip(BANDS, focus)
    ]
