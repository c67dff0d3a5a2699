"""Author-level indicators and their per-year and per-band aggregates.

Each topic author gets a profile: first publication year ever, topic entry
year, per-year topic production, per-year focus (share of that year's total
output that is on-topic), whole-horizon production and focus, and the entry
lag between first publication and first topic publication.

author_profiles() builds one profile per topic author from the topic index and
the careers; it holds the integer topic and career counts of each topic year.
Year summaries and production bands reduce over those profiles. Count-derived
means and the focus variance are exact Fractions; only the 95% interval
half-width, one square root of the exact variance, is a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cohorts import topic_activity
from .corpus import Corpus, MissingCareerError
from .rounding import MeanAccumulator

TOTAL_RATIO = "total_ratio"
MEAN_ANNUAL = "mean_annual"

_FOCUS_MODES = {
    "total": TOTAL_RATIO,
    "total_ratio": TOTAL_RATIO,
    "annual": MEAN_ANNUAL,
    "mean_annual": MEAN_ANNUAL,
}

#: Production bands: (label, low, high); high None = unbounded.
BANDS = (("1", 1, 1), ("2", 2, 2), ("3-5", 3, 5), ("6-10", 6, 10), (">10", 11, None))


class CareerDataError(Exception):
    """Career data cannot support the requested indicator (surfaced, not patched)."""


def normalize_focus_mode(value: str) -> str:
    try:
        return _FOCUS_MODES[value]
    except KeyError:
        raise ValueError(f"focus mode must be one of {sorted(_FOCUS_MODES)}, got {value!r}") from None


@dataclass(slots=True)
class AuthorProfile:
    author_id: str
    first_year: int  # first publication ever
    entry_year: int  # first topic publication
    topic_counts: dict[int, int]  # per-year topic production, year order
    career_counts: dict[int, int]  # total output in each topic year
    production_total: int
    focus_overall: Fraction
    entry_lag: int  # entry_year - first_year

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
    focus_mode = normalize_focus_mode(focus_mode)
    index = topic_activity(corpus, topic)
    y0, y1 = corpus.horizon
    careers = corpus.careers
    missing = [a for a in index.counts if a not in careers]
    if missing:
        raise MissingCareerError(sorted(missing))
    profiles: dict[str, AuthorProfile] = {}
    for author, by_year in index.counts.items():
        career = careers[author]
        pubs_by_year = career.pubs_by_year
        topic_counts = dict(sorted(by_year.items()))
        career_counts: dict[int, int] = {}
        for y, n_topic in topic_counts.items():
            n_total = pubs_by_year.get(y, 0)
            if n_total < n_topic:
                raise CareerDataError(
                    f"author {author!r}: career lists {n_total} publication(s) in {y} "
                    f"but the corpus holds {n_topic} topic record(s)"
                )
            career_counts[y] = n_total
        production = sum(topic_counts.values())
        if focus_mode == TOTAL_RATIO:
            career_total = sum(n for y, n in pubs_by_year.items() if y0 <= y <= y1)
            focus = Fraction(100 * production, career_total)
        else:
            acc = MeanAccumulator()
            for y, n_topic in topic_counts.items():
                acc.add(100 * n_topic, career_counts[y])
            focus = acc.mean()
        entry = next(iter(topic_counts))
        profiles[author] = AuthorProfile(
            author_id=author,
            first_year=career.first_year,
            entry_year=entry,
            topic_counts=topic_counts,
            career_counts=career_counts,
            production_total=production,
            focus_overall=focus,
            entry_lag=entry - career.first_year,
        )
    return profiles


@dataclass(slots=True)
class YearIndicatorSummary:
    """Means over the authors active on the topic in one year.

    Absent groups yield None cells. focus_ci95 is the 95% half-width of the
    mean focus under the normal approximation (1.96 * s / sqrt(n), sample sd
    with ddof=1), 0.0 when fewer than two authors carry a focus value.
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


class _YearAccumulator:
    __slots__ = (
        "year",
        "first_all",
        "first_new",
        "first_old",
        "entry",
        "production",
        "focus",
        "focus_sumsq",
    )

    def __init__(self, year: int) -> None:
        self.year = year
        self.first_all = MeanAccumulator()
        self.first_new = MeanAccumulator()
        self.first_old = MeanAccumulator()
        self.entry = MeanAccumulator()
        self.production = MeanAccumulator()
        self.focus = MeanAccumulator()
        # career denominator -> sum of squared focus numerators, so the
        # variance is exact like the mean: focus = 100 * n_topic / n_total
        self.focus_sumsq: dict[int, int] = {}

    def add(self, first_year: int, entry_year: int, n_topic: int, n_total: int) -> None:
        self.first_all.add(first_year)
        if entry_year == self.year:
            self.first_new.add(first_year)
        else:
            self.first_old.add(first_year)
        self.entry.add(entry_year)
        self.production.add(n_topic)
        x = 100 * n_topic
        self.focus.add(x, n_total)
        self.focus_sumsq[n_total] = self.focus_sumsq.get(n_total, 0) + x * x

    def summary(self) -> YearIndicatorSummary:
        n = self.first_all.count
        ci: float | None = None
        if n >= 1:
            ci = 0.0
            if n >= 2:
                total = self.focus.total()
                sumsq = sum(
                    (Fraction(sq, d * d) for d, sq in sorted(self.focus_sumsq.items())),
                    Fraction(0),
                )
                var = (sumsq - total * total / n) / (n - 1)
                ci = 1.96 * math.sqrt(var / n)
        return YearIndicatorSummary(
            year=self.year,
            n_active=n,
            n_new=self.first_new.count,
            n_old=self.first_old.count,
            mean_first_year_all=self.first_all.mean(),
            mean_first_year_new=self.first_new.mean(),
            mean_first_year_old=self.first_old.mean(),
            mean_entry_year=self.entry.mean(),
            mean_production=self.production.mean(),
            mean_focus=self.focus.mean(),
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
    accs = {y: _YearAccumulator(y) for y in range(y0, y1 + 1)}
    for p in profiles.values():
        for y, n_topic in p.topic_counts.items():
            accs[y].add(p.first_year, p.entry_year, n_topic, p.career_counts[y])
    return [accs[y].summary() for y in range(y0, y1 + 1)]


@dataclass(slots=True)
class ProductionBand:
    label: str
    low: int
    high: int | None
    n_authors: int
    share: Fraction  # percent of all topic authors
    mean_focus: Fraction | None


def production_bands(profiles: dict[str, AuthorProfile]) -> list[ProductionBand]:
    """Partition authors by whole-horizon production; mean focus per band."""
    counts = [0] * len(BANDS)
    focus = [MeanAccumulator() for _ in BANDS]
    for p in profiles.values():
        for i, (_, low, high) in enumerate(BANDS):
            if p.production_total >= low and (high is None or p.production_total <= high):
                counts[i] += 1
                focus[i].add(p.focus_overall.numerator, p.focus_overall.denominator)
                break
    total = len(profiles)
    rows = []
    for i, (label, low, high) in enumerate(BANDS):
        share = Fraction(100 * counts[i], total) if total else Fraction(0)
        rows.append(ProductionBand(label, low, high, counts[i], share, focus[i].mean()))
    return rows
