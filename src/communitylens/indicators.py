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
from .rounding import mean_exact, percent

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
            focus = mean_exact(Fraction(100 * n, career_counts[y]) for y, n in topic_counts.items())
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


def _focus_mean_ci(active: list[tuple[AuthorProfile, int, int]]) -> tuple[Fraction, float]:
    """Mean focus 100 * n_topic / n_total over a year's active authors, and its
    95% half-width. Numerators and their squares are summed as ints per career
    count, so the mean and the sample variance are exact."""
    sums: dict[int, int] = {}
    sumsq: dict[int, int] = {}
    for _, n_topic, n_total in active:
        x = 100 * n_topic
        sums[n_total] = sums.get(n_total, 0) + x
        sumsq[n_total] = sumsq.get(n_total, 0) + x * x
    n = len(active)
    mean = sum((Fraction(x, d) for d, x in sorted(sums.items())), Fraction(0)) / n
    if n < 2:
        return mean, 0.0
    squares = sum((Fraction(sq, d * d) for d, sq in sorted(sumsq.items())), Fraction(0))
    var = (squares - n * mean * mean) / (n - 1)
    return mean, 1.96 * math.sqrt(var / n)


def _year_summary(year: int, active: list[tuple[AuthorProfile, int, int]]) -> YearIndicatorSummary:
    """Summary of one year from its (profile, topic count, career count) triples."""
    first_new = [p.first_year for p, _, _ in active if p.entry_year == year]
    first_old = [p.first_year for p, _, _ in active if p.entry_year != year]
    mean_focus, ci = _focus_mean_ci(active) if active else (None, None)
    return YearIndicatorSummary(
        year=year,
        n_active=len(active),
        n_new=len(first_new),
        n_old=len(first_old),
        mean_first_year_all=mean_exact(p.first_year for p, _, _ in active),
        mean_first_year_new=mean_exact(first_new),
        mean_first_year_old=mean_exact(first_old),
        mean_entry_year=mean_exact(p.entry_year for p, _, _ in active),
        mean_production=mean_exact(n_topic for _, n_topic, _ in active),
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
        for y, n_topic in p.topic_counts.items():
            active[y].append((p, n_topic, p.career_counts[y]))
    return [_year_summary(y, active[y]) for y in range(y0, y1 + 1)]


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
