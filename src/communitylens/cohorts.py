"""Per-year community composition for a topic.

For each calendar year the topic's authors split into old authors (topic
publications in an earlier horizon year) and new authors (first topic
publication that year). New authors subdivide further: new-born authors whose
first publication ever falls in the entry year, and stayers who publish on
the topic again within the stay window. Stayer status is undetermined for
entry years whose window extends past the horizon, mirroring the blank
trailing cells in the source tables.

Every report reduces over one TopicIndex per topic, built by the loader
while it parses (see corpus); topic_activity() returns it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .corpus import Corpus, MissingCareerError, TopicIndex
from .rounding import percent

NEW_AUTHORS = "new"
ALL_AUTHORS = "all"
STAY_DENOMINATORS = (NEW_AUTHORS, ALL_AUTHORS)


class UnknownTopicError(ValueError):
    def __init__(self, topic: str):
        super().__init__(f"topic label {topic!r} has no publications in the corpus")
        self.topic = topic


def check_denominator(value: str) -> None:
    if value not in STAY_DENOMINATORS:
        raise ValueError(f"stay_denominator must be one of {list(STAY_DENOMINATORS)}, got {value!r}")


def check_stay_window(stay_window: int) -> None:
    if stay_window < 1:
        raise ValueError(f"stay_window must be >= 1, got {stay_window}")


def stays(topic_years: Iterable[int], entry: int, stay_window: int, horizon_end: int) -> bool | None:
    """Whether an author entering the topic in `entry` stayed: published on it
    again within (entry, entry + stay_window]. None while undetermined, when
    that window runs past the horizon end."""
    last = entry + stay_window
    if last > horizon_end:
        return None
    for t in topic_years:  # a plain loop: a generator costs more than the test
        if entry < t <= last:
            return True
    return False


class YearCohorts(NamedTuple):
    """Cohort membership for one year. stayers is None when undetermined."""

    year: int
    stay_window: int
    stay_denominator: str
    all_authors: frozenset[str]
    old_authors: frozenset[str]
    new_authors: frozenset[str]
    newborn_authors: frozenset[str]
    stayers: frozenset[str] | None

    @property
    def stay_determined(self) -> bool:
        return self.stayers is not None

    @property
    def n_all(self) -> int:
        return len(self.all_authors)

    @property
    def n_old(self) -> int:
        return len(self.old_authors)

    @property
    def n_new(self) -> int:
        return len(self.new_authors)

    @property
    def n_newborn(self) -> int:
        return len(self.newborn_authors)

    @property
    def n_stay(self) -> int | None:
        return None if self.stayers is None else len(self.stayers)

    @property
    def percent_old(self) -> Fraction:
        return percent(self.n_old, self.n_all)

    @property
    def percent_new(self) -> Fraction:
        return percent(self.n_new, self.n_all)

    @property
    def percent_newborn(self) -> Fraction:
        return percent(self.n_newborn, self.n_new)

    def percent_stay(self, denominator: str | None = None) -> Fraction | None:
        """Stayer share; None while undetermined, 0 on an empty denominator."""
        if self.stayers is None:
            return None
        denom = denominator or self.stay_denominator
        check_denominator(denom)
        base = self.n_new if denom == NEW_AUTHORS else self.n_all
        return percent(len(self.stayers), base)

    def zero_denominator_fields(self) -> tuple[str, ...]:
        """Percentage fields whose denominator was 0 (reported as 0, flagged)."""
        flagged = []
        if self.n_all == 0:
            flagged.extend(["percent_old", "percent_new"])
        if self.n_new == 0:
            flagged.append("percent_newborn")
        if self.stayers is not None:
            base = self.n_new if self.stay_denominator == NEW_AUTHORS else self.n_all
            if base == 0:
                flagged.append("percent_stay")
        return tuple(flagged)


def topic_activity(corpus: Corpus, topic: str) -> TopicIndex:
    """The topic's index, built while the corpus was loaded.

    The corpus keeps no records, so a topic the load did not index is a
    ValueError rather than an empty index, which would read as a topic
    without publications.
    """
    index = corpus.topic_indexes.get(topic)
    if index is None:
        raise ValueError(
            f"topic {topic!r} was not indexed when the corpus was loaded "
            f"(indexed: {sorted(corpus.topic_indexes)})"
        )
    return index


def _build_year_sets(
    corpus: Corpus,
    index: TopicIndex,
    stay_window: int,
    stay_denominator: str,
) -> list[YearCohorts]:
    y0, y1 = corpus.horizon
    years = range(y0, y1 + 1)
    all_by_year: dict[int, set[str]] = {y: set() for y in years}
    old_by_year: dict[int, set[str]] = {y: set() for y in years}
    new_by_year: dict[int, set[str]] = {y: set() for y in years}
    newborn_by_year: dict[int, set[str]] = {y: set() for y in years}
    stay_by_year: dict[int, set[str]] = {y: set() for y in years}
    missing: set[str] = set()

    for author, by_year in index.counts.items():
        entry = next(iter(by_year))  # years ascend: the load reads its tallies in year order
        new_by_year[entry].add(author)
        career = corpus.careers.get(author)
        if career is None:
            missing.add(author)
        elif career.first_year == entry:
            newborn_by_year[entry].add(author)
        for y in by_year:
            all_by_year[y].add(author)
            if y > entry:
                old_by_year[y].add(author)
        if stays(by_year, entry, stay_window, y1):
            stay_by_year[entry].add(author)

    if missing:
        raise MissingCareerError(sorted(missing))

    rows = []
    for y in years:
        determined = y + stay_window <= y1
        rows.append(
            YearCohorts(
                year=y,
                stay_window=stay_window,
                stay_denominator=stay_denominator,
                all_authors=frozenset(all_by_year[y]),
                old_authors=frozenset(old_by_year[y]),
                new_authors=frozenset(new_by_year[y]),
                newborn_authors=frozenset(newborn_by_year[y]),
                stayers=frozenset(stay_by_year[y]) if determined else None,
            )
        )
    return rows


def cohort_series(
    corpus: Corpus,
    topic: str,
    stay_window: int = 2,
    stay_denominator: str = NEW_AUTHORS,
) -> list[YearCohorts]:
    """One YearCohorts per horizon year.

    A topic with no publications yields all-empty rows rather than an error,
    so series emission stays total.
    """
    check_stay_window(stay_window)
    check_denominator(stay_denominator)
    index = topic_activity(corpus, topic)
    return _build_year_sets(corpus, index, stay_window, stay_denominator)


def year_cohorts(
    corpus: Corpus,
    topic: str,
    year: int,
    stay_window: int = 2,
    stay_denominator: str = NEW_AUTHORS,
) -> YearCohorts:
    """Cohorts for a single year; raises on a topic absent from the corpus."""
    y0, y1 = corpus.horizon
    if not y0 <= year <= y1:
        raise ValueError(f"year {year} outside horizon {y0}:{y1}")
    rows = cohort_series(corpus, topic, stay_window, stay_denominator)
    if not topic_activity(corpus, topic):
        raise UnknownTopicError(topic)
    return rows[year - y0]
