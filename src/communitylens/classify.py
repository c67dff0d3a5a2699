"""Quadrant classification of topic authors.

Authors split into four groups by whole-horizon production and focus, cut at
the top-25% boundary of each distribution: specialist (high production, high
focus), interested (low, high), casual (high, low), incidental (low, low).

The cutoff is the nearest-rank 75th percentile (ascending sort, rank
ceil(0.75 n)) and "high" means value >= cutoff. When the percentile value
equals the distribution minimum, so "high" would cover everyone, the cutoff
is promoted to the smallest observed value strictly above the minimum; this
tie rule reproduces both a >=2-papers specialist floor on a distribution
dominated by one-paper authors and a 100%-focus boundary where the top
quartile is saturated. Plain strict (>) and inclusive (>=) rules without
promotion are available for sensitivity runs.

Cutoffs are exact. The values are sorted by float(), which is correctly
rounded for ints and Fractions and so never reverses an order; then each run
of equal floats that holds distinct values is re-sorted exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple

from .cohorts import TopicIndex
from .corpus import Corpus, Record
from .indicators import AuthorProfile
from .rounding import percent

GROUPS = ("specialist", "interested", "casual", "incidental")

PROMOTE = "promote"
STRICT = "strict"
INCLUSIVE = "inclusive"

RULES = (PROMOTE, STRICT, INCLUSIVE)


class DegenerateDistributionError(Exception):
    """All values equal: no meaningful quartile boundary exists."""

    def __init__(self, indicator: str, value):
        super().__init__(
            f"cannot resolve a quadrant cutoff: every author has {indicator} = {value}"
        )
        self.indicator = indicator
        self.value = value


def check_rule(value: str) -> None:
    if value not in RULES:
        raise ValueError(f"threshold rule must be one of {list(RULES)}, got {value!r}")


class CutTrace(NamedTuple):
    """How one cutoff was resolved."""

    raw_percentile: Fraction
    cutoff: Fraction
    promoted: bool


class QuadrantThresholds(NamedTuple):
    production_cutoff: int
    focus_cutoff: Fraction
    rule: str
    production_trace: CutTrace
    focus_trace: CutTrace

    def high_production(self, value: int) -> bool:
        if self.rule == STRICT:
            return value > self.production_cutoff
        return value >= self.production_cutoff

    def high_focus(self, value: Fraction) -> bool:
        # cross-multiplied: both denominators are positive, so this is the
        # order of the Fractions without Fraction's comparison machinery
        cutoff = self.focus_cutoff
        lhs = value.numerator * cutoff.denominator
        rhs = cutoff.numerator * value.denominator
        if self.rule == STRICT:
            return lhs > rhs
        return lhs >= rhs


_ratio = attrgetter("numerator", "denominator")


def _nearest_rank_p75(values: list) -> Fraction:
    # values ascending; rank = ceil(0.75 n), 1-based
    rank = math.ceil(Fraction(3, 4) * len(values))
    return values[rank - 1]


def _exact_sorted(values: list) -> list:
    """values (ints or Fractions) in exact ascending order.

    float() of either is correctly rounded, so it never reverses an order:
    the float order is exact except within a run of equal floats that holds
    distinct values, and only such runs are re-sorted with exact comparisons.
    Normalised (numerator, denominator) pairs tell distinct values apart
    without running Fraction.__eq__ or __lt__ on every element.
    """
    ordered = sorted(values, key=float)
    keys = list(map(float, ordered))
    if len(set(keys)) == len(set(map(_ratio, ordered))):
        return ordered  # one value per float
    start = 0
    while start < len(ordered):
        end = bisect_right(keys, keys[start], start)
        run = ordered[start:end]
        if len(set(map(_ratio, run))) > 1:
            ordered[start:end] = sorted(run)
        start = end
    return ordered


def _resolve_one(values: list, indicator: str, rule: str) -> CutTrace:
    values = _exact_sorted(values)
    if values[0] == values[-1]:
        raise DegenerateDistributionError(indicator, values[0])
    raw = _nearest_rank_p75(values)
    cutoff = raw
    promoted = False
    if rule == PROMOTE and raw == values[0]:
        cutoff = values[bisect_right(values, raw)]
        promoted = True
    return CutTrace(raw_percentile=Fraction(raw), cutoff=Fraction(cutoff), promoted=promoted)


def resolve_thresholds(
    profiles: dict[str, AuthorProfile],
    rule: str = PROMOTE,
) -> QuadrantThresholds:
    """Resolve both cutoffs over the author distribution."""
    if not profiles:
        raise ValueError("cannot resolve thresholds without profiles")
    check_rule(rule)
    items = list(profiles.values())
    production = _resolve_one([p.production_total for p in items], "production", rule)
    focus = _resolve_one([p.focus_overall for p in items], "focus", rule)
    return QuadrantThresholds(
        production_cutoff=int(production.cutoff),
        focus_cutoff=focus.cutoff,
        rule=rule,
        production_trace=production,
        focus_trace=focus,
    )


class QuadrantAssignment(Record):
    __slots__ = _fields = ("author_id", "group", "production_total", "focus_overall")

    def __init__(self, author_id: str, group: str, production_total: int, focus_overall: Fraction):
        self.author_id = author_id
        self.group = group
        self.production_total = production_total
        self.focus_overall = focus_overall


class GroupShares(NamedTuple):
    total: int
    counts: dict[str, int]

    def share(self, group: str) -> Fraction:
        return percent(self.counts[group], self.total)

    def shares(self) -> dict[str, Fraction]:
        return {g: self.share(g) for g in GROUPS}


class ClassificationResult(NamedTuple):
    thresholds: QuadrantThresholds
    assignments: list[QuadrantAssignment]  # ordered by author_id
    community: GroupShares
    by_area: dict[str, GroupShares] | None  # None without cluster metadata


def assign_group(thresholds: QuadrantThresholds, production: int, focus: Fraction) -> str:
    high_p = thresholds.high_production(production)
    high_f = thresholds.high_focus(focus)
    if high_p:
        return "specialist" if high_f else "casual"
    return "interested" if high_f else "incidental"


def classify_authors(
    profiles: dict[str, AuthorProfile],
    thresholds: QuadrantThresholds,
    *,
    corpus: Corpus | None = None,
    index: TopicIndex | None = None,
) -> ClassificationResult:
    """Assign every author a group; share tables per community and per area.

    Area shares need the corpus's cluster metadata and the topic index, which
    locates each author's clustered topic publications; an author counts once
    in every area where they have one. Without cluster metadata by_area is None.
    """
    assignments = []
    counts = {g: 0 for g in GROUPS}
    for author_id in sorted(profiles):
        p = profiles[author_id]
        group = assign_group(thresholds, p.production_total, p.focus_overall)
        counts[group] += 1
        assignments.append(QuadrantAssignment(author_id, group, p.production_total, p.focus_overall))
    community = GroupShares(total=len(assignments), counts=counts)

    by_area: dict[str, GroupShares] | None = None
    if corpus is not None and corpus.clusters and index is not None:
        group_of = {a.author_id: a.group for a in assignments}
        by_area = {}
        for area, authors in sorted(index.area_authors(corpus.clusters).items()):
            tally = Counter(map(group_of.__getitem__, authors))
            by_area[area] = GroupShares(total=len(authors), counts={g: tally[g] for g in GROUPS})
    return ClassificationResult(thresholds, assignments, community, by_area)
