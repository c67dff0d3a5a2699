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

Cutoffs are exact, and the work is done once per distinct value: authors
hold few distinct (production, focus) values, so the values are tallied,
only the distinct ones are ordered, and the nearest rank is found from the
running counts. Each group is decided once per distinct pair.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, _count_elements
from fractions import Fraction
from itertools import accumulate, starmap
from operator import attrgetter, truediv
from typing import Iterable, NamedTuple

from .cohorts import TopicIndex
from .corpus import Corpus, Record
from .indicators import AuthorProfile
from .rounding import Rational, percent, ratio_key

GROUPS = ("specialist", "interested", "casual", "incidental")

PROMOTE = "promote"
STRICT = "strict"
INCLUSIVE = "inclusive"

RULES = (PROMOTE, STRICT, INCLUSIVE)

_production = attrgetter("production_total")
_focus = attrgetter("focus_overall")


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


def _resolve_one(keyed: Iterable[tuple[float, Rational, int]], indicator: str,
                 rule: str) -> CutTrace:
    """The cutoff of a distribution given as one (float, exact value, number
    of authors) triple per distinct value."""
    # the float is correctly rounded, so it never reverses an order; distinct
    # values that share a float are ordered by the exact comparison that the
    # tuple order falls back to
    ordered = sorted(keyed)
    if len(ordered) == 1:
        raise DegenerateDistributionError(indicator, ordered[0][1])
    running = list(accumulate(n for _, _, n in ordered))
    rank = (3 * running[-1] + 3) // 4  # nearest rank ceil(0.75 n), 1-based
    i = bisect_left(running, rank)
    promoted = rule == PROMOTE and i == 0
    raw, cutoff = ordered[i][1], ordered[1 if promoted else i][1]
    return CutTrace(raw_percentile=Fraction(raw), cutoff=Fraction(cutoff), promoted=promoted)


def resolve_thresholds(
    profiles: dict[str, AuthorProfile],
    rule: str = PROMOTE,
) -> QuadrantThresholds:
    """Resolve both cutoffs over the author distribution."""
    if not profiles:
        raise ValueError("cannot resolve thresholds without profiles")
    check_rule(rule)
    items = profiles.values()
    productions: dict[int, int] = {}
    _count_elements(productions, map(_production, items))
    ratios: dict[tuple[int, int], int] = {}
    _count_elements(ratios, map(ratio_key, map(_focus, items)))
    production = _resolve_one(zip(map(float, productions), productions, productions.values()),
                              "production", rule)
    # n / d of ints is correctly rounded too
    focus = _resolve_one(zip(starmap(truediv, ratios), starmap(Fraction, ratios), ratios.values()),
                         "focus", rule)
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
    decided: dict[tuple, str] = {}  # (production, focus ratio) -> group
    for author_id in sorted(profiles):
        p = profiles[author_id]
        production, focus = p.production_total, p.focus_overall
        key = (production, ratio_key(focus))
        group = decided.get(key)
        if group is None:
            group = decided[key] = assign_group(thresholds, production, focus)
        counts[group] += 1
        assignments.append(QuadrantAssignment(author_id, group, production, focus))
    community = GroupShares(total=len(assignments), counts=counts)

    by_area: dict[str, GroupShares] | None = None
    if corpus is not None and corpus.clusters and index is not None:
        group_of = {a.author_id: a.group for a in assignments}
        by_area = {}
        for area, authors in sorted(index.area_authors(corpus.clusters).items()):
            tally = Counter(map(group_of.__getitem__, authors))
            by_area[area] = GroupShares(total=len(authors), counts={g: tally[g] for g in GROUPS})
    return ClassificationResult(thresholds, assignments, community, by_area)
