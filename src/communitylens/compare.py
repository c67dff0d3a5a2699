"""One community's report path, and side-by-side two-community reports.

A CommunitySide holds one community's reports, None for each that the run
does not build. The topic subcommands and both sides of compare() build
through build_side (cohort series, author profiles, indicator summaries,
production bands) and classify_side, and emit through side_files, so each
side of a comparison is the standalone run, with identical configuration.
Authors active in both communities are analyzed independently on each side
and counted in the overlap; on one corpus, their horizon career total is
summed once (Corpus.horizon_totals). Difference tables subtract side b from
side a cell by cell in exact arithmetic before rounding.
"""

from __future__ import annotations

from typing import Collection, NamedTuple

from .classify import (
    PROMOTE,
    ClassificationResult,
    DegenerateDistributionError,
    QuadrantThresholds,
    check_rule,
    classify_authors,
    resolve_thresholds,
)
from .cohorts import (
    NEW_AUTHORS,
    TopicIndex,
    UnknownTopicError,
    YearCohorts,
    check_denominator,
    cohort_series,
    topic_activity,
)
from .corpus import Corpus
from .indicators import (
    TOTAL_RATIO,
    AuthorProfile,
    ProductionBand,
    YearIndicatorSummary,
    author_profiles,
    check_focus_mode,
    production_bands,
    year_summaries,
)
from .reports import (
    BAND_DIFFERENCE_COLUMNS,
    BOTH_STAY_COLUMNS,
    COHORT_COLUMNS,
    INDICATOR_COLUMNS,
    QUADRANT_SUMMARY_COLUMNS,
    emit_bands_csv,
    emit_cohorts_csv,
    emit_difference_csv,
    emit_fields_csv,
    emit_indicators_csv,
    emit_quadrant_authors_csv,
    emit_quadrant_summary_csv,
    emit_thresholds_json,
    quadrant_rows,
)


class CommunitySide(NamedTuple):
    """One community's reports; a report that the run does not build is None."""

    topic: str
    index: TopicIndex
    cohort_rows: list[YearCohorts] | None = None
    profiles: dict[str, AuthorProfile] | None = None
    summaries: list[YearIndicatorSummary] | None = None
    bands: list[ProductionBand] | None = None
    classification: ClassificationResult | None = None
    classification_note: str | None = None  # why compare left classification None

    @property
    def n_authors(self) -> int:
        return len(self.index)


class ComparisonReport(NamedTuple):
    side_a: CommunitySide
    side_b: CommunitySide
    overlap: int  # authors present in both communities


def build_side(corpus: Corpus, topic: str, index: TopicIndex, stay_window: int,
               stay_denominator: str, focus_mode: str) -> CommunitySide:
    """The indicators run of one topic, whose index is `index`."""
    rows = cohort_series(corpus, topic, stay_window, stay_denominator)
    profiles = author_profiles(corpus, topic, focus_mode)
    summaries = year_summaries(corpus, topic, profiles=profiles)
    return CommunitySide(topic, index, rows, profiles, summaries, production_bands(profiles))


def classify_side(side: CommunitySide, corpus: Corpus, thresholds: QuadrantThresholds | None,
                  note: str | None = None) -> CommunitySide:
    """The side's profiles classified; without thresholds, `note` says why not."""
    if thresholds is None:
        return side._replace(classification_note=note)
    result = classify_authors(side.profiles, thresholds, corpus=corpus, index=side.index)
    return side._replace(classification=result)


def _thresholds_or_note(
    profiles: dict[str, AuthorProfile] | Collection[AuthorProfile], rule: str
) -> tuple[QuadrantThresholds | None, str | None]:
    try:
        return resolve_thresholds(profiles, rule), None
    except DegenerateDistributionError as exc:
        return None, str(exc)


def compare(
    corpus: Corpus,
    topic_a: str,
    topic_b: str,
    corpus_b: Corpus | None = None,
    *,
    stay_window: int = 2,
    stay_denominator: str = NEW_AUTHORS,
    threshold_rule: str = PROMOTE,
    focus_mode: str = TOTAL_RATIO,
    pooled_thresholds: bool = False,
) -> ComparisonReport:
    """Build side a, then side b; topic_b reads from corpus_b when given.

    Each corpus must have indexed the topic it serves (load_corpus's
    ``topics``); a same-corpus comparison indexes both in one load. A side
    whose cutoffs are degenerate is left unclassified with a note.
    """
    check_denominator(stay_denominator)
    check_rule(threshold_rule)
    check_focus_mode(focus_mode)
    corpora = (corpus, corpus if corpus_b is None else corpus_b)
    sides = []
    for side_corpus, topic in zip(corpora, (topic_a, topic_b)):
        index = topic_activity(side_corpus, topic)
        if not index:
            raise UnknownTopicError(topic)
        sides.append(build_side(side_corpus, topic, index, stay_window, stay_denominator, focus_mode))

    if pooled_thresholds:
        # Authors in both communities carry per-topic values; pooling feeds
        # both value sets into one cutoff resolution.
        pooled = [*sides[0].profiles.values(), *sides[1].profiles.values()]
        cuts = [_thresholds_or_note(pooled, threshold_rule)] * 2
    else:
        cuts = [_thresholds_or_note(side.profiles, threshold_rule) for side in sides]
    side_a, side_b = (classify_side(side, side_corpus, *cut)
                      for side, side_corpus, cut in zip(sides, corpora, cuts))
    return ComparisonReport(side_a, side_b, len(side_a.profiles.keys() & side_b.profiles.keys()))


# --- difference tables -------------------------------------------------------


def diff_cohorts_csv(rows_a: list[YearCohorts], rows_b: list[YearCohorts]) -> str:
    return emit_difference_csv(rows_a, rows_b, COHORT_COLUMNS + BOTH_STAY_COLUMNS, keys=0)


def diff_indicators_csv(
    sums_a: list[YearIndicatorSummary], sums_b: list[YearIndicatorSummary]
) -> str:
    return emit_difference_csv(sums_a, sums_b, INDICATOR_COLUMNS, keys=1)


def diff_bands_csv(bands_a: list[ProductionBand], bands_b: list[ProductionBand]) -> str:
    return emit_difference_csv(bands_a, bands_b, BAND_DIFFERENCE_COLUMNS, keys=1)


def diff_quadrants_csv(
    res_a: ClassificationResult | None, res_b: ClassificationResult | None
) -> str:
    """Community rows, then the union of both sides' areas in name order;
    header only when either side has no classification."""
    if res_a is None or res_b is None:
        return emit_difference_csv([], [], QUADRANT_SUMMARY_COLUMNS, keys=3)
    areas = sorted(set(res_a.by_area or ()) | set(res_b.by_area or ()))
    return emit_difference_csv(
        quadrant_rows(res_a, areas), quadrant_rows(res_b, areas), QUADRANT_SUMMARY_COLUMNS, keys=3
    )


def side_files(side: CommunitySide, *, raw: bool = False, prefix: str = "",
               both_stay_denominators: bool = False) -> dict[str, str]:
    """Every report the side holds as {prefix + filename: content}."""
    files: dict[str, str] = {}
    if side.cohort_rows is not None:
        files["cohorts.csv"] = emit_cohorts_csv(side.cohort_rows, raw=raw,
                                                both_stay_denominators=both_stay_denominators)
    if side.summaries is not None:
        files["indicators.csv"] = emit_indicators_csv(side.summaries, raw=raw)
    if side.bands is not None:
        files["bands.csv"] = emit_bands_csv(side.bands, raw=raw)
    if side.classification is not None:
        files["quadrant_authors.csv"] = emit_quadrant_authors_csv(
            side.profiles, side.classification.groups, raw=raw)
        files["quadrant_summary.csv"] = emit_quadrant_summary_csv(side.classification, raw=raw)
        files["thresholds.json"] = emit_thresholds_json(side.classification)
    return {prefix + name: text for name, text in files.items()}


def comparison_files(report: ComparisonReport, *, raw: bool = False) -> dict[str, str]:
    """Render the comparison run as {filename: content} for staged emission."""
    a, b = report.side_a, report.side_b
    files = (side_files(a, raw=raw, prefix="a_", both_stay_denominators=True)
             | side_files(b, raw=raw, prefix="b_", both_stay_denominators=True))
    files["diff_cohorts.csv"] = diff_cohorts_csv(a.cohort_rows, b.cohort_rows)
    files["diff_indicators.csv"] = diff_indicators_csv(a.summaries, b.summaries)
    files["diff_bands.csv"] = diff_bands_csv(a.bands, b.bands)
    files["diff_quadrant_summary.csv"] = diff_quadrants_csv(a.classification, b.classification)

    fields = [
        ("topic_a", a.topic),
        ("topic_b", b.topic),
        ("n_authors_a", a.n_authors),
        ("n_authors_b", b.n_authors),
        ("overlap", report.overlap),
    ]
    for prefix, side in (("a", a), ("b", b)):
        if side.classification_note:
            fields.append((f"classification_note_{prefix}", side.classification_note))
    files["summary.csv"] = emit_fields_csv(fields)
    return files
