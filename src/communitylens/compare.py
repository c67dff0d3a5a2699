"""Side-by-side two-community reports.

Each side runs the standalone pipeline (cohort series, indicator summaries,
production bands, quadrant classification) with identical configuration,
from one topic index and one set of author profiles per side;
authors active in both communities are analyzed independently on each side
and counted in the overlap. When both topics come from one corpus, an author
in both has their horizon career total summed once (Corpus.horizon_totals).
Difference tables subtract side b from side a cell by cell in exact
arithmetic before rounding.
"""

from __future__ import annotations

from typing import NamedTuple

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
    topic: str
    index: TopicIndex
    n_authors: int
    cohort_rows: list[YearCohorts]
    summaries: list[YearIndicatorSummary]
    bands: list[ProductionBand]
    profiles: dict[str, AuthorProfile]
    classification: ClassificationResult | None = None
    classification_note: str | None = None  # why classification is None


class ComparisonReport(NamedTuple):
    side_a: CommunitySide
    side_b: CommunitySide
    overlap: int  # authors present in both communities


def _build_side(
    corpus: Corpus,
    topic: str,
    stay_window: int,
    stay_denominator: str,
    focus_mode: str,
) -> CommunitySide:
    """Every report of one side but its classification, which compare adds."""
    index = topic_activity(corpus, topic)
    if not index:
        raise UnknownTopicError(topic)
    rows = cohort_series(corpus, topic, stay_window, stay_denominator)
    profiles = author_profiles(corpus, topic, focus_mode)
    summaries = year_summaries(corpus, topic, profiles=profiles)
    bands = production_bands(profiles)
    return CommunitySide(topic, index, len(profiles), rows, summaries, bands, profiles)


def _thresholds_or_note(
    profiles: dict[str, AuthorProfile], rule: str
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
    ``topics``); a same-corpus comparison indexes both in one load.
    """
    check_denominator(stay_denominator)
    check_rule(threshold_rule)
    check_focus_mode(focus_mode)
    other = corpus_b if corpus_b is not None else corpus
    side_a = _build_side(corpus, topic_a, stay_window, stay_denominator, focus_mode)
    side_b = _build_side(other, topic_b, stay_window, stay_denominator, focus_mode)

    if pooled_thresholds:
        # Authors in both communities carry per-topic values; pooling feeds
        # both value sets into one cutoff resolution.
        pooled = {(name, author_id): profile
                  for name, side in (("a", side_a), ("b", side_b))
                  for author_id, profile in side.profiles.items()}
        cuts = [_thresholds_or_note(pooled, threshold_rule)] * 2
    else:
        cuts = [_thresholds_or_note(side.profiles, threshold_rule) for side in (side_a, side_b)]
    sides = []
    for (side, cp), (thresholds, note) in zip(((side_a, corpus), (side_b, other)), cuts):
        classification = None
        if thresholds is not None:
            classification = classify_authors(side.profiles, thresholds, corpus=cp, index=side.index)
        sides.append(side._replace(classification=classification, classification_note=note))
    side_a, side_b = sides

    overlap = len(side_a.profiles.keys() & side_b.profiles.keys())
    return ComparisonReport(side_a, side_b, overlap)


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


def comparison_files(report: ComparisonReport, *, raw: bool = False) -> dict[str, str]:
    """Render the comparison run as {filename: content} for staged emission."""
    files: dict[str, str] = {}
    for prefix, side in (("a", report.side_a), ("b", report.side_b)):
        files[f"{prefix}_cohorts.csv"] = emit_cohorts_csv(
            side.cohort_rows, raw=raw, both_stay_denominators=True
        )
        files[f"{prefix}_indicators.csv"] = emit_indicators_csv(side.summaries, raw=raw)
        files[f"{prefix}_bands.csv"] = emit_bands_csv(side.bands, raw=raw)
        if side.classification is not None:
            files[f"{prefix}_quadrant_authors.csv"] = emit_quadrant_authors_csv(
                side.classification, raw=raw
            )
            files[f"{prefix}_quadrant_summary.csv"] = emit_quadrant_summary_csv(
                side.classification, raw=raw
            )
            files[f"{prefix}_thresholds.json"] = emit_thresholds_json(side.classification)
    files["diff_cohorts.csv"] = diff_cohorts_csv(report.side_a.cohort_rows, report.side_b.cohort_rows)
    files["diff_indicators.csv"] = diff_indicators_csv(report.side_a.summaries, report.side_b.summaries)
    files["diff_bands.csv"] = diff_bands_csv(report.side_a.bands, report.side_b.bands)
    files["diff_quadrant_summary.csv"] = diff_quadrants_csv(
        report.side_a.classification, report.side_b.classification
    )

    fields = [
        ("topic_a", report.side_a.topic),
        ("topic_b", report.side_b.topic),
        ("n_authors_a", report.side_a.n_authors),
        ("n_authors_b", report.side_b.n_authors),
        ("overlap", report.overlap),
    ]
    for prefix, side in (("a", report.side_a), ("b", report.side_b)):
        if side.classification_note:
            fields.append((f"classification_note_{prefix}", side.classification_note))
    files["summary.csv"] = emit_fields_csv(fields)
    return files
