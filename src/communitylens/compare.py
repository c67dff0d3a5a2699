"""Side-by-side two-community reports.

Each side runs the standalone pipeline (cohort series, indicator summaries,
production bands, quadrant classification) with identical configuration,
from one topic index and one set of author profiles per side;
authors active in both communities are analyzed independently on each side
and counted in the overlap. Difference tables subtract side b from side a
cell by cell in exact arithmetic before rounding.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

from .classify import (
    GROUPS,
    ClassificationResult,
    DegenerateDistributionError,
    classify_authors,
    resolve_thresholds,
    normalize_rule,
    PROMOTE,
)
from .cohorts import (
    ALL_AUTHORS,
    NEW_AUTHORS,
    TopicIndex,
    UnknownTopicError,
    YearCohorts,
    cohort_series,
    normalize_denominator,
    topic_activity,
)
from .corpus import Corpus
from .indicators import (
    TOTAL_RATIO,
    AuthorProfile,
    ProductionBand,
    YearIndicatorSummary,
    author_profiles,
    normalize_focus_mode,
    production_bands,
    year_summaries,
)
from .reports import (
    emit_bands_csv,
    emit_cohorts_csv,
    emit_indicators_csv,
    emit_quadrant_authors_csv,
    emit_quadrant_summary_csv,
    emit_thresholds_json,
)
from .rounding import format_fixed


@dataclass
class CommunitySide:
    topic: str
    index: TopicIndex
    n_authors: int
    cohort_rows: list[YearCohorts]
    summaries: list[YearIndicatorSummary]
    bands: list[ProductionBand]
    profiles: dict[str, AuthorProfile]
    classification: ClassificationResult | None
    classification_note: str | None


@dataclass
class ComparisonReport:
    side_a: CommunitySide
    side_b: CommunitySide
    overlap: int  # authors present in both communities


def _build_side(
    corpus: Corpus,
    topic: str,
    stay_window: int,
    stay_denominator: str,
    threshold_rule: str,
    focus_mode: str,
) -> CommunitySide:
    index = topic_activity(corpus, topic)
    if not index:
        raise UnknownTopicError(topic)
    rows = cohort_series(corpus, topic, stay_window, stay_denominator, index=index)
    profiles = author_profiles(corpus, topic, focus_mode, index=index)
    summaries = year_summaries(corpus, topic, profiles=profiles)
    bands = production_bands(profiles)
    classification = None
    note = None
    try:
        thresholds = resolve_thresholds(profiles, threshold_rule)
        classification = classify_authors(profiles, thresholds, corpus=corpus, index=index)
    except DegenerateDistributionError as exc:
        note = str(exc)
    return CommunitySide(
        topic, index, len(profiles), rows, summaries, bands, profiles, classification, note
    )


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
    """Build side a, then side b; topic_b reads from corpus_b when given."""
    stay_denominator = normalize_denominator(stay_denominator)
    threshold_rule = normalize_rule(threshold_rule)
    focus_mode = normalize_focus_mode(focus_mode)
    other = corpus_b if corpus_b is not None else corpus
    side_a = _build_side(corpus, topic_a, stay_window, stay_denominator, threshold_rule, focus_mode)
    side_b = _build_side(other, topic_b, stay_window, stay_denominator, threshold_rule, focus_mode)

    if pooled_thresholds:
        pooled = dict(side_a.profiles)
        # Authors in both communities carry per-topic values; pooling feeds
        # both value sets into one cutoff resolution.
        for author_id, profile in side_b.profiles.items():
            pooled[f"{author_id}\x00b"] = profile
        try:
            thresholds = resolve_thresholds(pooled, threshold_rule)
            for side, cp in ((side_a, corpus), (side_b, other)):
                side.classification = classify_authors(
                    side.profiles, thresholds, corpus=cp, index=side.index
                )
                side.classification_note = None
        except DegenerateDistributionError as exc:
            side_a.classification = side_b.classification = None
            side_a.classification_note = side_b.classification_note = str(exc)

    overlap = len(set(side_a.profiles) & set(side_b.profiles))
    return ComparisonReport(side_a, side_b, overlap)


# --- difference tables -------------------------------------------------------


def _dnum(a, b) -> str:
    """Difference cell: exact a - b, rounded at emission; blank when absent."""
    if a is None or b is None:
        return ""
    if isinstance(a, int) and isinstance(b, int):
        return str(a - b)
    return format_fixed(Fraction(a) - Fraction(b), 1)


def _dfloat(a: float | None, b: float | None) -> str:
    if a is None or b is None:
        return ""
    return f"{a - b:.2f}"


def _writer() -> tuple[io.StringIO, csv.writer]:
    buf = io.StringIO()
    return buf, csv.writer(buf, lineterminator="\n")


def diff_cohorts_csv(rows_a: list[YearCohorts], rows_b: list[YearCohorts]) -> str:
    if len(rows_a) != len(rows_b):
        raise ValueError("cohort series lengths differ; sides must share a horizon")
    buf, writer = _writer()
    writer.writerow(
        ["N_AU", "N_old", "N_new", "N_newborn", "N_stay",
         "P_old", "P_new", "P_newborn", "P_stay", "P_stay_new", "P_stay_all"]
    )
    for a, b in zip(rows_a, rows_b):
        writer.writerow(
            [
                a.n_all - b.n_all,
                a.n_old - b.n_old,
                a.n_new - b.n_new,
                a.n_newborn - b.n_newborn,
                _dnum(a.n_stay, b.n_stay),
                _dnum(a.percent_old, b.percent_old),
                _dnum(a.percent_new, b.percent_new),
                _dnum(a.percent_newborn, b.percent_newborn),
                _dnum(a.percent_stay(), b.percent_stay()),
                _dnum(a.percent_stay(NEW_AUTHORS), b.percent_stay(NEW_AUTHORS)),
                _dnum(a.percent_stay(ALL_AUTHORS), b.percent_stay(ALL_AUTHORS)),
            ]
        )
    return buf.getvalue()


def diff_indicators_csv(
    sums_a: list[YearIndicatorSummary], sums_b: list[YearIndicatorSummary]
) -> str:
    if len(sums_a) != len(sums_b):
        raise ValueError("indicator series lengths differ; sides must share a horizon")
    buf, writer = _writer()
    writer.writerow(
        ["year", "n_authors", "n_new", "n_old", "mean_yfp", "mean_yfp_new", "mean_yfp_old",
         "mean_yfp_topic", "mean_production", "mean_focus", "focus_ci95"]
    )
    for a, b in zip(sums_a, sums_b):
        writer.writerow(
            [
                a.year,
                a.n_active - b.n_active,
                a.n_new - b.n_new,
                a.n_old - b.n_old,
                _dnum(a.mean_first_year_all, b.mean_first_year_all),
                _dnum(a.mean_first_year_new, b.mean_first_year_new),
                _dnum(a.mean_first_year_old, b.mean_first_year_old),
                _dnum(a.mean_entry_year, b.mean_entry_year),
                _dnum(a.mean_production, b.mean_production),
                _dnum(a.mean_focus, b.mean_focus),
                _dfloat(a.focus_ci95, b.focus_ci95),
            ]
        )
    return buf.getvalue()


def diff_bands_csv(bands_a: list[ProductionBand], bands_b: list[ProductionBand]) -> str:
    buf, writer = _writer()
    writer.writerow(["band", "n_authors", "share", "mean_focus"])
    for a, b in zip(bands_a, bands_b):
        writer.writerow(
            [a.label, a.n_authors - b.n_authors, _dnum(a.share, b.share), _dnum(a.mean_focus, b.mean_focus)]
        )
    return buf.getvalue()


def diff_quadrants_csv(
    res_a: ClassificationResult | None, res_b: ClassificationResult | None
) -> str:
    buf, writer = _writer()
    writer.writerow(["scope", "area", "group", "n_authors", "share"])
    if res_a is None or res_b is None:
        return buf.getvalue()
    for group in GROUPS:
        writer.writerow(
            [
                "community",
                "",
                group,
                res_a.community.counts[group] - res_b.community.counts[group],
                _dnum(res_a.community.share(group), res_b.community.share(group)),
            ]
        )
    areas_a = res_a.by_area or {}
    areas_b = res_b.by_area or {}
    for area in sorted(set(areas_a) | set(areas_b)):
        sa, sb = areas_a.get(area), areas_b.get(area)
        for group in GROUPS:
            writer.writerow(
                [
                    "area",
                    area,
                    group,
                    "" if sa is None or sb is None else sa.counts[group] - sb.counts[group],
                    "" if sa is None or sb is None else _dnum(sa.share(group), sb.share(group)),
                ]
            )
    return buf.getvalue()


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

    buf, writer = _writer()
    writer.writerow(["field", "value"])
    writer.writerow(["topic_a", report.side_a.topic])
    writer.writerow(["topic_b", report.side_b.topic])
    writer.writerow(["n_authors_a", report.side_a.n_authors])
    writer.writerow(["n_authors_b", report.side_b.n_authors])
    writer.writerow(["overlap", report.overlap])
    if report.side_a.classification_note:
        writer.writerow(["classification_note_a", report.side_a.classification_note])
    if report.side_b.classification_note:
        writer.writerow(["classification_note_b", report.side_b.classification_note])
    files["summary.csv"] = buf.getvalue()
    return files
