"""Cluster-level and area-level aggregation of topic authors for map overlays.

Clusters use full counting: an author with clustered topic publications in k
clusters contributes to all k rows. Area rollups deduplicate within an area
(an author counts once per area however many of its clusters they touch) and
report both conventions side by side.

The stayer share of a cluster pools entry years from the horizon start
through H = horizon_end - stay_window: among the cluster's topic authors
entering by H, the percentage who are community-level stayers. Entry and
stayer status are community facts; the cluster only scopes whose entries are
pooled.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

from .cohorts import TopicIndex, YearCohorts
from .corpus import Corpus
from .indicators import AuthorProfile
from .rounding import mean_exact, percent

log = logging.getLogger(__name__)


@dataclass(slots=True)
class ClusterOverlayRow:
    cluster_id: str
    label: str
    area: str
    x: float | None
    y: float | None
    n_topic_authors: int
    total_authors: int
    p_au: Fraction | None  # None when total_authors is 0
    p_stay: Fraction | None  # None when no determined-entry authors
    mean_first_year: Fraction | None
    mean_entry_year: Fraction | None
    mean_production: Fraction | None
    mean_focus: Fraction | None
    metadata_conflict: bool  # n_topic_authors exceeds total_authors


@dataclass(slots=True)
class AreaRollup:
    area: str
    n_clusters: int
    n_authors: int  # deduplicated within the area
    n_authors_full: int  # sum of cluster counts (full counting)
    avg_p_au: Fraction | None  # unweighted mean over clusters with defined p_au
    avg_p_stay: Fraction | None
    pooled_p_stay: Fraction | None  # stayers / determined entrants over the area
    mean_first_year: Fraction | None
    mean_entry_year: Fraction | None
    mean_lag: Fraction | None
    top_cluster_id: str | None  # max p_au
    top_cluster_label: str | None
    top_cluster_p_au: Fraction | None


def _stay_context(cohort_rows: list[YearCohorts]) -> tuple[int, frozenset[str]]:
    """Last determined entry year H and the union of all determined stayers."""
    determined = [row for row in cohort_rows if row.stay_determined]
    if not determined:
        return (min(r.year for r in cohort_rows) - 1, frozenset())
    stayers: set[str] = set()
    for row in determined:
        stayers.update(row.stayers)  # type: ignore[arg-type]
    return (max(r.year for r in determined), frozenset(stayers))


def _pooled_stay(group: list[AuthorProfile], context: tuple[int, frozenset[str]]) -> Fraction | None:
    """Percentage of the group's authors entering by H who are stayers; None
    when none entered by H."""
    last_entry, stayers = context
    eligible = [p.author_id for p in group if p.entry_year <= last_entry]
    if not eligible:
        return None
    return percent(sum(a in stayers for a in eligible), len(eligible))


def cluster_overlay(
    corpus: Corpus,
    index: TopicIndex,
    profiles: dict[str, AuthorProfile],
    cohort_rows: list[YearCohorts],
) -> list[ClusterOverlayRow]:
    """One row per cluster holding at least one clustered topic publication."""
    if not corpus.clusters:
        raise ValueError("cluster metadata is required for overlays")
    stay = _stay_context(cohort_rows)
    members: dict[str, list[AuthorProfile]] = {}
    for author, cluster_ids in index.clusters.items():
        for cluster_id in cluster_ids:
            members.setdefault(cluster_id, []).append(profiles[author])
    rows = []
    for cluster_id in sorted(members):
        meta = corpus.clusters[cluster_id]
        group = members[cluster_id]
        n = len(group)
        conflict = n > meta.total_authors
        if conflict:
            log.warning(
                "cluster %s: %d topic authors exceed total_authors=%d (metadata conflict)",
                cluster_id, n, meta.total_authors,
            )
        if meta.total_authors == 0:
            log.warning("cluster %s: total_authors is 0, p_au omitted", cluster_id)
            p_au = None
        else:
            p_au = percent(n, meta.total_authors)
        rows.append(
            ClusterOverlayRow(
                cluster_id=cluster_id,
                label=meta.label,
                area=meta.area,
                x=meta.x,
                y=meta.y,
                n_topic_authors=n,
                total_authors=meta.total_authors,
                p_au=p_au,
                p_stay=_pooled_stay(group, stay),
                mean_first_year=mean_exact(p.first_year for p in group),
                mean_entry_year=mean_exact(p.entry_year for p in group),
                mean_production=mean_exact(p.production_total for p in group),
                mean_focus=mean_exact(p.focus_overall for p in group),
                metadata_conflict=conflict,
            )
        )
    return rows


def area_rollup(
    overlay_rows: list[ClusterOverlayRow],
    *,
    index: TopicIndex,
    profiles: dict[str, AuthorProfile],
    cohort_rows: list[YearCohorts],
) -> list[AreaRollup]:
    """Aggregate overlay rows per research area (deduplicating authors)."""
    stay = _stay_context(cohort_rows)
    area_rows: dict[str, list[ClusterOverlayRow]] = {}
    for row in overlay_rows:
        area_rows.setdefault(row.area, []).append(row)
    area_of = {row.cluster_id: row.area for row in overlay_rows}
    area_authors: dict[str, set[str]] = {area: set() for area in area_rows}
    for author, cluster_ids in index.clusters.items():
        for cluster_id in cluster_ids:
            area = area_of.get(cluster_id)
            if area is not None:
                area_authors[area].add(author)
    rollups = []
    for area in sorted(area_rows):
        rows = area_rows[area]
        group = [profiles[a] for a in area_authors[area]]
        candidates = [r for r in rows if r.p_au is not None]
        # ties on p_au resolve to the smallest cluster_id
        top = min(candidates, key=lambda r: (-r.p_au, r.cluster_id)) if candidates else None
        rollups.append(
            AreaRollup(
                area=area,
                n_clusters=len(rows),
                n_authors=len(group),
                n_authors_full=sum(r.n_topic_authors for r in rows),
                avg_p_au=mean_exact(r.p_au for r in candidates),
                avg_p_stay=mean_exact(r.p_stay for r in rows if r.p_stay is not None),
                pooled_p_stay=_pooled_stay(group, stay),
                mean_first_year=mean_exact(p.first_year for p in group),
                mean_entry_year=mean_exact(p.entry_year for p in group),
                mean_lag=mean_exact(p.entry_lag for p in group),
                top_cluster_id=None if top is None else top.cluster_id,
                top_cluster_label=None if top is None else top.label,
                top_cluster_p_au=None if top is None else top.p_au,
            )
        )
    return rollups

