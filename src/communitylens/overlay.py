"""Cluster-level and area-level aggregation of topic authors for map overlays.

Clusters use full counting: an author with clustered topic publications in k
clusters contributes to all k rows. Area rollups deduplicate within an area
(an author counts once per area however many of its clusters they touch) and
report both conventions side by side.

Both take the topic index, the author profiles and the stay status of every
clustered topic author, which stay_status() computes once for both. The
stayer share of a cluster pools entry years from the horizon start through
H = horizon_end - stay_window: among the cluster's topic authors entering by
H, the percentage who stayed, by the community-level rule cohorts.stays().
Entry and stayer status are community facts; the cluster only scopes whose
entries are pooled.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .cohorts import check_stay_window, stays
from .corpus import Corpus, TopicIndex
from .indicators import AuthorProfile
from .rounding import mean, mean_exact, percent


class ClusterOverlayRow(NamedTuple):
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


class AreaRollup(NamedTuple):
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


def _warn(message: str, *args) -> None:
    """Log a warning; only a run that warns pays for importing logging."""
    import logging

    logging.getLogger(__name__).warning(message, *args)


def stay_status(
    corpus: Corpus, index: TopicIndex, profiles: dict[str, AuthorProfile], stay_window: int
) -> dict[str, bool | None]:
    """stays() of every author with a clustered topic publication."""
    check_stay_window(stay_window)
    horizon_end = corpus.horizon[1]
    status = {}
    for author in set().union(*index.clusters.values()):
        p = profiles[author]
        status[author] = stays(p.topic_counts, p.entry_year, stay_window, horizon_end)
    return status


def _pooled_stay(group: list[AuthorProfile], status: dict[str, bool | None]) -> Fraction | None:
    """Percentage of the group's authors entering by H who stayed; None when
    none entered by H."""
    decided = [status[p.author_id] for p in group]
    eligible = len(decided) - decided.count(None)
    if not eligible:
        return None
    return percent(decided.count(True), eligible)


def _int_sums(group: list[AuthorProfile]) -> tuple[int, int, int]:
    """The group's sums of first year, entry year and production, as ints."""
    first = entry = production = 0
    for p in group:
        first += p.first_year
        entry += p.entry_year
        production += p.production_total
    return first, entry, production


def cluster_overlay(
    corpus: Corpus,
    index: TopicIndex,
    profiles: dict[str, AuthorProfile],
    status: dict[str, bool | None],
) -> list[ClusterOverlayRow]:
    """One row per cluster holding at least one clustered topic publication;
    status is stay_status() of the same index and profiles."""
    if not corpus.clusters:
        raise ValueError("cluster metadata is required for overlays")
    rows = []
    for cluster_id in sorted(index.clusters):
        meta = corpus.clusters[cluster_id]
        group = [profiles[a] for a in index.clusters[cluster_id]]
        n = len(group)
        conflict = n > meta.total_authors
        if conflict:
            _warn(
                "cluster %s: %d topic authors exceed total_authors=%d (metadata conflict)",
                cluster_id, n, meta.total_authors,
            )
        if meta.total_authors == 0:
            _warn("cluster %s: total_authors is 0, p_au omitted", cluster_id)
            p_au = None
        else:
            p_au = percent(n, meta.total_authors)
        first, entry, production = _int_sums(group)
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
                p_stay=_pooled_stay(group, status),
                mean_first_year=mean(first, n),
                mean_entry_year=mean(entry, n),
                mean_production=mean(production, n),
                mean_focus=mean_exact(p.focus_overall for p in group),
                metadata_conflict=conflict,
            )
        )
    return rows


def area_rollup(
    overlay_rows: list[ClusterOverlayRow],
    *,
    corpus: Corpus,
    index: TopicIndex,
    profiles: dict[str, AuthorProfile],
    status: dict[str, bool | None],
) -> list[AreaRollup]:
    """Aggregate overlay rows per research area (deduplicating authors);
    status is stay_status() of the same index and profiles."""
    area_rows: dict[str, list[ClusterOverlayRow]] = {}
    for row in overlay_rows:
        area_rows.setdefault(row.area, []).append(row)
    area_authors = index.area_authors(corpus.clusters)
    rollups = []
    for area in sorted(area_rows):
        rows = area_rows[area]
        group = [profiles[a] for a in area_authors[area]]
        candidates = [r for r in rows if r.p_au is not None]
        # ties on p_au resolve to the smallest cluster_id
        top = min(candidates, key=lambda r: (-r.p_au, r.cluster_id)) if candidates else None
        n = len(group)
        first, entry, _ = _int_sums(group)
        rollups.append(
            AreaRollup(
                area=area,
                n_clusters=len(rows),
                n_authors=n,
                n_authors_full=sum(r.n_topic_authors for r in rows),
                avg_p_au=mean_exact(r.p_au for r in candidates),
                avg_p_stay=mean_exact(r.p_stay for r in rows if r.p_stay is not None),
                pooled_p_stay=_pooled_stay(group, status),
                mean_first_year=mean(first, n),
                mean_entry_year=mean(entry, n),
                mean_lag=mean(entry - first, n),  # entry_lag is entry_year - first_year
                top_cluster_id=None if top is None else top.cluster_id,
                top_cluster_label=None if top is None else top.label,
                top_cluster_p_au=None if top is None else top.p_au,
            )
        )
    return rollups

