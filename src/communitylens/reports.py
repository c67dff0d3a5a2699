"""Deterministic report emission.

Every CSV report is described once, as a tuple of (column name, getter)
pairs plus the names of the columns that `raw` repeats at full precision as
NAME_raw. One table writer renders every CSV file from those tuples,
compare's difference tables included. Emitters return the complete file
content as a string so callers can stage a whole run and write it atomically
(temp file + rename, manifest last). Percentages and mean years are exact
rationals rounded half-up to one decimal at this boundary. Files use LF line
endings and UTF-8 unconditionally, and never embed timestamps, so reruns are
byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import os
from fractions import Fraction
from operator import attrgetter, itemgetter, methodcaller
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import __version__
from .classify import GROUPS, ClassificationResult
from .cohorts import ALL_AUTHORS, NEW_AUTHORS, YearCohorts
from .indicators import AuthorProfile, ProductionBand, YearIndicatorSummary
from .rounding import format_fixed, ratio_key

Columns = tuple[tuple[str, Callable[[object], object]], ...]

COLOR_METRICS = ("p_au", "p_stay")


def cell(value) -> str:
    """Report cell: rationals rounded half-up to one decimal, floats (computed
    statistics such as focus_ci95) to two; None (absent / undetermined) is an
    empty cell."""
    kind = type(value)
    if kind is Fraction:
        return format_fixed(value, 1)
    if kind is int or kind is str:
        return str(value)
    if value is None:
        return ""
    if kind is float:
        return f"{value:.2f}"
    raise TypeError(f"{kind.__name__} has no report representation")


def raw_cell(value) -> str:
    """Full-precision cell: a rational as the nearest float."""
    if value is None:
        return ""
    return repr(float(value) if type(value) is Fraction else value)


def _columns(*specs: str | tuple[str, str | Callable]) -> Columns:
    """Column tuple; a bare name reads the attribute of that name, a string
    getter reads the attribute it names."""
    pairs = [(spec, spec) if isinstance(spec, str) else spec for spec in specs]
    return tuple((name, attrgetter(get) if isinstance(get, str) else get) for name, get in pairs)


def _coordinate(name: str) -> Callable:
    """Cluster coordinate as given in clusters.csv; cell() would round it."""
    get = attrgetter(name)

    def text(row) -> str | None:
        value = get(row)
        return None if value is None else repr(value)

    return text


COHORT_COLUMNS = _columns(
    ("N_AU", "n_all"), ("N_old", "n_old"), ("N_new", "n_new"), ("N_newborn", "n_newborn"),
    ("N_stay", "n_stay"), ("P_old", "percent_old"), ("P_new", "percent_new"),
    ("P_newborn", "percent_newborn"), ("P_stay", methodcaller("percent_stay")),
)
# comparison runs show the series of both stay denominators side by side
BOTH_STAY_COLUMNS = _columns(
    ("P_stay_new", methodcaller("percent_stay", NEW_AUTHORS)),
    ("P_stay_all", methodcaller("percent_stay", ALL_AUTHORS)),
)
COHORT_RAW = ("P_old", "P_new", "P_newborn", "P_stay")

INDICATOR_COLUMNS = _columns(
    "year", ("n_authors", "n_active"), "n_new", "n_old",
    ("mean_yfp", "mean_first_year_all"), ("mean_yfp_new", "mean_first_year_new"),
    ("mean_yfp_old", "mean_first_year_old"), ("mean_yfp_topic", "mean_entry_year"),
    "mean_production", "mean_focus", "focus_ci95",
)
INDICATOR_RAW = ("mean_yfp", "mean_yfp_topic", "mean_production", "mean_focus")

BAND_COLUMNS = _columns(("band", "label"), "low", "high", "n_authors", "share", "mean_focus")
BAND_RAW = ("share", "mean_focus")
# difference tables leave out the band limits
BAND_DIFFERENCE_COLUMNS = BAND_COLUMNS[:1] + BAND_COLUMNS[3:]

# quadrant author rows are profiles; emit_quadrant_authors_csv appends the group
QUADRANT_AUTHOR_COLUMNS = _columns("author_id", "production_total", "focus_overall")
QUADRANT_AUTHOR_RAW = ("focus_overall",)
# authors hold few distinct focus values
QUADRANT_AUTHOR_SHARED = ("focus_overall",)

# quadrant summary rows are (scope, area, group, n_authors, share) tuples
QUADRANT_SUMMARY_COLUMNS = tuple(
    (name, itemgetter(i)) for i, name in enumerate(("scope", "area", "group", "n_authors", "share"))
)
QUADRANT_SUMMARY_RAW = ("share",)

_CLUSTER_COLUMNS = _columns(
    "cluster_id", "label", "area", ("x", _coordinate("x")), ("y", _coordinate("y"))
)
OVERLAY_COLUMNS = _CLUSTER_COLUMNS + _columns(
    "n_topic_authors", "p_au", "p_stay", ("mean_yfp", "mean_first_year"),
    ("mean_yfp_topic", "mean_entry_year"), "mean_production", "mean_focus",
)
OVERLAY_RAW = ("p_au", "p_stay", "mean_yfp", "mean_yfp_topic", "mean_production", "mean_focus")

AREA_COLUMNS = _columns(
    "area", "n_clusters", "n_authors", "n_authors_full", "avg_p_au", "avg_p_stay",
    "pooled_p_stay", ("mean_yfp", "mean_first_year"), ("mean_yfp_topic", "mean_entry_year"),
    "mean_lag", "top_cluster_id", "top_cluster_label", "top_cluster_p_au",
)
AREA_RAW = ("avg_p_au", "avg_p_stay", "pooled_p_stay", "mean_lag")

FIELD_COLUMNS = (("field", itemgetter(0)), ("value", itemgetter(1)))


def _table(rows: Iterable, columns: Columns, raw: Sequence[str] = (),
           shared: Sequence[str] = ()) -> str:
    """CSV text: the column names, then one line of cells per row.

    Each name in `raw` repeats that column at full precision as NAME_raw.
    Each name in `shared` is a column of rationals that rows share: its cells
    are formatted once per distinct value, keyed by the exact ratio_key.
    """
    rows = list(rows)
    values = {name: list(map(get, rows)) for name, get in columns}
    cells = []
    for fmt, name in [(cell, name) for name, _ in columns] + [(raw_cell, name) for name in raw]:
        if name in shared:
            keys = list(map(ratio_key, values[name]))
            text = {key: fmt(value) for key, value in dict(zip(keys, values[name])).items()}
            cells.append(map(text.__getitem__, keys))
        else:
            cells.append(map(fmt, values[name]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([name for name, _ in columns] + [f"{name}_raw" for name in raw])
    writer.writerows(zip(*cells))
    return buf.getvalue()


def emit_cohorts_csv(
    rows: Sequence[YearCohorts],
    *,
    raw: bool = False,
    both_stay_denominators: bool = False,
) -> str:
    """Cohort series CSV; one row per horizon year, in year order.

    The pinned columns carry the configured stay denominator; the comparison
    variant appends both denominator series side by side.
    """
    columns = COHORT_COLUMNS + (BOTH_STAY_COLUMNS if both_stay_denominators else ())
    return _table(rows, columns, COHORT_RAW if raw else ())


def emit_indicators_csv(summaries: Sequence[YearIndicatorSummary], *, raw: bool = False) -> str:
    return _table(summaries, INDICATOR_COLUMNS, INDICATOR_RAW if raw else ())


def emit_bands_csv(bands: Sequence[ProductionBand], *, raw: bool = False) -> str:
    return _table(bands, BAND_COLUMNS, BAND_RAW if raw else ())


def emit_quadrant_authors_csv(profiles: dict[str, AuthorProfile], groups: dict[str, str], *,
                              raw: bool = False) -> str:
    """One row per profile, in the profiles' order, with the group that
    ``groups`` (ClassificationResult.groups) gives its author."""
    columns = QUADRANT_AUTHOR_COLUMNS + (("group", lambda p: groups[p.author_id]),)
    return _table(profiles.values(), columns, QUADRANT_AUTHOR_RAW if raw else (),
                  QUADRANT_AUTHOR_SHARED)


def quadrant_rows(result: ClassificationResult, areas: Iterable[str]) -> list[tuple]:
    """Community rows, then area rows in the given order; an area the result
    does not have gets blank counts and shares."""
    by_area = result.by_area or {}
    scopes = [("community", "", result.community)]
    scopes += [("area", area, by_area.get(area)) for area in areas]
    return [
        (scope, area, group, None, None) if shares is None
        else (scope, area, group, shares.counts[group], shares.share(group))
        for scope, area, shares in scopes
        for group in GROUPS
    ]


def emit_quadrant_summary_csv(result: ClassificationResult, *, raw: bool = False) -> str:
    rows = quadrant_rows(result, result.by_area or ())
    return _table(rows, QUADRANT_SUMMARY_COLUMNS, QUADRANT_SUMMARY_RAW if raw else ())


def emit_thresholds_json(result: ClassificationResult) -> str:
    t = result.thresholds
    obj = {
        "rule": t.rule,
        "production_cutoff": t.production_cutoff,
        "focus_cutoff": float(t.focus_cutoff),
        "focus_cutoff_exact": str(t.focus_cutoff),
        "production_trace": {
            "raw_percentile": float(t.production_trace.raw_percentile),
            "cutoff": float(t.production_trace.cutoff),
            "promoted": t.production_trace.promoted,
        },
        "focus_trace": {
            "raw_percentile": float(t.focus_trace.raw_percentile),
            "cutoff": float(t.focus_trace.cutoff),
            "promoted": t.focus_trace.promoted,
        },
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def emit_overlay_csv(rows: Iterable, *, raw: bool = False) -> str:
    """Cluster overlay CSV in the pinned column order."""
    return _table(rows, OVERLAY_COLUMNS, OVERLAY_RAW if raw else ())


def emit_areas_csv(rollups: Iterable, *, raw: bool = False) -> str:
    return _table(rollups, AREA_COLUMNS, AREA_RAW if raw else ())


def _color(metric: str) -> Callable:
    if metric not in COLOR_METRICS:
        raise ValueError(f"color metric must be one of {list(COLOR_METRICS)}, got {metric!r}")
    return attrgetter(metric)


def emit_map_csv(rows: Iterable, color_metric: str = "p_au") -> str:
    """Map overlay: the cluster columns, size (n_topic_authors) and color
    (the chosen metric); rows without coordinates keep empty x/y cells."""
    color = _color(color_metric)
    return _table(rows, _CLUSTER_COLUMNS + _columns(("size", "n_topic_authors"), ("color", color)))


def emit_map_json(rows: Iterable, color_metric: str = "p_au") -> str:
    get_color = _color(color_metric)
    out = []
    for r in rows:
        color = get_color(r)
        out.append(
            {
                "cluster_id": r.cluster_id,
                "label": r.label,
                "area": r.area,
                "x": r.x,
                "y": r.y,
                "size": r.n_topic_authors,
                "color": None if color is None else float(format_fixed(color, 1)),
            }
        )
    return json.dumps(out, indent=2) + "\n"


def _side_a(get: Callable) -> Callable:
    return lambda pair: get(pair[0])


def _minus(get: Callable) -> Callable:
    def difference(pair):
        a, b = get(pair[0]), get(pair[1])
        return None if a is None or b is None else a - b

    return difference


def emit_difference_csv(rows_a: Sequence, rows_b: Sequence, columns: Columns, keys: int) -> str:
    """Side a minus side b, row by row and cell by cell, in exact arithmetic.

    The first `keys` columns name the row and are copied from side a. A cell
    that is absent (None) on either side is blank.
    """
    if len(rows_a) != len(rows_b):
        raise ValueError(
            f"sides have {len(rows_a)} and {len(rows_b)} rows; they must share a horizon"
        )
    differences = tuple(
        (name, _side_a(get) if i < keys else _minus(get)) for i, (name, get) in enumerate(columns)
    )
    return _table(zip(rows_a, rows_b), differences)


def emit_fields_csv(fields: Iterable[tuple[str, object]]) -> str:
    """Two-column field,value CSV."""
    return _table(fields, FIELD_COLUMNS)


# --- atomic run emission ------------------------------------------------------


def sha256_text(text: str) -> str:
    import hashlib  # only a run that writes a manifest pays for OpenSSL at start-up

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: str | Path) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def build_manifest(
    subcommand: str,
    config: dict,
    inputs: dict[str, str | Path],
    outputs: dict[str, str],
) -> str:
    """Run manifest: configuration verbatim, digests of the input paths, and
    the outputs' digests as given (name -> sha256 hex)."""
    manifest = {
        "tool": "communitylens",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "inputs": {name: sha256_file(path) for name, path in sorted(inputs.items())},
        "outputs": outputs,
    }
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def write_run(out_dir: str | Path, files: dict[str, str]) -> None:
    """Write a run's files atomically: stage everything, then rename in order.

    A failure while staging leaves only .tmp files behind, which are removed;
    no partial report file ever appears under its final name.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # manifest.json renames last: its presence marks a complete run
    order = sorted(files, key=lambda name: (name == "manifest.json", name))
    staged: list[tuple[Path, Path]] = []
    try:
        for name in order:
            final = out / name
            tmp = out / (name + ".tmp")
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(files[name])
            staged.append((tmp, final))
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
    for tmp, final in staged:
        os.replace(tmp, final)
