"""Corpus loading, delineation, and canonical CSV writers.

A corpus couples three inputs:

* publications: JSONL, one record per line with fields
  pub_id (str), year (int), authors (non-empty list of str), and optional
  topic_flags (list of str), cluster_id, doc_type, title, abstract, keywords.
* careers: CSV in long format with header ``author_id,yfp,year,count`` giving
  each author's first publication year and full per-year output. Optional;
  when absent, careers are derived from the publication stream itself.
* clusters: CSV with header ``cluster_id,label,area,total_authors,x,y``
  describing the publication-level clustering and its map layout. Optional.

A loaded corpus is its careers, its cluster metadata and one TopicIndex per
topic named in ``topics``, built while the file is parsed; no publication
record is kept, since every indicator reduces over an author's per-year topic
counts. Of what a record parses to, the load keeps only what those hold: a
known cluster id is the metadata's own string, and author ids are not
interned, since no kept record would share them.

Records outside the analysis horizon are dropped at load (and counted), so
the indexes only ever hold within-horizon activity. Each author's per-year
record counts are taken before the horizon drop, so an author's first year and
totals reflect every parsed record. Supplied careers are checked against a
per-year tally of those counts (year -> author -> records), which takes one
C-level call per record; derived careers are the per-author counts
themselves, built one author at a time, with interned years. Each topic index
tallies its records the same way and becomes per-author counts once the file
is read.

Loading is the only corpus check. Every defect (undecodable or malformed
line, duplicate pub_id, missing or conflicting career) raises a CorpusError
that names the file and line, or the authors concerned; what the load
dropped or repaired is counted in its LoadReport. A Corpus that loaded is
therefore consistent. A Corpus can also be built by hand from its parts, with
nothing checked; for that case cohort_series() and author_profiles() still
raise MissingCareerError for a topic author without a career, and
author_profiles() raises CareerDataError for a career that undercounts a
topic year.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import _count_elements, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

# Canonical top-level research areas for cluster metadata.
RESEARCH_AREAS = (
    "Biomedical & Health Sciences",
    "Life & Earth Sciences",
    "Mathematics & Computer Science",
    "Physical Sciences & Engineering",
    "Social Sciences & Humanities",
)

DEFAULT_HORIZON = (2008, 2017)

_CAREERS_HEADER = ["author_id", "yfp", "year", "count"]
_CLUSTERS_HEADER = ["cluster_id", "label", "area", "total_authors", "x", "y"]

# A JSON escape of a UTF-16 surrogate, paired or not
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")

# json.loads without its per-call wrapper; the loader accepts its result only
# when nothing but the newline follows the value
_raw_decode = json.JSONDecoder().raw_decode

# Cap on per-item detail kept in reports and error messages; counts stay exact.
_SAMPLE_CAP = 50


class CorpusError(Exception):
    """Base class for defects in corpus inputs."""


class MalformedRecordError(CorpusError):
    def __init__(self, source: str, line: int, reason: str):
        super().__init__(f"{source}, line {line}: {reason}")
        self.source = source
        self.line = line
        self.reason = reason


class DuplicatePubIdError(MalformedRecordError):
    def __init__(self, source: str, line: int, pub_id: str):
        super().__init__(source, line, f"duplicate pub_id {pub_id!r}")
        self.pub_id = pub_id


class MissingCareerError(CorpusError):
    def __init__(self, author_ids: Sequence[str]):
        shown = ", ".join(author_ids[:_SAMPLE_CAP])
        more = "" if len(author_ids) <= _SAMPLE_CAP else f" (+{len(author_ids) - _SAMPLE_CAP} more)"
        super().__init__(f"{len(author_ids)} author(s) missing from careers file: {shown}{more}")
        self.author_ids = list(author_ids)


class CareerConflictError(CorpusError):
    """Supplied career data contradicts itself or the publication stream."""

    def __init__(self, conflicts: Sequence[tuple[str, str]]):
        shown = "; ".join(f"{a}: {why}" for a, why in conflicts[:_SAMPLE_CAP])
        more = "" if len(conflicts) <= _SAMPLE_CAP else f" (+{len(conflicts) - _SAMPLE_CAP} more)"
        super().__init__(f"{len(conflicts)} career conflict(s): {shown}{more}")
        self.conflicts = list(conflicts)


class Record:
    """Base of the records built once per author, and of those changed after
    they are built: slots, with equality and repr over ``_fields`` in order.
    The other records are NamedTuples."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._fields)

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({values})"


class AuthorCareer(Record):
    """First publication year and full per-year output of one author."""

    __slots__ = _fields = ("author_id", "first_year", "pubs_by_year")

    def __init__(self, author_id: str, first_year: int, pubs_by_year: dict[int, int]):
        self.author_id = author_id
        self.first_year = first_year
        self.pubs_by_year = pubs_by_year


class ClusterMeta(NamedTuple):
    cluster_id: str
    label: str
    area: str
    total_authors: int
    x: float | None = None
    y: float | None = None


class LoadReport(NamedTuple):
    """What load_corpus did: counts of parsed, kept, dropped, and repaired rows."""

    horizon: tuple[int, int]
    publications_parsed: int
    publications_loaded: int
    dropped_out_of_horizon: int
    dropped_doc_type: int
    delineated: int
    unknown_cluster_count: int
    unknown_cluster_samples: list[tuple[str, str]]
    unknown_areas: list[str]
    career_source: str  # "derived" or "supplied"
    careers_total: int

    def summary_lines(self) -> list[str]:
        """The report of the `validate` subcommand, one count per line.

        Tools read the first two lines, so their wording and order are fixed.
        """
        y0, y1 = self.horizon
        out = [
            f"publications loaded: {self.publications_loaded}",
            f"dropped outside horizon: {self.dropped_out_of_horizon}",
            f"horizon: {y0}:{y1}",
            f"publications parsed: {self.publications_parsed}",
            f"dropped by doc type: {self.dropped_doc_type}",
            f"delineated: {self.delineated}",
            f"unknown cluster references repaired: {self.unknown_cluster_count}",
        ]
        out += [f"  unknown cluster: {pub_id}: {cluster_id}"
                for pub_id, cluster_id in self.unknown_cluster_samples]
        out.append(f"careers: {self.careers_total} ({self.career_source})")
        out.append(f"non-canonical areas: {len(self.unknown_areas)}")
        out += [f"  non-canonical area: {area}" for area in self.unknown_areas[:_SAMPLE_CAP]]
        return out


class TopicIndex(Record):
    """What a topic's publications say about its authors, from one pass.

    counts maps author_id -> {year: topic publications}, ordered by author_id
    so every downstream reduction is enumeration-order independent, and each
    author's years in ascending order, so the first is the entry year. clusters
    maps the id of each known cluster holding a topic publication -> the
    authors of its topic publications. len() is the number of topic authors.
    """

    __slots__ = _fields = ("counts", "clusters")

    def __init__(self, counts: dict[str, dict[int, int]], clusters: dict[str, set[str]]):
        self.counts = counts
        self.clusters = clusters

    def __len__(self) -> int:
        return len(self.counts)

    def area_authors(self, clusters: Mapping[str, ClusterMeta]) -> dict[str, set[str]]:
        """Authors with a topic publication in each area's clusters, for the
        areas that have one. An author counts once per area."""
        members: dict[str, set[str]] = {}
        for cluster_id, authors in self.clusters.items():
            area = clusters[cluster_id].area
            in_area = members.get(area)
            if in_area is None:
                members[area] = set(authors)
            else:
                in_area |= authors
        return members


class Corpus(Record):
    """A loaded corpus: careers, cluster metadata, and one TopicIndex per
    topic the load indexed. No publication record is kept."""

    _fields = ("careers", "clusters", "horizon", "topic_indexes", "load_report")
    __slots__ = _fields + ("horizon_totals",)

    def __init__(self, careers: dict[str, AuthorCareer], clusters: dict[str, ClusterMeta],
                 horizon: tuple[int, int], topic_indexes: dict[str, TopicIndex],
                 load_report: LoadReport | None = None):
        self.careers = careers
        self.clusters = clusters
        self.horizon = horizon
        self.topic_indexes = topic_indexes
        self.load_report = load_report
        # author -> career records within the horizon, neither compared nor
        # shown. author_profiles fills it for the topic authors it meets, so
        # both sides of a same-corpus compare sum each career once and a load
        # that indexes no topic sums none. It holds because careers and
        # horizon do not change once a corpus is built.
        self.horizon_totals: dict[str, int] = {}

    # Not a field: only perfbench/tracer.py reads it, to count delineation
    # candidates. Delete it when that tracer is replaced (ROADMAP item 1).
    publications = ()


# --- topic delineation ----------------------------------------------------

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def _normalize(text: str) -> str:
    # Flatten to space-joined lowercase tokens with sentinel spaces so a plain
    # substring test is a token-boundary phrase test.
    return " " + " ".join(_TOKEN_RE.findall(text.lower())) + " "


class _Terms(NamedTuple):
    phrases: tuple[str, ...]  # normalised, with sentinel spaces
    first_tokens: re.Pattern  # finds any phrase's first token in lowercased text


def _compile_terms(terms: Sequence[str]) -> _Terms:
    phrases = []
    for term in terms:
        norm = _normalize(term)
        if norm != "  ":
            phrases.append(norm)
    if not phrases:
        raise ValueError("no usable delineation terms")
    firsts = sorted({phrase.split()[0] for phrase in phrases})
    return _Terms(tuple(phrases), re.compile("|".join(map(re.escape, firsts))))


def _matches(terms: _Terms, title: str | None, abstract: str | None,
             keywords: Sequence[str] | None) -> bool:
    """True if any term occurs as a contiguous phrase in the record's text.

    Matching is case-insensitive on token boundaries, so "Big-Data" and
    "big data" are the same phrase; a phrase never spans two keywords.
    """
    fields = (title or "", abstract or "", *(keywords or ()))
    # Every token of a field's normal form is a substring of the lowercased
    # field, so one search over all fields rules most records out before the
    # tokenizer runs. The newline between fields is neither cased nor
    # case-ignorable, so lower() treats each field (final sigma included) as
    # it would alone.
    if terms.first_tokens.search("\n".join(fields).lower()) is None:
        return False
    # each text field is normalised once, then tested against every phrase
    for text in fields:
        if text:
            norm = _normalize(text)
            if any(phrase in norm for phrase in terms.phrases):
                return True
    return False


# --- loading ----------------------------------------------------------------


def _check_horizon(horizon: tuple[int, int]) -> tuple[int, int]:
    y0, y1 = int(horizon[0]), int(horizon[1])
    if y0 > y1:
        raise ValueError(f"empty horizon {y0}:{y1}")
    return (y0, y1)


def _undecodable_line(source: str, newline: str | None) -> MalformedRecordError:
    """Locate the first line of a file that is not valid UTF-8.

    Runs only after a strict read failed: the decoder names an offset in its
    buffer, not a line, so the file is read again with each undecodable byte
    escaped to a lone surrogate and split into lines the way the failed read did.
    """
    line_no = 0
    with open(source, encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                return MalformedRecordError(source, line_no, f"invalid UTF-8 byte 0x{byte:02x}")
    return MalformedRecordError(source, line_no, "invalid UTF-8")  # the file changed meanwhile


@contextmanager
def _csv_reader(path: str | Path, header: list[str]) -> Iterator:
    """Open a CSV file whose first line must be exactly ``header``, and give
    its reader at the first data row. Any defect the reader meets, an
    undecodable byte included, is a MalformedRecordError naming its line."""
    source = str(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first != header:
                reason = f"expected header {','.join(header)}"
                if first and first[0].startswith("\ufeff"):
                    reason = f"unexpected UTF-8 BOM before the header; {reason}"
                raise MalformedRecordError(source, 1, reason)
            yield reader
        except csv.Error as exc:
            raise MalformedRecordError(source, reader.line_num, f"invalid CSV: {exc}") from None
        except UnicodeDecodeError:
            raise _undecodable_line(source, newline="") from None


def _csv_rows(path: str | Path, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, row) for each non-blank data row of a CSV file read
    by _csv_reader; every row must be as wide as ``header``."""
    width = len(header)
    with _csv_reader(path, header) as reader:
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise MalformedRecordError(
                    str(path), reader.line_num, f"expected {width} columns, got {len(row)}"
                )
            yield reader.line_num, row


def _career_values(source: str, line_no: int, row: list[str], years: dict[str, int],
                   counts: dict[str, int]) -> tuple[int, int, int]:
    """Check the yfp, year and count of a careers row, in the order that
    names the first defect; remember each string accepted as a year in
    ``years`` and as a count in ``counts``."""
    try:
        yfp, year, count = int(row[1]), int(row[2]), int(row[3])
    except ValueError:
        raise MalformedRecordError(source, line_no, f"non-integer value in {row[1:]}") from None
    if count < 0:
        raise MalformedRecordError(source, line_no, f"negative count {count}")
    if not (1 <= yfp <= 9999 and 1 <= year <= 9999):
        raise MalformedRecordError(
            source, line_no, f"yfp and year must be in 1..9999, got {yfp} and {year}"
        )
    counts[row[3]] = count
    return years.setdefault(row[1], yfp), years.setdefault(row[2], year), count


def load_careers_csv(path: str | Path) -> dict[str, AuthorCareer]:
    """Parse a long-format careers file into one AuthorCareer per author.

    Rows come straight from _csv_reader; the reader's line number is read
    only to name a defect or a conflict. Each distinct field string is
    checked once: a row whose three values were accepted before costs three
    lookups, and each distinct year string is one int object. An author's
    rows need not be adjacent; a row that repeats the previous row's
    author_id reuses its career.
    """
    careers: dict[str, AuthorCareer] = {}
    conflicts: list[tuple[str, str]] = []
    years: dict[str, int] = {}  # field string -> year, for strings valid as yfp or year
    counts: dict[str, int] = {}  # field string -> count, for strings valid as count
    source = str(path)
    last_id = None
    with _csv_reader(path, _CAREERS_HEADER) as reader:
        for row in reader:
            try:
                author_id, yfp_raw, year_raw, count_raw = row
            except ValueError:
                if not row:
                    continue
                raise MalformedRecordError(
                    source, reader.line_num, f"expected 4 columns, got {len(row)}"
                ) from None
            if not author_id:
                raise MalformedRecordError(source, reader.line_num, "empty author_id")
            try:
                yfp, year, count = years[yfp_raw], years[year_raw], counts[count_raw]
            except KeyError:
                yfp, year, count = _career_values(source, reader.line_num, row, years, counts)
            if author_id != last_id:
                career = careers.get(author_id)
                if career is None:
                    career = careers[author_id] = AuthorCareer(author_id, yfp, {})
                last_id, first_year, pubs_by_year = author_id, career.first_year, career.pubs_by_year
            if yfp != first_year:
                reason = f"inconsistent yfp {first_year} vs {yfp}"
                conflicts.append((author_id, f"{reason} ({source}, line {reader.line_num})"))
            if count:
                if year < first_year:
                    reason = f"count in {year} precedes yfp {first_year}"
                    conflicts.append((author_id, f"{reason} ({source}, line {reader.line_num})"))
                pubs_by_year[year] = pubs_by_year.get(year, 0) + count
    for author_id, career in careers.items():
        if not career.pubs_by_year:
            conflicts.append((author_id, "no positive publication counts"))
    if conflicts:
        conflicts.sort()
        raise CareerConflictError(conflicts)
    return careers


def load_clusters_csv(path: str | Path) -> tuple[dict[str, ClusterMeta], list[str]]:
    """Parse cluster metadata; returns (clusters, non-canonical area names)."""
    clusters: dict[str, ClusterMeta] = {}
    bad_areas: set[str] = set()
    source = str(path)
    for line_no, row in _csv_rows(path, _CLUSTERS_HEADER):
        cluster_id, label, area, total_raw, x_raw, y_raw = row
        if not cluster_id:
            raise MalformedRecordError(source, line_no, "empty cluster_id")
        if cluster_id in clusters:
            raise MalformedRecordError(source, line_no, f"duplicate cluster_id {cluster_id!r}")
        try:
            total = int(total_raw)
            x = float(x_raw) if x_raw else None
            y = float(y_raw) if y_raw else None
        except ValueError:
            raise MalformedRecordError(source, line_no, f"bad numeric field in {row[3:]}") from None
        if total < 0:
            raise MalformedRecordError(source, line_no, f"negative total_authors {total}")
        if not all(v is None or math.isfinite(v) for v in (x, y)):
            raise MalformedRecordError(source, line_no, f"non-finite coordinate in {row[4:]}")
        if area not in RESEARCH_AREAS:
            bad_areas.add(area)
        clusters[cluster_id] = ClusterMeta(cluster_id, label, area, total, x, y)
    return clusters, sorted(bad_areas)


def _check_careers(careers: dict[str, AuthorCareer],
                   observed_by_year: Mapping[int, Mapping[str, int]]) -> None:
    """Raise MissingCareerError for observed authors without a career, else
    CareerConflictError for each observed author-year the career contradicts."""
    missing: set[str] = set()
    conflicts: list[tuple[str, str]] = []
    for year, seen in observed_by_year.items():
        for author_id, n_seen in seen.items():
            career = careers.get(author_id)
            if career is None:
                missing.add(author_id)
            elif year < career.first_year:
                conflicts.append((author_id, f"record in {year} precedes yfp {career.first_year}"))
            else:
                n_supplied = career.pubs_by_year.get(year, 0)
                if n_supplied < n_seen:
                    conflicts.append(
                        (author_id, f"{n_seen} record(s) in {year} exceed career count {n_supplied}")
                    )
    if missing:
        raise MissingCareerError(sorted(missing))
    if conflicts:
        conflicts.sort()
        raise CareerConflictError(conflicts)


def _counts_by_author(by_year: dict[int, dict[str, int]]) -> dict[str, dict[int, int]]:
    """author -> {year: records} from year -> {author: records}, ordered by
    author_id with each author's years ascending. Empties ``by_year``."""
    counts: dict[str, dict[int, int]] = {a: {} for a in sorted(set().union(*by_year.values()))}
    for year in sorted(by_year):
        for author, n in by_year.pop(year).items():
            counts[author][year] = n
    return counts


def load_corpus(
    publications_path: str | Path,
    careers_path: str | Path | None = None,
    clusters_path: str | Path | None = None,
    horizon: tuple[int, int] = DEFAULT_HORIZON,
    *,
    doc_types: Iterable[str] | None = None,
    delineate_terms: Sequence[str] | None = None,
    delineate_topic: str | None = None,
    topics: Sequence[str] = (),
) -> Corpus:
    """Load and cross-check a corpus, indexing ``topics`` as it parses.

    Each label's TopicIndex counts the records that survive the doc-type
    filter, the horizon drop, the cluster repair and delineation; no record
    is kept. With no topics nothing is indexed, and the load only checks and
    counts. Checks and counts do not depend on ``topics``.

    Raises MalformedRecordError (DuplicatePubIdError is one) naming the file
    and line of any undecodable or bad line in the three inputs,
    MissingCareerError when supplied careers omit an observed author,
    and CareerConflictError when supplied careers contradict the stream
    (first year later than an observed record, or a per-year count below the
    number of observed records). Unknown cluster references are repaired to
    None and reported, not fatal.
    """
    horizon = _check_horizon(horizon)
    y0, y1 = horizon

    doc_type_filter = frozenset(doc_types) if doc_types is not None else None
    terms = _compile_terms(delineate_terms) if delineate_terms else None
    if terms and not delineate_topic:
        raise ValueError("delineate_terms requires delineate_topic")

    clusters: dict[str, ClusterMeta] = {}
    bad_areas: list[str] = []
    if clusters_path is not None:
        clusters, bad_areas = load_clusters_csv(clusters_path)

    careers: dict[str, AuthorCareer] | None = None
    if careers_path is not None:
        careers = load_careers_csv(careers_path)

    # per topic: year -> author -> records, and cluster id -> authors; a known
    # cluster id is the metadata's own string
    indexed = tuple((topic, defaultdict(dict), defaultdict(set)) for topic in dict.fromkeys(topics))
    seen_ids: set[str] = set()
    # Records surviving the doc-type filter, out-of-horizon ones included.
    # Supplied careers are checked against their tally, year -> author ->
    # records. Derived careers are author -> year -> records, built one author
    # at a time; years repeat millions of times across those dicts, so they are
    # interned there. Author ids are not interned, because no record is kept to
    # share them with.
    observed_by_year: defaultdict[int, dict[str, int]] = defaultdict(dict)
    intern_year: dict[int, int] = {}
    observed: dict[str, dict[int, int]] = {}
    # the LoadReport's counts, built into it once the file is read
    parsed = dropped_doc_type = dropped_out_of_horizon = delineated = unknown_clusters = 0
    unknown_samples: list[tuple[str, str]] = []

    source = str(publications_path)
    try:
        with open(publications_path, encoding="utf-8") as fh:
            line_no = 0
            for line in fh:
                line_no += 1
                if not line.strip():
                    continue
                try:
                    raw, end = _raw_decode(line)
                    rest = line[end:]
                except (ValueError, RecursionError):
                    rest = None
                if rest != "\n" and rest != "":
                    # blanks, a BOM or data around the value, or no value:
                    # json.loads decides, and names the defect
                    try:
                        raw = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise MalformedRecordError(source, line_no, f"invalid JSON: {exc.msg}") from None
                    except (ValueError, RecursionError) as exc:  # integer over the digit limit, deep nesting
                        raise MalformedRecordError(source, line_no, f"invalid JSON: {exc}") from None
                if type(raw) is not dict:
                    raise MalformedRecordError(source, line_no, "record is not an object")
                # json.loads turns an escape such as \ud800 without its pair into a
                # lone surrogate, which no UTF-8 report could hold; a one-character
                # test keeps lines without any escape off the slower search
                if "\\" in line and _SURROGATE_ESCAPE.search(line):
                    try:
                        json.dumps(raw, ensure_ascii=False).encode("utf-8")
                    except UnicodeEncodeError:
                        raise MalformedRecordError(source, line_no, "unpaired UTF-16 surrogate escape") from None
                try:
                    pub_id = raw["pub_id"]
                    year = raw["year"]
                    authors = raw["authors"]
                except KeyError as exc:
                    raise MalformedRecordError(source, line_no, f"missing field {exc.args[0]}") from None
                if type(pub_id) is not str or not pub_id:
                    raise MalformedRecordError(source, line_no, "pub_id must be a non-empty string")
                if type(year) is not int or not 1 <= year <= 9999:
                    raise MalformedRecordError(source, line_no, f"year must be an integer in 1..9999, got {year!r}")
                if type(authors) is not list or not authors:
                    raise MalformedRecordError(source, line_no, "authors must be a non-empty list")
                for a in authors:
                    if type(a) is not str or not a:
                        raise MalformedRecordError(source, line_no, "author ids must be non-empty strings")
                if len(set(authors)) != len(authors):
                    raise MalformedRecordError(source, line_no, "duplicate author_id within record")
                if pub_id in seen_ids:
                    raise DuplicatePubIdError(source, line_no, pub_id)
                seen_ids.add(pub_id)
                parsed += 1

                doc_type = raw.get("doc_type")
                if doc_type is not None and (type(doc_type) is not str or not doc_type):
                    raise MalformedRecordError(source, line_no, "doc_type must be a non-empty string")
                if doc_type_filter is not None and doc_type not in doc_type_filter:
                    dropped_doc_type += 1
                    continue

                if careers is None:
                    year = intern_year.setdefault(year, year)
                    for a in authors:
                        by_year = observed.get(a)
                        if by_year is None:
                            observed[a] = {year: 1}
                        else:
                            by_year[year] = by_year.get(year, 0) + 1
                else:
                    _count_elements(observed_by_year[year], authors)

                if not y0 <= year <= y1:
                    dropped_out_of_horizon += 1
                    continue

                flags = raw.get("topic_flags")
                if flags is None:
                    flags = ()
                else:
                    if type(flags) is not list:
                        raise MalformedRecordError(source, line_no, "topic_flags must be a list")
                    for f in flags:
                        if type(f) is not str or not f:
                            raise MalformedRecordError(source, line_no, "topic flags must be non-empty strings")
                title = raw.get("title")
                abstract = raw.get("abstract")
                keywords = raw.get("keywords")
                if title is not None and type(title) is not str:
                    raise MalformedRecordError(source, line_no, "title must be a string")
                if abstract is not None and type(abstract) is not str:
                    raise MalformedRecordError(source, line_no, "abstract must be a string")
                if keywords is not None:
                    if type(keywords) is not list:
                        raise MalformedRecordError(source, line_no, "keywords must be a list")
                    for k in keywords:
                        if type(k) is not str:
                            raise MalformedRecordError(source, line_no, "keywords must be strings")

                cluster_id = raw.get("cluster_id")
                if cluster_id is not None and (type(cluster_id) is not str or not cluster_id):
                    raise MalformedRecordError(source, line_no, "cluster_id must be a non-empty string")
                if cluster_id is not None:
                    if not clusters:
                        cluster_id = None  # without cluster metadata no cluster is known
                    elif cluster_id in clusters:
                        cluster_id = clusters[cluster_id].cluster_id
                    else:
                        unknown_clusters += 1
                        if len(unknown_samples) < _SAMPLE_CAP:
                            unknown_samples.append((pub_id, cluster_id))
                        cluster_id = None

                if (
                    terms is not None
                    and delineate_topic not in flags
                    and _matches(terms, title, abstract, keywords)
                ):
                    flags = [*flags, delineate_topic]
                    delineated += 1

                for topic, tally, members in indexed:
                    if topic in flags:
                        _count_elements(tally[year], authors)
                        if cluster_id is not None:
                            members[cluster_id].update(authors)
    except UnicodeDecodeError:
        raise _undecodable_line(source, newline=None) from None

    del seen_ids, intern_year
    if careers is None:
        careers = {a: AuthorCareer(a, min(by_year), by_year) for a, by_year in observed.items()}
    else:
        _check_careers(careers, observed_by_year)
    del observed_by_year
    indexes = {topic: TopicIndex(_counts_by_author(tally), dict(members))
               for topic, tally, members in indexed}

    if unknown_clusters:
        import logging  # only a load that warns pays for this import at start-up

        logging.getLogger(__name__).warning(
            "%d publication(s) referenced unknown clusters; references cleared (e.g. %s)",
            unknown_clusters,
            unknown_samples[:3],
        )

    report = LoadReport(
        horizon=horizon,
        publications_parsed=parsed,
        publications_loaded=parsed - dropped_doc_type - dropped_out_of_horizon,
        dropped_out_of_horizon=dropped_out_of_horizon,
        dropped_doc_type=dropped_doc_type,
        delineated=delineated,
        unknown_cluster_count=unknown_clusters,
        unknown_cluster_samples=unknown_samples,
        unknown_areas=bad_areas,
        career_source="derived" if careers_path is None else "supplied",
        careers_total=len(careers),
    )
    return Corpus(careers, clusters, horizon, indexes, load_report=report)


# --- canonical writers ------------------------------------------------------


def write_careers_csv(path: str | Path, careers: dict[str, AuthorCareer]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CAREERS_HEADER)
        for author_id in sorted(careers):
            career = careers[author_id]
            for year in sorted(career.pubs_by_year):
                count = career.pubs_by_year[year]
                if count:
                    writer.writerow([author_id, career.first_year, year, count])


def write_clusters_csv(path: str | Path, clusters: dict[str, ClusterMeta]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CLUSTERS_HEADER)
        for cluster_id in sorted(clusters):
            c = clusters[cluster_id]
            writer.writerow(
                [
                    c.cluster_id,
                    c.label,
                    c.area,
                    c.total_authors,
                    "" if c.x is None else repr(c.x),
                    "" if c.y is None else repr(c.y),
                ]
            )
