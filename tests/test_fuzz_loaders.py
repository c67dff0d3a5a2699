"""Fuzzing of the three corpus loaders, driven by hypothesis.

Files are assembled from plausible lines damaged the way real exports are:
wrong JSON types, bools, huge and non-finite numbers, lone surrogate escapes,
duplicated or wrong headers, CRLF endings, a byte-order mark, truncation and
undecodable bytes. Every file must either load or raise a CorpusError; a
MalformedRecordError names the file and one of its lines, and through the CLI
every case exits 0 or 1. A load that indexes topics fails exactly where a
load that indexes none fails, with the same text; when both load, each index
equals the brute-force oracle's.
"""

import json

from hypothesis import given, settings, strategies as st

from communitylens.cli import main
from communitylens.corpus import (
    CareerConflictError,
    CorpusError,
    MalformedRecordError,
    load_careers_csv,
    load_clusters_csv,
    load_corpus,
)

from oracles import oracle_careers_csv
from test_streaming import assert_indexes_match, assert_same_load

_CAREERS_HEADER = "author_id,yfp,year,count"
_CLUSTERS_HEADER = "cluster_id,label,area,total_authors,x,y"

# --- JSONL lines ----------------------------------------------------------------

_ODD_JSON = [
    "true", "false", "null", "NaN", "Infinity", "-Infinity", "1e400", "-0", "2012.0",
    "9" * 5000, "[]", "{}", '""', '"\\ud800"', '"x\\udfff"', '"\\ud83d\\ude00"',
    '"a\\\\ud800"', '["a1", "a1"]', "[1]", '[""]', '["\\udc00"]',
]
json_value = st.one_of(
    st.integers(-(10**20), 10**20).map(str),
    st.text(max_size=6).map(json.dumps),
    st.sampled_from(_ODD_JSON),
)


def json_list(items):
    return st.lists(st.sampled_from(items), max_size=3, unique=True).map(
        lambda xs: "[" + ", ".join(xs) + "]"
    )


_FIELDS = {
    "pub_id": st.sampled_from(['"p1"', '"p2"', '"p3"', '"p4"']),
    "year": st.integers(2005, 2020).map(str),
    "authors": json_list(['"a1"', '"a2"', '"a3"', '"a\\ud83d\\ude00"']),
    "topic_flags": json_list(['"t"', '"u"']),
    "cluster_id": st.sampled_from(['"k1"', '"k2"', '"k9"']),
    "doc_type": st.sampled_from(['"article"', '"letter"']),
    "title": st.sampled_from(['"Big data"', '"caf\\u00e9 \\ud83d\\ude00"', '"x"']),
    "keywords": json_list(['"hadoop"', '"cloud"']),
}


@st.composite
def jsonl_line(draw):
    items = []
    for name, good in _FIELDS.items():
        if draw(st.integers(0, 7)) == 0:
            continue  # the field is missing
        value = draw(st.one_of(good, json_value) if draw(st.integers(0, 4)) == 0 else good)
        items.append(f'"{name}": {value}')
    if items and draw(st.integers(0, 5)) == 0:
        items.append(items[0].split(":")[0] + ": " + draw(json_value))  # duplicate key
    return "{" + ", ".join(items) + "}"


# --- CSV lines --------------------------------------------------------------------

_ODD_CELLS = [
    "", "nan", "inf", "-5", "0", "True", "9" * 5000, "1e3", "12.5", '"q,uoted"', '"un',
    'a"b', " 7 ", "١٢", "café", "\x00",
]
cell = st.sampled_from(_ODD_CELLS)


def csv_line(*good):
    @st.composite
    def line(draw):
        cells = [draw(st.one_of(g, cell) if draw(st.integers(0, 4)) == 0 else g) for g in good]
        extra = draw(st.integers(0, 9))
        if extra == 0:
            cells.pop()
        elif extra == 1:
            cells.append(draw(cell))
        return ",".join(cells)

    return line()


careers_line = csv_line(
    st.sampled_from(["a1", "a2", "a3"]),
    st.sampled_from(["2005", "2010"]),
    st.integers(2005, 2017).map(str),
    st.integers(1, 3).map(str),
)
clusters_line = csv_line(
    st.sampled_from(["k1", "k2", "k3"]),
    st.sampled_from(["databases", "x"]),
    st.sampled_from(["Life & Earth Sciences", "Alchemy"]),
    st.integers(0, 50).map(str),
    st.sampled_from(["", "1.5", "-2"]),
    st.sampled_from(["", "0.25"]),
)


def header(canonical):
    first, rest = canonical.split(",", 1)
    damaged = [
        f"{first},{first},{rest.split(',', 1)[1]}",  # a duplicated column name
        canonical.upper(), canonical.rsplit(",", 1)[0], "",
    ]
    return st.sampled_from([canonical] * 2 * len(damaged) + damaged)


# --- files ------------------------------------------------------------------------


@st.composite
def damaged_file(draw, line, head=None):
    lines = draw(st.lists(line, max_size=6))
    if head is not None:
        lines.insert(0, draw(head))
        if draw(st.integers(0, 5)) == 0:
            lines.insert(1, lines[0])  # the header repeated as a row
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    data = "".join(text + newline for text in lines).encode("utf-8")
    if draw(st.integers(0, 5)) == 0:
        data = b"\xef\xbb\xbf" + data
    if data and draw(st.integers(0, 3)) == 0:
        data = data[: draw(st.integers(0, len(data) - 1))]
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xe2\x82"]))
        data = data[:at] + bad + data[at:]
    return data


jsonl_file = damaged_file(jsonl_line())


@st.composite
def clean_jsonl_file(draw):
    """Records with distinct ids and only plausible values, so most load."""
    lines = []
    good_authors = '["a1", "a2"]'
    for i in range(draw(st.integers(0, 8))):
        items = [f'"pub_id": "p{i}"']
        for name, good in _FIELDS.items():
            if name in ("year", "authors") or (name != "pub_id" and draw(st.booleans())):
                value = draw(good)
                items.append(f'"{name}": {value if value != "[]" else good_authors}')
        lines.append("{" + ", ".join(items) + "}\n")
    return "".join(lines).encode("utf-8")
careers_file = damaged_file(careers_line, header(_CAREERS_HEADER))
clusters_file = damaged_file(clusters_line, header(_CLUSTERS_HEADER))


def scratch(tmp_path_factory, name):
    path = tmp_path_factory.getbasetemp() / "fuzz"
    path.mkdir(exist_ok=True)
    return path / name


def assert_loads_or_located(load, path, data, *unlocated):
    path.write_bytes(data)
    try:
        load(str(path))
    except MalformedRecordError as exc:
        assert exc.source == str(path)
        assert 1 <= exc.line <= max(1, len(data.splitlines()))
        assert str(exc).startswith(f"{path}, line {exc.line}: ")
    except unlocated:
        pass


@settings(max_examples=100, deadline=None)
@given(data=jsonl_file)
def test_load_corpus_loads_or_names_line(tmp_path_factory, data):
    assert_loads_or_located(load_corpus, scratch(tmp_path_factory, "pubs.jsonl"), data)


@settings(max_examples=60, deadline=None)
@given(data=careers_file)
def test_load_careers_loads_or_names_line(tmp_path_factory, data):
    # conflicts are reported together; those spanning an author's rows name no line
    assert_loads_or_located(
        load_careers_csv, scratch(tmp_path_factory, "careers.csv"), data, CareerConflictError
    )


@settings(max_examples=60, deadline=None)
@given(data=clusters_file)
def test_load_clusters_loads_or_names_line(tmp_path_factory, data):
    assert_loads_or_located(load_clusters_csv, scratch(tmp_path_factory, "clusters.csv"), data)


@settings(max_examples=40, deadline=None)
@given(
    pubs=jsonl_file,
    careers=st.none() | careers_file,
    clusters=st.none() | clusters_file,
)
def test_validate_exits_0_or_1(tmp_path_factory, pubs, careers, clusters):
    argv = ["validate", "--out", str(scratch(tmp_path_factory, "run"))]
    for flag, name, data in (("--corpus", "pubs.jsonl", pubs), ("--careers", "careers.csv", careers),
                             ("--clusters", "clusters.csv", clusters)):
        if data is not None:
            path = scratch(tmp_path_factory, name)
            path.write_bytes(data)
            argv += [flag, str(path)]
    assert main(argv) in (0, 1)


def outcome(load):
    """The loaded corpus, or the error's type, text and line."""
    try:
        return load()
    except CorpusError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@settings(max_examples=80, deadline=None)
@given(
    pubs=jsonl_file | clean_jsonl_file(),
    careers=st.none() | careers_file,
    clusters=st.none() | clusters_file,
    doc_types=st.none() | st.just(["article"]),
    delineate=st.booleans(),
)
def test_streamed_load_fails_like_kept_load(tmp_path_factory, pubs, careers, clusters,
                                            doc_types, delineate):
    paths = []
    for name, data in (("pubs.jsonl", pubs), ("careers.csv", careers),
                       ("clusters.csv", clusters)):
        path = None
        if data is not None:
            path = scratch(tmp_path_factory, name)
            path.write_bytes(data)
        paths.append(path)
    kwargs = {"doc_types": doc_types}
    if delineate:
        kwargs.update(delineate_terms=["big data"], delineate_topic="u")
    unindexed = outcome(lambda: load_corpus(*paths, **kwargs))
    indexed = outcome(lambda: load_corpus(*paths, topics=("t", "u"), **kwargs))
    if isinstance(unindexed, tuple):
        assert indexed == unindexed
    else:
        assert_same_load(unindexed, indexed)
        assert_indexes_match(indexed, ("t", "u"), paths[0], paths[2], **kwargs)


# --- the careers loader against its per-row oracle ---------------------------------

# Each string is valid in some careers column and not in another ("0" and
# "10000" are counts but not years), or spells a valid year the way int()
# reads it, so a loader that remembered a checked value for the wrong column
# would accept a bad row or reject a good one.
_CAREER_CELLS = ["0", "-1", "9999", "10000", " 2005", "+2005", "2_005", "٢٠٠٥", "2005.0", ""]
# plausible cells, the pool's own among them, so most rows load
_CAREER_GOOD = (
    st.sampled_from(["a", "b", "c"]),  # authors interleave
    st.sampled_from(["2005", " 2005", "+2005", "2_005", "٢٠٠٥"]),
    st.sampled_from(["2005", "2010", "9999", " 2005", "+2005"]),
    st.sampled_from(["1", "3", "0", "10000", "9999", "2_005"]),
)


@st.composite
def career_row(draw):
    return [draw(st.sampled_from(_CAREER_CELLS) if draw(st.integers(0, 3)) == 0 else good)
            for good in _CAREER_GOOD]


def careers_outcome(load, path):
    """Each career's first year and (year, count) pairs in order, in author
    order; or the error's type, text and line."""
    try:
        careers = load(path)
    except CorpusError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return [(a, c.first_year, list(c.pubs_by_year.items())) for a, c in careers.items()]


@settings(max_examples=500, deadline=None)
@given(rows=st.lists(career_row(), max_size=8))
def test_careers_loader_matches_per_row_oracle(tmp_path_factory, rows):
    path = scratch(tmp_path_factory, "careers.csv")
    path.write_text("".join(f"{','.join(row)}\n" for row in [_CAREERS_HEADER.split(",")] + rows),
                    encoding="utf-8")
    assert careers_outcome(load_careers_csv, str(path)) == careers_outcome(oracle_careers_csv,
                                                                           str(path))
