import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from communitylens.classify import QuadrantAssignment
from communitylens.corpus import (
    _TOKEN_RE,
    _compile_terms,
    _matches,
    _normalize,
    AuthorCareer,
    CareerConflictError,
    DuplicatePubIdError,
    MalformedRecordError,
    MissingCareerError,
    load_careers_csv,
    load_clusters_csv,
    load_corpus,
    write_careers_csv,
    write_clusters_csv,
)
from communitylens.indicators import AuthorProfile

from oracles import make_corpus


def write_jsonl(path, rows):
    with open(path, "w", newline="") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return str(path)


def rec(pub_id="p1", year=2012, authors=("a1",), **extra):
    row = {"pub_id": pub_id, "year": year, "authors": list(authors)}
    row.update(extra)
    return row


# --- parsing and validation ---------------------------------------------------


def test_load_minimal(tmp_path):
    path = write_jsonl(tmp_path / "pubs.jsonl", [rec(topic_flags=["bd"])])
    corpus = load_corpus(path, topics=["bd"])
    assert corpus.topic_indexes["bd"].counts == {"a1": {2012: 1}}
    assert corpus.careers["a1"].first_year == 2012
    assert corpus.load_report.publications_loaded == 1


def test_empty_file_is_valid(tmp_path):
    path = tmp_path / "pubs.jsonl"
    path.write_text("")
    corpus = load_corpus(str(path))
    assert corpus.load_report.publications_loaded == 0
    assert corpus.careers == {}
    assert corpus.load_report.publications_parsed == 0


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "pubs.jsonl"
    path.write_text(json.dumps(rec()) + "\n\n \n")
    assert load_corpus(str(path)).load_report.publications_loaded == 1


@pytest.mark.parametrize(
    "row,reason",
    [
        ({"pub_id": "", "year": 2012, "authors": ["a"]}, "pub_id"),
        ({"pub_id": "p", "year": "2012", "authors": ["a"]}, "year"),
        ({"pub_id": "p", "year": 0, "authors": ["a"]}, "year"),
        ({"pub_id": "p", "year": 10000, "authors": ["a"]}, "year"),
        ({"pub_id": "p", "year": 2012, "authors": []}, "authors"),
        ({"pub_id": "p", "year": 2012, "authors": ["a", "a"]}, "duplicate author"),
        ({"pub_id": "p", "year": 2012, "authors": ["a"], "topic_flags": "bd"}, "topic_flags"),
        ({"pub_id": "p", "year": 2012, "authors": ["a"], "topic_flags": [1]}, "topic flags"),
        ({"pub_id": "p", "year": 2012, "authors": ["a"], "doc_type": ""}, "doc_type"),
        ({"pub_id": "p", "year": 2012, "authors": ["a"], "cluster_id": 7}, "cluster_id"),
        ({"pub_id": "p", "year": 2012, "authors": ["a"], "keywords": "x"}, "keywords"),
        ({"pub_id": "p", "year": 2012, "authors": ["a\ud800"]}, "unpaired UTF-16 surrogate"),
    ],
)
def test_malformed_records(tmp_path, row, reason):
    path = write_jsonl(tmp_path / "pubs.jsonl", [row])
    with pytest.raises(MalformedRecordError) as err:
        load_corpus(path)
    assert reason in str(err.value)
    assert err.value.line == 1


def test_missing_field_names_the_field(tmp_path):
    path = write_jsonl(tmp_path / "pubs.jsonl", [{"pub_id": "p", "year": 2012}])
    with pytest.raises(MalformedRecordError) as err:
        load_corpus(path)
    assert "authors" in str(err.value)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "pubs.jsonl"
    path.write_text(json.dumps(rec()) + "\n{not json\n")
    with pytest.raises(MalformedRecordError) as err:
        load_corpus(str(path))
    assert err.value.line == 2


def test_duplicate_pub_id(tmp_path):
    path = write_jsonl(tmp_path / "pubs.jsonl", [rec(), rec(year=2013)])
    with pytest.raises(DuplicatePubIdError) as err:
        load_corpus(path)
    assert str(err.value) == f"{path}, line 2: duplicate pub_id 'p1'"


@pytest.mark.parametrize(
    "line,reason",
    [
        ('{"pub_id": "p", "year": ' + "9" * 5000 + ', "authors": ["a"]}', "digits"),
        ("[" * 100_000, "recursion"),
    ],
    ids=["huge-int", "deep-nesting"],
)
def test_json_decoder_limits_are_malformed(tmp_path, line, reason):
    path = tmp_path / "pubs.jsonl"
    path.write_text(json.dumps(rec()) + "\n" + line + "\n")
    with pytest.raises(MalformedRecordError) as err:
        load_corpus(str(path))
    assert err.value.line == 2
    assert reason in str(err.value)


_P2 = '{"pub_id": "p2", "year": 2013, "authors": ["a2"]}'


@pytest.mark.parametrize(
    "line,expected",
    [
        ("  \t" + _P2, ["p1", "p2"]),
        (_P2 + " \t ", ["p1", "p2"]),
        (_P2 + "\r", ["p1", "p2"]),
        (_P2 + "\r" + _P2.replace("p2", "p3"), ["p1", "p2", "p3"]),  # a lone CR ends a line
        ("\ufeff" + _P2, "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        (_P2 + " " + _P2, "invalid JSON: Extra data"),
        (_P2 + "x", "invalid JSON: Extra data"),
        ('{"pub_id": "p2", "year": 2013', "invalid JSON: Expecting ',' delimiter"),
        ('{"pub_id": "p2", "year": NaN, "authors": ["a2"]}',
         "year must be an integer in 1..9999, got nan"),
        ('{"pub_id": "p2", "year": 2013, "authors": ["a2"], "score": NaN}', ["p1", "p2"]),
        ("[" * 100_000, "invalid JSON: maximum recursion depth exceeded while decoding a JSON "
                        "array from a unicode string"),
        ('{"pub_id": "p2", "year": ' + "9" * 5000 + ', "authors": ["a2"]}',
         "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion: value has "
         "5000 digits; use sys.set_int_max_str_digits() to increase the limit"),
        ('{"pub_id": "p2", "year": 2013, "authors": ["a2"], "title": "\\ud800"}',
         "unpaired UTF-16 surrogate escape"),
        ("2013", "record is not an object"),
        (" {} ", "missing field pub_id"),
    ],
    ids=["leading-blanks", "trailing-blanks", "crlf", "lone-cr", "bom", "extra-value",
         "extra-text", "truncated", "nan-year", "nan-ignored", "deep-nesting", "huge-int",
         "lone-surrogate", "scalar", "blank-padded-object"],
)
def test_decoder_parity(tmp_path, line, expected):
    """Each line loads or fails with the text json.loads alone gave it."""
    path = tmp_path / "pubs.jsonl"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(rec()) + "\n" + line + "\n")
    if isinstance(expected, list):
        corpus = load_corpus(str(path))
        assert corpus.load_report.publications_loaded == len(expected)
        # p1 is a1's record in 2012; p2 and p3 are a2's in 2013
        assert {a: c.pubs_by_year for a, c in corpus.careers.items()} == {
            "a1": {2012: 1}, "a2": {2013: len(expected) - 1},
        }
    else:
        with pytest.raises(MalformedRecordError) as err:
            load_corpus(str(path))
        assert (err.value.line, err.value.reason) == (2, expected)


def test_surrogate_pair_escape_loads(tmp_path):
    path = tmp_path / "pubs.jsonl"
    # an escaped backslash before "ud800" is no surrogate escape either
    path.write_text('{"pub_id": "p\\ud83d\\ude00", "year": 2012, "authors": ["a\\\\ud800"]}\n')
    corpus = load_corpus(str(path))
    assert corpus.load_report.publications_loaded == 1
    assert list(corpus.careers) == ["a\\ud800"]


_GOOD_LINE = json.dumps(rec()).encode()


@pytest.mark.parametrize(
    "loader,name,data",
    [
        (load_corpus, "pubs.jsonl", _GOOD_LINE + b"\n\n" + _GOOD_LINE[:-2] + b"\xff}\n"),
        (load_careers_csv, "careers.csv",
         b"author_id,yfp,year,count\r\na1,2012,2012,1\r\n\xe9,2012,2012,1\r\n"),
        (load_clusters_csv, "clusters.csv",
         b"cluster_id,label,area,total_authors,x,y\nk1,x,Alchemy,5,,\nk2,\xed\xa0\x80,Alchemy,5,,\n"),
    ],
    ids=["publications", "careers", "clusters"],
)
def test_invalid_utf8_names_file_and_line(tmp_path, loader, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(MalformedRecordError) as err:
        loader(str(path))
    assert (err.value.source, err.value.line) == (str(path), 3)
    assert "invalid UTF-8 byte" in str(err.value)


def test_csv_field_over_size_limit_is_malformed(tmp_path):
    path = tmp_path / "clusters.csv"
    path.write_text('cluster_id,label,area,total_authors,x,y\nk1,"' + "x" * 200_000 + '",a,5,,\n')
    with pytest.raises(MalformedRecordError) as err:
        load_clusters_csv(str(path))
    assert err.value.line == 2
    assert "field larger than field limit" in str(err.value)


def test_boolean_year_rejected(tmp_path):
    # bool is an int subclass; type checks must not accept it
    path = write_jsonl(tmp_path / "pubs.jsonl", [rec(year=True)])
    with pytest.raises(MalformedRecordError):
        load_corpus(path)


# --- horizon and doc types ------------------------------------------------------


def test_horizon_drop_counted(tmp_path):
    rows = [rec("p1", 2007, topic_flags=["bd"]), rec("p2", 2012, topic_flags=["bd"]),
            rec("p3", 2018, topic_flags=["bd"])]
    path = write_jsonl(tmp_path / "pubs.jsonl", rows)
    corpus = load_corpus(path, topics=["bd"])
    assert corpus.topic_indexes["bd"].counts == {"a1": {2012: 1}}
    assert corpus.load_report.dropped_out_of_horizon == 2
    assert corpus.load_report.publications_parsed == 3


def test_custom_horizon(tmp_path):
    rows = [rec("p1", 2000, topic_flags=["bd"]), rec("p2", 2012, topic_flags=["bd"])]
    path = write_jsonl(tmp_path / "pubs.jsonl", rows)
    corpus = load_corpus(path, horizon=(1999, 2001), topics=["bd"])
    assert corpus.topic_indexes["bd"].counts == {"a1": {2000: 1}}


def test_bad_horizon(tmp_path):
    path = write_jsonl(tmp_path / "pubs.jsonl", [rec()])
    with pytest.raises(ValueError):
        load_corpus(path, horizon=(2017, 2008))


def test_derived_careers_span_out_of_horizon_records(tmp_path):
    # the 2005 record is dropped from the corpus but still anchors the career
    rows = [rec("p1", 2005, ["a1"]), rec("p2", 2012, ["a1"])]
    path = write_jsonl(tmp_path / "pubs.jsonl", rows)
    corpus = load_corpus(path)
    assert corpus.careers["a1"].first_year == 2005
    assert corpus.careers["a1"].pubs_by_year == {2005: 1, 2012: 1}


def test_doc_type_filter(tmp_path):
    rows = [
        rec("p1", doc_type="article", topic_flags=["bd"]),
        rec("p2", doc_type="letter", topic_flags=["bd"]),
        rec("p3", topic_flags=["bd"]),  # no doc_type: excluded once a filter is active
    ]
    path = write_jsonl(tmp_path / "pubs.jsonl", rows)
    corpus = load_corpus(path, doc_types={"article"}, topics=["bd"])
    assert corpus.topic_indexes["bd"].counts == {"a1": {2012: 1}}
    assert corpus.load_report.dropped_doc_type == 2
    # filtered-out records do not feed derived careers
    assert set(corpus.careers) == {"a1"}
    assert corpus.careers["a1"].pubs_by_year == {2012: 1}


# --- careers ----------------------------------------------------------------------


def careers_csv(tmp_path, rows):
    path = tmp_path / "careers.csv"
    lines = ["author_id,yfp,year,count"] + [",".join(str(x) for x in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_load_careers(tmp_path):
    path = careers_csv(tmp_path, [("a1", 2005, 2005, 1), ("a1", 2005, 2012, 3)])
    careers = load_careers_csv(path)
    assert careers["a1"].first_year == 2005
    assert careers["a1"].pubs_by_year == {2005: 1, 2012: 3}


def test_careers_bad_header(tmp_path):
    path = tmp_path / "careers.csv"
    path.write_text("author,first,year,count\n")
    with pytest.raises(MalformedRecordError):
        load_careers_csv(path)


def test_careers_yfp_mismatch(tmp_path):
    path = careers_csv(tmp_path, [("a1", 2005, 2004, 1), ("a2", 2005, 2005, 1), ("a2", 2006, 2006, 1)])
    with pytest.raises(CareerConflictError) as err:
        load_careers_csv(path)
    # both conflicts are found at one row, so each names its line
    assert err.value.conflicts == [
        ("a1", f"count in 2004 precedes yfp 2005 ({path}, line 2)"),
        ("a2", f"inconsistent yfp 2005 vs 2006 ({path}, line 4)"),
    ]


@pytest.mark.parametrize("row", [("a1", -5, -5, 1), ("a1", 2005, 10000, 1), ("a1", 0, 2005, 1)])
def test_careers_years_out_of_range(tmp_path, row):
    path = careers_csv(tmp_path, [("a0", 2005, 2005, 1), row])
    with pytest.raises(MalformedRecordError) as err:
        load_careers_csv(path)
    assert err.value.source == path
    assert err.value.line == 3
    assert "1..9999" in str(err.value)


@pytest.mark.parametrize("row", [("a1", 0, 2005, 1), ("a1", 2005, 0, 1),
                                 ("a1", 10000, 2005, 1), ("a1", 2005, 10000, 1)])
def test_count_values_are_not_years(tmp_path, row):
    # "0" and "10000" are accepted as counts first, and still fail as years
    # in a row whose other values were all accepted before
    path = careers_csv(tmp_path, [("a0", 2005, 2005, 0), ("a0", 2005, 2006, 10000),
                                  ("a0", 2005, 2007, 1), row])
    with pytest.raises(MalformedRecordError) as err:
        load_careers_csv(path)
    assert err.value.line == 5
    assert err.value.reason == f"yfp and year must be in 1..9999, got {row[1]} and {row[2]}"


def test_careers_split_author_loads_like_sorted(tmp_path):
    split = careers_csv(tmp_path, [("a1", 2005, 2012, 3), ("a2", 2006, 2006, 1),
                                   ("a1", 2005, 2005, 1), ("a1", 2005, 2012, 2)])
    split_careers = load_careers_csv(split)
    grouped = careers_csv(tmp_path, [("a1", 2005, 2012, 3), ("a1", 2005, 2005, 1),
                                     ("a1", 2005, 2012, 2), ("a2", 2006, 2006, 1)])
    grouped_careers = load_careers_csv(grouped)
    assert split_careers == grouped_careers
    assert list(split_careers["a1"].pubs_by_year.items()) == [(2012, 5), (2005, 1)]


def test_careers_yfp_mismatch_after_split_names_its_line(tmp_path):
    path = careers_csv(tmp_path, [("a1", 2005, 2005, 1), ("a2", 2006, 2006, 1),
                                  ("a1", 2004, 2005, 1)])
    with pytest.raises(CareerConflictError) as err:
        load_careers_csv(path)
    assert err.value.conflicts == [("a1", f"inconsistent yfp 2005 vs 2004 ({path}, line 4)")]


def test_careers_no_positive_counts(tmp_path):
    path = careers_csv(tmp_path, [("a1", 2005, 2005, 0)])
    with pytest.raises(CareerConflictError):
        load_careers_csv(path)


def test_supplied_career_missing_author(tmp_path):
    pubs = write_jsonl(tmp_path / "pubs.jsonl", [rec(authors=["a1", "a2"])])
    careers = careers_csv(tmp_path, [("a1", 2012, 2012, 1)])
    with pytest.raises(MissingCareerError) as err:
        load_corpus(pubs, careers_path=careers)
    assert err.value.author_ids == ["a2"]


def test_missing_career_outranks_conflicts(tmp_path):
    rows = [rec("p1", 2010, ["a1", "a3"]), rec("p2", 2012, ["a2"]), rec("p3", 2012, ["a1"])]
    pubs = write_jsonl(tmp_path / "pubs.jsonl", rows)
    careers = careers_csv(tmp_path, [("a1", 2012, 2012, 1)])
    with pytest.raises(MissingCareerError) as err:
        load_corpus(pubs, careers_path=careers)
    assert err.value.author_ids == ["a2", "a3"]


def test_supplied_career_conflicts_sorted(tmp_path):
    rows = [
        rec("p1", 2013, ["a2", "a1"]),
        rec("p2", 2012, ["a1"]),
        rec("p3", 2005, ["a1"]),  # before the horizon, still checked
        rec("p4", 2012, ["a1", "a2"]),
        rec("p5", 2010, ["a2"]),
        rec("p6", 2011, ["a2"]),
        rec("p7", 2011, ["a2"]),
    ]
    pubs = write_jsonl(tmp_path / "pubs.jsonl", rows)
    careers = careers_csv(tmp_path, [("a1", 2006, 2006, 1), ("a1", 2006, 2012, 1),
                                     ("a2", 2011, 2011, 1), ("a2", 2011, 2012, 1)])
    with pytest.raises(CareerConflictError) as err:
        load_corpus(pubs, careers_path=careers)
    assert err.value.conflicts == [
        ("a1", "1 record(s) in 2013 exceed career count 0"),
        ("a1", "2 record(s) in 2012 exceed career count 1"),
        ("a1", "record in 2005 precedes yfp 2006"),
        ("a2", "1 record(s) in 2013 exceed career count 0"),
        ("a2", "2 record(s) in 2011 exceed career count 1"),
        ("a2", "record in 2010 precedes yfp 2011"),
    ]


def test_supplied_career_undercount(tmp_path):
    rows = [rec("p1", 2012, ["a1"]), rec("p2", 2012, ["a1"])]
    pubs = write_jsonl(tmp_path / "pubs.jsonl", rows)
    careers = careers_csv(tmp_path, [("a1", 2012, 2012, 1)])
    with pytest.raises(CareerConflictError) as err:
        load_corpus(pubs, careers_path=careers)
    assert "exceed career count" in str(err.value)


def test_supplied_career_before_yfp(tmp_path):
    pubs = write_jsonl(tmp_path / "pubs.jsonl", [rec("p1", 2010, ["a1"])])
    careers = careers_csv(tmp_path, [("a1", 2012, 2012, 1)])
    with pytest.raises(CareerConflictError) as err:
        load_corpus(pubs, careers_path=careers)
    # the conflict spans two files, so it names the author but no line
    assert err.value.conflicts == [("a1", "record in 2010 precedes yfp 2012")]


def test_supplied_career_superset_ok(tmp_path):
    pubs = write_jsonl(tmp_path / "pubs.jsonl", [rec("p1", 2012, ["a1"])])
    careers = careers_csv(tmp_path, [("a1", 2005, 2005, 2), ("a1", 2005, 2012, 4)])
    corpus = load_corpus(pubs, careers_path=careers)
    assert corpus.load_report.career_source == "supplied"
    assert corpus.careers["a1"].first_year == 2005


# --- clusters -----------------------------------------------------------------------


def clusters_csv(tmp_path, rows):
    path = tmp_path / "clusters.csv"
    lines = ["cluster_id,label,area,total_authors,x,y"]
    lines += [",".join(str(x) for x in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_load_clusters(tmp_path):
    path = clusters_csv(
        tmp_path, [("k1", "databases", "Mathematics & Computer Science", 100, 1.5, -2.0)]
    )
    clusters, bad = load_clusters_csv(path)
    assert clusters["k1"].total_authors == 100
    assert clusters["k1"].x == 1.5
    assert bad == []


@pytest.mark.parametrize("x, y", [("nan", "1.0"), ("1.0", "inf"), ("-inf", "")])
def test_cluster_coordinates_must_be_finite(tmp_path, x, y):
    area = "Life & Earth Sciences"
    path = clusters_csv(tmp_path, [("k0", "ok", area, 5, 0.5, 0.5), ("k1", "bad", area, 5, x, y)])
    with pytest.raises(MalformedRecordError) as err:
        load_clusters_csv(path)
    assert err.value.source == path
    assert err.value.line == 3
    assert "non-finite" in str(err.value)


def test_unknown_area_reported_not_fatal(tmp_path):
    path = clusters_csv(tmp_path, [("k1", "x", "Alchemy", 10, "", "")])
    clusters, bad = load_clusters_csv(path)
    assert "k1" in clusters
    assert bad == ["Alchemy"]


def test_duplicate_cluster_id(tmp_path):
    path = clusters_csv(
        tmp_path,
        [("k1", "a", "Physical Sciences & Engineering", 5, 0, 0),
         ("k1", "b", "Physical Sciences & Engineering", 5, 0, 0)],
    )
    with pytest.raises(MalformedRecordError):
        load_clusters_csv(path)


def test_unknown_cluster_reference_cleared(tmp_path):
    pubs = write_jsonl(
        tmp_path / "pubs.jsonl",
        [rec("p1", cluster_id="k1", topic_flags=["bd"]),
         rec("p2", cluster_id="k9", authors=["a2"], topic_flags=["bd"])],
    )
    clusters = clusters_csv(
        tmp_path, [("k1", "x", "Life & Earth Sciences", 10, "", "")]
    )
    corpus = load_corpus(pubs, clusters_path=clusters, topics=["bd"])
    index = corpus.topic_indexes["bd"]
    assert list(index.counts) == ["a1", "a2"]
    assert index.clusters == {"k1": {"a1"}}  # p2's reference is cleared
    assert corpus.load_report.unknown_cluster_count == 1
    assert corpus.load_report.unknown_cluster_samples == [("p2", "k9")]


# --- delineation ----------------------------------------------------------------


def matches(terms, title=None, abstract=None, keywords=None):
    return _matches(_compile_terms(terms), title, abstract, keywords)


def test_delineate_title_case_insensitive():
    assert matches(["big data"], title="Towards BIG Data analytics")


def test_delineate_token_boundaries():
    assert not matches(["big data"], title="ambiguous dataset")
    assert not matches(["big data"], title="big dataset")
    assert matches(["big data"], title="big-data systems")
    assert matches(["big data"], title="a BIG, DATA? story")


def test_delineate_abstract_and_keywords():
    assert matches(["map reduce"], abstract="we use map reduce")
    assert matches(["hadoop"], keywords=("Hadoop", "cloud"))
    # phrases never span two keywords
    assert not matches(["big data"], keywords=("big", "data"))


# letters whose lowercase form is longer or depends on context, combining
# marks, the underscore (not a token character) and separators
_TRICKY = list("abAB İıßẞΣσς\u0301\u0307_09-.,") + ["ΟΔΟΣ", "Straße"]
_text = st.lists(st.sampled_from(_TRICKY) | st.characters(), max_size=12).map("".join)


@st.composite
def fields_and_terms(draw):
    title, abstract = draw(st.none() | _text), draw(st.none() | _text)
    keywords = draw(st.none() | st.lists(_text, max_size=3).map(tuple))
    tokens = _TOKEN_RE.findall(" ".join(t for t in (title, abstract, *(keywords or ())) if t))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        if tokens and draw(st.integers(0, 3)):
            at = draw(st.integers(0, len(tokens) - 1))
            term = draw(st.sampled_from([" ", "-", " _ ", ", "])).join(
                tokens[at:at + draw(st.integers(1, 3))]
            )
            terms.append(term.upper() if draw(st.booleans()) else term)
        else:
            terms.append(draw(_text))
    return title, abstract, keywords, terms


@settings(max_examples=400, deadline=None)
@given(fields_and_terms())
def test_prefiltered_matcher_equals_per_field_normalisation(case):
    title, abstract, keywords, terms = case
    phrases = [_normalize(t) for t in terms if _normalize(t) != "  "]
    assume(phrases)
    fields = [t for t in (title, abstract, *(keywords or ())) if t]
    expected = any(phrase in _normalize(text) for text in fields for phrase in phrases)
    assert _matches(_compile_terms(terms), title, abstract, keywords) == expected


def test_delineate_needs_usable_terms():
    with pytest.raises(ValueError):
        _compile_terms(["  "])


def test_load_with_delineation(tmp_path):
    rows = [
        rec("p1", title="A Big Data survey"),
        rec("p2", title="unrelated", authors=["a2"]),
        rec("p3", topic_flags=["bd"], authors=["a3"]),  # already flagged
        rec("p4", topic_flags=["bd", "bd"], authors=["a4"], title="big data"),
    ]
    path = write_jsonl(tmp_path / "pubs.jsonl", rows)
    corpus = load_corpus(path, delineate_terms=["big data"], delineate_topic="bd", topics=["bd"])
    # p1 is delineated, p2 is not, p3 and p4 were flagged already
    assert corpus.topic_indexes["bd"].counts == {"a1": {2012: 1}, "a3": {2012: 1}, "a4": {2012: 1}}
    assert corpus.load_report.delineated == 1


def test_delineate_terms_require_topic(tmp_path):
    path = write_jsonl(tmp_path / "pubs.jsonl", [rec()])
    with pytest.raises(ValueError):
        load_corpus(path, delineate_terms=["big data"])


# --- load report ----------------------------------------------------------------


def test_validate_clean(bd2012_corpus):
    report = bd2012_corpus.load_report
    # p0313 (2007) is the fixture's one record before the horizon
    assert (report.publications_parsed, report.publications_loaded) == (313, 312)
    assert report.dropped_out_of_horizon == 1
    assert report.dropped_doc_type == report.delineated == 0
    assert report.unknown_cluster_count == 0
    assert report.unknown_areas == []
    assert report.career_source == "supplied"
    lines = report.summary_lines()
    assert lines[:2] == ["publications loaded: 312", "dropped outside horizon: 1"]
    assert "careers: %d (supplied)" % report.careers_total in lines


# --- round trips -------------------------------------------------------------------


def test_careers_round_trip(tmp_path, bd2012_corpus):
    path = tmp_path / "careers.csv"
    write_careers_csv(path, bd2012_corpus.careers)
    again = load_careers_csv(path)
    assert again == bd2012_corpus.careers


def test_clusters_round_trip(tmp_path):
    clusters = {
        "k1": ("lbl one", "Social Sciences & Humanities", 42, -1.25, 3.0),
        "k2": ("lbl two", "Life & Earth Sciences", 7, None, None),
    }
    corpus = make_corpus([("p1", 2012, ["a"], [], "k1")], clusters=clusters)
    path = tmp_path / "clusters.csv"
    write_clusters_csv(path, corpus.clusters)
    again, bad = load_clusters_csv(path)
    assert again == corpus.clusters
    assert bad == []


# --- slotted records -------------------------------------------------------------


@pytest.mark.parametrize("cls, values", [
    (AuthorCareer, ("a1", 2008, {2008: 2})),
    (AuthorProfile, ("a1", 2008, 2010, {2010: 1}, {2010: 4}, 1, Fraction(25), 2)),
    (QuadrantAssignment, ("a1", "casual", 3, Fraction(1, 3))),
])
def test_slotted_record_equality_and_repr(cls, values):
    record = cls(*values)
    assert record == cls(*values)
    assert not record != cls(*values)
    for i in range(len(values)):
        changed = list(values)
        changed[i] = "other"
        assert record != cls(*changed)
    assert record != values  # unlike a NamedTuple, never equal to a plain tuple
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, values))
    assert repr(record) == f"{cls.__name__}({fields})"
    assert cls(**dict(zip(cls._fields, values))) == record
    with pytest.raises(AttributeError):
        record.extra = 1  # slots: no attribute beyond the fields
