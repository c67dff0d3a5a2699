import pathlib

import pytest

from communitylens.corpus import load_corpus

from oracles import make_corpus

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# Stayer counts per entry year for the reference decade, split by follow-up
# year. Column sums give the old-author counts; row sums give N_stay.
_NEW_COUNTS = {
    2008: 48, 2009: 26, 2010: 32, 2011: 71, 2012: 262,
    2013: 1151, 2014: 3069, 2015: 5576, 2016: 8430, 2017: 10255,
}
_FOLLOWUPS = {
    2010: {2011: 6},
    2011: {2012: 3, 2013: 2},
    2012: {2013: 25, 2014: 18},
    2013: {2014: 132, 2015: 69},
    2014: {2015: 337, 2016: 192},
    2015: {2016: 816, 2017: 270},
    2016: {2017: 1274},
}


@pytest.fixture(scope="session")
def bd2012_paths():
    base = FIXTURES / "bd2012"
    return base / "publications.jsonl", base / "careers.csv"


@pytest.fixture(scope="session")
def bd2012_corpus(bd2012_paths):
    pubs, careers = bd2012_paths
    # "nanotech" has no records: tests of an absent topic ask for it
    return load_corpus(str(pubs), careers_path=str(careers), topics=["big data", "nanotech"])


def build_series_corpus():
    """Whole-decade cohort fixture with a known stayer schedule."""
    pubs = []
    careers = {}
    n = 0
    for year in range(2008, 2018):
        schedule = []
        for follow_year, count in sorted(_FOLLOWUPS.get(year, {}).items()):
            schedule.extend([follow_year] * count)
        newborns = 107 if year == 2012 else 0
        for i in range(_NEW_COUNTS[year]):
            author = f"u{year}_{i:05d}"
            n += 1
            pubs.append((f"p{n:06d}", year, [author], ["bd"]))
            counts = {year: 1}
            if i < len(schedule):
                n += 1
                pubs.append((f"p{n:06d}", schedule[i], [author], ["bd"]))
                counts[schedule[i]] = 1
            yfp = year if i < newborns else year - 5
            if yfp < year:
                counts[yfp] = 1
            careers[author] = (yfp, counts)
    return make_corpus(pubs, careers)


@pytest.fixture(scope="session")
def series_corpus():
    return build_series_corpus()


def build_threshold_corpus():
    """1000 authors: 87.5% one-paper, 48.5% full-focus, 20 specialists."""
    pubs = []
    careers = {}
    n = 0

    def author(name, topic_counts, career_counts):
        nonlocal n
        for year, k in topic_counts.items():
            for _ in range(k):
                n += 1
                pubs.append((f"p{n:05d}", year, [name], ["bd"]))
        careers[name] = (min(career_counts), career_counts)

    for i in range(465):  # one paper, all of that year's output on topic
        author(f"solo_full{i:03d}", {2012: 1}, {2012: 1})
    for i in range(410):  # one paper, half of the year's output
        author(f"solo_half{i:03d}", {2012: 1}, {2012: 2})
    for i in range(20):  # two papers, fully on topic
        author(f"spec{i:02d}", {2012: 1, 2013: 1}, {2012: 1, 2013: 1})
    for i in range(105):  # two papers, half focus
        author(f"multi_half{i:03d}", {2012: 1, 2013: 1}, {2012: 2, 2013: 2})
    return make_corpus(pubs, careers)


@pytest.fixture(scope="session")
def threshold_corpus():
    return build_threshold_corpus()


def build_age_corpus():
    """265 authors active 2012 with pinned first-year group means."""
    pubs = []
    careers = {}
    n = 0
    for i in range(262):
        a = f"n{i:03d}"
        yfp = 2005 if i < 210 else 2004
        n += 1
        pubs.append((f"p{n:04d}", 2012, [a], ["bd"]))
        careers[a] = (yfp, {yfp: 1, 2012: 1})
    for i in range(3):
        a = f"o{i}"
        n += 1
        pubs.append((f"p{n:04d}", 2010, [a], ["bd"]))
        n += 1
        pubs.append((f"p{n:04d}", 2012, [a], ["bd"]))
        careers[a] = (1994, {1994: 1, 2010: 1, 2012: 1})
    return make_corpus(pubs, careers)


@pytest.fixture(scope="session")
def age_corpus():
    return build_age_corpus()
