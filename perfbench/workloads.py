"""Workload definitions: corpus shapes and the invocations of one pass.

Every workload runs all six reporting subcommands, so every end-to-end metric
exists on every workload; the flags of the subcommands a workload is built
around follow its purpose (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from corpusgen import KEPT_DOC_TYPES, TERMS, Shape

SUBCOMMANDS = ("validate", "cohorts", "indicators", "classify", "overlay", "compare")

WIDE = Shape(
    records=10_000,
    first_year=2003,
    labels=((("A",), 13), (("A", "B"), 2), (("B",), 12), (("L1",), 15), (("L2",), 15),
            (("L3",), 10), ((), 33)),
    team=(1, 8),
    p_repeat=0.7,
    p_cross=0.1,
    clusters=250,
    p_unclustered=0.05,
    p_unknown_cluster=0.002,
    p_plant=0.05,
    text=True,
)

DENSE = Shape(
    records=8_000,
    first_year=2006,
    labels=((("A",), 45), (("A", "B"), 15), (("B",), 38), ((), 2)),
    team=(2, 8),
    p_repeat=0.75,
    p_cross=0.15,
    clusters=800,
    p_unclustered=0.03,
    p_unknown_cluster=0.0,
    p_plant=0.0,
    text=False,
)

SMALL = Shape(
    records=2_500,
    first_year=2006,
    labels=((("A",), 35), (("A", "B"), 5), (("B",), 25), (("L1",), 10), ((), 25)),
    team=(1, 6),
    p_repeat=0.65,
    p_cross=0.1,
    clusters=150,
    p_unclustered=0.05,
    p_unknown_cluster=0.0,
    p_plant=0.05,
    text=True,
)

SMALL_CORPORA = 10
# After these corpora a pass also runs the four other subcommands, always on
# corpus s00: samples of one subcommand then come from one corpus, so their
# median does not jump between two corpora of different cost.
SMALL_SIDE_SLOTS = (0, 3, 5, 8)

_TERMS = ["--terms", ",".join(TERMS), "--doc-types", ",".join(KEPT_DOC_TYPES)]


@dataclass(frozen=True)
class Invocation:
    corpus: str  # key into Workload.corpora
    subcommand: str
    flags: tuple[str, ...]  # beyond --corpus/--careers/--clusters/--topic/--out
    clusters: bool  # pass --clusters
    view: str  # ledger view the reports are checked against

    @property
    def key(self) -> str:
        return f"{self.corpus}.{self.subcommand}"


@dataclass(frozen=True)
class Workload:
    name: str
    corpora: dict[str, Shape]
    passes: tuple[Invocation, ...]


def _full_set(corpus: str, *, terms: bool, threads_on: str, json_map: bool, pooled: bool):
    threads = ("--threads", "2")
    return (
        Invocation(corpus, "validate", (), True, "A"),
        Invocation(corpus, "cohorts", tuple(_TERMS) if terms else (), False,
                   "A_terms" if terms else "A"),
        Invocation(corpus, "indicators", threads if threads_on == "indicators" else (), False, "A"),
        Invocation(corpus, "classify", (), True, "A"),
        Invocation(corpus, "overlay", ("--map-format", "json") if json_map else (), True, "A"),
        Invocation(
            corpus,
            "compare",
            ("--topic-b", "B")
            + (("--pooled-thresholds",) if pooled else ())
            + (threads if threads_on == "compare" else ()),
            True,
            "A",
        ),
    )


def _small_passes() -> tuple[Invocation, ...]:
    side = [inv for inv in _full_set("s00", terms=True, threads_on="", json_map=False, pooled=False)
            if inv.subcommand not in ("indicators", "overlay")]
    out = []
    for i in range(SMALL_CORPORA):
        full = _full_set(f"s{i:02d}", terms=True, threads_on="", json_map=False, pooled=False)
        out.extend(inv for inv in full if inv.subcommand in ("indicators", "overlay"))
        if i in SMALL_SIDE_SLOTS:
            out.extend(side)
    return tuple(out)


WORKLOADS = {
    "wide_ingest": Workload(
        "wide_ingest",
        {"wide": WIDE},
        _full_set("wide", terms=True, threads_on="indicators", json_map=False, pooled=False),
    ),
    "dense_community": Workload(
        "dense_community",
        {"dense": DENSE},
        _full_set("dense", terms=False, threads_on="compare", json_map=True, pooled=True),
    ),
    "small_extracts": Workload(
        "small_extracts",
        {f"s{i:02d}": SMALL for i in range(SMALL_CORPORA)},
        _small_passes(),
    ),
}
