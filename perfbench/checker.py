"""Output checks: report files against the generator's ledger, digests across passes.

Each check returns a list of problems; an empty list means the invocation's
outputs are correct. Percentages are recomputed here from the ledger counts
with half-up rounding to one decimal, independently of the program.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from pathlib import Path

from corpusgen import BANDS


def _pct(part: int, whole: int) -> str:
    """100 * part / whole rounded half up to one decimal; 0.0 on a zero base."""
    if whole == 0:
        return "0.0"
    tenths = int(Fraction(1000 * part, whole) + Fraction(1, 2))
    return f"{tenths // 10}.{tenths % 10}"


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_cohorts(path: Path, view: dict) -> list[str]:
    rows = _rows(path)
    expected = view["cohorts"]
    if len(rows) != len(expected) + 1:
        return [f"{path.name}: {len(rows) - 1} rows, expected {len(expected)}"]
    problems = []
    for i, (row, (n_all, n_old, n_new, n_newborn, n_stay)) in enumerate(zip(rows[1:], expected)):
        want = [
            str(n_all), str(n_old), str(n_new), str(n_newborn),
            "" if n_stay is None else str(n_stay),
            _pct(n_old, n_all), _pct(n_new, n_all), _pct(n_newborn, n_new),
            "" if n_stay is None else _pct(n_stay, n_new),
        ]
        if row[:9] != want:
            problems.append(f"{path.name} row {i + 1}: {row[:9]} != ledger {want}")
    return problems


def check_bands(path: Path, view: dict) -> list[str]:
    rows = _rows(path)[1:]
    total = sum(view["bands"])
    want = [[label, str(n), _pct(n, total)] for (label, _, _), n in zip(BANDS, view["bands"])]
    got = [[r[0], r[3], r[4]] for r in rows]
    return [] if got == want else [f"{path.name}: bands {got} != ledger {want}"]


def check_run(subcommand: str, out: Path, ledger: dict, view: str) -> list[str]:
    """Compare one invocation's reports with the ledger."""
    if not (out / "manifest.json").is_file():
        return ["manifest.json missing"]
    v = ledger[view]
    try:
        if subcommand == "validate":
            text = (out / "validation.txt").read_text(encoding="utf-8")
            want = (
                f"publications loaded: {ledger['in_horizon']}\n"
                f"dropped outside horizon: {ledger['lines'] - ledger['in_horizon']}\n"
            )
            return [] if text.startswith(want) else [f"validation.txt does not start with {want!r}"]
        if subcommand == "cohorts":
            return check_cohorts(out / "cohorts.csv", v)
        if subcommand == "indicators":
            problems = check_cohorts(out / "cohorts.csv", v) + check_bands(out / "bands.csv", v)
            got = [r[1:4] for r in _rows(out / "indicators.csv")[1:]]
            want = [[str(c[0]), str(c[2]), str(c[1])] for c in v["cohorts"]]
            if got != want:
                problems.append("indicators.csv: n_authors/n_new/n_old disagree with the ledger")
            return problems
        if subcommand == "classify":
            n = len(_rows(out / "quadrant_authors.csv")) - 1
            return [] if n == v["n_authors"] else [
                f"quadrant_authors.csv: {n} rows, ledger has {v['n_authors']} topic authors"
            ]
        if subcommand == "overlay":
            got = {r[0]: int(r[5]) for r in _rows(out / "overlay.csv")[1:]}
            return [] if got == v["clusters"] else ["overlay.csv: n_topic_authors disagree with the ledger"]
        if subcommand == "compare":
            b = ledger["B"]
            problems = (
                check_cohorts(out / "a_cohorts.csv", v)
                + check_cohorts(out / "b_cohorts.csv", b)
                + check_bands(out / "a_bands.csv", v)
                + check_bands(out / "b_bands.csv", b)
            )
            summary = dict(_rows(out / "summary.csv")[1:])
            want = {
                "n_authors_a": str(v["n_authors"]),
                "n_authors_b": str(b["n_authors"]),
                "overlap": str(ledger["overlap_ab"]),
            }
            if {k: summary.get(k) for k in want} != want:
                problems.append(f"summary.csv: {summary} disagrees with ledger {want}")
            return problems
    except (OSError, IndexError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    return [f"no check for subcommand {subcommand!r}"]


def output_digests(out: Path) -> dict[str, str]:
    """The per-file output digests recorded in the run's manifest."""
    with open(out / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


class DigestBook:
    """Remembers each invocation's output digests from the first pass."""

    def __init__(self) -> None:
        self._first: dict[str, dict[str, str]] = {}

    def check(self, key: str, out: Path) -> list[str]:
        try:
            digests = output_digests(out)
        except (OSError, ValueError, KeyError) as exc:
            return [f"manifest.json unreadable: {exc}"]
        first = self._first.setdefault(key, digests)
        changed = sorted(name for name in first.keys() | digests.keys()
                         if first.get(name) != digests.get(name))
        return [f"output digests differ from the first pass: {', '.join(changed)}"] if changed else []
