"""Self-checks of the benchmark: generator, ledger checks, metric lists.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpusgen  # noqa: E402
import run  # noqa: E402
from checker import DigestBook, check_run  # noqa: E402
from workloads import SMALL, SUBCOMMANDS, WORKLOADS, _full_set  # noqa: E402

TINY = replace(SMALL, records=600, clusters=40)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp, "a"), Path(tmp, "b")
            corpusgen.generate(TINY, "s:1", a)
            corpusgen.generate(TINY, "s:1", b)
            corpusgen.generate(TINY, "s:2", Path(tmp, "c"))
            for name in ("publications.jsonl", "careers.csv", "clusters.csv", "ledger.json"):
                self.assertEqual((a / name).read_bytes(), (b / name).read_bytes(), name)
            self.assertNotEqual((a / "publications.jsonl").read_bytes(),
                                Path(tmp, "c", "publications.jsonl").read_bytes())

    def test_generator_does_not_import_the_program(self):
        code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import corpusgen, workloads, checker; "
                "sys.exit(any(m.startswith('communitylens') for m in sys.modules))")
        self.assertEqual(subprocess.run([sys.executable, "-c", code]).returncode, 0)


class LedgerCheckTest(unittest.TestCase):
    """Every subcommand's reports agree with the ledger; corruption is caught."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp())
        cls.ledger = corpusgen.generate(TINY, "t:0", cls.tmp / "corpora" / "c")
        cls.runner = run.Runner(cls.tmp)
        cls.invocations = _full_set("c", terms=True, threads_on="indicators", json_map=True,
                                    pooled=True)
        cls.rc = {}
        for inv in cls.invocations:
            out = cls.tmp / "out" / inv.key
            _, cls.rc[inv.key], _, _ = cls.runner.spawn(run.LAUNCH + run.argv_for(inv, cls.tmp, out))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def test_reports_match_ledger(self):
        self.assertGreater(self.ledger["A_terms"]["delineated"], 0)
        for inv in self.invocations:
            self.assertEqual(self.rc[inv.key], 0, inv.key)
            self.assertEqual(check_run(inv.subcommand, self.tmp / "out" / inv.key, self.ledger, inv.view),
                             [], inv.key)

    def test_corrupted_report_raises_error_rate(self):
        inv = next(i for i in self.invocations if i.subcommand == "indicators")
        out = self.tmp / "out" / inv.key
        bad = self.tmp / "bad"
        shutil.copytree(out, bad)
        rows = (bad / "cohorts.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        cells = rows[3].split(",")
        cells[0] = str(int(cells[0]) + 1)
        rows[3] = ",".join(cells)
        (bad / "cohorts.csv").write_text("".join(rows), encoding="utf-8")

        runner = run.Runner(self.tmp)
        runner.tally(inv.key, check_run(inv.subcommand, out, self.ledger, inv.view))
        runner.tally(inv.key, check_run(inv.subcommand, bad, self.ledger, inv.view))
        self.assertEqual((runner.attempted, runner.failed), (2, 1))
        self.assertGreater(runner.failed / runner.attempted, 0)

    def test_changed_digest_is_caught(self):
        inv = next(i for i in self.invocations if i.subcommand == "classify")
        out = self.tmp / "out" / inv.key
        book = DigestBook()
        self.assertEqual(book.check(inv.key, out), [])
        moved = self.tmp / "moved"
        shutil.copytree(out, moved)
        manifest = json.loads((moved / "manifest.json").read_text(encoding="utf-8"))
        manifest["outputs"]["quadrant_authors.csv"] = "0" * 64
        (moved / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        self.assertNotEqual(book.check(inv.key, moved), [])

    def test_missing_manifest_is_a_failure(self):
        self.assertEqual(check_run("cohorts", self.tmp / "nowhere", self.ledger, "A"),
                         ["manifest.json missing"])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_every_metric_and_workload(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_every_workload_runs_every_subcommand(self):
        for workload in WORKLOADS.values():
            self.assertEqual({inv.subcommand for inv in workload.passes}, set(SUBCOMMANDS))


if __name__ == "__main__":
    unittest.main()
