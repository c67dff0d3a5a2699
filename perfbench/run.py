"""End-to-end and per-layer benchmark of the communitylens CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark generates the workload's corpora from the seed (once per seed;
they are kept under .perfbench/ and are not timed), then runs a closed loop:
one client, one fresh CLI process per invocation, nothing concurrent. It
repeats whole passes of the workload for about S seconds and checks every
invocation's reports against the generator's ledger and against the output
digests of the run's first pass.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it times
passes for half the window, then replays one pass in process with a span
around every public layer call (tracer.py), and its result line carries the
per-layer metrics instead. Every metric is printed
by name with its unit; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checker import DigestBook, check_run  # noqa: E402
from corpusgen import generate  # noqa: E402
from workloads import SUBCOMMANDS, WORKLOADS, Invocation, Workload  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
LAUNCH = [sys.executable, "-c", "import sys; from communitylens.cli import main; sys.exit(main())"]
SETUP_PER_PASS = 3
REFERENCE_NOMINAL_S = 0.2  # normalised times are scaled to this reference duration
REFERENCE_EVERY_S = 1.0  # sample time between two reference runs
MIN_PASSES = 2
CHILD_TIMEOUT_S = 60  # a hung child is killed and counts as failed

END_TO_END = {"setup_s": "s", **{f"{s}_s": "s" for s in SUBCOMMANDS},
              "records_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB"}
# metric -> unit; layer times are inclusive and summed over one traced pass
PER_LAYER = {
    "corpus.load_corpus_s": "s", "corpus.load_careers_csv_s": "s",
    "corpus.load_clusters_csv_s": "s", "corpus.validate_s": "s", "corpus.gc_s": "s",
    "corpus.parse_records_per_s": "1/s", "corpus.records_parsed": "count",
    "corpus.records_loaded": "count", "corpus.dropped_out_of_horizon": "count",
    "corpus.dropped_doc_type": "count", "corpus.delineated": "count",
    "corpus.delineate_hit_ratio": "ratio", "corpus.json_decode_floor_s": "s",
    "cohorts.topic_activity_s": "s", "cohorts.cohort_series_s": "s", "cohorts.gc_s": "s",
    "cohorts.topic_authors": "count",
    "indicators.author_profiles_s": "s", "indicators.year_summaries_s": "s",
    "indicators.production_bands_s": "s", "indicators.gc_s": "s",
    "classify.resolve_thresholds_s": "s", "classify.classify_authors_s": "s", "classify.gc_s": "s",
    "overlay.cluster_overlay_s": "s", "overlay.area_rollup_s": "s", "overlay.gc_s": "s",
    "overlay.clusters_touched": "count",
    "compare.compare_s": "s", "compare.gc_s": "s",
    "reports.emit_s": "s", "reports.build_manifest_s": "s", "reports.write_run_s": "s",
    "reports.bytes_written": "bytes",
    "cli.residual_s": "s", "trace.overhead_pct": "%", "machine.reference_s": "s",
}
LAYER_NAMES = ("corpus", "cohorts", "indicators", "classify", "overlay", "compare", "reports")


class Runner:
    """Spawns CLI processes and keeps the run's tallies."""

    def __init__(self, work: Path) -> None:
        # a fixed hash seed removes one source of run-to-run timing noise
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.stderr_path = work / "stderr.txt"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, argv: list[str]) -> tuple[float, int, float, int]:
        """Run one process to exit: (wall s, exit code, user+sys CPU s, maxrss KiB)."""
        with open(self.stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss

    def tally(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                detail = self.stderr_path.read_text(encoding="utf-8", errors="replace")[-500:]
                self.problems.append(f"{what}: {'; '.join(problems)}\n{detail}".rstrip())


def _fingerprint() -> str:
    digest = hashlib.sha256()
    for name in ("corpusgen.py", "workloads.py"):
        digest.update((HERE / name).read_bytes())
    return digest.hexdigest()


def prepare(workload: Workload, seed: int, work: Path) -> dict[str, dict]:
    """Generate the workload's corpora for this seed unless they are already there."""
    key = f"{workload.name}:{seed}:{_fingerprint()}"
    marker = work / "corpora.key"
    if not (marker.is_file() and marker.read_text(encoding="utf-8") == key):
        shutil.rmtree(work, ignore_errors=True)
        for name, shape in workload.corpora.items():
            generate(shape, f"{workload.name}:{name}:{seed}", work / "corpora" / name)
        marker.write_text(key, encoding="utf-8")
    ledgers = {}
    for name in workload.corpora:
        with open(work / "corpora" / name / "ledger.json", encoding="utf-8") as fh:
            ledgers[name] = json.load(fh)
    return ledgers


def argv_for(inv: Invocation, work: Path, out: Path) -> list[str]:
    corpus = work / "corpora" / inv.corpus
    argv = [inv.subcommand, "--corpus", str(corpus / "publications.jsonl"),
            "--careers", str(corpus / "careers.csv")]
    if inv.clusters:
        argv += ["--clusters", str(corpus / "clusters.csv")]
    if inv.subcommand != "validate":
        argv += ["--topic", "A"]
    return argv + ["--out", str(out)] + list(inv.flags)


def _supported_percentile(values: list[float]) -> str:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return "no tail percentile (n < 20)"
    p = math.floor(100 * (1 - 10 / n))
    ordered = sorted(values)
    return f"p{p}={ordered[math.ceil(p / 100 * n) - 1]:.4f}"


@dataclass
class Sample:
    kind: str  # a subcommand, or "setup" for `communitylens --version`
    key: str
    pass_no: int
    wall: float
    cpu: float = 0.0
    rss_kib: int = 0
    lines: int = 0
    speed: float = 1.0  # REFERENCE_NOMINAL_S / reference time around this sample


def timed_passes(workload, ledgers, work, runner, seconds) -> tuple[list[Sample], list[float]]:
    """Whole passes, as many as fit in the window (at least MIN_PASSES).

    Set-up samples are taken in every pass, so that they span the window.
    A reference run precedes the first sample, follows the last one, and is
    repeated whenever REFERENCE_EVERY_S of samples have run since the last.
    """
    setup_sample(runner)  # warms the file cache and the bytecode cache
    events: list[Sample | float] = []  # samples, and reference durations between them
    since_ref = math.inf
    digests = DigestBook()
    start = time.perf_counter()
    n_passes = 0
    while True:
        todo = [None] * SETUP_PER_PASS + list(workload.passes)
        for inv in todo:
            if since_ref >= REFERENCE_EVERY_S:
                events.append(reference_sample(runner))
                since_ref = 0.0
            if inv is None:
                sample = Sample("setup", "--version", n_passes, setup_sample(runner))
            else:
                out = work / "out" / inv.key
                shutil.rmtree(out, ignore_errors=True)
                wall, rc, cpu, rss = runner.spawn(LAUNCH + argv_for(inv, work, out))
                problems = [f"exit code {rc}"] if rc != 0 else []
                problems += check_run(inv.subcommand, out, ledgers[inv.corpus], inv.view)
                problems += digests.check(inv.key, out)
                runner.tally(inv.key, problems)
                sample = Sample(inv.subcommand, inv.key, n_passes, wall, cpu, rss,
                                ledgers[inv.corpus]["lines"])
            events.append(sample)
            since_ref += sample.wall
        n_passes += 1
        print(f"pass {n_passes}: {time.perf_counter() - start:.1f} s elapsed", file=sys.stderr, flush=True)
        now = time.perf_counter()
        if n_passes >= MIN_PASSES and now - start + (now - start) / n_passes > seconds:
            break
    events.append(reference_sample(runner))

    # each sample's speed factor comes from the reference runs around it
    refs = [i for i, e in enumerate(events) if isinstance(e, float)]
    for before, after in zip(refs, refs[1:]):
        speed = REFERENCE_NOMINAL_S / ((events[before] + events[after]) / 2)
        for sample in events[before + 1:after]:
            sample.speed = speed
    return [e for e in events if isinstance(e, Sample)], [events[i] for i in refs]


def setup_sample(runner: Runner) -> float:
    """Wall time of one fresh `communitylens --version` process."""
    wall, rc, _, _ = runner.spawn(LAUNCH + ["--version"])
    runner.tally("--version", [f"exit code {rc}"] if rc != 0 else [])
    return wall


def reference_sample(runner: Runner) -> float:
    """Wall time of one fresh process running the fixed reference workload."""
    wall, rc, _, _ = runner.spawn([sys.executable, str(HERE / "reference.py")])
    runner.tally("reference", [f"exit code {rc}"] if rc != 0 else [])
    return wall


def end_to_end(samples: list[Sample]) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Speed-normalised values of every end-to-end metric, and the raw ones."""
    normalised: dict[str, list[float]] = {name: [] for name in END_TO_END}
    raw: dict[str, list[float]] = {name: [] for name in END_TO_END}
    for s in samples:
        normalised[f"{s.kind}_s"].append(s.wall * s.speed)
        raw[f"{s.kind}_s"].append(s.wall)
    for p in sorted({s.pass_no for s in samples}):
        runs = [s for s in samples if s.pass_no == p and s.kind != "setup"]
        lines = sum(s.lines for s in runs)
        normalised["records_per_s"].append(lines / sum(s.wall * s.speed for s in runs))
        raw["records_per_s"].append(lines / sum(s.wall for s in runs))
        normalised["cpu_s"].append(sum(s.cpu * s.speed for s in runs))
        raw["cpu_s"].append(sum(s.cpu for s in runs))
        peak = max(s.rss_kib for s in runs) / 1024
        normalised["peak_rss_mb"].append(peak)
        raw["peak_rss_mb"].append(peak)
    return normalised, raw


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _decode_floor(path: Path) -> float:
    """The benchmark's own json.loads of every line of a publications file."""
    start = time.perf_counter()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            json.loads(line)
    return time.perf_counter() - start


def traced_pass(workload, ledgers, work, runner, walls):
    """Replay one pass in process with spans; per-layer metrics and a breakdown.

    Each invocation runs in two fresh tracer processes, one plain and one
    traced, so both start from the same state as a CLI process. Reference
    runs between them scale the layer times like the end-to-end ones; `walls`
    holds each invocation's scaled untraced wall times.
    """
    result_path = work / "trace_result.json"
    invocations: list[dict] = []
    pending: list[dict] = []  # replayed since the last reference run
    last_ref, since_ref = reference_sample(runner), 0.0

    def scale_pending() -> None:
        nonlocal last_ref, since_ref
        ref = reference_sample(runner)
        for item in pending:
            item["speed"] = REFERENCE_NOMINAL_S / ((last_ref + ref) / 2)
        pending.clear()
        last_ref, since_ref = ref, 0.0

    for inv in workload.passes:
        argv = argv_for(inv, work, work / "trace_out" / inv.key)
        runs = {}
        for mode in ("plain", "traced"):
            result_path.unlink(missing_ok=True)
            wall, rc, _, _ = runner.spawn(
                [sys.executable, str(HERE / "tracer.py"), mode, str(result_path)] + argv)
            since_ref += wall
            run = json.loads(result_path.read_text(encoding="utf-8")) if rc == 0 else None
            runner.tally(f"{mode} replay of {inv.key}", [] if run and run["rc"] == 0 else [
                f"tracer exit code {rc}, CLI exit code {run and run['rc']}"])
            runs[mode] = run
        if runs["plain"] is None or runs["traced"] is None:
            return None, {}
        item = {"key": inv.key, "subcommand": inv.subcommand,
                "plain_s": runs["plain"]["wall_s"], **runs["traced"]}
        invocations.append(item)
        pending.append(item)
        if since_ref >= REFERENCE_EVERY_S:
            scale_pending()
    if pending:
        scale_pending()
    (work / "trace.json").write_text(json.dumps(invocations), encoding="utf-8")

    counts: dict[str, int] = {}
    for item in invocations:
        for name, n in item["counts"].items():
            counts[name] = counts.get(name, 0) + n
    want = sum(ledgers[inv.corpus][inv.view]["delineated"] for inv in workload.passes
               if inv.view == "A_terms")
    runner.tally("delineated count", [] if counts.get("delineated", 0) == want else [
        f"LoadReport.delineated summed to {counts.get('delineated', 0)}, ledger {want}"])
    floors: dict[str, float] = {}
    for item in invocations:
        for path in item["loads"]:
            if path not in floors:
                floors[path] = _decode_floor(Path(path))
    floor_speed = REFERENCE_NOMINAL_S / ((last_ref + reference_sample(runner)) / 2)

    def total(name: str) -> float:
        return sum((s["end"] - s["start"]) * item["speed"]
                   for item in invocations for s in item["spans"] if s["name"] == name)

    def gc_of(layer: str) -> float:
        return sum(item["gc_s"].get(layer, 0.0) * item["speed"] for item in invocations)

    breakdown: dict[str, dict[str, float]] = {}
    residual = traced = plain = 0.0
    for item in invocations:
        root = item["spans"][0]
        top = [s for s in item["spans"] if s["parent"] == root["id"]]
        wall = statistics.median(walls[item["key"]])
        covered = _union([(s["start"], s["end"]) for s in top]) * item["speed"]
        residual += wall - covered
        traced += item["wall_s"]
        plain += item["plain_s"]
        row = breakdown.setdefault(item["subcommand"], {"wall": 0.0, "residual": 0.0})
        row["wall"] += wall
        row["residual"] += wall - covered
        for s in top:
            layer = s["name"].split(".")[0]
            row[layer] = row.get(layer, 0.0) + (s["end"] - s["start"]) * item["speed"]

    load_s = total("corpus.load_corpus")
    parse_s = load_s - total("corpus.load_careers_csv") - total("corpus.load_clusters_csv")
    checked = counts.get("delineate_checked", 0)
    metrics = {
        "corpus.load_corpus_s": load_s,
        "corpus.load_careers_csv_s": total("corpus.load_careers_csv"),
        "corpus.load_clusters_csv_s": total("corpus.load_clusters_csv"),
        "corpus.validate_s": total("corpus.validate"),
        "corpus.parse_records_per_s": counts.get("records_parsed", 0) / parse_s,
        "corpus.records_parsed": counts.get("records_parsed", 0),
        "corpus.records_loaded": counts.get("records_loaded", 0),
        "corpus.dropped_out_of_horizon": counts.get("dropped_out_of_horizon", 0),
        "corpus.dropped_doc_type": counts.get("dropped_doc_type", 0),
        "corpus.delineated": counts.get("delineated", 0),
        "corpus.delineate_hit_ratio": counts.get("delineated", 0) / checked if checked else 0.0,
        "corpus.json_decode_floor_s": floor_speed * sum(
            floors[p] for item in invocations for p in item["loads"]),
        "cohorts.topic_authors": counts.get("topic_authors", 0),
        "overlay.clusters_touched": counts.get("clusters_touched", 0),
        "reports.emit_s": total("reports.emit"),
        "reports.bytes_written": counts.get("bytes_written", 0),
        "cli.residual_s": residual,
        "trace.overhead_pct": 100 * (traced - plain) / plain,
    }
    for name in PER_LAYER:
        if name not in metrics and name.endswith(".gc_s"):
            metrics[name] = gc_of(name.split(".")[0])
        elif name not in metrics:
            metrics[name] = total(name[: -len("_s")])
    return metrics, breakdown


def print_breakdown(breakdown: dict[str, dict[str, float]]) -> None:
    print("time split of one pass, scaled untraced wall vs traced top-level layer spans:")
    for sub, row in breakdown.items():
        wall = row["wall"]
        parts = [f"{name} {row[name]:.3f} ({100 * row[name] / wall:.0f}%)"
                 for name in (*LAYER_NAMES, "residual") if name in row]
        print(f"  {sub}: wall {wall:.3f} s = " + ", ".join(parts))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "communitylens" / "cli.py").is_file():
        print(f"error: program source not found at {SRC / 'communitylens'}", file=sys.stderr)
        return 2

    # byte-compile the program as installing it would, so that every child
    # loads bytecode whether or not PYTHONDONTWRITEBYTECODE is set
    compileall.compile_dir(str(SRC / "communitylens"), quiet=1)
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    ledgers = prepare(workload, args.seed, work)
    runner = Runner(work)
    # a traced run spends about half its window on the replay
    window = args.seconds / 2 if args.trace else args.seconds
    samples, refs = timed_passes(workload, ledgers, work, runner, window)
    (work / "samples.json").write_text(
        json.dumps({"references": refs, "samples": [vars(s) for s in samples]}), encoding="utf-8")
    values, raw = end_to_end(samples)

    print(f"workload {workload.name}, seed {args.seed}: {samples[-1].pass_no + 1} passes of "
          f"{len(workload.passes)} invocations, closed loop, 1 client")
    print(f"reference run: median {statistics.median(refs):.4f} s of {len(refs)}, "
          f"times below are scaled to {REFERENCE_NOMINAL_S} s")
    for name, unit in END_TO_END.items():
        v = values[name]
        print(f"{name}: {statistics.median(v):.4f} {unit} (median of {len(v)}, "
              f"{_supported_percentile(v)}; unscaled median {statistics.median(raw[name]):.4f})")

    if args.trace:
        walls: dict[str, list[float]] = {}
        for sample in samples:
            walls.setdefault(sample.key, []).append(sample.wall * sample.speed)
        layer_metrics, breakdown = traced_pass(workload, ledgers, work, runner, walls)
        if layer_metrics is not None:
            layer_metrics["machine.reference_s"] = statistics.median(refs)
            for name, unit in PER_LAYER.items():
                print(f"{name}: {layer_metrics[name]:.6g} {unit}")
            print_breakdown(breakdown)
        metrics = {name: {"value": (layer_metrics or {}).get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}

    print(f"error_rate: {runner.failed / runner.attempted:.4f} "
          f"({runner.failed} failed of {runner.attempted} attempted)")
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
