"""Traced in-process replay of one CLI invocation.

Usage: python3 tracer.py plain|traced RESULT.json SUBCOMMAND [FLAGS...]
(with the program on PYTHONPATH)

Calls ``communitylens.cli.main`` once in this fresh process. In ``plain``
mode it only times the call; in ``traced`` mode it records a span around
every public layer call. Spans are opened by wrappers that replace the layer
functions in every ``communitylens`` module namespace for the call only, so
the replay follows the CLI's own call sequence. A span records its name,
start, end, parent span and pass id; the root span is the subcommand.
Collector pauses reported by ``gc.callbacks`` are charged to every layer
with a span open at the time, following parent links across threads. Spans
stay in memory until the call ends and are then written to RESULT.json with
the counts taken at the layer boundaries (``LoadReport`` fields, topic
authors, clusters touched, bytes written).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import io
import json
import sys
import threading
import time
from pathlib import Path

# (layer, module, public functions); every emit_* of reports and
# compare.comparison_files are one metric, reports.emit
LAYERS = (
    ("corpus", "corpus", ("load_corpus", "load_careers_csv", "load_clusters_csv", "validate")),
    ("cohorts", "cohorts", ("topic_activity", "cohort_series")),
    ("indicators", "indicators", ("author_profiles", "year_summaries", "production_bands")),
    ("classify", "classify", ("resolve_thresholds", "classify_authors")),
    ("overlay", "overlay", ("cluster_overlay", "area_rollup")),
    ("compare", "compare", ("compare",)),
    ("reports", "reports", ("build_manifest", "write_run")),
)

PASS_ID = "trace-0"  # a run replays one pass


class Tracer:
    """Span recorder; one instance per replay."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.loads: list[str] = []  # publications path of every load_corpus call
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._gc_start: dict[int, float] = {}
        self.gc_s: dict[str, float] = {}  # layer -> pauses while any of its spans was open
        self._lock = threading.Lock()

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def _innermost(self) -> int | None:
        stack = self._stacks.get(threading.get_ident()) or self._stacks.get(self._main)
        return stack[-1] if stack else None

    def open(self, name: str) -> int | None:
        """Push a span; None when the same metric is already open (no double count)."""
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if any(self.spans[i]["name"] == name for i in stack):
            return None
        with self._lock:
            span_id = len(self.spans)
            self.spans.append({
                "id": span_id, "name": name, "parent": self._innermost(),
                "pass": PASS_ID, "start": time.perf_counter(), "end": None,
            })
        stack.append(span_id)
        return span_id

    def close(self, span_id: int | None) -> None:
        if span_id is None:
            return
        self.spans[span_id]["end"] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def on_gc(self, phase: str, info: dict) -> None:
        ident = threading.get_ident()
        if phase == "start":
            self._gc_start[ident] = time.perf_counter()
            return
        started = self._gc_start.pop(ident, None)
        span_id = self._innermost()
        if started is None:
            return
        pause = time.perf_counter() - started
        layers = set()
        while span_id is not None:
            span = self.spans[span_id]
            layers.add(span["name"].split(".")[0])
            span_id = span["parent"]
        for layer in layers:
            self.gc_s[layer] = self.gc_s.get(layer, 0.0) + pause


def _wrap(tracer: Tracer, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span_id = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span_id)
        if on_result is not None and span_id is not None:
            on_result(args, kwargs, result)
        return result

    return traced


def _layer_functions() -> dict[object, str]:
    """Original layer function -> metric name."""
    funcs: dict[object, str] = {}
    for layer, module_name, names in LAYERS:
        module = importlib.import_module(f"communitylens.{module_name}")
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:
                print(f"tracer: communitylens.{module_name}.{name} not found; not traced", file=sys.stderr)
            else:
                funcs[fn] = f"{layer}.{name}"
    reports = importlib.import_module("communitylens.reports")
    for name, fn in vars(reports).items():
        if name.startswith("emit_") and callable(fn):
            funcs[fn] = "reports.emit"
    compare = importlib.import_module("communitylens.compare")
    if hasattr(compare, "comparison_files"):
        funcs[compare.comparison_files] = "reports.emit"
    return funcs


def _result_hooks(tracer: Tracer) -> dict:
    def loaded(args, kwargs, corpus):
        tracer.loads.append(str(args[0]))
        report = corpus.load_report
        tracer.count("records_parsed", report.publications_parsed)
        tracer.count("records_loaded", report.publications_loaded)
        tracer.count("dropped_out_of_horizon", report.dropped_out_of_horizon)
        tracer.count("dropped_doc_type", report.dropped_doc_type)
        tracer.count("delineated", report.delineated)
        topic = kwargs.get("delineate_topic")
        if kwargs.get("delineate_terms") and topic:
            # every loaded record not flagged before loading was tested
            flagged = sum(1 for rec in corpus.publications if topic in rec.topic_flags)
            tracer.count("delineate_checked", report.publications_loaded - flagged + report.delineated)

    def written(args, kwargs, result):
        files = args[1] if len(args) > 1 else kwargs["files"]
        tracer.count("bytes_written", sum(len(text.encode("utf-8")) for text in files.values()))

    return {
        "corpus.load_corpus": loaded,
        "cohorts.topic_activity": lambda a, k, r: tracer.count("topic_authors", len(r)),
        "overlay.cluster_overlay": lambda a, k, r: tracer.count("clusters_touched", len(r)),
        "reports.write_run": written,
    }


@contextlib.contextmanager
def installed(tracer: Tracer, funcs: dict[object, str]):
    """Replace every binding of a layer function with its traced wrapper."""
    hooks = _result_hooks(tracer)
    wrappers = {id(fn): _wrap(tracer, name, fn, hooks.get(name)) for fn, name in funcs.items()}
    patched = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("communitylens"):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
                patched.append((module, attr, value))
    gc.callbacks.append(tracer.on_gc)
    try:
        yield
    finally:
        gc.callbacks.remove(tracer.on_gc)
        for module, attr, value in patched:
            setattr(module, attr, value)


def run(argv: list[str], traced: bool) -> dict:
    """One CLI invocation in this process, plain or traced."""
    from communitylens import cli

    tracer = Tracer()
    with contextlib.redirect_stdout(io.StringIO()):
        if traced:
            with installed(tracer, _layer_functions()):
                root = tracer.open(f"cli.{argv[0]}")
                try:
                    rc = cli.main(argv)
                finally:
                    tracer.close(root)
            wall = tracer.spans[root]["end"] - tracer.spans[root]["start"]
        else:
            start = time.perf_counter()
            rc = cli.main(argv)
            wall = time.perf_counter() - start
    return {"rc": rc, "wall_s": wall, "spans": tracer.spans, "counts": tracer.counts,
            "gc_s": tracer.gc_s, "loads": tracer.loads}


def main(argv: list[str]) -> int:
    mode, result_path, *cli_argv = argv
    result = run(cli_argv, traced=mode == "traced")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
