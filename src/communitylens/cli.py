"""Command-line front end.

Subcommands: validate | cohorts | indicators | classify | overlay | compare |
synth. Flags may also come from a JSON config file named by the
COMMUNITYLENS_CONFIG environment variable; each value is checked like the flag
it names, and explicit flags always win.

Exit codes: 0 success, 1 data failure (such as a corpus that does not load,
named by file and line on stderr), 2 usage error. Reports are staged in memory
and written atomically (temp file + rename, manifest.json last), so a failed
run leaves no partial outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .classify import DegenerateDistributionError, classify_authors, resolve_thresholds
from .cohorts import TopicIndex, UnknownTopicError, cohort_series, topic_activity
from .compare import compare, comparison_files
from .corpus import Corpus, CorpusError, load_corpus
from .indicators import (
    AuthorProfile,
    CareerDataError,
    author_profiles,
    production_bands,
    year_summaries,
)
from .overlay import area_rollup, cluster_overlay
from .reports import (
    atomic_write_text,
    build_manifest,
    emit_areas_csv,
    emit_bands_csv,
    emit_cohorts_csv,
    emit_indicators_csv,
    emit_map_csv,
    emit_map_json,
    emit_overlay_csv,
    emit_quadrant_authors_csv,
    emit_quadrant_summary_csv,
    emit_thresholds_json,
    sha256_file,
    write_run,
)
from .synthgen import GeneratorConfig, InfeasibleConfigError, generate

ENV_CONFIG = "COMMUNITYLENS_CONFIG"


class _Usage(Exception):
    """Raised for usage-level failures mapped to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """A bad flag or config value is a usage error like any other."""
        raise _Usage(message)


def _load_env_config() -> dict:
    path = os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise _Usage(f"{ENV_CONFIG} points to missing file {path}") from None
    except json.JSONDecodeError as exc:
        raise _Usage(f"{ENV_CONFIG} file {path} is not valid JSON: {exc.msg}") from None
    if not isinstance(config, dict):
        raise _Usage(f"{ENV_CONFIG} file {path} must hold a JSON object")
    return config


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv with the env config's values given as flags.

    Each key that the subcommand takes becomes a --key=value token right after
    the subcommand, so it passes that flag's own checks and an explicit flag,
    which comes later, wins. Keys of other subcommands are accepted and unused.
    """
    config = _load_env_config()
    args = parser.parse_args(argv)
    if not config:
        return args
    path = os.environ[ENV_CONFIG]
    known = set().union(*(vars(parser.parse_args([name])) for name in _HANDLERS))
    unknown = sorted(set(config) - (known - {"subcommand"}))
    if unknown:
        raise _Usage(f"{ENV_CONFIG} file {path} has unknown keys: {', '.join(unknown)}")
    defaults = vars(parser.parse_args([args.subcommand]))
    tokens: list[str] = []
    for key in sorted(config.keys() & defaults.keys()):
        value, flag = config[key], "--" + key.replace("_", "-")
        if defaults[key] is False and isinstance(value, bool):  # an on/off switch
            given = [flag] if value else []
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            given = [f"{flag}={value}"]
        else:
            raise _Usage(f"{ENV_CONFIG} file {path}, key {key!r}: "
                         f"expected a string or a number, got {json.dumps(value)}")
        try:
            parser.parse_args([args.subcommand, *given])
        except _Usage as exc:
            raise _Usage(f"{ENV_CONFIG} file {path}, key {key!r}: {exc}") from None
        tokens += given
    at = argv.index(args.subcommand) + 1
    return parser.parse_args([*argv[:at], *tokens, *argv[at:]])


def _parse_horizon(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(":")
        horizon = (int(a), int(b))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected Y0:Y1, got {text!r}") from None
    if horizon[0] > horizon[1]:
        raise argparse.ArgumentTypeError(f"range is empty: {text}")
    return horizon


def _horizon(text: str) -> str:
    """Type of --horizon: a valid Y0:Y1, kept as given for the manifest."""
    _parse_horizon(text)
    return text


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _split_csv(text: str | None) -> list[str] | None:
    if text is None:
        return None
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise _Usage(f"expected a comma-separated list, got {text!r}")
    return items


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="communitylens",
        description="Individual-level scientific-community indicators from bibliographic corpora.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--corpus", help="publications JSONL path")
    common.add_argument("--careers", help="careers CSV path")
    common.add_argument("--clusters", help="clusters CSV path")
    common.add_argument("--topic", help="topic label")
    common.add_argument("--horizon", type=_horizon, default="2008:2017", metavar="Y0:Y1")
    common.add_argument("--window", type=_positive_int, default=2, metavar="N",
                        help="stay window in years (default 2)")
    common.add_argument("--stay-denominator", choices=["new", "all"], default="new")
    common.add_argument("--threads", type=_positive_int, default=1, metavar="N",
                        help="accepted for forward compatibility; changes nothing yet")
    common.add_argument("--out", metavar="DIR")
    common.add_argument("--raw", action="store_true", help="append full-precision columns")
    common.add_argument("--doc-types", metavar="A,B", help="keep only these doc_type values")
    common.add_argument("--terms", metavar="T1,T2",
                        help="delineate --topic by matching these phrases")
    common.add_argument("--threshold-rule", choices=["promote", "strict", "inclusive"],
                        default="promote")
    common.add_argument("--focus-mode", choices=["total", "annual"], default="total")

    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub.add_parser("validate", parents=[common],
                   help="load corpus files, count what was dropped or repaired")
    sub.add_parser("cohorts", parents=[common], help="per-year cohort table")
    sub.add_parser("indicators", parents=[common], help="cohorts plus indicator summaries and bands")
    sub.add_parser("classify", parents=[common], help="quadrant classification")

    overlay_p = sub.add_parser("overlay", parents=[common], help="cluster overlay and area rollups")
    overlay_p.add_argument("--color-metric", choices=["p_au", "p_stay"], default="p_au")
    overlay_p.add_argument("--map-format", choices=["csv", "json"], default="csv")

    compare_p = sub.add_parser("compare", parents=[common], help="two-community comparison")
    compare_p.add_argument("--topic-b", help="second topic label")
    compare_p.add_argument("--corpus-b", help="publications for side b (defaults to --corpus)")
    compare_p.add_argument("--careers-b")
    compare_p.add_argument("--clusters-b")
    compare_p.add_argument("--pooled-thresholds", action="store_true")

    synth_p = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus")
    synth_p.add_argument("--seed", type=int, default=0)
    synth_p.add_argument("--entrants", type=int, default=100, help="new entrants per horizon year")
    synth_p.add_argument("--entrants-map", metavar="Y=N,...",
                         help="override entrants for specific years")
    synth_p.add_argument("--p-newborn", type=float, default=0.35)
    synth_p.add_argument("--stay-prob", type=float, default=0.16)
    synth_p.add_argument("--alpha", type=float, default=2.0)
    synth_p.add_argument("--clusters-n", type=int, default=0)
    synth_p.add_argument("--areas-n", type=int, default=1)
    synth_p.add_argument("--topic-share", type=float, default=0.6)
    synth_p.add_argument("--max-production", type=int, default=10_000)
    synth_p.add_argument("--career-back", type=int, default=15)
    return parser


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise _Usage(f"--{name.replace('_', '-')} is required for {args.subcommand}")


def _check_exists(*paths: str | None) -> None:
    for path in paths:
        if path is None:
            continue
        if not os.path.exists(path):
            raise _Usage(f"input file not found: {path}")
        if not os.path.isfile(path):
            raise _Usage(f"input is not a regular file: {path}")
        if not os.access(path, os.R_OK):
            raise _Usage(f"input file is not readable: {path}")


def _load(args: argparse.Namespace, topics: Sequence[str | None], *, side_b: bool = False) -> Corpus:
    """Load --corpus, or compare's --corpus-b, indexing `topics` as it parses.

    --terms delineate --topic, so they apply to --corpus only.
    """
    if side_b:
        paths, terms = (args.corpus_b, args.careers_b, args.clusters_b), None
    else:
        _require(args, "corpus")
        if topics:
            _require(args, "topic")
        paths, terms = (args.corpus, args.careers, args.clusters), _split_csv(args.terms)
    _check_exists(*paths)
    if terms and not args.topic:
        raise _Usage("--terms requires --topic")
    return load_corpus(
        *paths,
        _parse_horizon(args.horizon),
        doc_types=_split_csv(args.doc_types),
        delineate_terms=terms,
        delineate_topic=args.topic if terms else None,
        topics=topics,
    )


def _config_echo(args: argparse.Namespace) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "subcommand"}
    return config


def _inputs(args: argparse.Namespace) -> dict[str, str]:
    inputs = {}
    for name in ("corpus", "careers", "clusters", "corpus_b", "careers_b", "clusters_b"):
        path = getattr(args, name, None)
        if path is not None:
            inputs[name] = path
    return inputs


def _finish(args: argparse.Namespace, files: dict[str, str]) -> int:
    _require(args, "out")
    files = dict(files)
    files["manifest.json"] = build_manifest(
        args.subcommand, _config_echo(args), _inputs(args), files
    )
    write_run(args.out, files)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        corpus = _load(args, ())
    except CorpusError as exc:
        print(f"invalid corpus: {exc}", file=sys.stderr)
        return 1
    text = "\n".join(corpus.load_report.summary_lines()) + "\n"
    print(text, end="")
    if args.out:
        _finish(args, {"validation.txt": text})
    return 0


# --- topic subcommands --------------------------------------------------------
# cohorts, indicators, classify and overlay run one flow: load while indexing
# the topic, build the author profiles when their reports need them, then
# reduce. compare runs the same profile steps for each side inside compare().

Profiles = dict[str, AuthorProfile]


def _cohorts_files(args: argparse.Namespace, corpus: Corpus, index: TopicIndex,
                   profiles: Profiles | None) -> dict[str, str]:
    rows = cohort_series(corpus, args.topic, args.window, args.stay_denominator)
    return {"cohorts.csv": emit_cohorts_csv(rows, raw=args.raw)}


def _indicators_files(args: argparse.Namespace, corpus: Corpus, index: TopicIndex,
                      profiles: Profiles) -> dict[str, str]:
    files = _cohorts_files(args, corpus, index, profiles)
    summaries = year_summaries(corpus, args.topic, profiles=profiles)
    files["indicators.csv"] = emit_indicators_csv(summaries, raw=args.raw)
    files["bands.csv"] = emit_bands_csv(production_bands(profiles), raw=args.raw)
    return files


def _classify_files(args: argparse.Namespace, corpus: Corpus, index: TopicIndex,
                    profiles: Profiles) -> dict[str, str]:
    thresholds = resolve_thresholds(profiles, args.threshold_rule)
    result = classify_authors(profiles, thresholds, corpus=corpus, index=index)
    return {
        "quadrant_authors.csv": emit_quadrant_authors_csv(result, raw=args.raw),
        "quadrant_summary.csv": emit_quadrant_summary_csv(result, raw=args.raw),
        "thresholds.json": emit_thresholds_json(result),
    }


def _overlay_files(args: argparse.Namespace, corpus: Corpus, index: TopicIndex,
                   profiles: Profiles) -> dict[str, str]:
    if not corpus.clusters:  # the file loaded, so it is a header without rows
        raise CorpusError(f"{args.clusters}: no cluster rows; overlays need cluster metadata")
    rows = cohort_series(corpus, args.topic, args.window, args.stay_denominator)
    overlay_rows = cluster_overlay(corpus, index, profiles, rows)
    rollups = area_rollup(overlay_rows, index=index, profiles=profiles, cohort_rows=rows)
    if args.map_format == "json":
        map_name, map_text = "map.json", emit_map_json(overlay_rows, args.color_metric)
    else:
        map_name, map_text = "map.csv", emit_map_csv(overlay_rows, args.color_metric)
    return {
        "overlay.csv": emit_overlay_csv(overlay_rows, raw=args.raw),
        "areas.csv": emit_areas_csv(rollups, raw=args.raw),
        map_name: map_text,
    }


# subcommand -> (report builder, extra required flags, builds profiles,
# absent topic emits zero rows; otherwise it is a data error)
_TOPIC_COMMANDS = {
    "cohorts": (_cohorts_files, (), False, True),
    "indicators": (_indicators_files, (), True, True),
    "classify": (_classify_files, (), True, False),
    "overlay": (_overlay_files, ("clusters",), True, False),
}


def _cmd_topic(args: argparse.Namespace) -> int:
    build_files, required, builds_profiles, zero_rows_ok = _TOPIC_COMMANDS[args.subcommand]
    _require(args, *required)
    corpus = _load(args, (args.topic,))
    index = topic_activity(corpus, args.topic)
    if not index:
        if not zero_rows_ok:
            raise UnknownTopicError(args.topic)
        print(f"warning: topic {args.topic!r} has no publications; emitting zero rows",
              file=sys.stderr)
    profiles = None
    if builds_profiles:
        profiles = author_profiles(corpus, args.topic, args.focus_mode)
    return _finish(args, build_files(args, corpus, index, profiles))


def _cmd_compare(args: argparse.Namespace) -> int:
    _require(args, "topic_b")
    if not args.corpus_b and (args.careers_b or args.clusters_b):
        raise _Usage("--careers-b and --clusters-b need --corpus-b")
    _check_exists(args.corpus_b, args.careers_b, args.clusters_b)
    if args.corpus_b:
        corpus = _load(args, (args.topic,))
        corpus_b = _load(args, (args.topic_b,), side_b=True)
    else:  # one pass indexes both topics
        corpus, corpus_b = _load(args, (args.topic, args.topic_b)), None
    report = compare(
        corpus, args.topic, args.topic_b, corpus_b,
        stay_window=args.window,
        stay_denominator=args.stay_denominator,
        threshold_rule=args.threshold_rule,
        focus_mode=args.focus_mode,
        pooled_thresholds=args.pooled_thresholds,
    )
    return _finish(args, comparison_files(report, raw=args.raw))


def _cmd_synth(args: argparse.Namespace) -> int:
    _require(args, "out")
    horizon = _parse_horizon(args.horizon)
    entrants = {y: args.entrants for y in range(horizon[0], horizon[1] + 1)}
    if args.entrants_map:
        for pair in _split_csv(args.entrants_map) or []:
            try:
                year_text, count_text = pair.split("=")
                entrants[int(year_text)] = int(count_text)
            except ValueError:
                raise _Usage(f"--entrants-map expects Y=N pairs, got {pair!r}") from None
    config = GeneratorConfig(
        seed=args.seed,
        horizon=horizon,
        authors_per_year=entrants,
        p_newborn=args.p_newborn,
        stay_prob=args.stay_prob,
        lotka_alpha=args.alpha,
        n_clusters=args.clusters_n,
        n_areas=args.areas_n,
        topic_share=args.topic_share,
        topic=args.topic or "topic",
        stay_window=args.window,
        max_production=args.max_production,
        career_back_max=args.career_back,
    )
    truth = generate(config, args.out)
    out = Path(args.out)
    outputs = {}
    for name in ("publications.jsonl", "careers.csv", "clusters.csv", "ground_truth.json"):
        if (out / name).exists():
            outputs[name] = sha256_file(out / name)
    manifest = {
        "tool": "communitylens",
        "version": __version__,
        "subcommand": "synth",
        "config": config.as_dict(),
        "inputs": {},
        "outputs": outputs,
    }
    atomic_write_text(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(
        f"generated {truth.n_publications} publications, {truth.n_authors} authors -> {out}",
        file=sys.stderr,
    )
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    **{name: _cmd_topic for name in _TOPIC_COMMANDS},
    "compare": _cmd_compare,
    "synth": _cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
        try:
            args = _parse_args(parser, sys.argv[1:] if argv is None else list(argv))
        except SystemExit as exc:  # --help, --version
            return int(exc.code or 0)
        return _HANDLERS[args.subcommand](args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (CorpusError, UnknownTopicError, CareerDataError, DegenerateDistributionError) as exc:
        # data-level failures; UnknownTopicError must outrank the ValueError
        # branch below, which maps flag/config mistakes to usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InfeasibleConfigError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
