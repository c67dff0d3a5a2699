"""Command-line front end.

Subcommands: validate | cohorts | indicators | classify | overlay | compare |
synth, each taking only the flags it reads (`_SUBCOMMANDS`). Flags may also
come from a JSON config file named by COMMUNITYLENS_CONFIG; each value is
checked like the flag it names, and explicit flags always win.

Exit codes: 0 success, 1 data failure (such as a corpus that does not load,
named by file and line on stderr), 2 usage error. Reports are staged in memory
and written atomically (temp file + rename, manifest.json last), so a failed
run leaves no partial outputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .classify import RULES, DegenerateDistributionError, resolve_thresholds
from .cohorts import STAY_DENOMINATORS, UnknownTopicError, cohort_series, topic_activity
from .compare import CommunitySide, build_side, classify_side, compare, comparison_files, side_files
from .corpus import DEFAULT_HORIZON, Corpus, CorpusError, load_corpus
from .indicators import FOCUS_MODES, CareerDataError, author_profiles
from .overlay import area_rollup, cluster_overlay, stay_status
from .reports import (
    COLOR_METRICS,
    atomic_write_text,
    build_manifest,
    emit_areas_csv,
    emit_map_csv,
    emit_map_json,
    emit_overlay_csv,
    sha256_file,
    sha256_text,
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
    known = {flag[2:].replace("-", "_") for _, flags in _SUBCOMMANDS.values() for flag in flags}
    unknown = sorted(set(config) - known)
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


# flag -> add_argument settings; each flag is declared once
_FLAGS = {
    "--corpus": dict(help="publications JSONL path"),
    "--careers": dict(help="careers CSV path"),
    "--clusters": dict(help="clusters CSV path"),
    "--topic": dict(help="topic label"),
    "--horizon": dict(type=_horizon, default="%d:%d" % DEFAULT_HORIZON, metavar="Y0:Y1"),
    "--doc-types": dict(metavar="A,B", help="keep only these doc_type values"),
    "--terms": dict(metavar="T1,T2", help="delineate --topic by matching these phrases"),
    "--threads": dict(type=_positive_int, default=1, metavar="N",
                      help="accepted for forward compatibility; changes nothing yet"),
    "--out": dict(metavar="DIR"),
    "--window": dict(type=_positive_int, default=2, metavar="N",
                     help="stay window in years (default 2)"),
    "--stay-denominator": dict(choices=STAY_DENOMINATORS, default="new"),
    "--raw": dict(action="store_true", help="append full-precision columns"),
    "--focus-mode": dict(choices=FOCUS_MODES, default="total"),
    "--threshold-rule": dict(choices=RULES, default="promote"),
    "--color-metric": dict(choices=COLOR_METRICS, default="p_au"),
    "--map-format": dict(choices=["csv", "json"], default="csv"),
    "--topic-b": dict(help="second topic label"),
    "--corpus-b": dict(help="publications for side b (defaults to --corpus)"),
    "--careers-b": dict(),
    "--clusters-b": dict(),
    "--pooled-thresholds": dict(action="store_true"),
    "--seed": dict(type=int, default=0),
    "--entrants": dict(type=int, default=100, help="new entrants per horizon year"),
    "--entrants-map": dict(metavar="Y=N,...", help="override entrants for specific years"),
    "--p-newborn": dict(type=float, default=0.35),
    "--stay-prob": dict(type=float, default=0.16),
    "--alpha": dict(type=float, default=2.0),
    "--clusters-n": dict(type=int, default=0),
    "--areas-n": dict(type=int, default=1),
    "--topic-share": dict(type=float, default=0.6),
    "--max-production": dict(type=int, default=10_000),
    "--career-back": dict(type=int, default=15),
}

# subcommand -> (help, the flags it reads); argparse rejects any other flag
_LOAD = ("--corpus", "--careers", "--clusters", "--topic", "--horizon", "--doc-types", "--terms",
         "--threads", "--out")
_COHORTS = ("--window", "--stay-denominator", "--raw")
_SUBCOMMANDS = {
    "validate": ("load corpus files, count what was dropped or repaired", _LOAD),
    "cohorts": ("per-year cohort table", _LOAD + _COHORTS),
    "indicators": ("cohorts plus indicator summaries and bands",
                   _LOAD + _COHORTS + ("--focus-mode",)),
    "classify": ("quadrant classification", _LOAD + ("--raw", "--focus-mode", "--threshold-rule")),
    "overlay": ("cluster overlay and area rollups",
                _LOAD + ("--window", "--raw", "--focus-mode", "--color-metric", "--map-format")),
    "compare": ("two-community comparison",
                _LOAD + _COHORTS + ("--focus-mode", "--threshold-rule", "--topic-b", "--corpus-b",
                                    "--careers-b", "--clusters-b", "--pooled-thresholds")),
    "synth": ("generate a synthetic corpus",
              ("--topic", "--horizon", "--window", "--out", "--seed", "--entrants",
               "--entrants-map", "--p-newborn", "--stay-prob", "--alpha", "--clusters-n",
               "--areas-n", "--topic-share", "--max-production", "--career-back")),
}


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The CLI's parser. Given argv, only the subcommands named in it get
    their flags: the one argparse picks is among them, and the flags of the
    others would only add to every run's start-up."""
    parser = _Parser(
        prog="communitylens",
        description="Individual-level scientific-community indicators from bibliographic corpora.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, flags) in _SUBCOMMANDS.items():
        # no abbreviations: synth's --clusters-n must not take a stray --clusters
        command = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if argv is None or name in argv:
            for flag in flags:
                command.add_argument(flag, **_FLAGS[flag])
    return parser


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise _Usage(f"--{name.replace('_', '-')} is required for {args.subcommand}")


def _check_out(path: str) -> None:
    """--out, or else its nearest existing ancestor, must be a directory."""
    existing = Path(path)
    while not os.path.exists(existing) and existing != existing.parent:
        existing = existing.parent
    if not os.path.isdir(existing):
        raise _Usage(f"--out {path}: {existing} is not a directory")


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


def _inputs(args: argparse.Namespace) -> dict[str, str]:
    names = ("corpus", "careers", "clusters", "corpus_b", "careers_b", "clusters_b")
    return {name: path for name, path in vars(args).items() if name in names and path is not None}


def _finish(args: argparse.Namespace, files: dict[str, str]) -> int:
    flags = {k: v for k, v in sorted(vars(args).items()) if k != "subcommand"}
    outputs = {name: sha256_text(text) for name, text in files.items()}
    files["manifest.json"] = build_manifest(args.subcommand, flags, _inputs(args), outputs)
    write_run(args.out, files)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    _require(args, "corpus")
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
# the topic, then build a CommunitySide with only the reports the subcommand
# needs. indicators is build_side, and classify adds classify_side: the same
# steps as each side of compare. side_files writes the side; overlay writes
# its own files from the side's profiles.


def _overlay_files(args: argparse.Namespace, corpus: Corpus, side: CommunitySide) -> dict[str, str]:
    if not corpus.clusters:  # the file loaded, so it is a header without rows
        raise CorpusError(f"{args.clusters}: no cluster rows; overlays need cluster metadata")
    status = stay_status(corpus, side.index, side.profiles, args.window)
    overlay_rows = cluster_overlay(corpus, side.index, side.profiles, status)
    rollups = area_rollup(overlay_rows, corpus=corpus, index=side.index, profiles=side.profiles,
                          status=status)
    if args.map_format == "json":
        map_name, map_text = "map.json", emit_map_json(overlay_rows, args.color_metric)
    else:
        map_name, map_text = "map.csv", emit_map_csv(overlay_rows, args.color_metric)
    return {
        "overlay.csv": emit_overlay_csv(overlay_rows, raw=args.raw),
        "areas.csv": emit_areas_csv(rollups, raw=args.raw),
        map_name: map_text,
    }


def _cmd_topic(args: argparse.Namespace) -> int:
    command, topic = args.subcommand, args.topic
    clusters = ("clusters",) if command == "overlay" else ()
    _require(args, "corpus", "topic", *clusters, "out")  # before any input is read
    corpus = _load(args, (topic,))
    index = topic_activity(corpus, topic)
    if not index:
        if command in ("classify", "overlay"):  # the others emit zero rows
            raise UnknownTopicError(topic)
        print(f"warning: topic {topic!r} has no publications; emitting zero rows", file=sys.stderr)
    if command == "indicators":
        side = build_side(corpus, topic, index, args.window, args.stay_denominator, args.focus_mode)
    elif command == "cohorts":
        rows = cohort_series(corpus, topic, args.window, args.stay_denominator)
        side = CommunitySide(topic, index, cohort_rows=rows)
    else:
        side = CommunitySide(topic, index, profiles=author_profiles(corpus, topic, args.focus_mode))
    if command == "overlay":
        return _finish(args, _overlay_files(args, corpus, side))
    if command == "classify":
        side = classify_side(side, corpus, resolve_thresholds(side.profiles, args.threshold_rule))
    return _finish(args, side_files(side, raw=args.raw))


def _cmd_compare(args: argparse.Namespace) -> int:
    _require(args, "topic_b", "corpus", "topic", "out")
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
    names = ["publications.jsonl", "careers.csv", "ground_truth.json"]
    if config.n_clusters:
        names.append("clusters.csv")
    outputs = {name: sha256_file(out / name) for name in names}
    atomic_write_text(out / "manifest.json", build_manifest("synth", config.as_dict(), {}, outputs))
    print(
        f"generated {truth.n_publications} publications, {truth.n_authors} authors -> {out}",
        file=sys.stderr,
    )
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    **dict.fromkeys(("cohorts", "indicators", "classify", "overlay"), _cmd_topic),
    "compare": _cmd_compare,
    "synth": _cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand with the cyclic garbage collector off.

    A run builds millions of dicts, sets and Fractions and no reference
    cycle, so collector passes would only pause it. The caller's collector
    state is restored on return, for in-process callers such as tests.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        parser = build_parser(argv)
        try:
            args = _parse_args(parser, argv)
        except SystemExit as exc:  # --help, --version
            return int(exc.code or 0)
        if args.out is not None:
            _check_out(args.out)  # before any input is read
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
