import json

import pytest

from communitylens.cli import main
from communitylens.reports import sha256_file, sha256_text


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("COMMUNITYLENS_CONFIG", raising=False)


def bd_args(bd2012_paths, *extra):
    pubs, careers = bd2012_paths
    return ["--corpus", str(pubs), "--careers", str(careers),
            "--topic", "big data", *extra]


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "communitylens" in capsys.readouterr().out


def test_cohorts_reference_row(bd2012_paths, tmp_path):
    out = tmp_path / "run"
    assert main(["cohorts", *bd_args(bd2012_paths, "--out", str(out))]) == 0
    lines = (out / "cohorts.csv").read_text().splitlines()
    assert lines[0] == "N_AU,N_old,N_new,N_newborn,N_stay,P_old,P_new,P_newborn,P_stay"
    assert lines[5] == "265,3,262,107,43,1.1,98.9,40.8,16.4"
    assert len(lines) == 11  # header + one row per horizon year


def test_manifest_digests(bd2012_paths, tmp_path):
    out = tmp_path / "run"
    assert main(["indicators", *bd_args(bd2012_paths, "--out", str(out))]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "communitylens"
    assert manifest["subcommand"] == "indicators"
    assert manifest["config"]["topic"] == "big data"
    assert set(manifest["outputs"]) == {"cohorts.csv", "indicators.csv", "bands.csv"}
    for name, digest in manifest["outputs"].items():
        assert sha256_text((out / name).read_text()) == digest
    pubs, careers = bd2012_paths
    assert manifest["inputs"]["corpus"] == sha256_file(pubs)
    assert manifest["inputs"]["careers"] == sha256_file(careers)
    assert not list(out.glob("*.tmp"))


def test_missing_topic_is_usage_error(bd2012_paths, capsys):
    pubs, careers = bd2012_paths
    code = main(["cohorts", "--corpus", str(pubs), "--careers", str(careers)])
    assert code == 2
    assert "--topic" in capsys.readouterr().err


def test_missing_input_file_is_usage_error(tmp_path, capsys):
    code = main(["cohorts", "--corpus", str(tmp_path / "nope.jsonl"),
                 "--topic", "x", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--corpus", "--careers", "--clusters",
                                  "--corpus-b", "--careers-b", "--clusters-b"])
def test_directory_input_is_usage_error(bd2012_paths, tmp_path, capsys, flag):
    pubs, careers = bd2012_paths
    inputs = {"--corpus": str(pubs), "--careers": str(careers), "--corpus-b": str(pubs)}
    inputs[flag] = str(tmp_path)
    argv = ["compare", "--topic", "big data", "--topic-b", "big data",
            "--out", str(tmp_path / "run")]
    for name, path in inputs.items():
        argv += [name, path]
    assert main(argv) == 2
    assert f"input is not a regular file: {tmp_path}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_side_b_inputs_need_corpus_b(bd2012_paths, tmp_path, capsys):
    pubs, careers = bd2012_paths
    out = tmp_path / "run"
    argv = ["compare", *bd_args(bd2012_paths, "--topic-b", "big data", "--out", str(out))]
    assert main([*argv, "--careers-b", str(careers)]) == 2
    assert "--careers-b and --clusters-b need --corpus-b" in capsys.readouterr().err
    missing = str(tmp_path / "nope.csv")
    assert main([*argv, "--corpus-b", str(pubs), "--careers-b", missing]) == 2
    assert "not found" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_topic_classify_is_data_error(bd2012_paths, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["classify", *bd_args(bd2012_paths, "--out", str(out))[:-2],
                 "--topic", "nope", "--out", str(out)])
    assert code == 1
    assert "nope" in capsys.readouterr().err
    assert not out.exists()  # failed runs leave nothing behind


def test_unknown_topic_overlay_is_data_error(bd2012_paths, tmp_path, capsys):
    clusters = tmp_path / "clusters.csv"
    clusters.write_text("cluster_id,label,area,total_authors,x,y\n"
                        "k1,one,Life & Earth Sciences,10,1.0,2.0\n")
    out = tmp_path / "run"
    pubs, careers = bd2012_paths
    code = main(["overlay", "--corpus", str(pubs), "--careers", str(careers),
                 "--clusters", str(clusters), "--topic", "nope", "--out", str(out)])
    assert code == 1
    assert "'nope' has no publications" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_topic_cohorts_emits_zero_rows(bd2012_paths, tmp_path, capsys):
    out = tmp_path / "run"
    pubs, careers = bd2012_paths
    code = main(["cohorts", "--corpus", str(pubs), "--careers", str(careers),
                 "--topic", "nope", "--out", str(out)])
    assert code == 0
    assert "zero rows" in capsys.readouterr().err
    rows = (out / "cohorts.csv").read_text().splitlines()[1:]
    # stay cells stay blank in the undetermined tail even for an empty topic
    assert all(row == "0,0,0,0,0,0.0,0.0,0.0,0.0" for row in rows[:8])
    assert all(row == "0,0,0,0,,0.0,0.0,0.0," for row in rows[8:])


def test_bad_horizon_is_usage_error(bd2012_paths, capsys):
    assert main(["cohorts", *bd_args(bd2012_paths, "--horizon", "2017")]) == 2
    assert main(["cohorts", *bd_args(bd2012_paths, "--horizon", "2017:2008")]) == 2
    assert "--horizon" in capsys.readouterr().err


def test_flag_floors(bd2012_paths):
    assert main(["cohorts", *bd_args(bd2012_paths, "--window", "0")]) == 2
    assert main(["cohorts", *bd_args(bd2012_paths, "--threads", "0")]) == 2


def test_env_config_supplies_defaults(bd2012_paths, tmp_path, monkeypatch):
    pubs, careers = bd2012_paths
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "corpus": str(pubs), "careers": str(careers), "topic": "big data",
    }))
    monkeypatch.setenv("COMMUNITYLENS_CONFIG", str(config))
    out = tmp_path / "run"
    assert main(["cohorts", "--out", str(out)]) == 0
    assert (out / "cohorts.csv").exists()


def test_explicit_flag_beats_env_config(bd2012_paths, tmp_path, monkeypatch):
    pubs, careers = bd2012_paths
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "corpus": str(pubs), "careers": str(careers), "topic": "wrong-topic",
    }))
    monkeypatch.setenv("COMMUNITYLENS_CONFIG", str(config))
    out = tmp_path / "run"
    assert main(["cohorts", "--topic", "big data", "--out", str(out)]) == 0
    row = (out / "cohorts.csv").read_text().splitlines()[5]
    assert row.startswith("265,")


@pytest.mark.parametrize(
    "payload, message",
    [
        (None, "missing file"),
        ("{not json", "not valid JSON"),
        ('["a list"]', "must hold a JSON object"),
        ('{"no_such_key": 1}', "unknown keys: no_such_key"),
    ],
)
def test_env_config_failures(tmp_path, monkeypatch, capsys, payload, message):
    config = tmp_path / "config.json"
    if payload is not None:
        config.write_text(payload)
    monkeypatch.setenv("COMMUNITYLENS_CONFIG", str(config))
    assert main(["cohorts", "--topic", "x"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"horizon": 2008}, "key 'horizon': argument --horizon: expected Y0:Y1, got '2008'"),
        ({"raw": "false"}, "key 'raw': argument --raw: ignored explicit argument 'false'"),
        ({"map_format": "xml", "color_metric": "size"},
         "key 'color_metric': argument --color-metric: invalid choice: 'size'"),
        ({"map_format": "xml"}, "key 'map_format': argument --map-format: invalid choice: 'xml'"),
    ],
)
def test_env_config_values_checked_like_flags(bd2012_paths, tmp_path, monkeypatch, capsys,
                                              payload, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    monkeypatch.setenv("COMMUNITYLENS_CONFIG", str(config))
    clusters = tmp_path / "clusters.csv"
    clusters.write_text("cluster_id,label,area,total_authors,x,y\n")
    out = tmp_path / "run"
    assert main(["overlay", *bd_args(bd2012_paths, "--clusters", str(clusters),
                                     "--out", str(out))]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_env_config_switches_and_other_subcommands(bd2012_paths, tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    # raw is a switch; seed and color_metric belong to other subcommands
    config.write_text(json.dumps({"raw": True, "seed": 3, "color_metric": "p_stay",
                                  "window": 3}))
    monkeypatch.setenv("COMMUNITYLENS_CONFIG", str(config))
    out = tmp_path / "run"
    assert main(["cohorts", *bd_args(bd2012_paths, "--window", "2", "--out", str(out))]) == 0
    assert (out / "cohorts.csv").read_text().splitlines()[0].endswith(",P_stay_raw")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["raw"] is True
    assert manifest["config"]["window"] == 2  # the explicit flag wins


def test_threads_do_not_change_output(bd2012_paths, tmp_path):
    outputs = {}
    for threads in ("1", "4"):
        out = tmp_path / f"t{threads}"
        args = bd_args(bd2012_paths, "--out", str(out), "--threads", threads)
        assert main(["indicators", *args]) == 0
        outputs[threads] = {
            name: (out / name).read_bytes()
            for name in ("cohorts.csv", "indicators.csv", "bands.csv")
        }
    assert outputs["1"] == outputs["4"]


def test_validate_clean_corpus(bd2012_paths, tmp_path, capsys):
    out = tmp_path / "run"
    pubs, careers = bd2012_paths
    code = main(["validate", "--corpus", str(pubs), "--careers", str(careers),
                 "--out", str(out)])
    assert code == 0
    assert "publications loaded: 312" in capsys.readouterr().out
    assert (out / "validation.txt").exists()
    assert (out / "manifest.json").exists()


def test_validate_broken_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"pub_id": "p1", "year": 2012, "authors": ["a"], "topic_flags": []}\n'
        '{"pub_id": "p1", "year": 2012, "authors": ["a"], "topic_flags": []}\n'
    )
    assert main(["validate", "--corpus", str(bad)]) == 1
    assert "invalid corpus" in capsys.readouterr().err


def test_validate_reports_load_accounting(tmp_path, capsys):
    pubs = tmp_path / "pubs.jsonl"
    pubs.write_text(
        '{"pub_id": "p1", "year": 2012, "authors": ["a"], "cluster_id": "k1"}\n'
        '{"pub_id": "p2", "year": 2001, "authors": ["a"]}\n'
        '{"pub_id": "p3", "year": 2012, "authors": ["b"], "cluster_id": "k9"}\n'
    )
    clusters = tmp_path / "clusters.csv"
    clusters.write_text("cluster_id,label,area,total_authors,x,y\nk1,x,Alchemy,5,,\n")
    out = tmp_path / "run"
    code = main(["validate", "--corpus", str(pubs), "--clusters", str(clusters),
                 "--out", str(out)])
    assert code == 0
    text = (out / "validation.txt").read_text()
    assert capsys.readouterr().out == text
    assert text.startswith("publications loaded: 2\ndropped outside horizon: 1\n")
    lines = text.splitlines()
    for line in ("publications parsed: 3", "unknown cluster references repaired: 1",
                 "  unknown cluster: p3: k9", "careers: 2 (derived)",
                 "non-canonical areas: 1", "  non-canonical area: Alchemy"):
        assert line in lines


def test_lone_surrogate_is_data_error(tmp_path, capsys):
    # without the author "s\ud800" this corpus classifies; with it, the
    # author's row could not be written as UTF-8
    rows = [("a", 2012, "t"), ("b", 2012, "t"), ("b", 2013, "t"), ("c", 2012, "t"),
            ("c", 2012, None), ("s\\ud800", 2012, "t"), ("s\\ud800", 2013, "t"),
            ("s\\ud800", 2014, None)]
    pubs = tmp_path / "pubs.jsonl"
    pubs.write_text("".join(
        f'{{"pub_id": "p{i}", "year": {year}, "authors": ["{author}"], '
        f'"topic_flags": {json.dumps([flag] if flag else [])}}}\n'
        for i, (author, year, flag) in enumerate(rows, start=1)
    ))
    code = main(["classify", "--corpus", str(pubs), "--topic", "t", "--out", str(tmp_path / "run")])
    assert code == 1
    assert f"{pubs}, line 6: unpaired UTF-16 surrogate escape" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_classify_degenerate_is_data_error(tmp_path, capsys):
    flat = tmp_path / "flat.jsonl"
    flat.write_text(
        '{"pub_id": "p1", "year": 2012, "authors": ["a"], "topic_flags": ["t"]}\n'
        '{"pub_id": "p2", "year": 2013, "authors": ["b"], "topic_flags": ["t"]}\n'
    )
    code = main(["classify", "--corpus", str(flat), "--topic", "t",
                 "--out", str(tmp_path / "run")])
    assert code == 1
    assert "production" in capsys.readouterr().err


def test_synth_then_overlay_round_trip(tmp_path, capsys):
    data = tmp_path / "data"
    code = main(["synth", "--out", str(data), "--seed", "5", "--entrants", "30",
                 "--clusters-n", "4", "--areas-n", "2", "--topic", "synth"])
    assert code == 0
    assert "generated" in capsys.readouterr().err
    manifest = json.loads((data / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {
        "publications.jsonl", "careers.csv", "clusters.csv", "ground_truth.json"
    }
    for name, digest in manifest["outputs"].items():
        assert sha256_file(data / name) == digest

    run = tmp_path / "run"
    code = main(["overlay", "--corpus", str(data / "publications.jsonl"),
                 "--careers", str(data / "careers.csv"),
                 "--clusters", str(data / "clusters.csv"),
                 "--topic", "synth", "--out", str(run)])
    assert code == 0
    for name in ("overlay.csv", "areas.csv", "map.csv", "manifest.json"):
        assert (run / name).exists()

    code = main(["overlay", "--corpus", str(data / "publications.jsonl"),
                 "--careers", str(data / "careers.csv"),
                 "--clusters", str(data / "clusters.csv"),
                 "--topic", "synth", "--map-format", "json",
                 "--color-metric", "p_stay", "--out", str(tmp_path / "run2")])
    assert code == 0
    parsed = json.loads((tmp_path / "run2" / "map.json").read_text())
    assert isinstance(parsed, list) and parsed


def test_synth_entrants_map_and_infeasible(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path / "a"), "--entrants", "10",
                 "--entrants-map", "2012=50", "--seed", "1"])
    assert code == 0
    truth = json.loads((tmp_path / "a" / "ground_truth.json").read_text())
    assert truth["per_year"]["2012"]["n_new"] == 50
    assert truth["per_year"]["2011"]["n_new"] == 10

    assert main(["synth", "--out", str(tmp_path / "b"), "--stay-prob", "0.9"]) == 2
    assert "stay_prob" in capsys.readouterr().err
    assert main(["synth", "--out", str(tmp_path / "c"),
                 "--entrants-map", "2012x50"]) == 2


def test_overlay_requires_cluster_metadata(bd2012_paths, capsys):
    assert main(["overlay", *bd_args(bd2012_paths)]) == 2
    assert "--clusters" in capsys.readouterr().err


def test_overlay_header_only_clusters_is_data_error(bd2012_paths, tmp_path, capsys):
    clusters = tmp_path / "clusters.csv"
    clusters.write_text("cluster_id,label,area,total_authors,x,y\n")
    out = tmp_path / "run"
    code = main(["overlay", *bd_args(bd2012_paths, "--clusters", str(clusters),
                                     "--out", str(out))])
    assert code == 1
    assert str(clusters) in capsys.readouterr().err
    assert not out.exists()


def test_compare_cli_degenerate_side_degrades(bd2012_paths, tmp_path):
    # every fixture author has focus 100, so classification is impossible and
    # the quadrant files must be absent rather than fabricated
    out = tmp_path / "run"
    args = bd_args(bd2012_paths, "--topic-b", "big data", "--out", str(out))
    assert main(["compare", *args, "--threads", "2"]) == 0
    names = {p.name for p in out.iterdir()}
    assert len(names) == 12
    assert not any("quadrant_authors" in n or "thresholds" in n for n in names)
    summary = (out / "summary.csv").read_text()
    assert "overlap,265" in summary
    assert "classification_note_a" in summary


def test_compare_cli_writes_full_set(tmp_path):
    from communitylens.corpus import write_careers_csv
    from test_compare import TWO_TOPIC_PUBS, two_topic_corpus

    pubs = tmp_path / "pubs.jsonl"
    careers = tmp_path / "careers.csv"
    pubs.write_text("".join(
        json.dumps({"pub_id": pub_id, "year": year, "authors": authors, "topic_flags": flags}) + "\n"
        for pub_id, year, authors, flags in TWO_TOPIC_PUBS
    ))
    write_careers_csv(careers, two_topic_corpus().careers)

    out = tmp_path / "run"
    code = main(["compare", "--corpus", str(pubs), "--careers", str(careers),
                 "--topic", "alpha", "--topic-b", "beta", "--out", str(out)])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    want = {"summary.csv", "diff_cohorts.csv", "diff_indicators.csv",
            "diff_bands.csv", "diff_quadrant_summary.csv", "manifest.json"}
    for prefix in ("a", "b"):
        want |= {
            f"{prefix}_cohorts.csv", f"{prefix}_indicators.csv", f"{prefix}_bands.csv",
            f"{prefix}_quadrant_authors.csv", f"{prefix}_quadrant_summary.csv",
            f"{prefix}_thresholds.json",
        }
    assert names == want
    assert "overlap,1" in (out / "summary.csv").read_text()


def test_cohorts_raw_columns(bd2012_paths, tmp_path):
    out = tmp_path / "run"
    assert main(["cohorts", *bd_args(bd2012_paths, "--out", str(out), "--raw")]) == 0
    header = (out / "cohorts.csv").read_text().splitlines()[0]
    assert header.startswith("N_AU,N_old,N_new,N_newborn,N_stay,P_old,P_new,P_newborn,P_stay")
    assert "raw" in header
