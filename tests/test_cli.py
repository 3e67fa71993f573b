"""End-to-end command-line behavior, exit codes, and idempotency."""

import json

import pytest

from turnoutguard.cli import main

WINDOW = 10


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One full development phase on a small pre-fault life cycle."""
    root = tmp_path_factory.mktemp("cli")
    config = {
        "generator": {
            "length": 40,
            "operations": 240,
            "seed": 77,
            "phases": [
                {"kind": "early_life_normal", "start": 0, "end": 60},
                {"kind": "progressive_pre_fault", "start": 60, "end": 200,
                 "severity": [0.0, 1.0]},
                {"kind": "progressive_pre_fault", "start": 200, "end": 240,
                 "severity": [1.0, 1.0]},
            ],
        },
        "train": {
            "window": WINDOW,
            "hidden": 16,
            "epochs": 40,
            "seed": 5,
            "batch_size": 64,
            "dtype": "float32",
            "train_fraction": 0.8,
        },
        "pipeline": {"start": 200},
    }
    cfg = root / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["generate", "--config", str(cfg), "--out", str(root / "corpus.ndjson")]) == 0
    assert main([
        "train", "--config", str(cfg),
        "--corpus", str(root / "corpus.ndjson"),
        "--out", str(root / "model.json"),
    ]) == 0
    assert main([
        "calibrate", "--config", str(cfg),
        "--corpus", str(root / "corpus.ndjson"),
        "--model", str(root / "model.json"),
        "--out", str(root / "thresholds.json"),
    ]) == 0
    return root, cfg


def test_clean_run_exits_zero(workdir, capsys):
    root, cfg = workdir
    rc = main([
        "run", "--config", str(cfg),
        "--corpus", str(root / "corpus.ndjson"),
        "--model", str(root / "model.json"),
        "--thresholds", str(root / "thresholds.json"),
        "--out", str(root / "reports_clean.ndjson"),
        "--summary-out", str(root / "summary_clean.json"),
    ])
    assert rc == 0
    summary = json.loads((root / "summary_clean.json").read_text())
    assert summary["operations"] == 40
    assert summary["suspicious"] == 0
    out = capsys.readouterr().out
    assert "operations: 40" in out


def test_replay_attack_run_exits_one_and_lists_ops(workdir, capsys):
    root, cfg = workdir
    assert main([
        "inject", "--config", str(cfg),
        "--corpus", str(root / "corpus.ndjson"),
        "--out", str(root / "tampered.ndjson"),
        "--attack", "replay_conceal",
        "--start", "210", "--end", "230",
    ]) == 0
    rc = main([
        "run", "--config", str(cfg),
        "--corpus", str(root / "tampered.ndjson"),
        "--model", str(root / "model.json"),
        "--thresholds", str(root / "thresholds.json"),
        "--out", str(root / "reports_attack.ndjson"),
        "--summary-out", str(root / "summary_attack.json"),
        "--plot-dir", str(root / "plots"),
    ])
    assert rc == 1
    summary = json.loads((root / "summary_attack.json").read_text())
    assert summary["suspicious"] > 0
    assert 210 in summary["suspicious_ops"]
    assert summary["detection_rate"] > 0.5
    out = capsys.readouterr().out
    assert "suspicious ops:" in out
    plots = list((root / "plots").glob("op*.csv"))
    assert plots
    header = plots[0].read_text().splitlines()[0]
    assert header == "sample,predicted_w,field_w"


def test_report_command_aggregates(workdir, capsys):
    root, cfg = workdir
    rc = main([
        "report",
        str(root / "reports_clean.ndjson"),
        str(root / "reports_attack.ndjson"),
        "--out", str(root / "aggregate.json"),
    ])
    assert rc == 1   # the attack reports carry suspicion
    agg = json.loads((root / "aggregate.json").read_text())
    assert agg["operations"] == 80
    rc = main(["report", str(root / "reports_clean.ndjson")])
    assert rc == 0


def test_missing_thresholds_means_calibrate_first(workdir, capsys):
    root, cfg = workdir
    rc = main([
        "run",
        "--corpus", str(root / "corpus.ndjson"),
        "--model", str(root / "model.json"),
        "--thresholds", str(root / "nope.json"),
        "--start", "200",
    ])
    assert rc == 3
    assert "calibrate first" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt", [
    lambda doc: {k: v for k, v in doc.items() if k != "tau_dtw"},
    lambda doc: [doc],
    lambda doc: {**doc, "classifier_reference": {**doc["classifier_reference"], "extra": 1.0}},
    lambda doc: {**doc, "tau_euclidean": "wide"},
    lambda doc: {**doc, "calibration": ["band"]},
    lambda doc: {**doc, "calibration": {**doc["calibration"], "band": "3"}},
], ids=["missing-tau", "top-level-list", "unknown-reference-key", "non-numeric-tau",
        "calibration-list", "non-integer-band"])
def test_malformed_thresholds_is_a_schema_error(workdir, tmp_path, capsys, corrupt):
    root, cfg = workdir
    bad = tmp_path / "thresholds.json"
    bad.write_text(json.dumps(corrupt(json.loads((root / "thresholds.json").read_text()))))
    rc = main([
        "run", "--config", str(cfg),
        "--corpus", str(root / "corpus.ndjson"),
        "--model", str(root / "model.json"),
        "--thresholds", str(bad),
        "--out", str(tmp_path / "reports.ndjson"),
    ])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_unknown_flag_is_a_usage_error(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--no-such-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command", ["generate", "train", "calibrate", "inject", "run", "report"]
)
def test_every_subcommand_documents_its_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--" in capsys.readouterr().out


def test_missing_start_is_a_usage_error(workdir, capsys):
    root, cfg = workdir
    rc = main([
        "run",
        "--corpus", str(root / "corpus.ndjson"),
        "--model", str(root / "model.json"),
        "--thresholds", str(root / "thresholds.json"),
    ])
    assert rc == 2
    assert "--start" in capsys.readouterr().err


def test_spurious_inject_without_generator_config_is_usage_error(workdir, capsys):
    root, cfg = workdir
    rc = main([
        "inject",
        "--corpus", str(root / "corpus.ndjson"),
        "--attack", "spurious_failure",
        "--start", "210", "--end", "212",
        "--out", str(root / "x.ndjson"),
    ])
    assert rc == 2
    assert "generator" in capsys.readouterr().err


def test_malformed_corpus_is_an_io_error(workdir, tmp_path, capsys):
    root, cfg = workdir
    bad = tmp_path / "bad.ndjson"
    bad.write_text("{broken\n")
    rc = main([
        "train", "--config", str(cfg), "--corpus", str(bad), "--out", str(tmp_path / "m.json"),
    ])
    assert rc == 3
    assert "line 1" in capsys.readouterr().err


def test_generate_is_deterministic(tmp_path):
    for name in ("a.ndjson", "b.ndjson"):
        assert main([
            "generate", "--out", str(tmp_path / name),
            "--seed", "4", "--operations", "30", "--length", "24",
        ]) == 0
    assert (tmp_path / "a.ndjson").read_bytes() == (tmp_path / "b.ndjson").read_bytes()


def test_full_chain_is_idempotent(workdir, tmp_path):
    """Re-running every command with the same seeds yields identical bytes."""
    root, cfg = workdir
    out = {}
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        assert main(["generate", "--config", str(cfg), "--out", str(d / "c.ndjson")]) == 0
        assert main([
            "train", "--config", str(cfg), "--corpus", str(d / "c.ndjson"),
            "--out", str(d / "m.json"),
        ]) == 0
        assert main([
            "calibrate", "--config", str(cfg), "--corpus", str(d / "c.ndjson"),
            "--model", str(d / "m.json"), "--out", str(d / "t.json"),
        ]) == 0
        assert main([
            "inject", "--config", str(cfg), "--corpus", str(d / "c.ndjson"),
            "--attack", "replay_conceal", "--start", "210", "--end", "220",
            "--out", str(d / "atk.ndjson"),
        ]) == 0
        rc = main([
            "run", "--config", str(cfg), "--corpus", str(d / "atk.ndjson"),
            "--model", str(d / "m.json"), "--thresholds", str(d / "t.json"),
            "--out", str(d / "r.ndjson"), "--summary-out", str(d / "s.json"),
        ])
        assert rc in (0, 1)
        out[tag] = [
            (d / name).read_bytes()
            for name in ("c.ndjson", "m.json", "t.json", "atk.ndjson", "r.ndjson", "s.json")
        ]
    assert out["one"] == out["two"]
