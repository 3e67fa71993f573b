"""End-to-end command-line behavior, exit codes, and idempotency."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _argv(command, root, cfg, out):
    """A complete command line for ``command`` on the fixture's artifacts."""
    return {
        "generate": ["generate", "--config", str(cfg), "--out", str(out)],
        "train": ["train", "--config", str(cfg), "--corpus", str(root / "corpus.ndjson"),
                  "--out", str(out)],
        "calibrate": ["calibrate", "--config", str(cfg), "--corpus", str(root / "corpus.ndjson"),
                      "--model", str(root / "model.json"), "--out", str(out)],
        "inject": ["inject", "--config", str(cfg), "--corpus", str(root / "corpus.ndjson"),
                   "--out", str(out)],
        "run": ["run", "--config", str(cfg), "--corpus", str(root / "corpus.ndjson"),
                "--model", str(root / "model.json"),
                "--thresholds", str(root / "thresholds.json"), "--out", str(out)],
    }[command]


@pytest.mark.parametrize("command, config", [
    ("train", {"train": {"hidden": [4]}}),
    ("train", {"train": {"hidden": 4.7}}),
    ("train", {"train": {"epochs": True}}),
    ("train", {"train": 5}),
    ("train", {"train": {"dtype": "int8"}}),
    ("train", {"train": {"hiden": 4}}),
    ("train", {"trian": {"hidden": 4}}),
    ("calibrate", {"calibrate": {"percentile": [1]}}),
    ("calibrate", {"calibrate": {"train_fraction": 0.8}}),
    ("run", {"pipeline": {"start": [140]}}),
    ("run", {"pipeline": {"start": 200, "policy": "thaw"}}),
    ("generate", {"generator": [1]}),
    ("generate", {"generator": {"base_shape": {"foo": 1}}}),
    ("generate", {"generator": {"phases": [{"kind": "aging"}]}}),
    ("generate", {"generator": {"noise_sigma": "x"}}),
    ("generate", {"generator": {"length": 40, "operations": 240, "phases": [
        {"kind": "aging", "start": 0, "end": 240, "severty": [0.0, 1.0]}]}}),
    ("inject", {"attack": {"kind": "spurious_failure", "start": 210, "end": 212,
                           "failure_mode": "zap"},
                "generator": {"length": 40, "operations": 240}}),
    ("inject", {"attack": {"kind": "erase", "start": 210, "end": 212}}),
], ids=["list-for-int", "float-for-int", "bool-for-int", "section-not-object", "dtype-out-of-choices", "unknown-key",
        "unknown-section", "list-for-float", "removed-calibrate-split", "list-for-start",
        "policy-out-of-choices", "generator-not-object", "unknown-base-shape-key",
        "phase-without-range", "string-for-float", "unknown-phase-key", "unknown-failure-mode",
        "unknown-attack-kind"])
def test_bad_config_is_a_usage_error(workdir, tmp_path, capsys, command, config):
    root, _ = workdir
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    rc = main(_argv(command, root, cfg, tmp_path / "out"))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_calibrate_tests_on_the_curves_after_the_models_training_cut(workdir, tmp_path):
    root, cfg = workdir
    corpus = root / "corpus.ndjson"
    assert main(["train", "--config", str(cfg), "--corpus", str(corpus),
                 "--train-fraction", "0.9", "--out", str(tmp_path / "m.json")]) == 0
    model = json.loads((tmp_path / "m.json").read_text())
    assert model["hyper"]["training_pairs"] == 216 - WINDOW
    assert main(["calibrate", "--config", str(cfg), "--corpus", str(corpus),
                 "--model", str(tmp_path / "m.json"), "--out", str(tmp_path / "t.json")]) == 0
    thresholds = json.loads((tmp_path / "t.json").read_text())
    # 240 curves, 216 of them trained: 24 test curves give 24 - WINDOW pairs
    assert thresholds["calibration"]["test_size"] == 24 - WINDOW


def test_calibrate_needs_the_models_training_size(workdir, tmp_path, capsys):
    root, cfg = workdir
    doc = json.loads((root / "model.json").read_text())
    del doc["hyper"]["training_pairs"]
    (tmp_path / "m.json").write_text(json.dumps(doc))
    rc = main(["calibrate", "--config", str(cfg), "--corpus", str(root / "corpus.ndjson"),
               "--model", str(tmp_path / "m.json"), "--out", str(tmp_path / "t.json")])
    assert rc == 3
    assert "training_pairs" in capsys.readouterr().err


def test_plot_dir_forecasts_each_op_once(workdir, tmp_path, monkeypatch):
    from turnoutguard import forecaster

    calls = []
    real = forecaster.forward
    monkeypatch.setattr(forecaster, "forward", lambda *a: calls.append(1) or real(*a))
    root, cfg = workdir
    rc = main(_argv("run", root, cfg, tmp_path / "r.ndjson")
              + ["--plot-dir", str(tmp_path / "plots"), "--plot-all"])
    assert rc == 0
    assert len(calls) == 40
    # each plotted prediction is the one its step measured the distances on
    reports = [json.loads(line) for line in (tmp_path / "r.ndjson").read_text().splitlines()]
    for r in reports:
        (plot,) = (tmp_path / "plots").glob(f"op{r['op_index']:06d}_*.csv")
        rows = [line.split(",") for line in plot.read_text().splitlines()[1:]]
        d = np.array([float(p) - float(f) for _, p, f in rows])
        assert float(np.sqrt(np.sum(d * d))) == r["euclidean"]


# artifact: (its fixture file, the run flag that reads it, exit codes a truncation may give)
_TRUNCATED = {
    "config": ("config.json", "--config", {3}),
    "model": ("model.json", "--model", {3}),
    "thresholds": ("thresholds.json", "--thresholds", {3}),
    "corpus": ("corpus.ndjson", "--corpus", {0, 1, 2, 3}),
    "reports": ("reports_fixture.ndjson", None, {0, 1, 3}),
}


@pytest.fixture(scope="module")
def fixture_reports(workdir):
    root, cfg = workdir
    assert main(_argv("run", root, cfg, root / _TRUNCATED["reports"][0])) == 0


@pytest.mark.parametrize("line", ['{"op_index": 3}', "[1, 2]", "{broken"],
                         ids=["missing-verdict", "json-list", "invalid-json"])
def test_malformed_report_line_is_a_schema_error(workdir, fixture_reports, tmp_path, capsys,
                                                 line):
    root, _ = workdir
    bad = tmp_path / "reports.ndjson"
    bad.write_text((root / _TRUNCATED["reports"][0]).read_text() + line + "\n")
    assert main(["report", str(bad)]) == 3
    assert "line 41" in capsys.readouterr().err


def test_repeated_op_index_is_a_schema_error(workdir, tmp_path, capsys):
    root, cfg = workdir
    lines = (root / "corpus.ndjson").read_text().splitlines()
    rec = json.loads(lines[50])
    rec["op_index"] -= 1
    rec["timestamp"] -= 1.0
    lines[50] = json.dumps(rec)
    bad = tmp_path / "corpus.ndjson"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--config", str(cfg), "--corpus", str(bad),
               "--out", str(tmp_path / "m.json")])
    assert rc == 3
    assert "line 51" in capsys.readouterr().err


def test_inject_range_is_op_indices(workdir, tmp_path):
    root, cfg = workdir
    lines = (root / "corpus.ndjson").read_text().splitlines()
    shifted = []
    for line in lines[:150]:
        rec = json.loads(line)
        rec["op_index"] += 1000
        shifted.append(json.dumps(rec))
    src = tmp_path / "shifted.ndjson"
    src.write_text("\n".join(shifted) + "\n")
    out = tmp_path / "tampered.ndjson"
    argv = ["inject", "--corpus", str(src), "--attack", "replay_conceal", "--out", str(out)]
    assert main(argv + ["--start", "1100", "--end", "1110"]) == 0
    tampered = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["op_index"] for r in tampered if r["tampered"]] == list(range(1100, 1110))
    assert main(argv + ["--start", "100", "--end", "110"]) == 2


@pytest.mark.parametrize("artifact", list(_TRUNCATED))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_truncated_artifact_never_raises(workdir, fixture_reports, artifact, data):
    """Cut at any byte or line end, an artifact file still yields an exit code."""
    root, cfg = workdir
    name, flag, codes = _TRUNCATED[artifact]
    blob = (root / name).read_bytes()
    line_ends = [k + 1 for k, byte in enumerate(blob) if byte == ord("\n")]
    cut = data.draw(st.integers(0, len(blob) - 1) | st.sampled_from(line_ends or [0]))
    bad = root / f"truncated-{artifact}"
    bad.write_bytes(blob[:cut])
    # a repeated flag overrides the fixture's file
    argv = (["report", str(bad)] if flag is None
            else _argv("run", root, cfg, root / "truncated-out") + [flag, str(bad)])
    assert main(argv) in codes
