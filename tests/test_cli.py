"""End-to-end command-line behavior, exit codes, and idempotency."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    lambda doc: {**doc, "calibration": {**doc["calibration"], "model_sha256": 5}},
    lambda doc: {**doc, "calibration": {k: v for k, v in doc["calibration"].items()
                                        if k != "model_sha256"}},
], ids=["missing-tau", "top-level-list", "unknown-reference-key", "non-numeric-tau",
        "calibration-list", "non-integer-band", "non-string-model-digest",
        "missing-model-digest"])
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
    ("train", {"train": {"epochs": 0}}),
    ("train", {"train": {"hidden": 0}}),
    ("train", {"train": {"learning_rate": -1}}),
    ("train", {"train": {"batch_size": -3}}),
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
], ids=["list-for-int", "float-for-int", "bool-for-int", "section-not-object", "dtype-out-of-choices",
        "zero-epochs", "zero-hidden", "negative-learning-rate", "negative-batch-size", "unknown-key",
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


def _edit_sample(line: str) -> str:
    rec = json.loads(line)
    rec["samples"][7] += 1.0
    return json.dumps(rec) + "\n"


@pytest.mark.parametrize("edit", [
    lambda lines: lines[1:],                                        # starts one op later
    lambda lines: lines[:100] + [_edit_sample(lines[100])] + lines[101:],  # one sample differs
], ids=["shifted", "edited"])
def test_calibrate_refuses_a_corpus_the_model_was_not_trained_on(workdir, tmp_path, capsys, edit):
    root, cfg = workdir
    model = json.loads((root / "model.json").read_text())
    lines = (root / "corpus.ndjson").read_text().splitlines(keepends=True)
    other = tmp_path / "other.ndjson"
    other.write_text("".join(edit(lines)))
    rc = main(["calibrate", "--config", str(cfg), "--corpus", str(other),
               "--model", str(root / "model.json"), "--out", str(tmp_path / "t.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and model["hyper"]["corpus_sha256"] in err
    assert not (tmp_path / "t.json").exists()


def _extra_op(lines):
    rec = json.loads(lines[-1])
    rec["op_index"] += 1
    rec["timestamp"] += 1.0
    return lines + [json.dumps(rec) + "\n"]


@pytest.mark.parametrize("edit", [lambda lines: lines[:230], _extra_op],
                         ids=["prefix", "one-more-op"])
def test_calibrate_refuses_a_corpus_that_differs_after_the_training_curves(
        workdir, tmp_path, capsys, edit):
    root, cfg = workdir
    model = json.loads((root / "model.json").read_text())
    lines = (root / "corpus.ndjson").read_text().splitlines(keepends=True)
    other = tmp_path / "other.ndjson"
    other.write_text("".join(edit(lines)))
    rc = main(["calibrate", "--config", str(cfg), "--corpus", str(other),
               "--model", str(root / "model.json"), "--out", str(tmp_path / "t.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and model["hyper"]["validation_sha256"] in err
    assert not (tmp_path / "t.json").exists()


def _calibrate_without(workdir, tmp_path, capsys, key, message):
    root, cfg = workdir
    doc = json.loads((root / "model.json").read_text())
    del doc["hyper"][key]
    (tmp_path / "m.json").write_text(json.dumps(doc))
    rc = main(["calibrate", "--config", str(cfg), "--corpus", str(root / "corpus.ndjson"),
               "--model", str(tmp_path / "m.json"), "--out", str(tmp_path / "t.json")])
    assert rc == 3
    assert message in capsys.readouterr().err


def test_calibrate_needs_the_models_corpus_digest(workdir, tmp_path, capsys):
    _calibrate_without(workdir, tmp_path, capsys, "corpus_sha256", "corpus digest")


def test_calibrate_needs_the_models_validation_digest(workdir, tmp_path, capsys):
    _calibrate_without(workdir, tmp_path, capsys, "validation_sha256", "validation digest")


def test_run_refuses_a_model_the_thresholds_were_not_calibrated_for(workdir, tmp_path, capsys):
    root, cfg = workdir
    doc = json.loads((root / "model.json").read_text())
    doc["parameters"]["w_input"]["data"][0] += 1e-3
    other = tmp_path / "m.json"
    other.write_text(json.dumps(doc))
    thresholds = json.loads((root / "thresholds.json").read_text())
    rc = main(_argv("run", root, cfg, tmp_path / "r.ndjson") + ["--model", str(other)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and thresholds["calibration"]["model_sha256"] in err
    assert not (tmp_path / "r.ndjson").exists()


def test_train_report_records_dynamics_without_changing_the_model(workdir, tmp_path):
    root, cfg = workdir
    argv = ["train", "--config", str(cfg), "--corpus", str(root / "corpus.ndjson")]
    assert main(argv + ["--out", str(tmp_path / "m.json"),
                        "--report-out", str(tmp_path / "r.json")]) == 0
    assert (tmp_path / "m.json").read_bytes() == (root / "model.json").read_bytes()
    report = json.loads((tmp_path / "r.json").read_text())
    assert len(report["epoch_seconds"]) == len(report["grad_norms"]) == report["epochs_run"] == 40
    assert all(v > 0.0 for v in report["epoch_seconds"] + report["grad_norms"])


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


def test_thresholds_of_format_version_1_is_a_schema_error(workdir, tmp_path, capsys):
    root, cfg = workdir
    doc = json.loads((root / "thresholds.json").read_text())
    doc["format_version"] = 1
    doc["classifier_reference"].update(corridor=0.5, spike_factor=1.5, rel_floor=0.005,
                                       transient_floor=0.05)
    bad = tmp_path / "t.json"
    bad.write_text(json.dumps(doc))
    rc = main(_argv("run", root, cfg, tmp_path / "r.ndjson") + ["--thresholds", str(bad)])
    assert rc == 3
    assert "format version 1 (expected 2)" in capsys.readouterr().err
    assert not (tmp_path / "r.ndjson").exists()


@pytest.mark.parametrize("key, value", [
    ("dtype", "int8"), ("dtype", "bool"), ("dtype", "float16"), ("dtype", "complex128"),
    ("window", "10"), ("hidden", 16.9), ("length", True),
])
def test_calibrate_refuses_a_weights_hyper_value_training_never_writes(
        workdir, tmp_path, capsys, key, value):
    root, cfg = workdir
    doc = json.loads((root / "model.json").read_text())
    doc["hyper"][key] = value
    (tmp_path / "m.json").write_text(json.dumps(doc))
    rc = main(["calibrate", "--config", str(cfg), "--corpus", str(root / "corpus.ndjson"),
               "--model", str(tmp_path / "m.json"), "--out", str(tmp_path / "t.json")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: ") and f"hyper.{key} must be" in err and repr(value) in err
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("key", ["tau_euclidean", "tau_dtw"])
def test_boolean_threshold_is_a_schema_error(workdir, tmp_path, capsys, key):
    root, cfg = workdir
    doc = json.loads((root / "thresholds.json").read_text())
    doc[key] = True
    bad = tmp_path / "t.json"
    bad.write_text(json.dumps(doc))
    rc = main(_argv("run", root, cfg, tmp_path / "r.ndjson") + ["--thresholds", str(bad)])
    assert rc == 3
    assert f"{key} must be a JSON number" in capsys.readouterr().err


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("path, value", [
    (("verdict", "reason"), 5),
    (("verdict", "rationale"), ["healthy"]),
    (("window_progressive",), "false"),
    (("tampered",), "no"),
    (("op_index",), 201.0),
    (("euclidean",), True),
    (("alert",), 5),
], ids=["numeric-reason", "list-rationale", "string-progressive", "string-tampered",
        "float-op-index", "boolean-distance", "numeric-alert"])
def test_report_value_of_the_wrong_json_type_names_line_and_key(
        workdir, fixture_reports, tmp_path, capsys, path, value):
    root, _ = workdir
    lines = (root / _TRUNCATED["reports"][0]).read_text().splitlines()
    rec = json.loads(lines[1])
    _set(rec, path, value)
    lines[1] = json.dumps(rec)
    bad = tmp_path / "reports.ndjson"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["report", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and f"{path[-1]} must be a JSON" in err


def _leaves(doc, path=()) -> list[tuple]:
    """Paths to the non-null leaves of a JSON document."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]
    return [] if doc is None else [path]


def _json_type(value) -> str:
    """JSON type name; int and float are one type, a boolean is its own."""
    return {bool: "boolean", int: "number", float: "number", str: "string", list: "array",
            dict: "object", type(None): "null"}[type(value)]


# artifact: (its fixture file, the command that reads it)
_MUTATED = {"weights": ("model.json", "calibrate"),
            "thresholds": ("thresholds.json", "run"),
            "reports": (_TRUNCATED["reports"][0], "report")}

_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 300), st.floats(-1e3, 1e3), st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(),
                                                            max_size=2),
)


@settings(max_examples=60, deadline=None)
@given(artifact=st.sampled_from(list(_MUTATED)), pick=st.integers(0, 2**16), value=_JSON_VALUES)
@example(artifact="weights", pick=("hyper", "dtype"), value="int8")
@example(artifact="weights", pick=("hyper", "dtype"), value="complex128")
@example(artifact="thresholds", pick=("tau_euclidean",), value=True)
@example(artifact="reports", pick=(0, "verdict", "reason"), value=5)
@example(artifact="reports", pick=(0, "window_progressive"), value="false")
@example(artifact="reports", pick=(0, "tampered"), value="no")
def test_one_mutated_leaf_never_raises(workdir, fixture_reports, artifact, pick, value):
    """A valid artifact with one leaf of another JSON type exits 0, 2 or 3, never 1.

    ``pick`` chooses among the document's fields (leaf paths with list
    indices dropped) and then among that field's leaves; an example gives
    the leaf's path instead.
    """
    root, cfg = workdir
    name, command = _MUTATED[artifact]
    lines = (root / name).read_text().splitlines()
    doc = [json.loads(line) for line in lines] if artifact == "reports" else json.loads(lines[0])
    if isinstance(pick, tuple):
        path = pick
    else:
        fields: dict[tuple, list] = {}
        for leaf in _leaves(doc):
            fields.setdefault(tuple(k for k in leaf if not isinstance(k, int)), []).append(leaf)
        field = sorted(fields, key=repr)[pick % len(fields)]
        path = fields[field][pick // len(fields) % len(fields[field])]
        old = doc
        for key in path:
            old = old[key]
        assume(_json_type(value) != _json_type(old))
    _set(doc, path, value)
    bad = root / f"mutated-{artifact}"
    bad.write_text("".join(json.dumps(d) + "\n" for d in doc) if artifact == "reports"
                   else json.dumps(doc))
    argv = {"calibrate": ["calibrate", "--config", str(cfg), "--corpus", str(root / "corpus.ndjson"),
                          "--model", str(bad), "--out", str(root / "mutated-out")],
            "run": _argv("run", root, cfg, root / "mutated-out") + ["--thresholds", str(bad)],
            "report": ["report", str(bad)]}[command]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
