"""End-to-end command-line behavior, exit codes, and idempotency."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from turnoutguard import dataio
from turnoutguard.cli import SECTIONS, UsageError, _generator_config, _load_config, _options, main
from turnoutguard.comparator import load_thresholds
from turnoutguard.curvegen import BaseShape, CurveKind, GeneratorConfig, Phase
from turnoutguard.forecaster import TrainConfig, load_model, save_model, train
from turnoutguard.investigator import read_reports

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
    lambda doc: {**doc, "calibration": {**doc["calibration"], "model_sha256": "x"}},
    lambda doc: {**doc, "classifier_reference": None},
    lambda doc: {k: v for k, v in doc.items() if k != "classifier_reference"},
], ids=["missing-tau", "top-level-list", "unknown-reference-key", "non-numeric-tau",
        "calibration-list", "non-integer-band", "non-string-model-digest",
        "missing-model-digest", "non-hex-model-digest", "null-baseline", "missing-baseline"])
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


def test_unknown_flag_is_a_usage_error(workdir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--no-such-flag"])
    assert exc.value.code == 2
    root, cfg = workdir
    with pytest.raises(SystemExit) as exc:   # calibrate has no warping band
        main(_argv("calibrate", root, cfg, tmp_path / "t.json") + ["--band", "2"])
    assert exc.value.code == 2
    assert not (tmp_path / "t.json").exists()


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


#: sha256 over the "op,verdict kind,reason" lines of the clean and the
#: replay-attacked run of the fixture's chain, the benchmark's report digest;
#: a change to any verdict of the chain shows here
PINNED_VERDICTS = "f2f38de07b92d77efca4fdfb7eab2ab9d36d1eb391721d0792d4e842715916cd"


@pytest.mark.parametrize("edit", [lambda cal: cal, lambda cal: {**cal, "band": None}],
                         ids=["as-calibrated", "null-band"])
def test_run_verdicts_are_pinned(workdir, tmp_path, edit):
    root, cfg = workdir
    doc = json.loads((root / "thresholds.json").read_text())
    doc["calibration"] = edit(doc["calibration"])
    (tmp_path / "t.json").write_text(json.dumps(doc))
    assert main(["inject", "--config", str(cfg), "--corpus", str(root / "corpus.ndjson"),
                 "--attack", "replay_conceal", "--start", "210", "--end", "230",
                 "--out", str(tmp_path / "attack.ndjson")]) == 0
    h = hashlib.sha256()
    for corpus, rc in ((root / "corpus.ndjson", 0), (tmp_path / "attack.ndjson", 1)):
        out = tmp_path / "r.ndjson"
        assert main(_argv("run", root, cfg, out) + ["--corpus", str(corpus),
                                                     "--thresholds", str(tmp_path / "t.json")]) == rc
        for r in read_reports(out):
            h.update(f"{r.op_index},{r.verdict.kind.value},{r.verdict.reason_code}\n".encode())
    assert h.hexdigest() == PINNED_VERDICTS


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
    ("calibrate", {"calibrate": {"safety_factor": math.inf}}),
    ("calibrate", {"calibrate": {"safety_factor": 1e308}}),
    ("calibrate", {"calibrate": {"band": 3}}),
    ("run", {"pipeline": {"start": [140]}}),
    ("run", {"pipeline": {"start": 200, "policy": "freeze"}}),
    ("run", {"pipeline": {"start": 200, "band": 3}}),
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
        "unknown-section", "list-for-float", "removed-calibrate-split", "infinite-safety-factor",
        "overflowing-safety-factor", "removed-calibrate-band", "list-for-start",
        "removed-policy-key", "removed-pipeline-band", "generator-not-object", "unknown-base-shape-key", "phase-without-range", "string-for-float",
        "unknown-phase-key", "unknown-failure-mode", "unknown-attack-kind"])
def test_bad_config_is_a_usage_error(workdir, tmp_path, capsys, command, config):
    root, _ = workdir
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    rc = main(_argv(command, root, cfg, tmp_path / "out"))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_example_and_key_table_match_the_cli(tmp_path):
    text = README.read_text(encoding="utf-8")
    (example,) = [block for block in re.findall(r"```json\n(.*?)```", text, re.S)
                  if '"generator"' in block]
    path = tmp_path / "config.json"
    path.write_text(example)
    cfg = _load_config(path)
    no_flags = argparse.Namespace()
    for name in SECTIONS:
        options = _options(no_flags, cfg, name)
        assert set(options) == {k for k, v in cfg.get(name, {}).items() if v is not None}
    _generator_config(no_flags, cfg)
    # the key table lists each section's keys, flags and choices in parentheses
    for name, keys in SECTIONS.items():
        (row,) = re.findall(rf"^\| `{name}` \| (.*) \|$", text, re.M)
        assert re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", row)) == list(keys), name


def test_generator_keys_are_the_generator_config_fields():
    names = [f.name for f in fields(GeneratorConfig)]
    assert list(SECTIONS["generator"]) == ["phases" if n == "phase_plan" else n for n in names]


def test_config_json_round_trip():
    doc = {
        "length": 56, "operations": 120, "seed": 8, "noise_sigma": 3.5,
        "base_shape": {"peak_amplitude": 2000.0, "peak_position": 0.05, "plateau_level": 500.0,
                       "bump_amplitude": 200.0, "bump_center": 0.93, "bump_width": 0.025},
        "phases": [
            {"kind": "early_life_normal", "start": 0, "end": 70},
            {"kind": "progressive_pre_fault", "start": 70, "end": 120, "severity": [0.0, 0.9]},
        ],
        "failure_mode": "spike",
    }
    assert set(doc) == set(SECTIONS["generator"])
    cfg = _generator_config(argparse.Namespace(), json.loads(json.dumps({"generator": doc})))
    assert cfg == GeneratorConfig(
        length=56, operations=120, seed=8, noise_sigma=3.5,
        base_shape=BaseShape(2000.0, 0.05, 500.0, 200.0, 0.93, 0.025),
        phase_plan=(
            Phase(CurveKind.EARLY_LIFE_NORMAL, 0, 70, 0.0, 0.0),
            Phase(CurveKind.PROGRESSIVE_PRE_FAULT, 70, 120, 0.0, 0.9),
        ),
        failure_mode="spike",
    )
    default = GeneratorConfig()
    for f in fields(GeneratorConfig):
        assert getattr(cfg, f.name) != getattr(default, f.name), f.name
    for f in fields(BaseShape):
        assert getattr(cfg.base_shape, f.name) != getattr(default.base_shape, f.name), f.name
    with pytest.raises(UsageError, match="unknown keys"):
        _generator_config(argparse.Namespace(), {"generator": {"lenght": 50}})


@pytest.mark.parametrize("key, value", [
    ("prefault_plateau_gain", 0.25), ("prefault_bump_widening", 0.45),
    ("aging_plateau_gain", 0.15), ("endoflife_plateau_gain", 0.35),
    ("endoflife_bump_widening", 0.75), ("transient_amplitude", 150.0),
    ("transient_width", 0.03), ("transient_span", [0.4, 0.6]),
    ("failure_cut_span", [0.2, 0.8]), ("failure_spike_gain", 1.5),
])
def test_removed_magnitude_keys_are_rejected(key, value):
    with pytest.raises(UsageError, match=f"unknown keys \\['{key}'\\]"):
        _generator_config(argparse.Namespace(), {"generator": {key: value}})


#: a small config that sets every generator key, with every phase kind
PINNED_CONFIG = {"generator": {
    "length": 32, "operations": 60, "seed": 11, "noise_sigma": 7.5,
    "base_shape": {"peak_amplitude": 2400.0, "peak_position": 0.07, "plateau_level": 550.0,
                   "bump_amplitude": 230.0, "bump_center": 0.92, "bump_width": 0.035},
    "phases": [
        {"kind": "early_life_normal", "start": 0, "end": 12},
        {"kind": "aging", "start": 12, "end": 20, "severity": [0.0, 0.5]},
        {"kind": "progressive_pre_fault", "start": 20, "end": 30, "severity": [0.1, 0.6]},
        {"kind": "minor_anomaly", "start": 30, "end": 40},
        {"kind": "sudden_failure", "start": 40, "end": 50},
        {"kind": "end_of_life", "start": 50, "end": 60, "severity": [0.2, 1.0]},
    ],
    "failure_mode": "random",
}}

#: sha256 of the files written from PINNED_CONFIG; a change to the generator,
#: the injector or the corpus writer shows here
PINNED_DIGESTS = {
    "corpus": "3df755339a17d8301029c38d0833ed564fc0b774334c176a5b364282172b38f4",
    "replay_conceal": "46ebe54f0ede99ab3b1082496933d720cb2f247435869c5c6926da129a6106c6",
    "spurious_failure": "b0ed1cb315c1f1c57e2475fdad2b054c39b36660fc768704eda36c34df278617",
    "spurious_pre_fault": "1fdd778424667672fccf88b580980a35033ab1ad0b250b4674904de1b73b8867",
}


def test_generated_and_injected_bytes_are_pinned(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(PINNED_CONFIG))
    corpus = tmp_path / "corpus.ndjson"
    assert main(["generate", "--config", str(cfg), "--out", str(corpus)]) == 0
    attacks = {
        "replay_conceal": ["--start", "14", "--end", "20"],
        "spurious_failure": ["--start", "22", "--end", "28", "--attack-seed", "4"],
        "spurious_pre_fault": ["--start", "4", "--end", "10", "--severity", "0.7",
                               "--attack-seed", "3"],
    }
    for kind, flags in attacks.items():
        assert main(["inject", "--config", str(cfg), "--corpus", str(corpus), "--attack", kind,
                     "--out", str(tmp_path / f"{kind}.ndjson"), *flags]) == 0
    digests = {name: hashlib.sha256((tmp_path / f"{name}.ndjson").read_bytes()).hexdigest()
               for name in PINNED_DIGESTS}
    assert digests == PINNED_DIGESTS


_PLAN = {"length": 32, "operations": 30, "seed": 1}


@pytest.mark.parametrize("generator, flags, key", [
    ({**_PLAN, "phases": [{"kind": "early_life_normal", "start": 0, "end": 20.9},
                          {"kind": "aging", "start": 20, "end": 30}]}, [],
     "generator.phases[0].end"),
    ({**_PLAN, "phases": [{"kind": "aging", "start": 0, "end": 30, "severity": [0, True]}]}, [],
     "generator.phases[0].severity"),
    ({**_PLAN, "phases": [{"kind": "early_life_normal", "start": 0, "end": 30},
                          {"kind": "aging", "start": 30, "end": 30}]}, [],
     "generator.phases[1]"),
    ({**_PLAN, "phases": [{"kind": "sudden_failure", "start": 0, "end": 30,
                           "severity": [0.0, 0.5]}]}, [], "generator.phases[0]"),
    ({**_PLAN, "phases": [{"kind": "agin", "start": 0, "end": 30}]}, [],
     "generator.phases[0]: 'agin' is not a valid CurveKind"),
    ({**_PLAN, "phases": [{"kind": "aging", "start": 0, "end": 30, "severity": [0.5]}]}, [],
     "generator.phases[0].severity"),
    ({**_PLAN, "base_shape": {"plateau_level": "600"}}, [], "generator.base_shape.plateau_level"),
    ({**_PLAN, "base_shape": {"bump_width": math.nan}}, [], "generator.base_shape.bump_width"),
    ({**_PLAN, "base_shape": {"bump_width": -0.01}}, [], "bump_width"),
    ({**_PLAN, "base_shape": [600.0]}, [], "generator.base_shape"),
    ({**_PLAN, "noise_sigma": math.nan}, [], "noise_sigma"),
    (_PLAN, ["--noise-sigma", "nan"], "noise_sigma"),
    (_PLAN, ["--seed", "-1"], "seed"),
], ids=["fractional-end", "boolean-severity", "empty-phase", "severity-on-failure",
        "unknown-kind", "one-severity", "string-plateau", "nan-bump-width", "negative-bump-width",
        "base-shape-list", "nan-noise-in-file", "nan-noise-flag", "negative-seed"])
def test_bad_generator_value_names_its_key(tmp_path, capsys, generator, flags, key):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"generator": generator}))
    rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "out"), *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and key in err and "Traceback" not in err
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


@pytest.mark.parametrize("training_pairs, lines", [(100000, None), (None, 100)],
                         ids=["model-trained-on-more", "corpus-cut-short"])
def test_calibrate_refuses_a_corpus_shorter_than_the_models_training_curves(
        workdir, tmp_path, capsys, training_pairs, lines):
    root, cfg = workdir
    doc = json.loads((root / "model.json").read_text())
    doc["hyper"]["training_pairs"] = training_pairs or doc["hyper"]["training_pairs"]
    (tmp_path / "m.json").write_text(json.dumps(doc))
    corpus = (root / "corpus.ndjson").read_text().splitlines(keepends=True)
    (tmp_path / "c.ndjson").write_text("".join(corpus[:lines]))
    rc = main(["calibrate", "--config", str(cfg), "--corpus", str(tmp_path / "c.ndjson"),
               "--model", str(tmp_path / "m.json"), "--out", str(tmp_path / "t.json")])
    err = capsys.readouterr().err
    cut = doc["hyper"]["training_pairs"] + WINDOW
    assert rc == 2
    assert err.startswith(f"error: --corpus holds {len(corpus[:lines])} curves, "
                          f"fewer than the {cut} (training_pairs + window)")
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


def test_train_refuses_a_test_split_too_short_to_calibrate_on(tmp_path, capsys):
    corpus, model = tmp_path / "corpus.ndjson", tmp_path / "model.json"
    assert main(["generate", "--operations", "60", "--length", "20",
                 "--out", str(corpus)]) == 0
    rc = main(["train", "--corpus", str(corpus), "--window", "12", "--epochs", "1",
               "--out", str(model)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "12 curves" in err and "window of 12" in err
    assert not model.exists()


@pytest.mark.parametrize("command", ["train", "calibrate"])
def test_curves_too_short_to_classify_are_refused(tmp_path, capsys, command):
    rng = np.random.default_rng(0)
    corpus, model = tmp_path / "corpus.ndjson", tmp_path / "model.json"
    corpus.write_text("".join(
        json.dumps({"op_index": k, "timestamp": 1.7e9 + 360.0 * k,
                    "samples": (600.0 + rng.normal(0.0, 12.0, 3)).tolist(),
                    "label": {"kind": "early_life_normal", "severity": 0.0}, "tampered": False})
        + "\n" for k in range(60)))
    argv = ["train", "--corpus", str(corpus), "--window", "5", "--epochs", "2"]
    if command == "calibrate":
        # the train command refuses these curves: fit the model it would have written
        train_part, test_part = dataio.split(dataio.read_corpus(corpus), 0.8)
        save_model(train(dataio.make_dataset(train_part, 5), TrainConfig(epochs=2),
                         val_pairs=dataio.make_dataset(test_part, 5))[0], model)
        argv = ["calibrate", "--corpus", str(corpus), "--model", str(model)]
    out = tmp_path / "out.json"
    rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: a curve of 3 samples is too short to classify")
    assert not out.exists()


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


def test_run_refuses_a_negative_plot_limit(workdir, tmp_path, capsys):
    root, cfg = workdir
    rc = main(_argv("run", root, cfg, tmp_path / "r.ndjson")
              + ["--plot-dir", str(tmp_path / "plots"), "--plot-limit", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: --plot-limit must be >= 0, got -1\n"
    assert not (tmp_path / "r.ndjson").exists() and not (tmp_path / "plots").exists()


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


@pytest.mark.parametrize("version", [1, 2])
def test_thresholds_of_an_earlier_format_version_is_a_schema_error(
        workdir, tmp_path, capsys, version):
    """Versions 1 and 2 tabled six features, and version 1 the decision
    constants too; the fix is to re-run calibrate."""
    root, cfg = workdir
    doc = json.loads((root / "thresholds.json").read_text())
    doc["format_version"] = version
    reference = doc["classifier_reference"]
    for table in (reference["mean"], reference["std"]):
        table.update(peak_position=0.05, plateau_slope=0.0, bump_amplitude=200.0)
    if version == 1:
        reference.update(corridor=0.5, spike_factor=1.5, rel_floor=0.005, transient_floor=0.05)
    bad = tmp_path / "t.json"
    bad.write_text(json.dumps(doc))
    rc = main(_argv("run", root, cfg, tmp_path / "r.ndjson") + ["--thresholds", str(bad)])
    assert rc == 3
    assert f"unsupported format version {version} (expected 3)" in capsys.readouterr().err
    assert not (tmp_path / "r.ndjson").exists()


@pytest.mark.parametrize("artifact, path, value, named, code", [
    ("corpus", ("timestamp",), [0.5] * 100_000, "timestamp", 3),
    ("corpus", ("label", "kind"), "x" * 100_000, "is not a valid CurveKind", 3),
    ("config", ("train", "window"), "x" * 100_000, "train.window", 2),
], ids=["corpus-timestamp", "corpus-label-kind", "config-train-window"])
def test_a_huge_refused_value_gets_a_short_message(workdir, tmp_path, capsys, artifact, path,
                                                   value, named, code):
    """The message names what it refuses and cuts the value, however big it is."""
    root, cfg = workdir
    corpus, config = root / "corpus.ndjson", cfg
    if artifact == "corpus":
        lines = corpus.read_text().splitlines()
        rec = json.loads(lines[0])
        _set(rec, path, value)
        corpus = tmp_path / "corpus.ndjson"
        corpus.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    else:
        doc = json.loads(cfg.read_text())
        _set(doc, path, value)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
    out = tmp_path / "m.json"
    rc = main(["train", "--config", str(config), "--corpus", str(corpus), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == code
    assert named in err and len(err) < 300
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("dtype", "int8"), ("dtype", "bool"), ("dtype", "float16"), ("dtype", "complex128"),
    ("window", "10"), ("hidden", 16.9), ("length", True),
    ("window", 0), ("window", -3), ("length", 0), ("hidden", -1),
    ("training_pairs", True), ("training_pairs", "200"), ("training_pairs", 200.0),
    ("training_pairs", 0), ("training_pairs", -5),
    ("seed", "many"), ("seed", -1), ("epochs", "many"), ("epochs", 0),
    ("corpus_sha256", 5), ("validation_sha256", None),
    ("corpus_sha256", "x"), ("validation_sha256", "0" * 63), ("corpus_sha256", "AB" * 32),
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


@pytest.mark.parametrize("path, value, message", [
    (("input_order",), "newest_first", "input_order must be 'oldest_first', got 'newest_first'"),
    (("parameters", "b_input", "shape"), None, "parameters.b_input has shape None"),
    (("parameters", "b_out", "shape"), None, "parameters.b_out has shape None"),
], ids=["newest-first", "null-gate-bias-shape", "null-readout-bias-shape"])
def test_calibrate_refuses_a_weights_layout_training_never_writes(
        workdir, tmp_path, capsys, path, value, message):
    root, cfg = workdir
    doc = json.loads((root / "model.json").read_text())
    _set(doc, path, value)
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps(doc))
    assert main(_reading_argv("weights", root, cfg, bad, tmp_path / "t.json")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
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


@pytest.mark.parametrize("label", [[], "early_life_normal", None],
                         ids=["array-label", "string-label", "null-label"])
def test_corpus_label_that_is_not_an_object_names_line_and_key(workdir, tmp_path, capsys, label):
    root, cfg = workdir
    lines = (root / "corpus.ndjson").read_text().splitlines()
    rec = json.loads(lines[4])
    rec["label"] = label
    lines[4] = json.dumps(rec)
    bad = tmp_path / "corpus.ndjson"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--config", str(cfg), "--corpus", str(bad),
               "--out", str(tmp_path / "m.json")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: line 5: label must be a JSON object")
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("block, entry", [
    ("b_input", {"shape": [1], "data": [0.5]}),
    ("w_input", {"shape": [16, 1], "data": [0.0] * 16}),
], ids=["bias-of-one", "weights-of-one-column"])
def test_weights_block_that_would_broadcast_is_a_schema_error(
        workdir, tmp_path, capsys, block, entry):
    root, cfg = workdir
    doc = json.loads((root / "model.json").read_text())
    assert doc["hyper"]["hidden"] == 16
    doc["parameters"][block] = entry
    (tmp_path / "m.json").write_text(json.dumps(doc))
    rc = main(["calibrate", "--config", str(cfg), "--corpus", str(root / "corpus.ndjson"),
               "--model", str(tmp_path / "m.json"), "--out", str(tmp_path / "t.json")])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"parameters.{block} has shape {entry['shape']}" in err
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("artifact, flag", [("model.json", "--model"),
                                            ("thresholds.json", "--thresholds")])
@pytest.mark.parametrize("version", [True, 2.0, 1.0, "2"])
def test_format_version_that_is_not_an_integer_is_a_schema_error(
        workdir, tmp_path, capsys, artifact, flag, version):
    root, cfg = workdir
    doc = json.loads((root / artifact).read_text())
    doc["format_version"] = version
    bad = tmp_path / artifact
    bad.write_text(json.dumps(doc))
    rc = main(_argv("run", root, cfg, tmp_path / "r.ndjson") + [flag, str(bad)])
    assert rc == 3
    assert "format_version must be a JSON integer" in capsys.readouterr().err
    assert not (tmp_path / "r.ndjson").exists()


@pytest.mark.parametrize("artifact", list(_TRUNCATED))
def test_file_that_is_not_utf8_is_an_io_error(workdir, fixture_reports, tmp_path, capsys,
                                              artifact):
    root, cfg = workdir
    name, flag, _ = _TRUNCATED[artifact]
    bad = tmp_path / name
    bad.write_bytes((root / name).read_bytes() + b"\xff")
    argv = (["report", str(bad)] if flag is None
            else _argv("run", root, cfg, tmp_path / "r.ndjson") + [flag, str(bad)])
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert not (tmp_path / "r.ndjson").exists()


@pytest.mark.parametrize("path, value, message", [
    (("parameters", "b_out", "data", 3), math.nan, "holds a non-finite value"),
    (("parameters", "w_forget", "data", 0), math.inf, "holds a non-finite value"),
    (("normalization", "scale", 7), -math.inf, "holds a non-finite value"),
    (("normalization", "mean", 0), math.nan, "holds a non-finite value"),
    (("parameters", "b_out", "data", 0), "…", "must be a JSON array of numbers, got '…'"),
    (("parameters", "w_input", "data", 1), True, "must be a JSON array of numbers, got True"),
    (("normalization", "mean", 0), "600.5", "must be a JSON array of numbers, got '600.5'"),
], ids=["nan-b_out", "inf-w_forget", "neg-inf-scale", "nan-mean", "string-b_out",
        "boolean-w_input", "string-mean"])
def test_non_finite_weight_is_a_schema_error_naming_its_block(workdir, tmp_path, capsys,
                                                             path, value, message):
    root, cfg = workdir
    doc = json.loads((root / "model.json").read_text())
    _set(doc, path, value)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    assert main(_reading_argv("weights", root, cfg, bad, tmp_path / "t.json")) == 3
    assert f"{path[0]}.{path[1]} {message}" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "neg-inf"])
@pytest.mark.parametrize("artifact, path", [
    ("reports", (1, "euclidean")),
    ("reports", (1, "dtw")),
    ("reports", (1, "tau_euclidean")),
    ("reports", (1, "tau_dtw")),
    ("thresholds", (0, "tau_euclidean")),
    ("thresholds", (0, "tau_dtw")),
    ("thresholds", (0, "calibration", "test_size")),
    ("thresholds", (0, "calibration", "percentile")),
    ("thresholds", (0, "calibration", "safety_factor")),
], ids=lambda p: p if isinstance(p, str) else p[-1])
def test_non_finite_report_or_threshold_number_is_a_schema_error(
        workdir, fixture_reports, tmp_path, capsys, artifact, path, value):
    """json.load reads NaN and the infinities, which no written file holds."""
    root, cfg = workdir
    docs = [json.loads(line) for line in (root / _MUTATED[artifact]).read_text().splitlines()]
    _set(docs, path, value)
    bad = tmp_path / "bad"
    bad.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    assert main(_reading_argv(artifact, root, cfg, bad, tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{path[-1]} must be a" in err
    assert artifact != "reports" or "line 2" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("digits", [400, 5000])
@pytest.mark.parametrize("artifact, path", [
    ("thresholds", (0, "tau_dtw")),
    ("reports", (1, "euclidean")),
    ("corpus", (3, "timestamp")),
    ("weights", (0, "parameters", "b_out", "data", 2)),
], ids=lambda p: p if isinstance(p, str) else p[-1])
def test_integer_too_large_for_a_float_is_a_schema_error(
        workdir, fixture_reports, tmp_path, capsys, artifact, path, digits):
    """json.load reads integers of any size; past 4300 digits it refuses them itself."""
    root, cfg = workdir
    docs = [json.loads(line) for line in (root / _MUTATED[artifact]).read_text().splitlines()]
    _set(docs, path, "HUGE")
    bad = tmp_path / "bad"
    text = "".join(json.dumps(doc) + "\n" for doc in docs)
    bad.write_text(text.replace('"HUGE"', "1" * digits))
    assert main(_reading_argv(artifact, root, cfg, bad, tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert digits > 4300 or "finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("artifact", ["corpus", "reports", "config", "weights", "thresholds"])
def test_json_nested_deeper_than_the_recursion_limit_is_a_schema_error(
        workdir, fixture_reports, tmp_path, capsys, artifact):
    """json.loads raises RecursionError, not ValueError, on such a file."""
    root, cfg = workdir
    bad = tmp_path / "bad"
    bad.write_text("[" * 200_000)
    argv = (["generate", "--config", str(bad), "--out", str(tmp_path / "out")]
            if artifact == "config" else _reading_argv(artifact, root, cfg, bad, tmp_path / "out"))
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert artifact not in ("corpus", "reports") or err.startswith("error: line 1: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "calibrate", "inject", "run"])
def test_op_index_outside_int64_is_a_schema_error(workdir, tmp_path, capsys, command):
    """The corpus digest hashes op indices as int64; one past it exited 1 with an
    OverflowError from train and calibrate."""
    root, cfg = workdir
    lines = []
    for line in (root / "corpus.ndjson").read_text().splitlines():
        rec = json.loads(line)
        rec["op_index"] += 10**19
        lines.append(json.dumps(rec))
    bad = tmp_path / "corpus.ndjson"
    bad.write_text("\n".join(lines) + "\n")
    argv = _argv(command, root, cfg, tmp_path / "out") + ["--corpus", str(bad)]
    if command == "inject":
        argv += ["--attack", "replay_conceal", "--start", "210", "--end", "230"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: op_index must lie in [-2**63, 2**63)")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path, value, message", [
    (("classifier_reference", "std", "peak_amplitude"), -0.5, "std peak_amplitude must be >= 0"),
    (("classifier_reference", "n_reference"), 0, "n_reference must be an integer >= 1"),
    (("classifier_reference", "n_reference"), 40.5, "n_reference must be an integer >= 1"),
    (("calibration", "percentile"), 0.0, "percentile must lie in (0, 100]"),
    (("calibration", "percentile"), 100.5, "percentile must lie in (0, 100]"),
    (("calibration", "safety_factor"), 0.0, "safety_factor must be finite and > 0"),
    (("calibration", "safety_factor"), -1.0, "safety_factor must be finite and > 0"),
    (("calibration", "test_size"), 0, "test_size must be an integer >= 1"),
    (("calibration", "band"), 3, "calibration band 3 is not supported"),
], ids=["negative-std", "zero-n-reference", "fractional-n-reference", "zero-percentile",
        "percentile-above-100", "zero-safety-factor", "negative-safety-factor", "zero-test-size",
        "banded-thresholds"])
def test_threshold_value_out_of_range_is_a_schema_error(workdir, tmp_path, capsys,
                                                        path, value, message):
    """Values of the right JSON type that calibrate never writes."""
    root, cfg = workdir
    doc = json.loads((root / "thresholds.json").read_text())
    _set(doc, path, value)
    bad = tmp_path / "t.json"
    bad.write_text(json.dumps(doc))
    assert main(_reading_argv("thresholds", root, cfg, bad, tmp_path / "r.ndjson")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "r.ndjson").exists()


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


def _nodes(doc, path=()) -> list[tuple]:
    """Paths to the non-null nodes of a JSON document below its root: leaves,
    objects and arrays."""
    here = [] if doc is None or not path else [path]
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return here + [node for key, value in items for node in _nodes(value, path + (key,))]
    return here


def _json_type(value) -> str:
    """JSON type name; int and float are one type, a boolean is its own, and
    NaN and the infinities, which Python's json reads and writes, are another."""
    if type(value) is float and not math.isfinite(value):
        return "non-finite"
    return {bool: "boolean", int: "number", float: "number", str: "string", list: "array",
            dict: "object", type(None): "null"}[type(value)]


# artifact: its fixture file; NDJSON files are a list of documents
_MUTATED = {"weights": "model.json", "thresholds": "thresholds.json",
            "reports": _TRUNCATED["reports"][0], "corpus": "corpus.ndjson"}


def _reading_argv(artifact, root, cfg, path, out) -> list[str]:
    """The command line that reads ``path`` in place of the fixture's ``artifact``."""
    calibrate = ["calibrate", "--config", str(cfg), "--corpus", str(root / "corpus.ndjson"),
                 "--model", str(root / "model.json"), "--out", str(out)]
    return {"weights": calibrate + ["--model", str(path)],
            "corpus": calibrate + ["--corpus", str(path)],
            "thresholds": _argv("run", root, cfg, out) + ["--thresholds", str(path)],
            "reports": ["report", str(path)]}[artifact]

_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 300), st.floats(-1e3, 1e3), st.text(max_size=4),
    st.sampled_from([math.nan, math.inf, -math.inf]),
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
@example(artifact="corpus", pick=(4, "label"), value=[])
@example(artifact="corpus", pick=(4, "label"), value="early_life_normal")
@example(artifact="corpus", pick=(4, "label"), value=None)
@example(artifact="corpus", pick=(4,), value=5)
@example(artifact="weights", pick=("parameters", "b_input"), value={"shape": [1], "data": [0.5]})
@example(artifact="weights", pick=("parameters", "w_input"),
         value={"shape": [16, 1], "data": [0.0] * 16})
@example(artifact="weights", pick=("format_version",), value=True)
@example(artifact="weights", pick=("parameters", "b_out", "data", 3), value=math.nan)
@example(artifact="weights", pick=("parameters", "w_forget", "data", 0), value=math.inf)
@example(artifact="weights", pick=("normalization", "scale", 7), value=-math.inf)
@example(artifact="weights", pick=("normalization", "mean", 0), value=math.nan)
def test_one_mutated_leaf_never_raises(workdir, fixture_reports, artifact, pick, value):
    """A valid artifact with one node replaced exits 0, 2 or 3, never 1.

    The node is a leaf given a value of another JSON type, or an object or
    array given a scalar or a container of the other kind.  ``pick``
    chooses among the document's fields (node paths with list indices
    dropped) and then among that field's nodes; an example gives the
    node's path instead.
    """
    root, cfg = workdir
    name = _MUTATED[artifact]
    ndjson = name.endswith(".ndjson")
    lines = (root / name).read_text().splitlines()
    doc = [json.loads(line) for line in lines] if ndjson else json.loads(lines[0])
    if isinstance(pick, tuple):
        path = pick
    else:
        fields: dict[tuple, list] = {}
        for node in _nodes(doc):
            fields.setdefault(tuple(k for k in node if not isinstance(k, int)), []).append(node)
        field = sorted(fields, key=repr)[pick % len(fields)]
        path = fields[field][pick // len(fields) % len(fields[field])]
        old = doc
        for key in path:
            old = old[key]
        assume(_json_type(value) != _json_type(old))
    _set(doc, path, value)
    bad = root / f"mutated-{artifact}"
    bad.write_text("".join(json.dumps(d) + "\n" for d in doc) if ndjson else json.dumps(doc))
    argv = _reading_argv(artifact, root, cfg, bad, root / "mutated-out")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


# a value of each JSON type, and an array and an object that hold one
_TYPE_CHANGES = [None, True, "x", [], {}, 1.5, [1], {"a": 1}]


@pytest.mark.parametrize("artifact", ["weights", "thresholds"])
def test_no_type_change_gets_past_the_weights_or_thresholds_reader(workdir, tmp_path, artifact):
    """The first node of every field, given each value of another JSON type, is refused.

    A field is a node path with list indices dropped.
    """
    root, _ = workdir
    read, error = {"weights": (load_model, dataio.FormatError),
                   "thresholds": (load_thresholds, dataio.FormatError)}[artifact]
    text = (root / _MUTATED[artifact]).read_text()
    fields: dict[tuple, tuple] = {}
    for node in _nodes(json.loads(text)):
        fields.setdefault(tuple(k for k in node if not isinstance(k, int)), node)
    bad = tmp_path / _MUTATED[artifact]
    passed = []
    for path in fields.values():
        for value in _TYPE_CHANGES:
            doc = json.loads(text)
            old = doc
            for key in path:
                old = old[key]
            if _json_type(value) == _json_type(old):
                continue
            _set(doc, path, value)
            bad.write_text(json.dumps(doc))
            try:
                read(bad)
            except error:
                continue
            passed.append((path, value))
    assert passed == []
