"""Command-line front end.

Subcommands cover the two phases of the method plus tooling: ``generate``,
``train`` and ``calibrate`` form the development phase, ``run`` is the
operation phase, ``inject`` builds tampered corpora for exercises, and
``report`` aggregates existing report files.

Options may come from a JSON config file (``--config``); explicit flags win
over the file, which wins over the library's defaults.  Exit codes: 0 ok,
1 suspicion raised, 2 usage error, 3 I/O or schema error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import sys
from collections import deque
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple

from . import classifier, comparator, curvegen, dataio, forecaster, investigator
from .curvegen import (FAILURE_MODES, AttackKind, AttackScenario, BaseShape, CurveKind,
                       GeneratorConfig, Phase)
from .dataio import (ARRAY, OBJECT, FormatError, json_enum, json_field, json_integer,
                     json_number, json_numbers, short_repr)
from .forecaster import TrainConfig
from .investigator import VerdictKind
from .pipeline import Pipeline, PipelineConfig

EXIT_OK = 0
EXIT_SUSPICION = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(ValueError):
    pass


class Key(NamedTuple):
    """A config-section key; ``flag`` names its ``--flag`` with underscores.

    A file value goes through the flag's converter and choices as the text
    the flag would get, so 4.7 is no int. A key without a flag passes its
    JSON value and its name to ``convert``, which raises ValueError naming
    the inner key at fault. With no converter, the library checks the value.
    """

    flag: str | None = None
    convert: Callable | None = None
    choices: tuple | None = None
    help: str | None = None

    def parse(self, where: str, value):
        if self.flag is None:
            value = value if self.convert is None else self.convert(value, f"config {where}")
        else:
            try:
                value = self.convert(str(value))
            except (TypeError, ValueError) as exc:
                raise UsageError(f"config {where}: bad value {short_repr(value)}") from exc
        if self.choices is not None and value not in self.choices:
            raise UsageError(f"config {where}: {short_repr(value)} is not one of "
                             f"{list(self.choices)}")
        return value


def _base_shape(value, name: str) -> BaseShape:
    keys = [f.name for f in dataclasses.fields(BaseShape)]
    unknown = set(json_field(value, OBJECT, name)) - set(keys)
    if unknown:
        raise UsageError(f"{name}: unknown keys {short_repr(sorted(unknown))}; expected {keys}")
    numbers = {key: json_number(x, f"{name}.{key}") for key, x in value.items()}
    try:
        return BaseShape(**numbers)
    except ValueError as exc:
        raise UsageError(f"{name}: {exc}") from None


def _phase(value, name: str) -> Phase:
    unknown = set(json_field(value, OBJECT, name)) - {"kind", "start", "end", "severity"}
    if unknown:
        raise UsageError(f"{name}: unknown keys {short_repr(sorted(unknown))}")
    start, end = (json_integer(value.get(key), f"{name}.{key}", 0) for key in ("start", "end"))
    severity = json_numbers(value.get("severity", [0.0, 0.0]), f"{name}.severity")
    if severity.shape != (2,):
        raise UsageError(f"{name}.severity must be a [start, end] pair, got {len(severity)} numbers")
    kind = json_enum(CurveKind, value.get("kind"), name)
    try:
        return Phase(kind, start, end, *map(float, severity))
    except ValueError as exc:
        raise UsageError(f"{name}: {exc}") from None


def _phases(value, name: str) -> tuple[Phase, ...]:
    return tuple(_phase(x, f"{name}[{k}]") for k, x in enumerate(json_field(value, ARRAY, name)))


SECTIONS = {
    "generator": {
        "length": Key("length", int, help="samples per curve"),
        "operations": Key("operations", int, help="number of switch operations"),
        "seed": Key("seed", int),
        "noise_sigma": Key("noise_sigma", float, help="per-sample noise in watts"),
        "base_shape": Key(convert=_base_shape),
        "phases": Key(convert=_phases),
        "failure_mode": Key(choices=FAILURE_MODES),
    },
    "train": {
        "window": Key("window", int, help="curves per input sequence (default 50)"),
        "train_fraction": Key("train_fraction", float, help="share that trains (default 0.8)"),
        "hidden": Key("hidden", int),
        "epochs": Key("epochs", int),
        "learning_rate": Key("lr", float),
        "seed": Key("seed", int),
        "batch_size": Key("batch_size", int),
        "dtype": Key("dtype", str, choices=forecaster.DTYPES),
    },
    "calibrate": {
        "percentile": Key("percentile", float, help="residual percentile (default 100: the max)"),
        "safety_factor": Key("safety", float, help="safety factor on thresholds"),
    },
    "attack": {
        "kind": Key("attack", str, choices=tuple(k.value for k in AttackKind)),
        "start": Key("start", int, help="first op index attacked"),
        "end": Key("end", int, help="op index that ends the attack (exclusive)"),
        "severity": Key("severity", float),
        "seed": Key("attack_seed", int),
        "failure_mode": Key("failure_mode", str, choices=FAILURE_MODES),
    },
    "pipeline": {
        "start": Key("start", int, help="first op index treated as field data"),
        "alarm_after": Key("alarm_after", int),
    },
}


def _load_config(path) -> dict:
    if path is None:
        return {}
    cfg = dataio.read_json(path, "config file")
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    for name, section in cfg.items():
        if name not in SECTIONS:
            raise UsageError(f"config file: unknown section {short_repr(name)}; "
                             f"expected {list(SECTIONS)}")
        if not isinstance(section, dict):
            raise UsageError(f"config section {name!r} must be a JSON object")
    return cfg


def _options(args, cfg: dict, name: str) -> dict:
    """The options set in config section ``name`` or by flags, which win.

    Unset and null keys are left out, so the library's defaults apply.
    """
    keys, section = SECTIONS[name], cfg.get(name, {})
    unknown = set(section) - set(keys)
    if unknown:
        raise UsageError(
            f"config section {name!r}: unknown keys {short_repr(sorted(unknown))}; "
            f"expected {list(keys)}"
        )
    options = {}
    for key, spec in keys.items():
        value = getattr(args, spec.flag, None) if spec.flag else None
        if value is None and section.get(key) is not None:
            value = spec.parse(f"{name}.{key}", section[key])
        if value is not None:
            options[key] = value
    return options


def _generator_config(args, cfg: dict) -> GeneratorConfig:
    options = _options(args, cfg, "generator")
    if "phases" in options:
        options["phase_plan"] = options.pop("phases")
    return GeneratorConfig(**options)


def _require_file(path, hint: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{p}: not found; {hint}")
    return p


def _file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(args, cfg) -> int:
    config = _generator_config(args, cfg)
    corpus = curvegen.generate_lifecycle(config)
    out = args.out or "corpus.ndjson"
    dataio.write_corpus(out, corpus)
    print(f"wrote {len(corpus)} operations of {config.length} samples to {out}")
    return EXIT_OK


def cmd_train(args, cfg) -> int:
    options = _options(args, cfg, "train")
    # no library function defaults these two
    window = options.pop("window", 50)
    fraction = options.pop("train_fraction", 0.8)
    train_config = TrainConfig(**options)
    corpus = dataio.read_corpus(_require_file(args.corpus, "generate a corpus first"))

    train_part, test_part = dataio.split(corpus, fraction)
    train_pairs = dataio.make_dataset(train_part, window)
    # calibrate tests on these curves, so a model must record their digest
    if len(test_part) <= window:
        raise UsageError(f"the test split holds {len(test_part)} curves, too few for a window "
                         f"of {window} plus a target; lower --train-fraction or --window")
    val_pairs = dataio.make_dataset(test_part, window)
    # calibrate classifies these curves, all of one length, so refuse them now
    classifier.extract_features(corpus[0].curve)

    print(
        f"training on {len(train_pairs)} pairs (window {window}, hidden "
        f"{train_config.hidden}, {train_config.epochs} epochs)..."
    )
    model, report = forecaster.train(train_pairs, train_config, val_pairs=val_pairs)
    out = args.out or "model.json"
    forecaster.save_model(model, out)
    print(
        f"loss {report.train_losses[0]:.6f} -> {report.train_losses[-1]:.6f} "
        f"(validation {report.val_losses[-1]:.6f}) in {report.wall_seconds:.1f}s"
    )
    print(f"wrote weights to {out}")
    if args.report_out:
        dataio.write_json(args.report_out, dataclasses.asdict(report))
        print(f"wrote training report to {args.report_out}")
    return EXIT_OK


def cmd_calibrate(args, cfg) -> int:
    options = _options(args, cfg, "calibrate")
    corpus = dataio.read_corpus(_require_file(args.corpus, "generate a corpus first"))
    model = forecaster.load_model(_require_file(args.model, "train a model first"))
    training_pairs = model.meta.get("training_pairs")
    if training_pairs is None:
        raise FormatError("weights file records no training_pairs; train the model again")

    # the test split starts where the model's training curves ended
    cut = training_pairs + model.window
    if len(corpus) < cut:
        raise UsageError(f"--corpus holds {len(corpus)} curves, fewer than the {cut} "
                         "(training_pairs + window) the model was trained on")
    train_part, test_part = corpus[:cut], corpus[cut:]
    recorded = (("corpus_sha256", "corpus", train_part, f"its first {cut} curves"),
                ("validation_sha256", "validation", test_part, f"its curves after the first {cut}"))
    for key, name, part, which in recorded:
        expected = model.meta.get(key)
        if expected is None:
            raise FormatError(f"weights file records no {name} digest; train the model again")
        digest = dataio.curves_digest(part)
        if digest != expected:
            raise UsageError(
                f"--corpus is not the corpus the model was trained on: {which} "
                f"hash to {digest}, the weights file records {expected}"
            )
    test_pairs = dataio.make_dataset(test_part, model.window)
    thresholds = comparator.calibrate(model, test_pairs, **options)
    thresholds.calibration["model_sha256"] = _file_sha256(args.model)
    reference = classifier.build_reference(train_part)
    out = args.out or "thresholds.json"
    comparator.save_thresholds(out, thresholds, reference.to_dict())
    print(
        f"calibrated on {len(test_pairs)} test pairs: "
        f"tau_euclidean={thresholds.tau_euclidean:.3f} "
        f"tau_dtw={thresholds.tau_dtw:.3f}"
    )
    print(f"wrote thresholds to {out}")
    return EXIT_OK


def cmd_inject(args, cfg) -> int:
    options = _options(args, cfg, "attack")
    if not {"kind", "start", "end"} <= set(options):
        raise UsageError("inject needs --attack, --start and --end")
    scenario = AttackScenario(kind=AttackKind(options.pop("kind")), **options)
    corpus = dataio.read_corpus(_require_file(args.corpus, "generate a corpus first"))
    gen_config = None
    if scenario.kind is not AttackKind.REPLAY_CONCEAL and "generator" in cfg:
        gen_config = _generator_config(args, cfg)
    tampered = curvegen.inject_attack(corpus, scenario, gen_config)
    out = args.out or "tampered.ndjson"
    dataio.write_corpus(out, tampered)
    n = sum(lc.tampered for lc in tampered)
    print(f"substituted {n} operations in [{scenario.start}, {scenario.end}); wrote {out}")
    return EXIT_OK


def _print_summary(summary: dict):
    print(
        f"operations: {summary['operations']}  validated: {summary['validated']}"
        f"  suspicious: {summary['suspicious']}  no-suspicion: "
        f"{summary['no_suspicion']}  escalated: {summary['escalated']}"
    )
    if summary["reasons"]:
        print("reasons:", ", ".join(f"{k}={v}" for k, v in summary["reasons"].items()))
    if summary["suspicious_ops"]:
        ops = summary["suspicious_ops"]
        shown = ", ".join(str(i) for i in ops[:20])
        more = "" if len(ops) <= 20 else f" (+{len(ops) - 20} more)"
        print(f"suspicious ops: {shown}{more}")
    for key in ("detection_rate", "false_alarm_rate", "escalation_rate"):
        if summary.get(key) is not None:
            print(f"{key.replace('_', ' ')}: {summary[key]:.3f}")


def cmd_run(args, cfg) -> int:
    if args.plot_limit < 0:
        raise UsageError(f"--plot-limit must be >= 0, got {args.plot_limit}")
    options = _options(args, cfg, "pipeline")
    if "start" not in options:
        raise UsageError("--start (first field op index) is required for run")
    start = options.pop("start")
    corpus = dataio.iter_corpus(_require_file(args.corpus, "generate or inject a corpus first"))
    model = forecaster.load_model(_require_file(args.model, "train a model first"))
    thresholds, ref_dict = comparator.load_thresholds(_require_file(args.thresholds, "calibrate first"))
    reference = classifier.ClassifierReference.from_dict(ref_dict)
    expected = thresholds.calibration.get("model_sha256")
    if expected is None:
        raise FormatError("thresholds file records no model digest; re-run calibrate")
    digest = _file_sha256(args.model)
    if digest != expected:
        raise UsageError(
            f"--model is not the model the thresholds were calibrated for: it hashes to "
            f"{digest}, the thresholds file records {expected}"
        )

    # the corpus is read as it is stepped; only the history bootstrap uses is kept
    history = deque(maxlen=model.window)
    for first in corpus:
        if first.curve.op_index >= start:
            break
        history.append(first)
    else:
        raise UsageError(f"no operation with op_index >= {start} in the corpus")
    pipe = Pipeline(model, thresholds, reference, PipelineConfig(**options)).bootstrap(history)

    plot_dir = Path(args.plot_dir) if args.plot_dir else None
    if plot_dir:
        plot_dir.mkdir(parents=True, exist_ok=True)
    plotted = 0
    for lc in chain([first], corpus):
        report = pipe.step(lc)
        wanted = args.plot_all or report.verdict.kind is not VerdictKind.VALIDATED
        if plot_dir is not None and wanted and plotted < args.plot_limit:
            _write_plot(plot_dir, report, pipe.session.curve, lc)
            plotted += 1

    out = args.out or "reports.ndjson"
    investigator.write_reports(out, pipe.reports)
    summary = investigator.summarize(pipe.reports)
    _print_summary(summary)
    print(f"wrote {len(pipe.reports)} reports to {out}")
    if args.summary_out:
        dataio.write_json(args.summary_out, summary)
        print(f"wrote summary to {args.summary_out}")
    if plot_dir is not None:
        print(f"wrote {plotted} curve-pair CSVs to {plot_dir}")
    return EXIT_SUSPICION if summary["suspicious"] else EXIT_OK


def _write_plot(plot_dir: Path, report, predicted, lc):
    name = f"op{report.op_index:06d}_{report.verdict.kind.value}.csv"
    with open(plot_dir / name, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample", "predicted_w", "field_w"])
        for k, (p, f) in enumerate(zip(predicted.samples, lc.curve.samples)):
            writer.writerow([k, repr(float(p)), repr(float(f))])


def cmd_report(args, cfg) -> int:
    summary = investigator.summarize(r for path in args.reports for r in investigator.read_reports(
        _require_file(path, "run the pipeline first")))
    _print_summary(summary)
    if args.out:
        dataio.write_json(args.out, summary)
        print(f"wrote summary to {args.out}")
    return EXIT_SUSPICION if summary["suspicious"] else EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_flags(parser, section: str):
    parser.add_argument("--config", help="JSON config file; flags override its values")
    for spec in SECTIONS[section].values():
        if spec.flag:
            parser.add_argument("--" + spec.flag.replace("_", "-"), type=spec.convert,
                                choices=spec.choices, help=spec.help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turnoutguard",
        description=(
            "Forecast turnout switch-operation power curves and investigate "
            "field data for tampering."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic labeled life cycle")
    p.add_argument("--out", help="output corpus NDJSON (default corpus.ndjson)")
    _add_flags(p, "generator")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit the forecaster on the corpus' train split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", help="weights file (default model.json)")
    _add_flags(p, "train")
    p.add_argument("--report-out", help="write the training report as JSON")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="derive acceptance thresholds from the test split")
    p.add_argument("--corpus", required=True, help="the corpus the model was trained on")
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="thresholds file (default thresholds.json)")
    _add_flags(p, "calibrate")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("inject", help="substitute attack curves into a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", help="tampered corpus (default tampered.ndjson)")
    _add_flags(p, "attack")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("run", help="operation phase over a field stream")
    p.add_argument("--corpus", required=True, help="corpus holding history + field stream")
    p.add_argument("--model", required=True)
    p.add_argument("--thresholds", required=True)
    p.add_argument("--out", help="report NDJSON (default reports.ndjson)")
    p.add_argument("--summary-out", help="write the run summary as JSON")
    p.add_argument("--plot-dir", help="write predicted-vs-field CSVs here")
    p.add_argument("--plot-all", action="store_true", help="plot validated steps too")
    p.add_argument("--plot-limit", type=int, default=50)
    _add_flags(p, "pipeline")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="aggregate existing report files")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out", help="write the aggregate summary as JSON")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _load_config(getattr(args, "config", None)))
    except (FormatError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, forecaster.TrainingDiverged) as exc:   # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
