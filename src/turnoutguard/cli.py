"""Command-line front end.

Subcommands cover the two phases of the method plus tooling: ``generate``,
``train`` and ``calibrate`` form the development phase, ``run`` is the
operation phase, ``inject`` builds tampered corpora for exercises, and
``report`` aggregates existing report files.

Options may come from a JSON config file (``--config``); explicit flags win
over the file, which wins over built-in defaults.  Exit codes: 0 ok,
1 suspicion raised, 2 usage error, 3 I/O or schema error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import classifier, comparator, curvegen, dataio, forecaster, investigator
from .comparator import ThresholdsFormatError
from .curvegen import AttackKind, AttackScenario, GeneratorConfig
from .dataio import CorpusFormatError
from .forecaster import ModelFormatError, TrainConfig
from .investigator import VerdictKind
from .pipeline import Pipeline, PipelineConfig

EXIT_OK = 0
EXIT_SUSPICION = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"config file: invalid JSON ({exc.msg})") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    return cfg


def _opt(flag_value, section: dict, key: str, default):
    """Flag > config file > default."""
    if flag_value is not None:
        return flag_value
    if key in section:
        return section[key]
    return default


def _require_file(path, hint: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{p}: not found; {hint}")
    return p


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    section = _load_config(args.config).get("generator", {})
    merged = dict(section)
    for key, value in (
        ("seed", args.seed),
        ("operations", args.operations),
        ("length", args.length),
        ("noise_sigma", args.noise_sigma),
    ):
        if value is not None:
            merged[key] = value
    config = GeneratorConfig.from_dict(merged)
    corpus = curvegen.generate_lifecycle(config)
    out = args.out or "corpus.ndjson"
    dataio.write_corpus(out, corpus)
    print(f"wrote {len(corpus)} operations of {config.length} samples to {out}")
    return EXIT_OK


def _split_fraction(args, section) -> float:
    fraction = float(_opt(getattr(args, "train_fraction", None), section, "train_fraction", 0.8))
    if not 0.0 < fraction < 1.0:
        raise UsageError("train fraction must lie strictly between 0 and 1")
    return fraction


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    section = cfg.get("train", {})
    corpus = dataio.read_corpus(_require_file(args.corpus, "generate a corpus first"))
    fraction = _split_fraction(args, section)
    window = int(_opt(args.window, section, "window", 50))

    train_part, test_part = dataio.split(corpus, fraction)
    train_pairs = dataio.make_dataset(train_part, window)
    val_pairs = dataio.make_dataset(test_part, window) if len(test_part) > window else None

    train_config = TrainConfig(
        hidden=int(_opt(args.hidden, section, "hidden", 64)),
        epochs=int(_opt(args.epochs, section, "epochs", 100)),
        learning_rate=float(_opt(args.lr, section, "learning_rate", 1e-3)),
        seed=int(_opt(args.seed, section, "seed", 0)),
        batch_size=_opt(args.batch_size, section, "batch_size", None),
        dtype=str(_opt(args.dtype, section, "dtype", "float64")),
    )
    if train_config.batch_size is not None:
        train_config.batch_size = int(train_config.batch_size)

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
        with open(args.report_out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh)
        print(f"wrote training report to {args.report_out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    cfg = _load_config(args.config)
    section = cfg.get("calibrate", {})
    corpus = dataio.read_corpus(_require_file(args.corpus, "generate a corpus first"))
    model = forecaster.load_model(_require_file(args.model, "train a model first"))
    fraction = _split_fraction(args, section)

    train_part, test_part = dataio.split(corpus, fraction)
    if len(test_part) <= model.window:
        raise UsageError(
            f"test split of {len(test_part)} curves cannot fill a window of "
            f"{model.window} plus a target"
        )
    test_pairs = dataio.make_dataset(test_part, model.window)

    percentile = _opt(args.percentile, section, "percentile", None)
    thresholds = comparator.calibrate(
        model,
        test_pairs,
        percentile=None if percentile is None else float(percentile),
        safety_factor=float(_opt(args.safety, section, "safety_factor", 1.0)),
        band=_opt(args.band, section, "band", None),
    )
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


_ATTACK_KINDS = {k.value: k for k in AttackKind}


def cmd_inject(args) -> int:
    cfg = _load_config(args.config)
    section = cfg.get("attack", {})
    corpus = dataio.read_corpus(_require_file(args.corpus, "generate a corpus first"))

    kind_name = _opt(args.attack, section, "kind", None)
    if kind_name not in _ATTACK_KINDS:
        raise UsageError(
            f"--attack must be one of {sorted(_ATTACK_KINDS)} (got {kind_name!r})"
        )
    start = _opt(args.start, section, "start", None)
    end = _opt(args.end, section, "end", None)
    if start is None or end is None:
        raise UsageError("--start and --end are required for inject")
    scenario = AttackScenario(
        kind=_ATTACK_KINDS[kind_name],
        start=int(start),
        end=int(end),
        severity=float(_opt(args.severity, section, "severity", 0.8)),
        seed=int(_opt(args.attack_seed, section, "seed", 0)),
        failure_mode=_opt(args.failure_mode, section, "failure_mode", None),
    )
    gen_config = None
    if scenario.kind is not AttackKind.REPLAY_CONCEAL:
        gen_section = cfg.get("generator")
        if gen_section is None:
            raise UsageError(
                f"{kind_name} substitutes generated shapes; pass --config "
                "with a generator section"
            )
        gen_config = GeneratorConfig.from_dict(gen_section)
    tampered = curvegen.inject_attack(corpus, scenario, gen_config)
    out = args.out or "tampered.ndjson"
    dataio.write_corpus(out, tampered)
    n = sum(lc.tampered for lc in tampered)
    print(f"substituted {n} operations in [{scenario.start}, {scenario.end}); wrote {out}")
    return EXIT_OK


def _summarize(reports) -> dict:
    by_kind = {k.value: 0 for k in VerdictKind}
    reasons: dict[str, int] = {}
    suspicious_ops = []
    for r in reports:
        by_kind[r.verdict.kind.value] += 1
        reasons[r.verdict.reason_code] = reasons.get(r.verdict.reason_code, 0) + 1
        if r.verdict.kind is VerdictKind.SUSPICIOUS:
            suspicious_ops.append(r.op_index)
    summary = {
        "operations": len(reports),
        "validated": by_kind["validated"],
        "suspicious": by_kind["suspicious"],
        "no_suspicion": by_kind["no_suspicion"],
        "escalated": by_kind["escalate_to_expert"],
        "alerts": sum(1 for r in reports if r.alert),
        "validation_rate": by_kind["validated"] / len(reports) if reports else None,
        "reasons": dict(sorted(reasons.items())),
        "suspicious_ops": suspicious_ops,
    }
    if reports and all(r.tampered is not None for r in reports):
        summary.update(investigator.score_run(reports))
    return summary


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


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    section = cfg.get("pipeline", {})
    corpus = dataio.read_corpus(_require_file(args.corpus, "generate or inject a corpus first"))
    model = forecaster.load_model(_require_file(args.model, "train a model first"))
    thresholds_path = Path(args.thresholds)
    if not thresholds_path.exists():
        raise FileNotFoundError(f"{thresholds_path}: not found; calibrate first")
    thresholds, ref_dict = comparator.load_thresholds(thresholds_path)
    if ref_dict is None:
        raise UsageError(
            "thresholds file carries no classifier baseline; re-run calibrate"
        )
    reference = classifier.ClassifierReference.from_dict(ref_dict)

    start = _opt(args.start, section, "start", None)
    if start is None:
        raise UsageError("--start (first field op index) is required for run")
    start = int(start)
    positions = [k for k, lc in enumerate(corpus) if lc.curve.op_index >= start]
    if not positions:
        raise UsageError(f"no operation with op_index >= {start} in the corpus")
    cut = positions[0]
    history, stream = corpus[:cut], corpus[cut:]

    config = PipelineConfig(
        rejected_curve_policy=str(_opt(args.policy, section, "policy", "freeze")),
        alarm_after=int(_opt(args.alarm_after, section, "alarm_after", 5)),
        # default to the band the thresholds were calibrated with
        band=_opt(args.band, section, "band", thresholds.calibration.get("band")),
    )
    pipe = Pipeline(model, thresholds, reference, config).bootstrap(history)

    plot_dir = Path(args.plot_dir) if args.plot_dir else None
    if plot_dir:
        plot_dir.mkdir(parents=True, exist_ok=True)
    plotted = 0
    reports = []
    for lc in stream:
        predicted = None
        if plot_dir is not None:
            predicted = forecaster.forward(pipe.model, pipe.window)
        report = pipe.step(lc)
        reports.append(report)
        wanted = args.plot_all or report.verdict.kind is not VerdictKind.VALIDATED
        if plot_dir is not None and wanted and plotted < args.plot_limit:
            _write_plot(plot_dir, report, predicted, lc)
            plotted += 1

    out = args.out or "reports.ndjson"
    investigator.write_reports(out, reports)
    summary = _summarize(reports)
    _print_summary(summary)
    print(f"wrote {len(reports)} reports to {out}")
    if args.summary_out:
        with open(args.summary_out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
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


def cmd_report(args) -> int:
    reports = []
    for path in args.reports:
        reports.extend(investigator.read_reports(_require_file(path, "run the pipeline first")))
    summary = _summarize(reports)
    _print_summary(summary)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        print(f"wrote summary to {args.out}")
    return EXIT_SUSPICION if summary["suspicious"] else EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

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
    p.add_argument("--config", help="JSON config file (generator section)")
    p.add_argument("--out", help="output corpus NDJSON (default corpus.ndjson)")
    p.add_argument("--seed", type=int)
    p.add_argument("--operations", type=int, help="number of switch operations")
    p.add_argument("--length", type=int, help="samples per curve")
    p.add_argument("--noise-sigma", type=float, help="per-sample noise in watts")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit the forecaster on the corpus' train split")
    p.add_argument("--config")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", help="weights file (default model.json)")
    p.add_argument("--window", type=int, help="curves per input sequence")
    p.add_argument("--hidden", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--dtype", choices=["float32", "float64"])
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--report-out", help="write the training report as JSON")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="derive acceptance thresholds from the test split")
    p.add_argument("--config")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="thresholds file (default thresholds.json)")
    p.add_argument("--percentile", type=float, help="residual percentile (default: max)")
    p.add_argument("--safety", type=float, help="safety factor on thresholds")
    p.add_argument("--band", type=int, help="warping band radius")
    p.add_argument("--train-fraction", type=float)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("inject", help="substitute attack curves into a corpus")
    p.add_argument("--config")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", help="tampered corpus (default tampered.ndjson)")
    p.add_argument("--attack", help="|".join(sorted(_ATTACK_KINDS)))
    p.add_argument("--start", type=int)
    p.add_argument("--end", type=int)
    p.add_argument("--severity", type=float)
    p.add_argument("--attack-seed", type=int)
    p.add_argument("--failure-mode", choices=["truncate", "spike", "random"])
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("run", help="operation phase over a field stream")
    p.add_argument("--config")
    p.add_argument("--corpus", required=True, help="corpus holding history + field stream")
    p.add_argument("--model", required=True)
    p.add_argument("--thresholds", required=True)
    p.add_argument("--start", type=int, help="first op index treated as field data")
    p.add_argument("--out", help="report NDJSON (default reports.ndjson)")
    p.add_argument("--summary-out", help="write the run summary as JSON")
    p.add_argument("--plot-dir", help="write predicted-vs-field CSVs here")
    p.add_argument("--plot-all", action="store_true", help="plot validated steps too")
    p.add_argument("--plot-limit", type=int, default=50)
    p.add_argument("--policy", choices=["freeze", "substitute_prediction"])
    p.add_argument("--alarm-after", type=int)
    p.add_argument("--band", type=int)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="aggregate existing report files")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out", help="write the aggregate summary as JSON")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusFormatError, ModelFormatError, ThresholdsFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
