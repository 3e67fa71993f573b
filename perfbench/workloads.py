"""The benchmark's workloads: inputs from a seed, set-up, measured loop, checks.

Both drive the public library API from one process with one caller in
a closed loop: each field operation is stepped only after the previous one
returned, as the fold requires (each step's window depends on the previous
verdict).  See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import turnoutguard as tg
from turnoutguard import classifier, comparator, dataio, forecaster, investigator
from turnoutguard.curvegen import AttackKind, CurveKind, LabeledCurve, PowerCurve
from turnoutguard.investigator import VerdictKind
from turnoutguard.pipeline import Pipeline, PipelineConfig

from tracer import Tracer

DEFAULT_SEED = 42
WORKLOADS = ("operate-clean", "operate-attack")
TRAIN_FRACTION = 0.8
ATTACK_SEVERITY = 0.8
ATTACK_GAP = (4, 8)       # clean ops between two bursts (inclusive range)
ATTACK_BURST = (16, 32)   # planted ops per burst: ~80% of the stream is tampered
MIN_PASSES = 2            # passes per run; a traced run adds one

# (op, verdict kind, reason) digest of the first pass at the default seed
RECORDED_DIGESTS = {
    "operate-clean": "42ce5ca3ac132a6e86e482565fc6d12edf1988c87becb5d96ca9b306a85a51d8",
    "operate-attack": "fbd7919f97e226cf4eb590a47b054d625729612dba615210e36ac67dbb95eb1d",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_latency_p95_ms": "ms",
    "train_epoch_s": "s",
    "develop_s": "s",
    "peak_rss_mb": "MB",
}

# printed with the run facts but given no bound: host speed switches between
# two levels ~35% apart every few seconds, and a median of a few samples (p50)
# or a single 1.5 s call (calibrate) lands on either level, so their spread
# between runs exceeds the largest bound a metric may have
UNBOUNDED_UNITS = {
    "op_latency_p50_ms": "ms",
    "calibrate_s": "s",
}

PER_LAYER_UNITS = {
    "comparator.dtw.calls": "count",
    "comparator.dtw.cells": "count",
    "comparator.dtw.ms": "ms",
    "comparator.euclidean.us": "us",
    "comparator.validate.ms": "ms",
    "comparator.calibrate.s": "s",
    "comparator.calibrate.pairs": "count",
    "forecaster.forward.calls": "count",
    "forecaster.forward.ms": "ms",
    "forecaster.forward.repeat_row_frac": "ratio",
    "forecaster.forward_samples.calls": "count",
    "forecaster.train.s": "s",
    "forecaster.train.epochs": "count",
    "forecaster.load_model.ms": "ms",
    "classifier.classify.calls": "count",
    "classifier.classify.calls_per_op": "calls/op",
    "classifier.classify.repeat_frac": "ratio",
    "classifier.classify.us": "us",
    "classifier.extract_features.calls": "count",
    "classifier.extract_features.us": "us",
    "classifier.build_reference.ms": "ms",
    "investigator.window_shows_progression.calls": "count",
    "investigator.window_shows_progression.ms": "ms",
    "investigator.investigate.calls": "count",
    "investigator.investigate.ms": "ms",
    "dataio.make_dataset.ms": "ms",
    "dataio.read_corpus.ms": "ms",
    "dataio.window_pushes": "count",
    "curvegen.generate_lifecycle.ms": "ms",
    "curvegen.inject_attack.ms": "ms",
    "pipeline.bootstrap.ms": "ms",
    "pipeline.step.calls": "count",
    "pipeline.step.ms": "ms",
    "pipeline.step.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes and model settings; FULL is the benchmark, TINY the smoke test."""

    length: int = 200            # samples per curve (generator default)
    dev_ops: int = 1000          # development corpus, ops [0, dev_ops)
    field_ops: int = 200         # field stream of one operate pass
    window: int = 50
    hidden: int = 64
    operate_epochs: int = 60     # float32, batch 128, as the acceptance suite
    quality_floor: float = 0.9   # share of ops that must get the expected verdict


FULL = Sizes()
TINY = Sizes(length=40, dev_ops=200, field_ops=40, window=12, hidden=8,
             operate_epochs=2, quality_floor=0.0)


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)      # name -> value
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)


clock = time.perf_counter


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def attack_plan(seed: int, start: int, end: int) -> list:
    """Alternating spurious pre-fault / failure bursts with clean gaps."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA77AC)))
    kinds = (AttackKind.SPURIOUS_PRE_FAULT, AttackKind.SPURIOUS_FAILURE)
    k = int(rng.integers(2))
    plan, op = [], start
    while True:
        op += int(rng.integers(ATTACK_GAP[0], ATTACK_GAP[1] + 1))
        length = int(rng.integers(ATTACK_BURST[0], ATTACK_BURST[1] + 1))
        if op >= end:
            return plan
        plan.append(tg.AttackScenario(kinds[k], op, min(op + length, end),
                                      severity=ATTACK_SEVERITY, seed=seed))
        op += length
        k ^= 1


def _clone(lc: LabeledCurve) -> LabeledCurve:
    """Same values in fresh objects, so no pass sees a curve a former one saw."""
    c = lc.curve
    return LabeledCurve(PowerCurve(c.samples.copy(), c.op_index, c.timestamp),
                        lc.label, lc.tampered)


def _split_at(corpus, op: int):
    cut = next(k for k, lc in enumerate(corpus) if lc.curve.op_index >= op)
    return corpus[:cut], corpus[cut:]


# ---------------------------------------------------------------------------
# development
# ---------------------------------------------------------------------------

@dataclass
class Development:
    model: object
    thresholds: object
    reference: object
    train_epoch_s: float
    calibrate_s: float
    develop_s: float


def develop(dev_corpus, sizes: Sizes, train_config) -> Development:
    """Split, make_dataset, train, calibrate, build_reference (timed)."""
    t0 = clock()
    train_part, test_part = dataio.split(dev_corpus, TRAIN_FRACTION)
    train_pairs = dataio.make_dataset(train_part, sizes.window)
    test_pairs = dataio.make_dataset(test_part, sizes.window)
    t1 = clock()
    model, report = forecaster.train(train_pairs, train_config, val_pairs=test_pairs)
    t2 = clock()
    thresholds = comparator.calibrate(model, test_pairs)
    t3 = clock()
    reference = classifier.build_reference(train_part)
    t4 = clock()
    return Development(model, thresholds, reference,
                       train_epoch_s=(t2 - t1) / report.epochs_run,
                       calibrate_s=t3 - t2, develop_s=t4 - t0)


def save_bundle(workdir, dev: Development):
    model_path = os.path.join(workdir, "model.json")
    thresholds_path = os.path.join(workdir, "thresholds.json")
    forecaster.save_model(dev.model, model_path)
    comparator.save_thresholds(thresholds_path, dev.thresholds, dev.reference.to_dict())
    return model_path, thresholds_path


def load_pipeline(model_path, thresholds_path) -> Pipeline:
    """Load model and thresholds the way ``turnoutguard run`` does."""
    model = forecaster.load_model(model_path)
    thresholds, ref_dict = comparator.load_thresholds(thresholds_path)
    reference = classifier.ClassifierReference.from_dict(ref_dict)
    config = PipelineConfig(band=thresholds.calibration.get("band"))
    return Pipeline(model, thresholds, reference, config)


# ---------------------------------------------------------------------------
# the operate loop and its report contract
# ---------------------------------------------------------------------------

_FIG4 = {
    investigator.REASON_UNEXPECTED_HEALTHY,
    investigator.REASON_UNHERALDED_PRE_FAULT,
    investigator.REASON_MINOR_ANOMALY,
    investigator.REASON_SUDDEN_FAILURE,
}
_PROGRESSION_REASONS = {investigator.REASON_UNHERALDED_PRE_FAULT,
                        investigator.REASON_SUDDEN_FAILURE}


def contract_error(pipe: Pipeline, before: int, report, lc: LabeledCurve) -> str | None:
    """Why a step's report breaks the documented contract, or None."""
    if len(pipe.reports) != before + 1 or pipe.reports[-1] is not report:
        return "not exactly one report for the op"
    if report.op_index != lc.curve.op_index:
        return f"report for op {report.op_index}, stepped op {lc.curve.op_index}"
    d = report.distances
    if not (math.isfinite(d.euclidean) and math.isfinite(d.dtw)):
        return "non-finite distance"
    within = d.euclidean <= report.tau_euclidean and d.dtw <= report.tau_dtw
    v = report.verdict
    if within:
        if v.kind is not VerdictKind.VALIDATED or v.reason_code != investigator.REASON_VALIDATED:
            return "distances within thresholds but not validated"
    elif v.kind is VerdictKind.VALIDATED or v.reason_code not in _FIG4:
        return "non-validated op without exactly one investigation verdict"
    return None


@dataclass
class Pass:
    reports: list          # InvestigationReport, or None for a failed op
    latencies: list        # seconds per successful step
    wall: float
    failed: int
    errors: list


def run_pass(pipe: Pipeline, stream) -> Pass:
    reports, latencies, errors = [], [], []
    failed = 0
    t_start = clock()
    for lc in stream:
        before = len(pipe.reports)
        t0 = clock()
        try:
            report = pipe.step(lc)
        except Exception as exc:  # an op that raises is a failed op; keep going
            failed += 1
            errors.append(f"op {lc.curve.op_index}: step raised {exc!r}")
            reports.append(None)
            continue
        latencies.append(clock() - t0)
        problem = contract_error(pipe, before, report, lc)
        if problem:
            failed += 1
            errors.append(f"op {lc.curve.op_index}: {problem}")
        reports.append(report)
    return Pass(reports, latencies, clock() - t_start, failed, errors)


def digest(reports) -> str:
    h = hashlib.sha256()
    for r in reports:
        line = "failed" if r is None else f"{r.op_index},{r.verdict.kind.value},{r.verdict.reason_code}"
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _as_dicts(reports):
    return [None if r is None else r.to_dict() for r in reports]


def quality(reports, stream) -> dict:
    """Verdict quality of one pass, from investigator.score_run."""
    done = [r for r in reports if r is not None]
    validated = sum(r.verdict.kind is VerdictKind.VALIDATED for r in done)
    q = {"validation_rate": validated / len(done) if done else None}
    if done:
        score = investigator.score_run(done)
        for key in ("detection_rate", "false_alarm_rate", "escalation_rate"):
            q[key] = score[key]
    expected = {  # planted kind -> the verdict the decision process must give
        CurveKind.PROGRESSIVE_PRE_FAULT: (VerdictKind.SUSPICIOUS, investigator.REASON_UNHERALDED_PRE_FAULT),
        CurveKind.SUDDEN_FAILURE: (VerdictKind.ESCALATE_TO_EXPERT, investigator.REASON_SUDDEN_FAILURE),
    }
    planted = [(r, lc) for r, lc in zip(reports, stream) if lc.tampered]
    if planted:
        hits = sum(
            r is not None
            and (r.verdict.kind, r.verdict.reason_code) == expected.get(lc.label.kind)
            for r, lc in planted
        )
        q["planted_expected_rate"] = hits / len(planted)
    return q


def loop_metrics(passes) -> dict:
    """Throughput over all passes; step latency percentiles, median over passes."""
    passes = [p for p in passes if p.latencies]
    if not passes:
        return {}
    med = statistics.median
    return {
        "ops_per_s": sum(len(p.reports) for p in passes) / sum(p.wall for p in passes),
        "op_latency_p50_ms": med(float(np.percentile(p.latencies, 50)) for p in passes) * 1e3,
        "op_latency_p95_ms": med(float(np.percentile(p.latencies, 95)) for p in passes) * 1e3,
    }


def tracer_problems(tracer: Tracer, traced_reports, window: int) -> list:
    """The tracer's self-check: call counts it saw against counts the run implies.

    Each identity fails if some by-value binding of the function escaped the
    patching, e.g. ``pipeline.classify`` or ``comparator.forward_samples``.
    """
    done = [r for r in traced_reports if r is not None]
    ops = len(traced_reports)
    rejected = sum(r.verdict.kind is not VerdictKind.VALIDATED for r in done)
    progression = sum(r.verdict.reason_code in _PROGRESSION_REASONS for r in done)
    w = min(tg.InvestigatorParams().recent_curves, window)
    classify = (2 + w) * ops + w * progression
    pairs = tracer.calibrate_pairs
    want = {
        "pipeline.step": ops,
        "forecaster.forward": ops,
        "forecaster.forward_samples": ops + pairs,
        "comparator.dtw": ops + pairs,
        "classifier.classify": classify,
        "classifier.extract_features": classify + tracer.reference_curves,
        "investigator.window_shows_progression": ops + progression,
        "investigator.investigate": rejected,
    }
    problems = []
    for name, count in want.items():
        got = tracer.stat(name).calls
        if got != count:
            problems.append(f"tracer saw {got} {name} calls, the run implies {count}")
    return problems


def layer_metrics(tracer: Tracer, ops: int, overhead: float) -> dict:
    s = tracer.stat
    step = s("pipeline.step")
    classify = s("classifier.classify")
    return {
        "comparator.dtw.calls": s("comparator.dtw").calls,
        "comparator.dtw.cells": tracer.dtw_cells,
        "comparator.dtw.ms": tracer.mean("comparator.dtw", 1e3),
        "comparator.euclidean.us": tracer.mean("comparator.euclidean", 1e6),
        "comparator.validate.ms": tracer.mean("comparator.validate", 1e3),
        "comparator.calibrate.s": tracer.mean("comparator.calibrate", 1.0),
        "comparator.calibrate.pairs": tracer.calibrate_pairs,
        "forecaster.forward.calls": s("forecaster.forward").calls,
        "forecaster.forward.ms": tracer.mean("forecaster.forward", 1e3),
        "forecaster.forward.repeat_row_frac": (
            tracer.forward_repeat_rows / tracer.forward_rows if tracer.forward_rows else 0.0),
        "forecaster.forward_samples.calls": s("forecaster.forward_samples").calls,
        "forecaster.train.s": tracer.mean("forecaster.train", 1.0),
        "forecaster.train.epochs": tracer.train_epochs,
        "forecaster.load_model.ms": tracer.mean("forecaster.load_model", 1e3),
        "classifier.classify.calls": classify.calls,
        "classifier.classify.calls_per_op": classify.calls / ops if ops else 0.0,
        "classifier.classify.repeat_frac": (
            tracer.classify_repeats / classify.calls if classify.calls else 0.0),
        "classifier.classify.us": tracer.mean("classifier.classify", 1e6),
        "classifier.extract_features.calls": s("classifier.extract_features").calls,
        "classifier.extract_features.us": tracer.mean("classifier.extract_features", 1e6),
        "classifier.build_reference.ms": tracer.mean("classifier.build_reference", 1e3),
        "investigator.window_shows_progression.calls": s("investigator.window_shows_progression").calls,
        "investigator.window_shows_progression.ms": tracer.mean("investigator.window_shows_progression", 1e3),
        "investigator.investigate.calls": s("investigator.investigate").calls,
        "investigator.investigate.ms": tracer.mean("investigator.investigate", 1e3),
        "dataio.make_dataset.ms": tracer.mean("dataio.make_dataset", 1e3),
        "dataio.read_corpus.ms": tracer.mean("dataio.read_corpus", 1e3),
        "dataio.window_pushes": tracer.window_pushes,
        "curvegen.generate_lifecycle.ms": tracer.mean("curvegen.generate_lifecycle", 1e3),
        "curvegen.inject_attack.ms": tracer.mean("curvegen.inject_attack", 1e3),
        "pipeline.bootstrap.ms": tracer.mean("pipeline.bootstrap", 1e3),
        "pipeline.step.calls": step.calls,
        "pipeline.step.ms": tracer.mean("pipeline.step", 1e3),
        "pipeline.step.self_ms": step.self_time / step.calls * 1e3 if step.calls else 0.0,
        "trace.overhead_frac": overhead,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _operate_setup(workdir, seed: int, attack: bool, sizes: Sizes):
    """Generate, develop, write and reload the artifacts, bootstrap."""
    t0 = clock()
    config = tg.GeneratorConfig(length=sizes.length, operations=sizes.dev_ops + sizes.field_ops,
                                seed=seed)
    corpus = tg.generate_lifecycle(config)
    field_corpus = corpus
    if attack:
        for scenario in attack_plan(seed, sizes.dev_ops, len(corpus)):
            field_corpus = tg.inject_attack(field_corpus, scenario, config)
    dev = develop(corpus[:sizes.dev_ops], sizes, forecaster.TrainConfig(
        hidden=sizes.hidden, epochs=sizes.operate_epochs, seed=5, batch_size=128,
        dtype="float32"))
    corpus_path = os.path.join(workdir, "corpus.ndjson")
    dataio.write_corpus(corpus_path, field_corpus)
    model_path, thresholds_path = save_bundle(workdir, dev)
    loaded = dataio.read_corpus(corpus_path)
    pipe = load_pipeline(model_path, thresholds_path)
    history, stream = _split_at(loaded, sizes.dev_ops)
    pipe.bootstrap(history)
    return clock() - t0, dev, pipe, history, stream


def run(workdir, name: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = FULL) -> Outcome:
    out = Outcome()
    attack = name == "operate-attack"
    tracer = Tracer() if trace else None
    with tracer or nullcontext():
        setup_s, dev, pipe, history, stream = _operate_setup(workdir, seed, attack, sizes)
    th = dev.thresholds
    if not all(math.isfinite(t) and t > 0.0 for t in (th.tau_euclidean, th.tau_dtw)):
        out.problems.append(f"thresholds not finite and > 0: {th.tau_euclidean}, {th.tau_dtw}")

    passes, traced = [], []
    while True:
        k = len(passes)
        if k:
            pipe = Pipeline(pipe.model, pipe.thresholds, pipe.reference, pipe.config)
            pipe.bootstrap([_clone(lc) for lc in history])
        run_stream = stream if k == 0 else [_clone(lc) for lc in stream]
        traced_pass = bool(tracer) and k == 1   # exactly one: counts repeat exactly
        with tracer if traced_pass else nullcontext():
            p = run_pass(pipe, run_stream)
        passes.append(p)
        traced.append(traced_pass)
        # a traced run brackets its traced pass with untraced ones
        if (len(passes) >= MIN_PASSES + bool(tracer)
                and sum(p.wall for p in passes) >= seconds):
            break

    first = passes[0]
    out.attempted = sum(len(p.reports) for p in passes)
    out.failed = sum(p.failed for p in passes)
    for p in passes:
        out.problems.extend(p.errors)
    reference = _as_dicts(first.reports)
    if any(_as_dicts(p.reports) != reference for p in passes[1:]):
        out.problems.append("reports differ between passes over the same stream")
    out.facts["digest"] = digest(first.reports)
    expected = RECORDED_DIGESTS.get(name)
    if sizes == FULL and seed == DEFAULT_SEED and expected and out.facts["digest"] != expected:
        out.problems.append(f"verdict digest {out.facts['digest']} != recorded {expected}")

    out.quality = quality(first.reports, stream)
    key = "planted_expected_rate" if attack else "validation_rate"
    value = out.quality.get(key)
    if value is None or value < sizes.quality_floor:
        out.problems.append(f"{key} {value} below {sizes.quality_floor}")

    plain = [p for p, t in zip(passes, traced) if not t]
    latencies = [x for p in plain for x in p.latencies]
    out.facts.update(passes=len(passes), latency_samples=len(latencies),
                     field_ops=len(stream))
    if tracer:
        traced_passes = [p for p, t in zip(passes, traced) if t]
        traced_reports = [r for p in traced_passes for r in p.reports]
        out.problems.extend(tracer_problems(tracer, traced_reports, sizes.window))
        t_lat = [x for p in traced_passes for x in p.latencies]
        overhead = statistics.fmean(t_lat) / statistics.fmean(latencies) - 1.0
        out.metrics = layer_metrics(tracer, len(traced_reports), overhead)
    else:
        out.metrics = {
            "setup_s": setup_s,
            **loop_metrics(plain),
            "train_epoch_s": dev.train_epoch_s,
            "calibrate_s": dev.calibrate_s,
            "develop_s": dev.develop_s,
            "peak_rss_mb": _peak_rss_mb(),
        }
    return out


