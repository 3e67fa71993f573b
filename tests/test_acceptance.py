"""Acceptance gate: one test per criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The scenario tests (criterion 6) train two forecasters on generated
life cycles at the method's working scale (1000-operation development
corpora, 50-curve windows, single recurrent layer, squared-error loss,
Adam); everything is seeded, so results are reproducible bit for bit.
"""

import json
import math
import time

import numpy as np
import pytest

import turnoutguard as tg
from turnoutguard import classifier, comparator, dataio, forecaster, investigator
from turnoutguard.curvegen import CurveKind, GeneratorConfig, Phase, PowerCurve
from turnoutguard.forecaster import AdamState, TrainConfig
from turnoutguard.investigator import VerdictKind
from turnoutguard.pipeline import Pipeline

from gradient_cases import gradient_check, random_check_instance

WINDOW = 50


def _report(tag: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


# ---------------------------------------------------------------------------
# 1. sliding-window arithmetic
# ---------------------------------------------------------------------------

def test_criterion_1_dataset_arithmetic():
    corpus = [
        PowerCurve(np.full(4, 5.0), op_index=k, timestamp=float(k)) for k in range(1000)
    ]
    pairs = dataio.make_dataset(corpus, WINDOW)
    _report(
        "1 dataset-arithmetic",
        len(pairs) == 950,
        f"M=1000, N=50 -> {len(pairs)} pairs",
    )


# ---------------------------------------------------------------------------
# 2. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_2_gradient_correctness():
    worst = 0.0
    for seed in range(20):
        model, dataset = random_check_instance(seed)
        worst = max(worst, gradient_check(model, dataset, step=1e-5))
    _report(
        "2 gradient-correctness",
        worst < 1e-4,
        f"max relative error {worst:.3e} over 20 random small models",
    )


# ---------------------------------------------------------------------------
# 3. Adam single-step oracle
# ---------------------------------------------------------------------------

def test_criterion_3_adam_oracle():
    params = {"theta": np.array([1.0])}
    state = AdamState.for_params(params, TrainConfig(learning_rate=0.1))
    state.step(params, {"theta": np.array([2.0])})   # gradient of theta^2 at 1
    got = float(params["theta"][0])
    want = 1.0 - 0.1 * 2.0 / (math.sqrt(4.0) + 1e-8)
    ok = abs(got - 0.9) < 1e-6 and abs(got - want) < 1e-12
    _report("3 adam-oracle", ok, f"theta 1 -> {got:.10f} (hand value {want:.10f})")


# ---------------------------------------------------------------------------
# 4. learnability floor
# ---------------------------------------------------------------------------

def test_criterion_4_constant_corpus_learnability():
    corpus = tg.generate_lifecycle(
        GeneratorConfig(length=200, operations=100, seed=2, noise_sigma=0.0)
    )
    pairs = dataio.make_dataset(corpus, WINDOW)
    t0 = time.perf_counter()
    _, report = forecaster.train(
        pairs,
        TrainConfig(hidden=64, epochs=200, seed=0, target_val_mse=1e-4),
        val_pairs=pairs,
    )
    dt = time.perf_counter() - t0
    ok = report.val_losses[-1] < 1e-4 and report.epochs_run <= 200
    _report(
        "4 learnability",
        ok,
        f"validation MSE {report.val_losses[-1]:.2e} after "
        f"{report.epochs_run} epochs in {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. warping-distance axioms
# ---------------------------------------------------------------------------

def test_criterion_5_dtw_axioms():
    rng = np.random.default_rng(321)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        a = rng.uniform(0.0, 10.0, n)
        b = rng.uniform(0.0, 10.0, int(rng.integers(1, 60)))
        assert comparator.dtw(a, a) == 0.0
        d = comparator.dtw(a, b)
        assert d >= 0.0
        assert comparator.dtw(b, a) == d
        if a.size == b.size:
            assert d <= np.abs(a - b).sum() + 1e-9
        checked += 1
    _report(
        "5 dtw-axioms",
        checked == 1000,
        f"identity, symmetry, non-negativity, diagonal bound on {checked} pairs "
        f"({comparator.DTW_BACKEND} backend)",
    )


# ---------------------------------------------------------------------------
# 6. scenario reproduction on generated life cycles
# ---------------------------------------------------------------------------

def _develop(corpus, epochs, train_seed):
    """Development phase: chronological 80/20 split, train, calibrate."""
    dev = corpus[:1000]
    train_part, test_part = dataio.split(dev, 0.8)
    train_pairs = dataio.make_dataset(train_part, WINDOW)
    test_pairs = dataio.make_dataset(test_part, WINDOW)
    model, _ = forecaster.train(
        train_pairs,
        TrainConfig(
            hidden=64, epochs=epochs, seed=train_seed, batch_size=128, dtype="float32"
        ),
        val_pairs=test_pairs,
    )
    thresholds = comparator.calibrate(model, test_pairs)
    reference = classifier.build_reference(train_part)
    return model, thresholds, reference, test_part


def _run(bundle, stream):
    model, thresholds, reference, test_part = bundle
    return Pipeline(model, thresholds, reference).bootstrap(test_part).run(stream)


@pytest.fixture(scope="module")
def healthy_bundle():
    t0 = time.perf_counter()
    config = GeneratorConfig(operations=1200, seed=42)
    corpus = tg.generate_lifecycle(config)
    bundle = _develop(corpus, epochs=60, train_seed=5)
    print(f"\n[healthy life cycle developed in {time.perf_counter() - t0:.1f}s]")
    return config, corpus, bundle


@pytest.fixture(scope="module")
def prefault_bundle():
    t0 = time.perf_counter()
    config = GeneratorConfig(
        operations=1200,
        seed=11,
        phase_plan=(
            Phase(CurveKind.EARLY_LIFE_NORMAL, 0, 300),
            Phase(CurveKind.PROGRESSIVE_PRE_FAULT, 300, 1000, 0.0, 1.0),
            Phase(CurveKind.PROGRESSIVE_PRE_FAULT, 1000, 1200, 1.0, 1.0),
        ),
    )
    corpus = tg.generate_lifecycle(config)
    bundle = _develop(corpus, epochs=120, train_seed=5)
    print(f"\n[pre-fault life cycle developed in {time.perf_counter() - t0:.1f}s]")
    return config, corpus, bundle


def test_criterion_6a_clean_segment_validates(healthy_bundle):
    _, corpus, bundle = healthy_bundle
    reports = _run(bundle, corpus[1000:])
    rate = sum(r.verdict.kind is VerdictKind.VALIDATED for r in reports) / len(reports)
    _report(
        "6a clean-validation",
        rate >= 0.95,
        f"{rate:.1%} of {len(reports)} clean steps validated",
    )


def test_criterion_6b_replay_conceal_is_suspicious(prefault_bundle):
    config, corpus, bundle = prefault_bundle
    scenario = tg.AttackScenario(tg.AttackKind.REPLAY_CONCEAL, 1050, 1150, seed=3)
    tampered = tg.inject_attack(corpus, scenario)
    reports = _run(bundle, tampered[1000:])
    hit = [r for r in reports if r.tampered]
    rate = sum(
        r.verdict.kind is VerdictKind.SUSPICIOUS
        and r.verdict.reason_code == investigator.REASON_UNEXPECTED_HEALTHY
        for r in hit
    ) / len(hit)
    _report(
        "6b replay-conceal",
        rate >= 0.90 and len(hit) == 100,
        f"{rate:.1%} of {len(hit)} replayed ops flagged FIG4_1",
    )


def test_criterion_6c_spurious_prefault_is_suspicious(healthy_bundle):
    config, corpus, bundle = healthy_bundle
    scenario = tg.AttackScenario(
        tg.AttackKind.SPURIOUS_PRE_FAULT, 1050, 1150, severity=0.8, seed=1
    )
    tampered = tg.inject_attack(corpus, scenario, config)
    reports = _run(bundle, tampered[1000:])
    hit = [r for r in reports if r.tampered]
    rate = sum(
        r.verdict.kind is VerdictKind.SUSPICIOUS
        and r.verdict.reason_code == investigator.REASON_UNHERALDED_PRE_FAULT
        for r in hit
    ) / len(hit)
    _report(
        "6c spurious-pre-fault",
        rate >= 0.90 and len(hit) == 100,
        f"{rate:.1%} of {len(hit)} planted pre-fault ops flagged FIG4_2_1",
    )


def test_criterion_6d_sudden_failure_escalates(healthy_bundle):
    config, corpus, bundle = healthy_bundle
    scenario = tg.AttackScenario(tg.AttackKind.SPURIOUS_FAILURE, 1050, 1080, seed=2)
    tampered = tg.inject_attack(corpus, scenario, config)
    reports = _run(bundle, tampered[1000:])
    hit = [r for r in reports if r.tampered]
    rate = sum(
        r.verdict.kind is VerdictKind.ESCALATE_TO_EXPERT
        and r.verdict.reason_code == investigator.REASON_SUDDEN_FAILURE
        for r in hit
    ) / len(hit)
    _report(
        "6d sudden-failure",
        rate == 1.0 and len(hit) == 30,
        f"{rate:.1%} of {len(hit)} failure substitutions escalated FIG4_2_3",
    )


def test_criterion_6e_minor_anomaly_never_suspicious(healthy_bundle):
    config, corpus, bundle = healthy_bundle
    # same seed, same plan except three minor-anomaly ops: per-operation
    # random streams keep every other curve bit-identical
    variant = GeneratorConfig(
        operations=1200,
        seed=42,
        phase_plan=(
            Phase(CurveKind.EARLY_LIFE_NORMAL, 0, 1100),
            Phase(CurveKind.MINOR_ANOMALY, 1100, 1103),
            Phase(CurveKind.EARLY_LIFE_NORMAL, 1103, 1200),
        ),
    )
    stream = tg.generate_lifecycle(variant)
    assert np.array_equal(stream[0].curve.samples, corpus[0].curve.samples)
    reports = _run(bundle, stream[1000:])
    minor = [r for r in reports if 1100 <= r.op_index < 1103]
    ok = (
        len(minor) == 3
        and all(r.verdict.kind is VerdictKind.NO_SUSPICION for r in minor)
        and all(
            r.verdict.reason_code == investigator.REASON_MINOR_ANOMALY for r in minor
        )
        and not any(
            r.verdict.kind is VerdictKind.SUSPICIOUS
            for r in reports
            if r.field_kind is CurveKind.MINOR_ANOMALY
        )
    )
    _report(
        "6e minor-anomaly",
        ok,
        "3 transient ops -> NoSuspicion FIG4_2_2, none suspicious",
    )


# ---------------------------------------------------------------------------
# 7. documented limitation: slowly progressive aging
# ---------------------------------------------------------------------------

def test_criterion_7_slow_aging_report(tmp_path):
    config = GeneratorConfig(
        operations=1200,
        seed=57,
        phase_plan=(
            Phase(CurveKind.EARLY_LIFE_NORMAL, 0, 600),
            Phase(CurveKind.AGING, 600, 1200, 0.0, 1.0),
        ),
    )
    corpus = tg.generate_lifecycle(config)
    bundle = _develop(corpus, epochs=40, train_seed=5)
    reports = _run(bundle, corpus[1000:])
    rate = sum(r.verdict.kind is VerdictKind.VALIDATED for r in reports) / len(reports)

    report_path = tmp_path / "slow_aging_reports.ndjson"
    summary_path = tmp_path / "slow_aging_summary.json"
    investigator.write_reports(report_path, reports)
    summary_path.write_text(
        json.dumps({"scenario": "slow_aging_clean", "operations": len(reports),
                    "validation_rate": rate})
    )
    recorded = json.loads(summary_path.read_text())
    ok = report_path.exists() and "validation_rate" in recorded
    _report(
        "7 slow-aging-limitation",
        ok,
        f"clean slow-aging segment validation rate {rate:.1%} (recorded, no "
        "pass threshold)",
    )


# ---------------------------------------------------------------------------
# 8. end-to-end determinism
# ---------------------------------------------------------------------------

def _end_to_end(tmp_dir):
    tmp_dir.mkdir(parents=True, exist_ok=True)
    config = GeneratorConfig(
        length=40,
        operations=200,
        seed=77,
        phase_plan=(
            Phase(CurveKind.EARLY_LIFE_NORMAL, 0, 60),
            Phase(CurveKind.PROGRESSIVE_PRE_FAULT, 60, 200, 0.0, 1.0),
        ),
    )
    corpus = tg.generate_lifecycle(config)
    dev = corpus[:160]
    train_part, test_part = dataio.split(dev, 0.8)
    model, _ = forecaster.train(
        dataio.make_dataset(train_part, 10),
        TrainConfig(hidden=16, epochs=10, seed=5, batch_size=64),
    )
    thresholds = comparator.calibrate(model, dataio.make_dataset(test_part, 10))
    reference = classifier.build_reference(train_part)
    tampered = tg.inject_attack(
        corpus, tg.AttackScenario(tg.AttackKind.REPLAY_CONCEAL, 170, 190, seed=1)
    )
    reports = Pipeline(model, thresholds, reference).bootstrap(test_part).run(tampered[160:])

    model_path = tmp_dir / "model.json"
    thresholds_path = tmp_dir / "thresholds.json"
    reports_path = tmp_dir / "reports.ndjson"
    forecaster.save_model(model, model_path)
    comparator.save_thresholds(thresholds_path, thresholds, reference.to_dict())
    investigator.write_reports(reports_path, reports)
    return (
        model_path.read_bytes(),
        thresholds_path.read_bytes(),
        reports_path.read_bytes(),
    )


def test_criterion_8_end_to_end_determinism(tmp_path):
    first = _end_to_end(tmp_path / "one")
    second = _end_to_end(tmp_path / "two")
    ok = all(a == b for a, b in zip(first, second))
    _report(
        "8 determinism",
        ok,
        "two identical runs: weights, thresholds, and reports are bit-identical",
    )
