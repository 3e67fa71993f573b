"""Feature extraction and the rule-based curve classifier."""

from dataclasses import replace

import numpy as np
import pytest

from turnoutguard.classifier import (
    ClassifierReference,
    build_reference,
    classify,
    decision_kind,
    extract_features,
)
from turnoutguard.curvegen import (
    PROGRESSIVE_KINDS,
    BaseShape,
    CurveKind,
    GeneratorConfig,
    Phase,
    generate_lifecycle,
    nominal_shape,
)


def make_corpus(phases, operations, seed=0, noise=None, length=100):
    cfg = GeneratorConfig(
        length=length,
        operations=operations,
        seed=seed,
        noise_sigma=noise,
        phase_plan=tuple(Phase(k, s, e, s0, s1) for k, s, e, s0, s1 in phases),
    )
    return cfg, generate_lifecycle(cfg)


def test_zero_noise_base_shape_features_close_the_loop():
    shape = BaseShape()
    curve = nominal_shape(shape, 200)
    f = extract_features(curve)
    assert f.plateau_mean == shape.plateau_level          # exact by construction
    assert f.peak_amplitude == pytest.approx(shape.peak_amplitude, rel=0.05)
    assert f.peak_position < 0.15
    assert f.bump_amplitude == pytest.approx(shape.bump_amplitude, rel=0.05)
    assert f.transient_amplitude == 0.0
    assert not f.truncated


def test_flat_zero_curve_reads_as_truncated():
    f = extract_features(np.zeros(80))
    assert f.peak_amplitude == 0.0
    assert f.plateau_mean == 0.0
    assert f.bump_amplitude == 0.0
    assert f.transient_amplitude == 0.0
    assert f.truncated


def test_severity_one_prefault_plateau_is_thirty_percent_up():
    cfg, corpus = make_corpus(
        [(CurveKind.PROGRESSIVE_PRE_FAULT, 0, 10, 1.0, 1.0)], 10, noise=0.0, length=200
    )
    f = extract_features(corpus[0].curve)
    assert f.plateau_mean == pytest.approx(1.3 * cfg.base_shape.plateau_level, rel=0.01)


def test_features_are_deterministic():
    _, corpus = make_corpus([(CurveKind.EARLY_LIFE_NORMAL, 0, 5, 0.0, 0.0)], 5, seed=3)
    a = extract_features(corpus[0].curve)
    b = extract_features(corpus[0].curve)
    assert a == b


@pytest.mark.parametrize("kind", list(CurveKind))
def test_cached_features_equal_the_features_of_the_bare_samples(kind):
    severity = 0.6 if kind in PROGRESSIVE_KINDS else 0.0
    _, corpus = make_corpus([(kind, 0, 12, severity, severity)], 12, seed=31)
    for lc in corpus:
        curve = lc.curve
        assert curve.features is None
        cached = extract_features(curve)
        assert cached == extract_features(curve.samples)
        assert extract_features(curve) is cached is curve.features
        assert replace(curve, op_index=curve.op_index + 1).features is None


@pytest.mark.parametrize("length", [20, 101, 200])
def test_plateau_slope_equals_polyfit(length):
    _, corpus = make_corpus(
        [(CurveKind.EARLY_LIFE_NORMAL, 0, 20, 0.0, 0.0),
         (CurveKind.PROGRESSIVE_PRE_FAULT, 20, 40, 0.0, 1.0),
         (CurveKind.AGING, 40, 60, 0.0, 1.0)],
        60, seed=length, length=length,
    )
    lo, hi = int(0.2 * length), int(0.8 * length)
    for lc in corpus:
        plateau = lc.curve.samples[lo:hi]
        want = np.polyfit(np.arange(plateau.size), plateau, 1)[0]
        assert abs(extract_features(lc.curve).plateau_slope - want) <= 1e-12


@pytest.fixture(scope="module")
def reference():
    _, corpus = make_corpus(
        [(CurveKind.EARLY_LIFE_NORMAL, 0, 300, 0.0, 0.0)], 300, seed=11
    )
    return build_reference(corpus)


def test_reference_requires_healthy_curves():
    _, corpus = make_corpus(
        [(CurveKind.PROGRESSIVE_PRE_FAULT, 0, 20, 0.5, 1.0)], 20, seed=2
    )
    with pytest.raises(ValueError, match="no healthy"):
        build_reference(corpus)


def test_reference_round_trip(reference):
    back = ClassifierReference.from_dict(reference.to_dict())
    assert back == reference


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("std"),
    lambda d: d.update(extra=1.0),
    lambda d: d["mean"].pop("plateau_mean"),
    lambda d: d["std"].update(peak_amplitude="wide"),
    lambda d: d.update(n_reference=float("nan")),
    lambda d: d.update(mean=[1.0]),
])
def test_reference_from_dict_rejects_a_bad_entry(reference, edit):
    d = reference.to_dict()
    edit(d)
    with pytest.raises(ValueError, match="classifier reference"):
        ClassifierReference.from_dict(d)


@pytest.mark.parametrize(
    "kind,severity",
    [
        (CurveKind.EARLY_LIFE_NORMAL, 0.0),
        (CurveKind.PROGRESSIVE_PRE_FAULT, 0.8),
        (CurveKind.SUDDEN_FAILURE, 0.0),
        (CurveKind.MINOR_ANOMALY, 0.0),
    ],
)
def test_generated_kinds_are_recovered(reference, kind, severity):
    sev = (severity, severity)
    _, corpus = make_corpus([(kind, 0, 30, *sev)], 30, seed=23)
    for lc in corpus:
        assert classify(lc.curve, reference) is kind


def test_spike_failures_are_recovered(reference):
    cfg, corpus = make_corpus(
        [(CurveKind.SUDDEN_FAILURE, 0, 20, 0.0, 0.0)], 20, seed=5
    )
    cfg_spike = GeneratorConfig(
        length=100, operations=20, seed=5, failure_mode="spike",
        phase_plan=(Phase(CurveKind.SUDDEN_FAILURE, 0, 20),),
    )
    for lc in generate_lifecycle(cfg_spike):
        assert classify(lc.curve, reference) is CurveKind.SUDDEN_FAILURE


def test_aging_and_end_of_life_map_to_prefault(reference):
    _, corpus = make_corpus([(CurveKind.AGING, 0, 20, 0.5, 1.0)], 20, seed=6)
    for lc in corpus:
        assert classify(lc.curve, reference) is CurveKind.PROGRESSIVE_PRE_FAULT
    _, corpus = make_corpus([(CurveKind.END_OF_LIFE, 0, 20, 0.6, 1.0)], 20, seed=7)
    for lc in corpus:
        assert classify(lc.curve, reference) is CurveKind.PROGRESSIVE_PRE_FAULT
    assert decision_kind(CurveKind.AGING) is CurveKind.PROGRESSIVE_PRE_FAULT
    assert decision_kind(CurveKind.END_OF_LIFE) is CurveKind.PROGRESSIVE_PRE_FAULT
    assert decision_kind(CurveKind.MINOR_ANOMALY) is CurveKind.MINOR_ANOMALY


def test_closed_loop_accuracy_on_default_noise():
    """Generator labels are recovered on >= 99% of a mixed life cycle.

    Severity ramps start away from zero: a deformation below the noise
    band is indistinguishable from healthy by construction.
    """
    phases = [
        (CurveKind.EARLY_LIFE_NORMAL, 0, 400, 0.0, 0.0),
        (CurveKind.AGING, 400, 550, 0.3, 0.8),
        (CurveKind.PROGRESSIVE_PRE_FAULT, 550, 850, 0.2, 1.0),
        (CurveKind.MINOR_ANOMALY, 850, 856, 0.0, 0.0),
        (CurveKind.SUDDEN_FAILURE, 856, 868, 0.0, 0.0),
        (CurveKind.END_OF_LIFE, 868, 900, 0.8, 1.0),
    ]
    _, corpus = make_corpus(phases, 900, seed=29)
    reference = build_reference(corpus[:400])
    hits = sum(
        classify(lc.curve, reference) is decision_kind(lc.label.kind) for lc in corpus
    )
    assert hits / len(corpus) >= 0.99


def test_closed_loop_is_exact_without_noise():
    phases = [
        (CurveKind.EARLY_LIFE_NORMAL, 0, 60, 0.0, 0.0),
        (CurveKind.PROGRESSIVE_PRE_FAULT, 60, 100, 0.3, 1.0),
    ]
    _, corpus = make_corpus(phases, 100, seed=1, noise=0.0)
    reference = build_reference(corpus[:60])
    for lc in corpus:
        assert classify(lc.curve, reference) is lc.label.kind


def test_classify_is_deterministic(reference):
    _, corpus = make_corpus(
        [(CurveKind.PROGRESSIVE_PRE_FAULT, 0, 5, 0.7, 0.7)], 5, seed=9
    )
    kinds = {classify(corpus[0].curve, reference) for _ in range(5)}
    assert len(kinds) == 1


def test_gross_plateau_discontinuity_reads_as_failure(reference):
    curve = nominal_shape(BaseShape(), 100)
    k1, k2 = 20, 80
    curve[k1:k2] *= 2.0   # +100% plateau, far beyond the progressive corridor
    assert classify(curve, reference) is CurveKind.SUDDEN_FAILURE


def test_sustained_power_loss_reads_as_failure(reference):
    curve = nominal_shape(BaseShape(), 100)
    curve[20:80] *= 0.6
    assert classify(curve, reference) is CurveKind.SUDDEN_FAILURE
