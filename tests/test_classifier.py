"""Feature extraction and the rule-based curve classifier."""

import copy
import pickle
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

from turnoutguard.classifier import (
    ClassifierReference,
    _features,
    build_reference,
    classify,
    decision_kind,
    extract_features,
)
from turnoutguard.curvegen import (
    FAILURE_MODES,
    PROGRESSIVE_KINDS,
    AttackKind,
    AttackScenario,
    BaseShape,
    CurveKind,
    GeneratorConfig,
    Phase,
    PowerCurve,
    generate_lifecycle,
    inject_attack,
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
    f = extract_features(PowerCurve(curve, 0, 0.0))
    assert f.plateau_mean == shape.plateau_level          # exact by construction
    assert f.peak_amplitude == pytest.approx(shape.peak_amplitude, rel=0.05)
    assert f.transient_amplitude == 0.0
    assert not f.truncated


def test_flat_zero_curve_reads_as_truncated():
    f = extract_features(PowerCurve(np.zeros(80), 0, 0.0))
    assert f.peak_amplitude == 0.0
    assert f.plateau_mean == 0.0
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
        assert cached == _features(curve.samples)
        assert extract_features(curve) is cached is curve.features
        assert replace(curve, op_index=curve.op_index + 1).features is None


def _reference_features(s):
    """The features computed with ``ndarray.mean`` and ``np.median``, which
    ``extract_features`` must equal bit for bit."""
    n = s.size
    k1, k2 = int(0.2 * n), int(0.8 * n)
    peak_region, plateau = s[:k1], s[k1:k2]
    tail = s[-max(1, int(0.05 * n)):]
    plateau_mean = float(plateau.mean())
    with warnings.catch_warnings():   # some numpy versions warn on a NaN median
        warnings.simplefilter("ignore", RuntimeWarning)
        median = np.median(plateau)
    return (float(peak_region.max()), plateau_mean, float(plateau.max() - median),
            bool(tail.mean() < 0.3 * max(plateau_mean, 1.0)))


def _feature_bytes(values):
    return struct.pack("3d?", *values)


# plateaus of 60 and 67 samples: an even and an odd median
@pytest.mark.parametrize("length", [100, 112])
def test_features_equal_the_mean_and_median_formula_bit_for_bit(length):
    kinds = [(CurveKind.EARLY_LIFE_NORMAL, 0.0, 0.0), (CurveKind.AGING, 0.3, 0.9),
             (CurveKind.MINOR_ANOMALY, 0.0, 0.0), (CurveKind.SUDDEN_FAILURE, 0.0, 0.0),
             (CurveKind.PROGRESSIVE_PRE_FAULT, 0.2, 1.0), (CurveKind.END_OF_LIFE, 0.5, 1.0)]
    cfg, corpus = make_corpus([(kind, 10 * k, 10 * k + 10, s0, s1)
                               for k, (kind, s0, s1) in enumerate(kinds)],
                              10 * len(kinds), seed=length, length=length)
    assert {lc.label.kind for lc in corpus} == set(CurveKind)
    for k, mode in enumerate(FAILURE_MODES):
        corpus = inject_attack(corpus, AttackScenario(AttackKind.SPURIOUS_FAILURE, 3 * k,
                                                      3 * k + 3, failure_mode=mode), cfg)
    corpus = inject_attack(corpus, AttackScenario(AttackKind.SPURIOUS_PRE_FAULT, 10, 20), cfg)
    assert sum(lc.tampered for lc in corpus) == 19
    rng = np.random.default_rng(length)
    raw = [rng.normal(600.0, 50.0, n) for n in (5, 6, 12, 37, 200, 201)]
    raw.append(np.where(rng.random(length) < 0.5, -0.0, 0.0))   # signed zeros
    raw.append(np.where(rng.random(length) < 0.5, -1.0, 1.0))   # ties
    with_nan = rng.normal(600.0, 50.0, length)
    with_nan[length // 2] = np.nan
    raw.append(with_nan)
    for s in [lc.curve.samples for lc in corpus] + raw:
        f = _features(s)
        got = (f.peak_amplitude, f.plateau_mean, f.transient_amplitude, f.truncated)
        assert _feature_bytes(got) == _feature_bytes(_reference_features(s))
    assert np.isnan(_features(with_nan).transient_amplitude)


# plateaus of 12, 61 and 120 samples; the rising kinds move the plateau
@pytest.mark.parametrize("length", [20, 101, 200])
def test_generated_features_equal_the_formula_bit_for_bit(length):
    _, corpus = make_corpus(
        [(CurveKind.EARLY_LIFE_NORMAL, 0, 20, 0.0, 0.0),
         (CurveKind.PROGRESSIVE_PRE_FAULT, 20, 40, 0.0, 1.0),
         (CurveKind.AGING, 40, 60, 0.0, 1.0)],
        60, seed=length, length=length,
    )
    for lc in corpus:
        f = extract_features(lc.curve)
        got = (f.peak_amplitude, f.plateau_mean, f.transient_amplitude, f.truncated)
        assert _feature_bytes(got) == _feature_bytes(_reference_features(lc.curve.samples))


def test_curve_features_are_frozen_and_slotted():
    f = _features(np.full(20, 600.0))
    assert not hasattr(f, "__dict__")
    assert f.__slots__ == ("peak_amplitude", "plateau_mean", "transient_amplitude", "truncated")
    with pytest.raises(AttributeError):
        f.plateau_mean = 0.0


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
def test_a_curve_needs_a_sample_in_its_peak_region(length):
    samples = np.full(length, 600.0)
    if length < 5:
        with pytest.raises(ValueError, match=f"a curve of {length} samples is too short"):
            extract_features(PowerCurve(samples, 0, 0.0))
    else:
        assert extract_features(PowerCurve(samples, 0, 0.0)).plateau_mean == 600.0


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


def test_reference_limits_are_the_decision_formulas(reference):
    mean, std = reference.mean, reference.std
    plateau = mean["plateau_mean"]
    band = max(3.0 * std["plateau_mean"], 0.005 * abs(plateau), 1e-9)
    assert reference.spike == 1.5 * mean["peak_amplitude"]
    assert reference.transient == mean["transient_amplitude"] + max(
        3.0 * std["transient_amplitude"], 0.05 * plateau)
    assert reference.plateau_low == plateau - band
    assert reference.plateau_high == plateau + band
    assert reference.corridor_top == plateau * 1.5
    # the fixture's plateau band is its 3-sigma term, not a floor
    assert band == 3.0 * std["plateau_mean"] > 0.005 * plateau


@pytest.mark.parametrize("change", [
    lambda ref: setattr(ref, "n_reference", 2),
    lambda ref: setattr(ref, "mean", dict(ref.mean)),
    lambda ref: setattr(ref, "plateau_high", 0.0),
    lambda ref: ref.mean.__setitem__("plateau_mean", 0.0),
    lambda ref: ref.std.__setitem__("plateau_mean", 0.0),
    lambda ref: ref.std.pop("plateau_mean"),
], ids=["field", "table", "limit", "mean-entry", "std-entry", "std-pop"])
def test_reference_is_immutable(reference, change):
    """The limits are derived once, so nothing they derive from may change."""
    before = (reference.to_dict(), reference.plateau_low, reference.plateau_high)
    with pytest.raises((AttributeError, TypeError)):
        change(reference)
    assert (reference.to_dict(), reference.plateau_low, reference.plateau_high) == before


def test_reference_keeps_a_copy_of_the_tables_it_is_given(reference):
    d = reference.to_dict()
    ref = ClassifierReference(**d)
    d["mean"]["plateau_mean"] = 0.0
    assert ref == reference and ref.plateau_high == reference.plateau_high
    # replace passes the read-only tables back to the constructor
    again = replace(reference, n_reference=reference.n_reference + 1)
    assert again.to_dict()["mean"] == reference.to_dict()["mean"]
    assert again.plateau_high == reference.plateau_high


def test_equal_references_hash_equal(reference):
    d = reference.to_dict()
    reordered = ClassifierReference({k: d["mean"][k] for k in reversed(list(d["mean"]))},
                                    d["std"], d["n_reference"])
    assert reordered == reference and hash(reordered) == hash(reference)
    assert len({reference, reordered, ClassifierReference(**d)}) == 1


LIMITS = ("spike", "transient", "plateau_low", "plateau_high", "corridor_top")


@pytest.mark.parametrize("rebuild", [lambda ref: pickle.loads(pickle.dumps(ref)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_copied_reference_equals_the_original_and_stays_read_only(reference, rebuild):
    again = rebuild(reference)
    assert again == reference
    assert [getattr(again, k) for k in LIMITS] == [getattr(reference, k) for k in LIMITS]
    with pytest.raises(TypeError):
        again.mean["plateau_mean"] = 0.0
    with pytest.raises(TypeError):
        again.std["plateau_mean"] = 0.0


def test_reference_from_dict_refuses_the_features_no_rule_reads(reference):
    """A format-2 table also holds peak_position, plateau_slope and bump_amplitude."""
    d = reference.to_dict()
    for table in (d["mean"], d["std"]):
        table.update(peak_position=0.05, plateau_slope=0.0, bump_amplitude=250.0)
    with pytest.raises(ValueError, match="classifier reference mean and std must map each of "
                                         "peak_amplitude, plateau_mean, transient_amplitude"):
        ClassifierReference.from_dict(d)


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("std"),
    lambda d: d.update(extra=1.0),
    lambda d: d["mean"].pop("plateau_mean"),
    lambda d: d["std"].update(peak_amplitude="wide"),
    lambda d: d.update(n_reference=float("nan")),
    lambda d: d.update(mean=[1.0]),
    lambda d: d["std"].update(peak_amplitude=-0.5),
    lambda d: d.update(n_reference=0),
    lambda d: d.update(n_reference=40.5),
    lambda d: d["mean"].update(plateau_mean=float("nan")),
    lambda d: d["mean"].update(peak_amplitude=float("inf")),
    lambda d: d["std"].update(peak_amplitude=True),
    lambda d: d.update(mean=None),
    lambda d: d.update(n_reference=True),
])
def test_reference_from_dict_rejects_a_bad_entry(reference, edit):
    d = reference.to_dict()
    edit(d)
    with pytest.raises(ValueError, match="classifier reference"):
        ClassifierReference.from_dict(d)
    if set(d) == {"mean", "std", "n_reference"}:   # direct construction runs the same checks
        with pytest.raises(ValueError, match="classifier reference"):
            ClassifierReference(**d)


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
    assert classify(PowerCurve(curve, 0, 0.0), reference) is CurveKind.SUDDEN_FAILURE


def test_sustained_power_loss_reads_as_failure(reference):
    curve = nominal_shape(BaseShape(), 100)
    curve[20:80] *= 0.6
    assert classify(PowerCurve(curve, 0, 0.0), reference) is CurveKind.SUDDEN_FAILURE


def test_an_all_nan_curve_raises_instead_of_getting_a_kind(reference):
    """NaN features fail every rule, which would read as early-life normal."""
    samples = np.full(100, np.nan)
    with pytest.raises(ValueError, match="non-finite power sample"):
        classify(PowerCurve(samples, 0, 0.0), reference)
    with pytest.raises(AttributeError):
        classify(samples, reference)
