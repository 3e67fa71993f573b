"""Distance metrics, calibration, and the dual-criteria validation rule."""

import math

import numpy as np
import pytest
from dtw_oracle import dtw_cost as oracle_dtw_cost
from hypothesis import example, given, settings
from hypothesis import strategies as st

from turnoutguard.classifier import FEATURE_NAMES, ClassifierReference
from turnoutguard.comparator import (
    CalibrationWarning,
    DistancePair,
    Thresholds,
    calibrate,
    distance_pair,
    dtw,
    euclidean,
    load_thresholds,
    save_thresholds,
    validate,
)
from turnoutguard.curvegen import GeneratorConfig, generate_lifecycle
from turnoutguard.dataio import make_dataset
from turnoutguard.forecaster import TrainConfig, train


def test_euclidean_trivials():
    a = np.array([1.0, 2.0, 3.0])
    assert euclidean(a, a) == 0.0
    assert euclidean(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0


def test_euclidean_equals_root_of_length_times_mse():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 50))
        a, b = rng.normal(size=n), rng.normal(size=n)
        want = np.sqrt(n * np.mean((a - b) ** 2))
        assert euclidean(a, b) == pytest.approx(want, rel=1e-12)


def test_euclidean_rejects_length_mismatch():
    with pytest.raises(ValueError, match="lengths differ"):
        euclidean(np.zeros(3), np.zeros(4))


def test_euclidean_triangle_inequality():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        a, b, c = (rng.uniform(0, 10, n) for _ in range(3))
        assert euclidean(a, c) <= euclidean(a, b) + euclidean(b, c) + 1e-9


def test_dtw_identity_and_repeat_alignment():
    assert dtw([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert dtw([1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0]) == 0.0


def test_dtw_axioms_on_random_series():
    rng = np.random.default_rng(6)
    for _ in range(200):
        a = rng.uniform(0, 10, int(rng.integers(1, 40)))
        b = rng.uniform(0, 10, int(rng.integers(1, 40)))
        d = dtw(a, b)
        assert d >= 0.0
        assert dtw(b, a) == d
        assert dtw(a, a) == 0.0


def test_dtw_diagonal_bound_for_equal_lengths():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        a, b = rng.uniform(0, 10, n), rng.uniform(0, 10, n)
        assert dtw(a, b) <= np.abs(a - b).sum() + 1e-9


def test_dtw_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        dtw([], [1.0])
    with pytest.raises(ValueError, match="non-finite"):
        dtw([np.nan, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="band"):
        dtw([1.0], [1.0], band=-2)


def test_dtw_band_widens_to_cover_length_difference():
    a = np.linspace(0, 5, 30)
    b = np.linspace(0, 5, 20)
    assert np.isfinite(dtw(a, b, band=0))
    assert dtw(a, b, band=0) >= dtw(a, b)


def test_dtw_band_zero_equal_lengths_is_the_pointwise_l1():
    rng = np.random.default_rng(8)
    a, b = rng.uniform(0, 5, 25), rng.uniform(0, 5, 25)
    assert dtw(a, b, band=0) == pytest.approx(np.abs(a - b).sum(), rel=1e-12)


series = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=60,
)


def _values(n, seed):
    return np.random.default_rng(seed).uniform(-1e3, 1e3, n).tolist()


@settings(max_examples=300, deadline=None)
@given(a=series, b=series, band=st.one_of(st.none(), st.just(0), st.integers(1, 70)))
# curve-sized pairs span several blocks of diagonals in the kernel
@example(a=_values(200, 1), b=_values(200, 2), band=None)
@example(a=_values(200, 3), b=_values(137, 4), band=None)
@example(a=_values(200, 5), b=_values(200, 6), band=12)
# a narrow band on long series moves the block's span along the corridor
@example(a=_values(600, 7), b=_values(600, 8), band=20)
@example(a=_values(300, 9), b=_values(250, 10), band=60)
def test_dtw_equals_the_loop_oracle_exactly(a, b, band):
    eff_band = -1 if band is None else max(band, abs(len(a) - len(b)))
    want = oracle_dtw_cost(a, b, eff_band)
    assert dtw(a, b, band=band) == want
    assert dtw(b, a, band=band) == want


def test_phase_shift_fails_euclidean_while_dtw_forgives():
    # a pulse arriving 10% late: same shape, shifted phase
    n = 200
    k = np.arange(n)
    predicted = 50.0 + 1000.0 * np.exp(-0.5 * ((k - 100) / 10.0) ** 2)
    field = np.roll(predicted, n // 10)
    d = distance_pair(field, predicted)
    assert d.dtw < 0.05 * d.euclidean
    thresholds = Thresholds(tau_euclidean=0.5 * d.euclidean, tau_dtw=10.0 + 10.0 * d.dtw)
    result = validate(field, predicted, thresholds)
    assert not result.validated
    assert validate(predicted, predicted, thresholds).validated


def test_single_spike_breaks_validation():
    rng = np.random.default_rng(10)
    predicted = rng.uniform(100, 110, 50)
    thresholds = Thresholds(tau_euclidean=5.0, tau_dtw=50.0)
    field = predicted.copy()
    field[17] += 10.0 * thresholds.tau_euclidean
    result = validate(field, predicted, thresholds)
    assert not result.validated
    assert result.distances.euclidean >= 10.0 * thresholds.tau_euclidean


def test_validation_is_monotone_in_thresholds():
    rng = np.random.default_rng(11)
    for _ in range(30):
        a, b = rng.uniform(0, 10, 20), rng.uniform(0, 10, 20)
        d = distance_pair(a, b)
        t_low = Thresholds(d.euclidean * 0.99 + 1e-9, d.dtw * 0.99 + 1e-9)
        t_high = Thresholds(t_low.tau_euclidean * 1.5, t_low.tau_dtw * 1.5)
        if validate(a, b, t_low).validated:
            assert validate(a, b, t_high).validated


def test_validate_requires_both_criteria():
    a = np.zeros(4)
    b = np.array([1.0, 1.0, 1.0, 1.0])
    d = distance_pair(a, b)   # euclidean 2, dtw 4
    assert validate(a, b, Thresholds(d.euclidean, d.dtw)).validated
    assert not validate(a, b, Thresholds(d.euclidean / 2, d.dtw)).validated
    assert not validate(a, b, Thresholds(d.euclidean, d.dtw / 2)).validated


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_bundle():
    corpus = generate_lifecycle(GeneratorConfig(length=32, operations=120, seed=13))
    pairs = make_dataset(corpus, 8)
    model, _ = train(pairs[:80], TrainConfig(hidden=8, epochs=10, seed=2))
    return model, pairs[80:]


def test_calibrate_single_pair_returns_its_distances(trained_bundle):
    model, pairs = trained_bundle
    th = calibrate(model, pairs[:1])
    from turnoutguard.forecaster import ForecastSession, forward_samples

    window = pairs[0].window.as_matrix()
    predicted = np.clip(forward_samples(ForecastSession(model), window), 0.0, None)
    assert th.tau_euclidean == pytest.approx(euclidean(predicted, pairs[0].target))
    assert th.tau_dtw == pytest.approx(dtw(predicted, pairs[0].target))
    assert th.calibration["test_size"] == 1
    assert th.calibration["percentile"] == 100.0


def test_default_thresholds_are_the_largest_residuals_bit_for_bit(trained_bundle):
    model, pairs = trained_bundle
    from turnoutguard.forecaster import ForecastSession, forward_samples

    session = ForecastSession(model)
    predicted = [np.clip(forward_samples(session, p.window.as_matrix()), 0.0, None)
                 for p in pairs]
    th = calibrate(model, pairs)
    assert th.tau_euclidean == max(euclidean(y, p.target) for y, p in zip(predicted, pairs))
    assert th.tau_dtw == max(dtw(y, p.target) for y, p in zip(predicted, pairs))


def test_calibrated_thresholds_validate_their_own_test_set(trained_bundle):
    model, pairs = trained_bundle
    th = calibrate(model, pairs)
    from turnoutguard.forecaster import ForecastSession, forward_samples

    for pair in pairs:
        window = pair.window.as_matrix()
        predicted = np.clip(forward_samples(ForecastSession(model), window), 0.0, None)
        assert validate(pair.target, predicted, th).validated


def test_percentile_and_safety_factor(trained_bundle):
    model, pairs = trained_bundle
    base = calibrate(model, pairs)
    softer = calibrate(model, pairs, percentile=50.0)
    assert softer.tau_euclidean <= base.tau_euclidean
    scaled = calibrate(model, pairs, safety_factor=2.0)
    assert scaled.tau_euclidean == pytest.approx(2.0 * base.tau_euclidean)
    assert scaled.calibration["safety_factor"] == 2.0


def test_perfect_model_warns_on_zero_thresholds():
    # an exactly-perfect model: zero weights, so the prediction is the
    # de-normalized zero vector, and the normalizer mean IS the constant curve
    corpus = generate_lifecycle(
        GeneratorConfig(length=24, operations=30, seed=1, noise_sigma=0.0)
    )
    pairs = make_dataset(corpus, 6)
    from turnoutguard.forecaster import ForecastModel

    length, hidden = 24, 2
    model = ForecastModel(
        w_x=np.zeros((length, 4 * hidden)),
        w_h=np.zeros((hidden, 4 * hidden)),
        b=np.zeros(4 * hidden),
        v_out=np.zeros((length, hidden)),
        b_out=np.zeros(length),
        norm_mean=corpus[0].curve.samples.copy(),
        norm_scale=np.ones(length),
        window=6,
    )
    with pytest.warns(CalibrationWarning, match="zero"):
        th = calibrate(model, pairs)
    assert th.tau_euclidean == 0.0 and th.tau_dtw == 0.0
    # degenerate thresholds accept only exact matches
    target = pairs[0].target
    assert validate(target, target, th).validated
    bumped = target.samples.copy()
    bumped[0] += 1e-9
    assert not validate(bumped, target, th).validated


def test_calibrate_rejects_empty_or_bad_options(trained_bundle):
    model, pairs = trained_bundle
    with pytest.raises(ValueError, match="empty"):
        calibrate(model, [])
    with pytest.raises(ValueError, match="percentile"):
        calibrate(model, pairs, percentile=0.0)
    with pytest.raises(ValueError, match="safety"):
        calibrate(model, pairs, safety_factor=0.0)
    with pytest.raises(ValueError, match="safety_factor must be finite and > 0, got inf"):
        calibrate(model, pairs, safety_factor=math.inf)
    with pytest.raises(ValueError, match="times safety_factor 1e[+]308 are not finite"):
        calibrate(model, pairs, safety_factor=1e308)


def test_thresholds_round_trip(tmp_path, trained_bundle):
    model, pairs = trained_bundle
    th = calibrate(model, pairs)
    path = tmp_path / "thresholds.json"
    reference = ClassifierReference(
        mean={name: 600.0 for name in FEATURE_NAMES},
        std={name: 6.0 for name in FEATURE_NAMES},
        n_reference=40,
    ).to_dict()
    save_thresholds(path, th, reference)
    back, ref = load_thresholds(path)
    assert back.tau_euclidean == th.tau_euclidean
    assert back.tau_dtw == th.tau_dtw
    assert back.calibration == th.calibration
    assert ref == reference


def test_thresholds_version_mismatch(tmp_path):
    import json

    path = tmp_path / "thresholds.json"
    path.write_text(json.dumps({"format_version": 99, "tau_euclidean": 1, "tau_dtw": 1}))
    with pytest.raises(ValueError, match="version 99"):
        load_thresholds(path)


def test_thresholds_must_be_finite():
    with pytest.raises(ValueError):
        Thresholds(np.inf, 1.0)
    with pytest.raises(ValueError):
        Thresholds(1.0, -0.5)


def test_distance_pair_is_plain_data():
    d = DistancePair(1.5, 2.5)
    assert d.euclidean == 1.5 and d.dtw == 2.5
