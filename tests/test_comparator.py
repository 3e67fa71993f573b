"""Distance metrics, calibration, and the dual-criteria validation rule."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from dtw_oracle import dtw_cost as row_loop_dtw_cost
from dtw_oracle import dtw_joined as oracle_dtw_cost
from hypothesis import example, given, settings
from hypothesis import strategies as st

from turnoutguard import comparator
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
from turnoutguard.curvegen import GeneratorConfig, PowerCurve, generate_lifecycle
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


series = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=60,
)


def _values(n, seed):
    return np.random.default_rng(seed).uniform(-1e3, 1e3, n).tolist()


@settings(max_examples=300, deadline=None)
@given(a=series, b=series)
# curve-sized pairs span several blocks of diagonals in the kernel, and on
# the longer ones many blocks' spans start below row 1
@example(a=_values(200, 1), b=_values(200, 2))
@example(a=_values(200, 3), b=_values(137, 4))
@example(a=_values(200, 5), b=_values(200, 6))
@example(a=_values(600, 7), b=_values(600, 8))
@example(a=_values(300, 9), b=_values(250, 10))
def test_dtw_equals_the_loop_oracle_exactly(a, b):
    want = oracle_dtw_cost(a, b)
    assert dtw(a, b) == want
    assert dtw(b, a) == want


@settings(max_examples=300, deadline=None)
@given(a=series, b=series)
@example(a=_values(200, 1), b=_values(200, 2))
@example(a=_values(200, 3), b=_values(137, 4))
@example(a=_values(200, 5), b=_values(200, 6))
@example(a=_values(600, 7), b=_values(600, 8))
@example(a=_values(300, 9), b=_values(250, 10))
def test_dtw_lies_within_rounding_of_the_row_loop(a, b):
    # the row loop sums a path's cell costs in one run, the joined sweeps
    # in two; a path has fewer than n + m cells, and each |x - y| and each
    # addition of non-negative costs errs by at most 2**-53 of its value
    want = row_loop_dtw_cost(a, b)
    bound = 2 * (len(a) + len(b)) * 2.0 ** -53 * want
    assert abs(dtw(a, b) - want) <= bound
    assert abs(dtw(b, a) - want) <= bound


def test_a_curve_sized_pair_takes_half_its_diagonals_in_steps():
    """The two sweeps run in lockstep to the middle: 200 x 200 cells lie on
    399 anti-diagonals, and the plan steps through at most 201 of them."""
    dtw(_values(200, 1), _values(200, 2))
    plan = comparator._plans.plan
    steps = sum(len(diagonals) for _, _, diagonals in plan.blocks)
    assert steps <= math.ceil((200 + 200) / 2) + 1


@pytest.mark.parametrize("block", [1, 2, 3, 64])
@pytest.mark.parametrize("n, m", [(200, 200), (200, 137), (60, 1)])
def test_every_block_of_cell_costs_is_contiguous_in_one_shared_buffer(n, m, block):
    """A block's subtraction and absolute value run on contiguous memory:
    each block is the prefix of one flat buffer of ``block * m * 2`` floats."""
    blocks = [costs for _, (costs,), _ in comparator._Plan(n, m, block).blocks]
    buffer = blocks[0].base
    assert buffer.shape == (block * m * 2,) and buffer.dtype == np.float64
    for costs in blocks:
        assert costs.flags.c_contiguous and costs.base is buffer
        assert costs.__array_interface__["data"][0] == buffer.__array_interface__["data"][0]


@pytest.mark.parametrize("block", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(a=series, b=series)
@example(a=_values(200, 1), b=_values(200, 2))
@example(a=_values(200, 3), b=_values(137, 4))
@example(a=_values(60, 11), b=_values(1, 12))
def test_dtw_equals_the_loop_oracle_at_every_block_boundary(block, a, b):
    # with blocks of 1 to 3 diagonals a block starts on every diagonal or
    # every few, so the rectangles of cell costs, and the sliding-view
    # offsets they read the long series at, take every alignment against
    # the diagonals' row ranges
    want = oracle_dtw_cost(a, b)
    assert dtw(a, b) == want   # planned for these lengths at the default block size
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(comparator, "_DIAGONALS_PER_BLOCK", block)
        assert dtw(a, b) == want
        assert dtw(b, a) == want
        # the plan is keyed on the block size too, so these calls planned anew
        assert comparator._plans.plan.key == (max(len(a), len(b)), min(len(a), len(b)), block)


@pytest.mark.parametrize("shapes", [
    [(50, 31), (29, 52), (50, 31)],
    [(200, 200), (137, 200), (200, 200)],
    [(7, 1), (1, 8), (7, 1)],
    [(40, 40), (41, 40), (40, 41), (40, 40)],
], ids=["wider", "curve-sized", "one-sample", "one-longer"])
def test_dtw_stays_exact_when_the_shape_switches(shapes):
    """Each call on new lengths plans anew; a plan kept from the lengths
    before would warp the wrong cells."""
    for seed, (n, m) in enumerate(shapes):
        a, b = _values(n, 2 * seed), _values(m, 2 * seed + 1)
        assert dtw(a, b) == oracle_dtw_cost(a, b), (n, m)


def test_threads_warping_different_shapes_match_the_oracle():
    """Each thread keeps its own plan: four threads on a two-core host, two
    of them on the same lengths, with the interpreter switching threads every
    microsecond, all give the oracle's distances."""
    pairs = [(_values(n, seed), _values(m, seed + 1))
             for seed, (n, m) in enumerate([(60, 45), (60, 45), (45, 70), (80, 12)], 20)]
    wants = [oracle_dtw_cost(a, b) for a, b in pairs]
    results = [[] for _ in pairs]

    def warp(k):
        a, b = pairs[k]
        for _ in range(40):
            results[k].append(dtw(a, b))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=warp, args=(k,)) for k in range(len(pairs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[want] * 40 for want in wants]


def test_a_long_pair_never_allocates_its_cost_matrix():
    """2,000 x 2,000 cells of float64 are 32 MB; the plan, its buffers and
    the calls stay below a quarter of that (3.9 MB).  A new thread starts
    with no plan, so its first call builds one."""
    a, b = _values(2000, 30), _values(2000, 31)
    results = []
    tracemalloc.start()
    try:
        thread = threading.Thread(target=lambda: results.extend((dtw(a, b), dtw(b, a))))
        thread.start()
        thread.join(timeout=60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not thread.is_alive() and len(results) == 2 and results[0] == results[1]
    assert peak < 8e6, f"{peak} bytes"


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
    with pytest.raises(ValueError, match="curve lengths differ: 4 vs 3"):
        validate(a, b[:3], Thresholds(d.euclidean, d.dtw))


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_bundle():
    corpus = generate_lifecycle(GeneratorConfig(length=32, operations=120, seed=13))
    model, _ = train(make_dataset(corpus[:88], 8), TrainConfig(hidden=8, epochs=10, seed=2))
    return model, make_dataset(corpus[80:], 8)


def test_calibrate_single_pair_returns_its_distances(trained_bundle):
    model, pairs = trained_bundle
    th = calibrate(model, make_dataset(pairs.curves[:9], 8))
    from turnoutguard.forecaster import ForecastSession, forward_samples

    window = pairs.curves[:8]
    predicted = np.clip(forward_samples(ForecastSession(model), window), 0.0, None)
    assert th.tau_euclidean == pytest.approx(euclidean(predicted, pairs.curves[8]))
    assert th.tau_dtw == pytest.approx(dtw(predicted, pairs.curves[8]))
    assert th.calibration["test_size"] == 1
    assert th.calibration["percentile"] == 100.0


def test_default_thresholds_are_the_largest_residuals_bit_for_bit(trained_bundle):
    model, pairs = trained_bundle
    from turnoutguard.forecaster import ForecastSession, forward_samples

    session = ForecastSession(model)
    predicted = [np.clip(forward_samples(session, pairs.curves[k:k + 8]), 0.0, None)
                 for k in range(len(pairs))]
    targets = pairs.curves[8:]
    th = calibrate(model, pairs)
    assert th.tau_euclidean == max(euclidean(y, t) for y, t in zip(predicted, targets))
    assert th.tau_dtw == max(dtw(y, t) for y, t in zip(predicted, targets))


def test_calibrated_thresholds_validate_their_own_test_set(trained_bundle):
    model, pairs = trained_bundle
    th = calibrate(model, pairs)
    from turnoutguard.forecaster import ForecastSession, forward_samples

    for k, target in enumerate(pairs.curves[8:]):
        predicted = np.clip(forward_samples(ForecastSession(model), pairs.curves[k:k + 8]), 0.0,
                            None)
        assert validate(target, predicted, th).validated


def test_distances_that_overflow_are_refused_without_a_warning():
    """One sample near the float maximum squares past it; no report or
    threshold can hold the inf.  A numpy warning would fail the test."""
    base = np.full(40, 600.0)
    huge = base.copy()
    huge[7] = 1e308
    with pytest.raises(ValueError, match=r"distances overflow \(euclidean inf"):
        distance_pair(huge, base)
    with pytest.raises(ValueError, match="distances overflow"):
        validate(huge, base, Thresholds(1.0, 1.0))
    assert distance_pair(base, base) == DistancePair(0.0, 0.0)


def test_calibrate_names_the_test_op_whose_distances_overflow(trained_bundle):
    model, pairs = trained_bundle
    curves = list(pairs.curves)
    target = curves[11]
    samples = target.samples.copy()
    samples[7] = 1e308
    curves[11] = PowerCurve(samples, op_index=target.op_index, timestamp=target.timestamp)
    with pytest.raises(ValueError, match=f"^test op {target.op_index}: the distances overflow"):
        calibrate(model, make_dataset(curves, 8))


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
    target = pairs.curves[6]
    assert validate(target, target, th).validated
    bumped = target.samples.copy()
    bumped[0] += 1e-9
    assert not validate(bumped, target, th).validated


def test_calibrate_rejects_empty_or_bad_options(trained_bundle):
    model, pairs = trained_bundle
    # an empty test set cannot be built
    with pytest.raises(ValueError, match="insufficient history"):
        make_dataset(pairs.curves[:8], 8)
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
