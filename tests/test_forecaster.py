"""Forecaster contracts: recurrence math, training, gradients, persistence."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turnoutguard import comparator, forecaster
from turnoutguard.comparator import calibrate, save_thresholds
from turnoutguard.curvegen import GeneratorConfig, PowerCurve, generate_lifecycle
from turnoutguard.dataio import CurveWindow, FormatError, curves_digest, make_dataset
from turnoutguard.forecaster import (
    DTYPES,
    GATES,
    AdamState,
    ForecastModel,
    ForecastSession,
    TrainConfig,
    TrainingDiverged,
    _chunks,
    _forward_seq,
    _init_params,
    _loss_and_grads,
    clip_gradients,
    forward,
    forward_samples,
    load_model,
    save_model,
    train,
)

from gradient_cases import gradient_check, random_check_instance
from recurrence_counts import count_advances


def random_curves(n, length, seed=0, lo=1.0, hi=9.0):
    rng = np.random.default_rng(seed)
    return [
        PowerCurve(rng.uniform(lo, hi, length), op_index=k, timestamp=50.0 + k)
        for k in range(n)
    ]


def as_curves(matrix):
    """The rows of ``matrix`` as a window of curves, oldest first."""
    return tuple(PowerCurve(row, op_index=k, timestamp=float(k)) for k, row in enumerate(matrix))


def fresh_forecast(model, curves):
    """The forecast of a fresh session on ``model``."""
    return forward_samples(ForecastSession(model), curves)


def small_model(length, hidden, window, seed=0, dtype="float64"):
    params = _init_params(length, hidden, np.random.default_rng(seed), np.dtype(dtype))
    return ForecastModel(
        **params,
        norm_mean=np.zeros(length),
        norm_scale=np.ones(length),
        window=window,
    )


def zero_model(length, hidden, window, bias=None, mean=None, scale=None):
    return ForecastModel(
        w_x=np.zeros((length, 4 * hidden)),
        w_h=np.zeros((hidden, 4 * hidden)),
        b=np.zeros(4 * hidden),
        v_out=np.zeros((length, hidden)),
        b_out=np.zeros(length) if bias is None else np.asarray(bias, dtype=float),
        norm_mean=np.zeros(length) if mean is None else mean,
        norm_scale=np.ones(length) if scale is None else scale,
        window=window,
    )


def chunks_of(normalize, pairs):
    """The training chunks of the dataset ``pairs``, its curves mapped through ``normalize``."""
    return _chunks(normalize(pairs.as_matrix()), pairs.window, 0, len(pairs))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_zero_weights_predict_the_denormalized_output_bias():
    length, hidden, window = 6, 3, 4
    bias = np.linspace(-1.0, 1.0, length)
    mean = np.full(length, 100.0)
    scale = np.full(length, 7.0)
    model = zero_model(length, hidden, window, bias=bias, mean=mean, scale=scale)
    curves = random_curves(window, length, seed=3, lo=50.0, hi=150.0)
    got = fresh_forecast(model, curves)
    assert np.allclose(got, bias * scale + mean, atol=1e-12)


def scalar_oracle(model, window_matrix):
    """Independent step-by-step recurrence over explicit per-gate matrices.

    Gate k of ``GATES`` is columns k * hidden ... (k + 1) * hidden - 1 of
    ``w_x``, ``w_h`` and ``b``.
    """
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))  # noqa: E731
    hidden, length = model.hidden, model.length
    gate = {g: slice(k * hidden, (k + 1) * hidden) for k, g in enumerate(GATES)}
    w = {g: model.w_x[:, gate[g]].T for g in GATES}
    u = {g: model.w_h[:, gate[g]].T for g in GATES}
    b = {g: model.b[gate[g]] for g in GATES}
    h = [0.0] * hidden
    c = [0.0] * hidden
    for x in model.normalize(window_matrix):
        pre = {
            g: [
                sum(w[g][j][k] * x[k] for k in range(length))
                + sum(u[g][j][k] * h[k] for k in range(hidden))
                + b[g][j]
                for j in range(hidden)
            ]
            for g in GATES
        }
        i = [sig(v) for v in pre["input"]]
        f = [sig(v) for v in pre["forget"]]
        o = [sig(v) for v in pre["output"]]
        g = [math.tanh(v) for v in pre["candidate"]]
        c = [f[j] * c[j] + i[j] * g[j] for j in range(hidden)]
        h = [o[j] * math.tanh(c[j]) for j in range(hidden)]
    y = [
        sum(model.v_out[r][j] * h[j] for j in range(hidden)) + model.b_out[r]
        for r in range(len(model.b_out))
    ]
    return model.denormalize(np.array(y))


def test_forward_matches_the_scalar_recurrence_oracle():
    model = small_model(length=3, hidden=2, window=2, seed=11)
    window_matrix = np.array([[1.0, 2.0, 3.0], [2.5, 0.5, 4.0]])
    got = fresh_forecast(model, as_curves(window_matrix))
    want = scalar_oracle(model, window_matrix)
    assert np.allclose(got, want, atol=1e-12)


def test_forward_matches_oracle_on_random_models():
    rng = np.random.default_rng(99)
    for trial in range(5):
        length = int(rng.integers(2, 6))
        hidden = int(rng.integers(1, 5))
        window = int(rng.integers(1, 4))
        model = small_model(length, hidden, window, seed=trial)
        matrix = rng.uniform(0.0, 5.0, size=(window, length))
        assert np.allclose(
            fresh_forecast(model, as_curves(matrix)), scalar_oracle(model, matrix), atol=1e-10
        )


def test_window_count_of_a_numpy_integer_forecasts_the_same():
    model = small_model(length=5, hidden=3, window=4, seed=6)
    numpy_window = dataclasses.replace(model, window=np.int64(4))
    window = as_curves(np.random.default_rng(7).uniform(0.0, 5.0, size=(4, 5)))
    assert fresh_forecast(numpy_window, window).tobytes() == fresh_forecast(model, window).tobytes()


def per_gate_forward_seq(params, x):
    """Reference recurrence with one sigmoid call per gate."""
    hidden = params["w_h"].shape[0]
    batch, steps, length = x.shape
    a_x = (x.reshape(batch * steps, length) @ params["w_x"] + params["b"]).reshape(
        batch, steps, 4 * hidden)

    def sigmoid(v):
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-v))

    h = np.zeros((batch, hidden), dtype=x.dtype)
    c = np.zeros((batch, hidden), dtype=x.dtype)
    caches = []
    for t in range(steps):
        a = a_x[:, t, :] + h @ params["w_h"]
        i = sigmoid(a[:, :hidden])
        f = sigmoid(a[:, hidden:2 * hidden])
        o = sigmoid(a[:, 2 * hidden:3 * hidden])
        g = np.tanh(a[:, 3 * hidden:])
        c_prev, h_prev = c, h
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        caches.append((i, f, o, g, c_prev, tc, h_prev))
    return h @ params["v_out"].T + params["b_out"], h, caches


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def kept_steps(steps, batch, hidden, dtype):
    """A (steps, 6, batch, hidden) step cache, filled with NaN so no step goes unwritten."""
    cache = np.full(steps * forecaster._KEPT * batch * hidden, np.nan, dtype=dtype)
    return cache.reshape(steps, forecaster._KEPT, batch, hidden)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("batch", [1, 7])
def test_forward_seq_equals_per_gate_reference_bit_for_bit(dtype, batch):
    model = small_model(length=24, hidden=16, window=9, seed=batch, dtype=dtype)
    rng = np.random.default_rng(3)
    # window k is rows k ... k + 8: the windows overlap in all but one row
    rows = rng.normal(0.0, 2.0, size=(batch + 8, 24)).astype(dtype)
    x = np.stack([rows[k:k + 9] for k in range(batch)])
    want_y, want_h, want_caches = per_gate_forward_seq(model.params(), x)
    # without a cache every step reuses one set of buffers
    for cache in [kept_steps(9, batch, 16, dtype), None]:
        y, h = _forward_seq(model.params(), rows, 9, cache)
        assert same_bits(y, want_y) and same_bits(h, want_h)
        if cache is None:
            continue
        # step t keeps i, f, o, g, c and h; c and h before step 0 are zero,
        # and backprop recomputes tanh(c) from the kept c
        zero = np.zeros((batch, 16), dtype=dtype)
        for t, want in enumerate(want_caches):
            i, f, o, g, c, _ = cache[t]
            c_prev, h_prev = cache[t - 1, 4:] if t else (zero, zero)
            got = (i, f, o, g, c_prev, np.tanh(c), h_prev)
            assert all(same_bits(g, w) for g, w in zip(got, want, strict=True))
        assert same_bits(cache[-1, 5], want_h)


def test_gate_activations_stay_in_range():
    model = small_model(length=5, hidden=4, window=3, seed=2)
    rows = model.normalize(np.random.default_rng(0).uniform(0, 9, (3, 5)))
    cache = kept_steps(3, 1, 4, rows.dtype)
    _forward_seq(model.params(), rows, 3, cache)
    for i, f, o, g, c, _ in cache:
        for gate in (i, f, o):
            assert np.all(gate > 0.0) and np.all(gate < 1.0)
        assert np.all(np.abs(g) < 1.0)
        assert np.all(np.abs(np.tanh(c)) < 1.0)


def test_forward_rejects_bad_windows():
    model = zero_model(4, 2, window=3)
    curves = random_curves(4, 4)
    with pytest.raises(ValueError, match="expected a window of 3 curves of 4 samples, got 2 "
                                         r"curves of \[4\] samples"):
        forward(ForecastSession(model), CurveWindow(curves[:2]))
    with pytest.raises(ValueError, match=r"got 3 curves of \[5\] samples"):
        fresh_forecast(model, as_curves(np.zeros((3, 5))))
    # the latest window shifted by a curve of another length
    session = ForecastSession(model)
    forward_samples(session, curves[:3])
    with pytest.raises(ValueError, match=r"got 3 curves of \[4, 5\] samples"):
        forward_samples(session, (*curves[1:3], *random_curves(1, 5)))


def test_forward_returns_successor_curve():
    model = zero_model(4, 2, window=2, mean=np.full(4, 3.0))
    curves = random_curves(2, 4)
    predicted = forward(ForecastSession(model), CurveWindow(curves))
    assert predicted.op_index == curves[-1].op_index + 1
    assert predicted.timestamp > curves[-1].timestamp


def test_normalization_round_trip():
    model = dataclasses.replace(small_model(4, 2, 2, seed=5),
                                norm_mean=np.array([1.0, -2.0, 3.0, 0.5]),
                                norm_scale=np.array([0.1, 10.0, 3.0, 1.0]))
    x = np.random.default_rng(1).normal(size=(7, 4))
    back = model.denormalize(model.normalize(x))
    assert np.allclose(back, x, rtol=1e-12, atol=1e-12)


def test_normalization_scale_must_be_positive():
    with pytest.raises(ValueError, match="scale"):
        zero_model(3, 2, 2, scale=np.array([1.0, 0.0, 1.0]))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_single_step_hand_value():
    # theta = 1 on f(theta) = theta^2, so the gradient is 2; with lr 0.1 the
    # bias-corrected step is 0.1 * 2 / (sqrt(4) + 1e-8)
    params = {"theta": np.array([1.0])}
    state = AdamState.for_params(params, TrainConfig(learning_rate=0.1))
    state.step(params, {"theta": np.array([2.0])})
    assert params["theta"][0] == pytest.approx(0.9, abs=1e-6)
    assert params["theta"][0] == pytest.approx(0.9000000005, abs=1e-12)
    assert state.t == 1


def test_adam_second_moment_stays_non_negative():
    params = {"w": np.array([0.5, -0.5])}
    state = AdamState.for_params(params, TrainConfig(learning_rate=0.01))
    rng = np.random.default_rng(0)
    for k in range(10):
        state.step(params, {"w": rng.normal(size=2)})
    assert np.all(state.v["w"] >= 0.0)
    assert state.t == 10


def test_gradient_clipping_scales_to_the_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
    norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(5.0)
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    assert total == pytest.approx(1.0)
    # below the bound nothing changes
    grads = {"a": np.array([0.3])}
    clip_gradients(grads, 1.0)
    assert grads["a"][0] == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# gradient check
# ---------------------------------------------------------------------------

def test_gradient_check_on_random_small_models():
    for seed in range(5):
        model, dataset = random_check_instance(seed)
        assert gradient_check(model, dataset) < 1e-4


def test_gradient_check_zero_model_readout_blocks():
    model = zero_model(4, 3, window=2)
    curves = random_curves(3, 4, seed=5)
    assert gradient_check(model, make_dataset(curves, 2)) < 1e-6


def test_perturbation_matches_first_order_taylor():
    model = small_model(3, 2, 2, seed=13)
    curves = random_curves(3, 3, seed=14)

    params = {k: p.copy() for k, p in model.params().items()}
    (chunk,) = chunks_of(model.normalize, make_dataset(curves, 2))
    scale = 1.0 / chunk.target.size
    loss0, grads = _loss_and_grads(params, chunk, scale)

    step = 1e-5
    params["v_out"][1, 1] += step
    loss1, _ = _loss_and_grads(params, chunk, scale)
    assert loss1 - loss0 == pytest.approx(grads["v_out"][1, 1] * step, rel=1e-3)


def gathered_reference_grads(params, x, y_true, scale):
    """Gradients by BPTT over the gathered windows x (pairs, steps, length).

    Every window position is its own input row, so the w_x gradient is the
    product ``X.T @ dA`` of the gathered inputs and pre-activation gradients.
    """
    batch, steps, length = x.shape
    hidden = params["w_h"].shape[0]
    y, h_last, caches = per_gate_forward_seq(params, x)
    d_y = (2.0 * scale) * (y - y_true)
    grads = {"v_out": d_y.T @ h_last, "b_out": d_y.sum(axis=0),
             "w_h": np.zeros_like(params["w_h"]), "b": np.zeros_like(params["b"])}
    dh = d_y @ params["v_out"]
    dc = np.zeros((batch, hidden), dtype=x.dtype)
    d_a = np.empty((batch, steps, 4 * hidden), dtype=x.dtype)
    for t in reversed(range(steps)):
        i, f, o, g, c_prev, tc, h_prev = caches[t]
        dc = dc + dh * o * (1.0 - tc * tc)
        d_a[:, t] = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                                    dh * tc * o * (1.0 - o), dc * i * (1.0 - g * g)], axis=1)
        grads["w_h"] += h_prev.T @ d_a[:, t]
        grads["b"] += d_a[:, t].sum(axis=0)
        dh = d_a[:, t] @ params["w_h"].T
        dc = dc * f
    grads["w_x"] = x.reshape(batch * steps, length).T @ d_a.reshape(batch * steps, 4 * hidden)
    return grads


def consecutive(n_pairs, window, seed):
    return random_curves(n_pairs + window, 6, seed=seed)


def duplicated_pair(n_pairs, window, seed):
    curves = consecutive(n_pairs, window, seed)
    return curves[:2 * window] + [curves[window + 2]] * 3 + curves[2 * window:]


def scattered_windows(n_pairs, window, seed):
    """Curves drawn from a pool of 70 at random, so runs skip and repeat ops."""
    pool = random_curves(70, 6, seed=seed)
    return [pool[j] for j in np.random.default_rng(seed).integers(0, 70, n_pairs + window)]


def two_corpora(n_pairs, window, seed):
    """The curves of two corpora whose op indices are the same, one after the other."""
    return consecutive(n_pairs, window, seed) + consecutive(n_pairs, window, seed + 1)


@pytest.mark.parametrize("dtype, rtol", [("float64", 1e-12), ("float32", 1e-5)])
@pytest.mark.parametrize("curves_of, n_pairs, n_chunks", [
    (consecutive, 40, 1), (duplicated_pair, 30, None), (scattered_windows, 40, None),
    (two_corpora, 20, None), (consecutive, forecaster._CHUNK + 27, 2),
], ids=["make_dataset", "duplicated_pair", "not_consecutive", "two_corpora", "chunk_boundary"])
def test_deduplicated_w_x_gradient_matches_the_gathered_product(curves_of, n_pairs, n_chunks,
                                                                 dtype, rtol):
    curves = curves_of(n_pairs, 5, seed=21)
    if n_chunks is None:
        # a run that repeats or skips curves, or that starts another corpus,
        # is no dataset, so neither training nor validation can be given it
        with pytest.raises(ValueError,
                           match=r"target op \d+ does not follow window ending at op \d+"):
            make_dataset(curves, 5)
        return
    pairs = make_dataset(curves, 5)
    chunks = chunks_of(lambda m: ((m - 5.0) / 2.3).astype(dtype), pairs)
    assert len(chunks) == n_chunks
    params = _init_params(6, 3, np.random.default_rng(4), np.dtype(dtype))
    scale = 1.0 / (len(pairs) * 6)
    got = None
    for chunk in chunks:
        _, grads = _loss_and_grads(params, chunk, scale)
        got = grads if got is None else {k: got[k] + grads[k] for k in got}
    curves = pairs.as_matrix()
    x = np.stack([curves[k:k + 5] for k in range(len(pairs))])
    y = curves[5:]
    want = gathered_reference_grads(params, ((x - 5.0) / 2.3).astype(dtype),
                                    ((y - 5.0) / 2.3).astype(dtype), scale)
    for k, g in got.items():
        assert g.dtype == want[k].dtype == np.dtype(dtype)
        assert np.max(np.abs(g - want[k])) <= rtol * np.max(np.abs(want[k])), k


def same_loss_and_grads(got, want):
    (loss, grads), (want_loss, want_grads) = got, want
    assert loss == want_loss
    assert list(grads) == list(want_grads)
    assert all(same_bits(grads[k], want_grads[k]) for k in grads)


@pytest.mark.parametrize("dtype", DTYPES)
def test_workspace_reused_from_a_larger_chunk_gives_a_fresh_workspaces_results(dtype):
    """The last, shorter chunk of a batch runs in the front of the workspace."""
    pairs = make_dataset(consecutive(forecaster._CHUNK + 27, 5, seed=9), 5)
    big, small = chunks_of(lambda m: ((m - 5.0) / 2.3).astype(dtype), pairs)
    params = _init_params(6, 3, np.random.default_rng(5), np.dtype(dtype))
    scale = 1.0 / (len(pairs) * 6)
    workspace = forecaster._workspace(5, forecaster._CHUNK, 3, dtype)
    workspace[:] = np.nan
    _loss_and_grads(params, big, scale, workspace)
    same_loss_and_grads(_loss_and_grads(params, small, scale, workspace),
                        _loss_and_grads(params, small, scale))
    # and the larger chunk after the shorter one
    same_loss_and_grads(_loss_and_grads(params, big, scale, workspace),
                        _loss_and_grads(params, big, scale))


def test_training_peak_memory_is_the_workspace_and_the_curve_matrices():
    """Per-step caches or a (steps, batch, 4 * hidden) gather would exceed the bound.

    Full-batch float64 training on 300 pairs of window 50 keeps its step
    values in one workspace for the 256-pair chunk (4.9 MB) and its curves
    in two matrices, the raw and the normalized ones; the chunks are views
    of the normalized matrix and allocate nothing.  Everything else a chunk
    allocates (the projection and its gradient, the gate and gradient
    buffers, the parameter-sized arrays) comes to about a sixth of the
    workspace; the bound allows a quarter.  Fresh step arrays that the
    backward pass keeps plus the gathered pre-activations add about 1.25
    workspaces instead.
    """
    window, length, hidden = 50, 16, 8
    pairs = make_dataset(random_curves(300 + window, length, seed=5), window)
    tracemalloc.start()
    try:
        train(pairs, TrainConfig(hidden=hidden, epochs=1, seed=0), val_pairs=pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    workspace = forecaster._workspace(window, forecaster._CHUNK, hidden, np.float64).nbytes
    # the raw and the normalized curves
    matrices = 2 * pairs.as_matrix().nbytes
    assert peak <= workspace + matrices + workspace // 4, (peak, workspace, matrices)


def test_gradient_check_tolerance_raises():
    model = small_model(3, 2, 2, seed=1)
    curves = random_curves(3, 3, seed=2)
    with pytest.raises(AssertionError, match="gradient check"):
        gradient_check(model, make_dataset(curves, 2), tolerance=0.0)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_constant_corpus_is_learned_to_spec_tolerance():
    cfg = GeneratorConfig(length=24, operations=40, seed=3, noise_sigma=0.0)
    corpus = generate_lifecycle(cfg)
    pairs = make_dataset(corpus, 8)
    model, report = train(
        pairs,
        TrainConfig(hidden=8, epochs=200, seed=0, target_val_mse=1e-4),
        val_pairs=pairs,
    )
    assert report.epochs_run <= 200
    assert report.val_losses[-1] < 1e-4
    curves = pairs.as_matrix()
    predicted = fresh_forecast(model, pairs.curves[:8])
    error = model.normalize(predicted) - model.normalize(curves[8])
    assert np.mean(error * error) < 1e-4
    # the constant curve itself comes back
    assert np.allclose(predicted, curves[8], rtol=1e-3)


def test_training_loss_decreases_on_structured_data():
    corpus = generate_lifecycle(GeneratorConfig(length=24, operations=80, seed=5))
    pairs = make_dataset(corpus, 6)
    model, report = train(pairs, TrainConfig(hidden=8, epochs=25, seed=1))
    assert all(np.isfinite(v) and v >= 0.0 for v in report.train_losses)
    assert report.train_losses[-1] < report.train_losses[0]
    assert report.epochs_run == 25
    assert report.wall_seconds > 0.0


def test_training_is_deterministic(tmp_path):
    corpus = generate_lifecycle(GeneratorConfig(length=16, operations=40, seed=6))
    pairs = make_dataset(corpus, 5)
    for k, extra in enumerate([{}, {"dtype": "float32", "batch_size": 16}]):
        config = TrainConfig(hidden=6, epochs=8, seed=42, **extra)
        model_a, report_a = train(pairs, config)
        model_b, report_b = train(pairs, config)
        for name in model_a.params():
            assert np.array_equal(model_a.params()[name], model_b.params()[name])
        assert report_a.train_losses == report_b.train_losses
        save_model(model_a, tmp_path / f"a{k}.json")
        save_model(model_b, tmp_path / f"b{k}.json")
        assert (tmp_path / f"a{k}.json").read_bytes() == (tmp_path / f"b{k}.json").read_bytes()


def test_minibatch_mode_trains_and_differs_from_full_batch():
    corpus = generate_lifecycle(GeneratorConfig(length=16, operations=60, seed=8))
    pairs = make_dataset(corpus, 5)
    full, _ = train(pairs, TrainConfig(hidden=6, epochs=6, seed=0))
    mini, report = train(pairs, TrainConfig(hidden=6, epochs=6, seed=0, batch_size=16))
    assert report.train_losses[-1] < report.train_losses[0]
    assert not np.array_equal(full.w_x, mini.w_x)


@pytest.mark.parametrize("extra", [0, 7])
def test_one_batch_of_every_pair_is_full_batch_training(extra):
    """A batch of more than ``_CHUNK`` pairs accumulates its gradient by chunks too."""
    pairs = make_dataset(random_curves(forecaster._CHUNK + 40, 6, seed=3), 2)
    full, full_report = train(pairs, TrainConfig(hidden=3, epochs=2, seed=4))
    one, one_report = train(pairs, TrainConfig(hidden=3, epochs=2, seed=4,
                                               batch_size=len(pairs) + extra))
    for k, p in full.params().items():
        assert p.tobytes() == one.params()[k].tobytes()
    assert full_report.train_losses == one_report.train_losses
    assert full_report.grad_norms == one_report.grad_norms


def test_validation_defaults_to_training_loss():
    corpus = generate_lifecycle(GeneratorConfig(length=16, operations=30, seed=9))
    pairs = make_dataset(corpus, 4)
    _, report = train(pairs, TrainConfig(hidden=4, epochs=3, seed=0))
    assert report.val_losses == report.train_losses


@pytest.mark.parametrize("bad", [
    {"hidden": 0}, {"epochs": 0}, {"batch_size": 0}, {"batch_size": -3},
    {"learning_rate": -1.0}, {"learning_rate": 0.0}, {"learning_rate": math.inf},
    {"learning_rate": math.nan}, {"dtype": "int8"}, {"target_val_mse": -1.0},
], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_train_config_rejects_values_training_cannot_use(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        TrainConfig(**bad)


def test_a_training_sample_that_overflows_the_normalization_is_refused():
    """A 1e308 W sample squares past the float maximum in the per-position
    spread; the scale would be inf, which no weights file can hold."""
    corpus = generate_lifecycle(GeneratorConfig(length=16, operations=30, seed=9))
    curves = [lc.curve for lc in corpus]
    samples = curves[5].samples.copy()
    samples[7] = 1e308
    curves[5] = PowerCurve(samples, op_index=5, timestamp=curves[5].timestamp)
    with pytest.raises(ValueError, match=r"^sample 7 of training op 5 \(1e\+308 W\) overflows"):
        train(make_dataset(curves, 4), TrainConfig(hidden=4, epochs=1))


def test_a_training_sample_whose_normalized_value_overflows_the_dtype_is_refused():
    """Sample 7 of every op is 1e100 W.  Their mean rounds, the spread is
    below the floor, and the unit scale leaves a residual near 1e84, past
    float32's maximum: train refuses it, naming the first training op,
    without numpy's cast warning.  float64 holds the residual and trains."""
    corpus = generate_lifecycle(GeneratorConfig(length=16, operations=30, seed=9))
    curves = []
    for lc in corpus:
        samples = lc.curve.samples.copy()
        samples[7] = 1e100
        curves.append(PowerCurve(samples, op_index=lc.curve.op_index,
                                 timestamp=lc.curve.timestamp))
    with pytest.raises(ValueError, match=r"^sample 7 of training op 0 \(1e\+100 W\) is too "
                                         r"large: its normalized value overflows float32$"):
        train(make_dataset(curves, 4), TrainConfig(hidden=4, epochs=1, dtype="float32"))
    train(make_dataset(curves, 4), TrainConfig(hidden=4, epochs=1, dtype="float64"))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_a_validation_sample_that_overflows_the_loss_is_refused(dtype):
    """A 1e308 W validation sample normalizes past float32's maximum, and
    past the square root of float64's, so the validation loss would be inf;
    train refuses it, naming op and sample, without a numpy warning."""
    corpus = generate_lifecycle(GeneratorConfig(length=16, operations=30, seed=9))
    curves = [lc.curve for lc in corpus]
    samples = curves[25].samples.copy()
    samples[7] = 1e308
    curves[25] = PowerCurve(samples, op_index=25, timestamp=curves[25].timestamp)
    with pytest.raises(ValueError, match=r"^sample 7 of validation op 25 \(1e\+308 W\) is too "
                                         rf"large: its normalized square overflows {dtype}$"):
        train(make_dataset(curves[:20], 4), TrainConfig(hidden=4, epochs=1, dtype=dtype),
              val_pairs=make_dataset(curves[20:], 4))


@pytest.mark.parametrize("batch_size", [None, 11])
def test_report_records_epoch_seconds_and_pre_clip_gradient_norms(monkeypatch, batch_size):
    norms = []

    def recording_clip(grads, max_norm):
        norms.append(clip_gradients(grads, max_norm))
        return norms[-1]

    monkeypatch.setattr(forecaster, "clip_gradients", recording_clip)
    monkeypatch.setattr(forecaster, "CLIP_NORM", 0.05)
    pairs = make_dataset(generate_lifecycle(GeneratorConfig(length=16, operations=60, seed=8)), 5)
    _, report = train(pairs, TrainConfig(hidden=6, epochs=4, seed=0, batch_size=batch_size))
    per_epoch = math.ceil(len(pairs) / batch_size) if batch_size else 1
    epochs = [norms[k:k + per_epoch] for k in range(0, len(norms), per_epoch)]
    assert len(epochs) == 4
    # the largest batch norm of each epoch, taken before clipping to 0.05
    assert report.grad_norms == [max(epoch) for epoch in epochs]
    assert batch_size is None or any(max(epoch) != epoch[-1] for epoch in epochs)
    assert min(report.grad_norms) > 0.05
    assert len(report.epoch_seconds) == report.epochs_run == 4
    assert all(s > 0.0 for s in report.epoch_seconds)
    assert sum(report.epoch_seconds) <= report.wall_seconds


def test_model_records_the_digest_of_its_training_curves(tmp_path):
    corpus = generate_lifecycle(GeneratorConfig(length=16, operations=30, seed=9))
    model, _ = train(make_dataset(corpus[:20], 4), TrainConfig(hidden=4, epochs=1))
    assert model.meta["corpus_sha256"] == curves_digest(corpus[:20]) != curves_digest(corpus[:19])
    save_model(model, tmp_path / "m.json")
    assert load_model(tmp_path / "m.json").meta["corpus_sha256"] == model.meta["corpus_sha256"]
    assert "validation_sha256" not in model.meta


def test_model_records_the_digest_of_its_validation_curves(tmp_path):
    corpus = generate_lifecycle(GeneratorConfig(length=16, operations=30, seed=9))
    model, _ = train(make_dataset(corpus[:20], 4), TrainConfig(hidden=4, epochs=1),
                     val_pairs=make_dataset(corpus[20:], 4))
    assert model.meta["validation_sha256"] == curves_digest(corpus[20:])
    save_model(model, tmp_path / "m.json")
    assert load_model(tmp_path / "m.json").meta["validation_sha256"] == curves_digest(corpus[20:])


_BLAS_PROBE = """
import hashlib
import numpy as np
from turnoutguard.curvegen import GeneratorConfig, PowerCurve, generate_lifecycle
from turnoutguard.dataio import make_dataset
from turnoutguard.forecaster import (ForecastModel, ForecastSession, TrainConfig, _init_params,
                                    forward_samples, train)

pairs = make_dataset(generate_lifecycle(GeneratorConfig(length=40, operations=120, seed=4)), 10)
model, _ = train(pairs, TrainConfig(hidden=16, epochs=3, seed=2))
print(hashlib.sha256(b"".join(p.tobytes() for p in model.params().values())).hexdigest())
params = _init_params(200, 64, np.random.default_rng(1), np.dtype("float32"))
model = ForecastModel(**params, norm_mean=np.full(200, 500.0), norm_scale=np.full(200, 100.0),
                      window=50)
window = [PowerCurve(row, k, float(k))
          for k, row in enumerate(np.random.default_rng(2).uniform(0.0, 1000.0, (50, 200)))]
print(hashlib.sha256(forward_samples(ForecastSession(model), window).tobytes()).hexdigest())
"""


def _probe(threads: int) -> list[str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=str(Path(forecaster.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.split()


def test_bit_exactness_holds_per_blas_thread_count_and_forecasts_across_counts():
    """Training replays bit for bit at one OpenBLAS thread count; forecasts at any.

    Training weights are not claimed equal across thread counts: the w_x
    gradient is a product with a long inner dimension, which multi-threaded
    OpenBLAS splits between threads, so its sums round differently.
    """
    threads = min(2, len(os.sched_getaffinity(0)))
    single, multi, multi_again = _probe(1), _probe(threads), _probe(threads)
    assert multi == multi_again
    assert single[1] == multi[1]


def test_divergence_aborts_with_diagnostic(monkeypatch):
    monkeypatch.setattr(forecaster, "CLIP_NORM", 0.0)
    pairs = make_dataset(random_curves(8, 6, seed=0), 3)
    with pytest.raises(TrainingDiverged, match="epoch"):
        train(pairs, TrainConfig(hidden=4, epochs=50, learning_rate=1e200, seed=1))


def test_a_validation_loss_past_the_float_maximum_aborts_training():
    """One Adam step at a huge learning rate leaves float32 weights finite,
    and the training loss, taken before the step, finite too; the forecasts
    of the validation windows square past the float maximum."""
    curves = [lc.curve for lc in generate_lifecycle(GeneratorConfig(length=16, operations=30,
                                                                    seed=9))]
    config = TrainConfig(hidden=4, epochs=1, learning_rate=1e20, dtype="float32")
    with pytest.raises(TrainingDiverged, match=r"^epoch 0: validation loss is not finite$"):
        train(make_dataset(curves[:20], 4), config, val_pairs=make_dataset(curves[20:], 4))


def test_mixed_window_sizes_rejected():
    curves = random_curves(10, 4)
    with pytest.raises(ValueError, match="validation pairs do not match training dimensions"):
        train(make_dataset(curves, 3), TrainConfig(hidden=2, epochs=1),
              val_pairs=make_dataset(curves, 4))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_save_load_round_trip_preserves_predictions(tmp_path):
    corpus = generate_lifecycle(GeneratorConfig(length=20, operations=40, seed=10))
    pairs = make_dataset(corpus, 6)
    model, _ = train(pairs, TrainConfig(hidden=6, epochs=4, seed=3))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    window = pairs.curves[:pairs.window]
    assert np.array_equal(fresh_forecast(model, window), fresh_forecast(loaded, window))
    assert (loaded.window, loaded.hidden) == (model.window, 6)
    assert loaded.meta == model.meta


def test_save_load_round_trip_float32(tmp_path):
    corpus = generate_lifecycle(GeneratorConfig(length=20, operations=30, seed=11))
    pairs = make_dataset(corpus, 5)
    model, _ = train(pairs, TrainConfig(hidden=4, epochs=2, seed=3, dtype="float32"))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    window = pairs.curves[:pairs.window]
    assert np.array_equal(fresh_forecast(model, window), fresh_forecast(loaded, window))


def test_weights_given_column_major_forecast_the_bytes_of_row_major_ones():
    """The model stores its weights row-major, whatever layout it is given.

    A matmul over a column-major ``w_x`` or ``w_h`` rounds differently on
    some windows at this size; the round-trip tests above are too small to
    show it.
    """
    corpus = generate_lifecycle(GeneratorConfig(length=60, operations=30, seed=7))
    raw = np.stack([lc.curve.samples for lc in corpus])
    model = dataclasses.replace(small_model(60, 8, 10, seed=3),
                                norm_mean=raw.mean(axis=0), norm_scale=raw.std(axis=0))
    columns = dataclasses.replace(model, w_x=np.asfortranarray(model.w_x),
                                  w_h=np.asfortranarray(model.w_h))
    assert all(p.flags.c_contiguous for p in columns.params().values())
    curves = [lc.curve for lc in corpus]
    for k in range(len(corpus) - 10):
        window = curves[k:k + 10]
        assert fresh_forecast(columns, window).tobytes() == fresh_forecast(model, window).tobytes()


def test_truncated_weights_file_fails_cleanly(tmp_path):
    model = zero_model(4, 2, 2)
    path = tmp_path / "model.json"
    save_model(model, path)
    blob = path.read_text()
    path.write_text(blob[: len(blob) // 2])
    with pytest.raises(FormatError, match="not a valid weights file"):
        load_model(path)


def test_version_mismatch_fails_cleanly(tmp_path):
    import json

    model = zero_model(4, 2, 2)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="version 999"):
        load_model(path)


def test_missing_block_fails_cleanly(tmp_path):
    import json

    model = zero_model(4, 2, 2)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    del doc["parameters"]["u_forget"]
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="malformed"):
        load_model(path)


@pytest.mark.parametrize("parameters", [["w_input"], "w_input", 3])
def test_non_object_parameters_fail_cleanly(tmp_path, parameters):
    import json

    path = tmp_path / "model.json"
    save_model(zero_model(4, 2, 2), path)
    doc = json.loads(path.read_text())
    doc["parameters"] = parameters
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="malformed"):
        load_model(path)


def test_weight_beyond_the_float32_range_fails_cleanly(tmp_path):
    import json

    path = tmp_path / "model.json"
    save_model(small_model(4, 2, 2, dtype="float32"), path)
    doc = json.loads(path.read_text())
    doc["parameters"]["b_out"]["data"][3] = -1e308
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=r"parameters\.b_out holds a number beyond the float32"):
        load_model(path)


@pytest.mark.parametrize("mean, scale, refused", [
    (0.0, 5e-324, True), (0.0, 1e-9, True), (0.0, 1.5e-9, False),
    (1e12, 1e3, True), (1e12, 1.0, False), (1e12, 2e3, False),
], ids=["subnormal", "at-the-floor", "above-the-floor", "below-a-large-mean",
        "unit-fallback", "above-a-large-mean"])
def test_a_normalization_scale_train_never_writes_fails_cleanly(tmp_path, mean, scale, refused):
    """train keeps a unit scale where the spread is at or below
    ``_SCALE_RTOL * max(|mean|, 1)``, and the spread elsewhere."""
    path = tmp_path / "model.json"
    save_model(dataclasses.replace(small_model(4, 2, 2), norm_mean=np.full(4, mean),
                                   norm_scale=np.array([1.0, 1.0, scale, 1.0])), path)
    if refused:
        with pytest.raises(FormatError, match=rf"normalization\.scale holds {scale!r} at "
                                              rf"position 2, at or below .*, set by normalization"
                                              rf"\.mean {mean!r} there, which train never writes"):
            load_model(path)
    else:
        assert load_model(path).norm_scale[2] == scale


# a -1e308 mean normalizes a sample to about 1e308, which overflows only float32
@pytest.mark.parametrize("dtype, norm", [
    ("float32", {"norm_mean": np.full(6, -1e308)}),
    ("float32", {"norm_scale": np.full(6, 5e-324)}),
    ("float64", {"norm_scale": np.full(6, 5e-324)}),
], ids=["float32-mean", "float32-scale", "float64-scale"])
def test_window_whose_normalized_value_overflows_is_refused(dtype, norm):
    model = dataclasses.replace(small_model(6, 3, 4, dtype=dtype), **norm)
    session = ForecastSession(model)
    with pytest.raises(ValueError, match=f"normalized sample of the window overflows {dtype}"):
        forward_samples(session, a_window())
    assert session.latest == ()


def test_loaded_model_rejects_wrong_window(tmp_path):
    model = zero_model(4, 2, window=3)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    with pytest.raises(ValueError, match="expected a window of 3"):
        forward(ForecastSession(loaded), CurveWindow(random_curves(2, 4)))


# ---------------------------------------------------------------------------
# forecast of the latest window
# ---------------------------------------------------------------------------

ARRAYS = ("w_x", "w_h", "b", "v_out", "b_out", "norm_mean", "norm_scale")


@pytest.fixture
def advances(monkeypatch):
    return count_advances(monkeypatch)


def saved_model(tmp_path, dtype="float64"):
    """A random model with normalization, written to and read back from a file."""
    model = small_model(6, 3, 4, seed=2, dtype=dtype)
    model = dataclasses.replace(model, norm_mean=np.linspace(0.0, 3.0, 6),
                                norm_scale=np.linspace(0.5, 3.0, 6))
    path = tmp_path / "model.json"
    save_model(model, path)
    return path


def window_rows(seed=4):
    x = np.abs(np.random.default_rng(seed).normal(size=(4, 6)))
    x[1, 2] = 0.0
    return x


def a_window(seed=4):
    return as_curves(window_rows(seed))


@pytest.mark.parametrize("dtype", DTYPES)
def test_repeated_window_gets_the_forecast_of_a_fresh_session(tmp_path, advances, dtype):
    model = load_model(saved_model(tmp_path, dtype))
    session = ForecastSession(model)
    window = a_window()
    first = forward_samples(session, window)
    again = forward_samples(session, list(window))   # the same curves in another sequence
    assert len(advances) == model.window
    fresh = fresh_forecast(model, window)
    assert again.tobytes() == first.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("edit", [
    lambda x: None,
    lambda x: x.__setitem__((3, 5), np.nextafter(x[3, 5], np.inf)),
    lambda x: x.__setitem__((0, 0), x[0, 0] + 1.0),
    lambda x: x.__setitem__((1, 2), -0.0),
], ids=["equal-values", "one-ulp", "first-sample", "zero-to-negative-zero"])
def test_window_of_new_curves_is_forecast_again(tmp_path, advances, edit):
    """The session keys on curve objects, not on their values: new curves,
    even of the kept window's values, rebuild every state."""
    model = load_model(saved_model(tmp_path))
    session = ForecastSession(model)
    forward_samples(session, a_window())
    rows = window_rows()
    edit(rows)
    other = as_curves(rows)
    got = forward_samples(session, other)
    assert len(advances) == 2 * model.window
    assert got.tobytes() == fresh_forecast(model, other).tobytes()


@pytest.mark.parametrize("shift", [True, False], ids=["shift", "rebuild"])
def test_overflowing_window_after_a_kept_one_is_refused_and_keeps_the_session(
        tmp_path, advances, shift):
    """A window refused on a shift or a rebuild leaves the kept window and
    its forecast."""
    model = load_model(saved_model(tmp_path))
    session = ForecastSession(model)
    window = a_window()
    kept = forward_samples(session, window)
    rows = window_rows(5)[:1]
    rows[0, 0] = 1.7e308   # over the float maximum once divided by the scale of 0.5
    huge = as_curves(rows)[0]
    bad = (*window[1:], huge) if shift else (huge, *window[1:])
    with pytest.raises(ValueError, match="normalized sample of the window overflows float64"):
        forward_samples(session, bad)
    assert forward_samples(session, window).tobytes() == kept.tobytes()
    assert len(advances) == model.window
    shifted = (*window[1:], *a_window(5)[:1])
    got = forward_samples(session, shifted)
    assert len(advances) == model.window + 1   # the kept window shifted by one curve
    assert got.tobytes() == fresh_forecast(model, shifted).tobytes()


@pytest.mark.parametrize("name", ARRAYS)
def test_model_arrays_are_read_only(name):
    model = small_model(6, 3, 4)
    with pytest.raises(ValueError, match="read-only"):
        getattr(model, name)[0] = 1.0


@pytest.mark.parametrize("name", [*ARRAYS, "window", "meta"])
def test_model_fields_cannot_be_reassigned(name):
    model = small_model(6, 3, 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(model, name, getattr(model, name))


def test_model_with_other_meta_forecasts_the_same_bytes(tmp_path):
    """meta is provenance only: not even a stale "dtype" key changes a forecast."""
    model = dataclasses.replace(load_model(saved_model(tmp_path)),
                                meta={"dtype": "float32", "seed": 3})
    rebuilt = dataclasses.replace(model, meta={})
    want = fresh_forecast(model, a_window()).tobytes()
    assert fresh_forecast(rebuilt, a_window()).tobytes() == want


@pytest.mark.parametrize("arrays", [
    {"b_out": np.zeros(6, dtype=np.float32)},
    {name: np.zeros(shape, dtype=np.float16) for name, shape in
     [("w_x", (6, 12)), ("w_h", (3, 12)), ("b", (12,)), ("v_out", (6, 3)), ("b_out", (6,))]},
], ids=["mixed", "float16"])
def test_model_parameters_share_one_supported_dtype(arrays):
    with pytest.raises(ValueError, match="one dtype"):
        dataclasses.replace(small_model(6, 3, 4), **arrays)


def test_returned_forecast_is_the_callers_to_change(tmp_path, advances):
    session = ForecastSession(load_model(saved_model(tmp_path)))
    window = a_window()
    first = forward_samples(session, window)
    want = first.tobytes()
    first[:] = -1.0
    second = forward_samples(session, window)
    assert second.tobytes() == want
    second[0] = 5.0
    assert forward_samples(session, window).tobytes() == want
    assert len(advances) == session.model.window


def test_sessions_in_two_threads_forecast_the_bytes_of_a_fresh_session(tmp_path):
    """Each session owns its states, so two threads may forecast on one model."""
    model = load_model(saved_model(tmp_path))
    rng = np.random.default_rng(6)
    windows = [a_window()]
    for move in ["shift", "repeat", "jump", "shift", "shift"] * 20:
        windows.append(next_window(windows[-1], move, rng))
    want = [fresh_forecast(model, x).tobytes() for x in windows]

    def forecasts(order):
        session = ForecastSession(model)
        return [forward_samples(session, windows[k]).tobytes() for k in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            ahead = pool.submit(forecasts, range(len(windows)))
            behind = pool.submit(forecasts, range(len(windows) - 1, -1, -1))
            assert ahead.result(timeout=60) == want
            assert behind.result(timeout=60) == want[::-1]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("stepped", [False, True], ids=["before-the-step", "after-the-step"])
def test_interrupted_forecast_leaves_a_session_that_forecasts_the_bytes_of_a_fresh_one(
        tmp_path, monkeypatch, stepped):
    """A KeyboardInterrupt on any advance of a rebuild or of a shift, before
    or after that advance steps the states, leaves a session whose next
    forecast of the same window is a fresh session's, and so are those after
    it: a rebuild needs no reset."""
    model = load_model(saved_model(tmp_path))
    rng = np.random.default_rng(8)
    windows = [a_window()]
    for move in ("shift", "jump", "shift"):
        windows.append(next_window(windows[-1], move, rng))
    want = [fresh_forecast(model, x).tobytes() for x in windows]
    real = ForecastSession.advance
    # a rebuild, a shift, a rebuild of a used session and a shift
    for k in range(1, 2 * model.window + 3):
        calls = []

        def advance(self, a_x, k=k, calls=calls):
            calls.append(a_x)
            if len(calls) == k:
                if stepped:
                    real(self, a_x)
                raise KeyboardInterrupt
            return real(self, a_x)

        monkeypatch.setattr(ForecastSession, "advance", advance)
        session = ForecastSession(model)
        got = []
        for x in windows:
            try:
                got.append(forward_samples(session, x).tobytes())
            except KeyboardInterrupt:
                got.append(forward_samples(session, x).tobytes())
        assert len(calls) > k and got == want, k


def one_window_recurrence(model, curves):
    """The forecast of the recurrence that training runs, over one window."""
    normed = model.normalize(np.stack([c.samples for c in curves])).astype(model.w_x.dtype)
    y, _ = _forward_seq(model.params(), normed, model.window)
    return model.denormalize(y[0].astype(np.float64))


def next_window(curves, move, rng):
    """The window of ``curves`` after one of ``MOVES``.

    New curves get samples from ``rng`` that hold exact zeros; an edit puts a
    new curve in place of the one it edits.
    """
    def new(n):
        rows = np.abs(rng.normal(scale=3.0, size=(n, len(curves[0]))))
        rows[rng.random(rows.shape) < 0.2] = 0.0
        return as_curves(rows)

    def edited(at, edit):
        samples = curves[at].samples.copy()
        edit(samples)
        return tuple(PowerCurve(samples, 0, 0.0) if c is curves[at] else c for c in curves)

    if move == "shift":
        return (*curves[1:], *new(1))
    if move == "shift-by-two":
        return (*curves, *new(2))[2:]
    if move == "jump":
        return new(len(curves))
    if move == "copy":
        return tuple(PowerCurve(c.samples, c.op_index, c.timestamp) for c in curves)
    if move in ("ulp-newest", "ulp-oldest"):
        k = rng.integers(len(curves[0]))
        return edited(-1 if move == "ulp-newest" else 0,
                      lambda x: x.__setitem__(k, np.nextafter(x[k], np.inf)))
    if move == "negative-zero":
        zeros = np.argwhere(np.stack([c.samples for c in curves]) == 0.0)
        at, k = zeros[rng.integers(len(zeros))] if len(zeros) else (0, 0)
        return edited(at, lambda x: x.__setitem__(k, -0.0 if x[k] == 0.0 else x[k]))
    return curves   # a repeat


MOVES = ("shift", "repeat", "shift-by-two", "jump", "copy", "ulp-newest", "ulp-oldest",
         "negative-zero")


@settings(max_examples=60, deadline=None)
@given(dtype=st.sampled_from(DTYPES), length=st.integers(1, 7), hidden=st.integers(1, 5),
       window=st.integers(1, 6), gain=st.sampled_from([1.0, 4.0, 60.0]),
       seed=st.integers(0, 2**32 - 1), moves=st.lists(st.sampled_from(MOVES), max_size=16))
def test_forecast_never_depends_on_the_calls_before_it(tmp_path_factory, dtype, length,
                                                       hidden, window, gain, seed, moves):
    """One session driven through any sequence of windows forecasts, byte
    for byte, what a fresh session on a model freshly read from its weights
    file forecasts; it advances not at all on the same curves, once on the
    latest ones shifted by one, and w times on any other window."""
    rng = np.random.default_rng(seed)
    model = small_model(length, hidden, window, seed=seed % 1000, dtype=dtype)
    # at a gain of 60 some gates saturate and exp() overflows
    model = dataclasses.replace(model, w_x=model.w_x * gain, w_h=model.w_h * gain,
                                norm_mean=np.abs(rng.normal(size=length)),
                                norm_scale=rng.uniform(0.5, 2.0, size=length))
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, path)
    model = load_model(path)
    session = ForecastSession(model)
    curves = as_curves(np.zeros((window, length)))
    with pytest.MonkeyPatch.context() as patch:
        advances = count_advances(patch)
        for move in ("jump", *moves):
            curves = next_window(curves, move, rng)
            got = forward_samples(session, curves).tobytes()
            assert advances.count(session) == {"repeat": 0, "shift": 1}.get(move, window), move
            advances.clear()
            assert got == fresh_forecast(load_model(path), curves).tobytes(), move
            assert got == one_window_recurrence(model, curves).tobytes(), move


@pytest.fixture(scope="module", params=DTYPES)
def benchmark_model(request, tmp_path_factory):
    """A trained model at the benchmark's shape: 200 samples, hidden 64, window 50."""
    corpus = generate_lifecycle(GeneratorConfig(length=200, operations=260, seed=42))
    model, _ = train(make_dataset(corpus[:120], 50),
                     TrainConfig(hidden=64, epochs=2, seed=5, dtype=request.param))
    path = tmp_path_factory.mktemp("benchmark") / "model.json"
    save_model(model, path)
    return path, [lc.curve for lc in corpus]


@pytest.mark.parametrize("starts", [
    list(range(60, 210)),                                   # consecutive windows
    [120, 121, 121, 121, 122, 124, 125, 200, 201, 130, 131],    # repeats, shift by two, jumps
], ids=["consecutive", "mixed"])
def test_forecasts_at_the_benchmark_shape_are_those_of_a_fresh_session(
        benchmark_model, monkeypatch, starts):
    path, curves = benchmark_model
    model = load_model(path)
    session = ForecastSession(model)
    advances = count_advances(monkeypatch)
    for start in starts:
        x = curves[start:start + 50]
        got = forward_samples(session, x).tobytes()
        assert got == one_window_recurrence(model, x).tobytes()
        assert got == fresh_forecast(model, x).tobytes()
    # each fresh session rebuilds; the one session rebuilds only off a shift
    # by one, advances once on a shift and not at all on a repeat
    steps = np.diff(starts)
    assert len(advances) - advances.count(session) == 50 * len(starts)
    rebuilds = 1 + np.sum((steps != 0) & (steps != 1))
    assert advances.count(session) == 50 * rebuilds + np.sum(steps == 1)


def test_calibration_equals_one_that_starts_a_fresh_session_for_every_pair(
        benchmark_model, monkeypatch, tmp_path):
    path, curves = benchmark_model
    model = load_model(path)
    pairs = make_dataset(curves[150:230], 50)

    def thresholds_file(name):
        out = tmp_path / name
        save_thresholds(out, calibrate(model, pairs), {})
        return out.read_bytes()

    advances = count_advances(monkeypatch)
    once = thresholds_file("once.json")
    assert len(advances) == model.window + len(pairs) - 1
    monkeypatch.setattr(comparator, "forward_samples", lambda _, x: fresh_forecast(model, x))
    assert thresholds_file("fresh.json") == once
    assert len(advances) == model.window + len(pairs) - 1 + model.window * len(pairs)
