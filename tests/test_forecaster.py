"""Forecaster contracts: recurrence math, training, gradients, persistence."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from turnoutguard import forecaster
from turnoutguard.curvegen import GeneratorConfig, PowerCurve, generate_lifecycle
from turnoutguard.dataio import CurveWindow, curves_digest, make_dataset
from turnoutguard.forecaster import (
    GATES,
    AdamState,
    ForecastModel,
    ModelFormatError,
    TrainConfig,
    TrainingDiverged,
    _forward_seq,
    _init_params,
    clip_gradients,
    forward,
    forward_samples,
    gradient_check,
    load_model,
    mse,
    save_model,
    train,
)


def random_curves(n, length, seed=0, lo=1.0, hi=9.0):
    rng = np.random.default_rng(seed)
    return [
        PowerCurve(rng.uniform(lo, hi, length), op_index=k, timestamp=50.0 + k)
        for k in range(n)
    ]


def small_model(length, hidden, window, seed=0, dtype="float64"):
    params = _init_params(length, hidden, np.random.default_rng(seed), np.dtype(dtype))
    return ForecastModel(
        **params,
        norm_mean=np.zeros(length),
        norm_scale=np.ones(length),
        window=window,
        meta={"dtype": dtype},
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


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_mse_trivial_values():
    a = np.array([1.0, 2.0, 3.0])
    assert mse(a, a) == 0.0
    assert mse(a + 1.0, a) == 1.0
    assert mse(np.array([1.0, -3.0]), np.array([0.0, 0.0])) == 5.0


def test_mse_rejects_length_mismatch():
    with pytest.raises(ValueError, match="lengths differ"):
        mse(np.zeros(3), np.zeros(4))


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
    got = forward_samples(model, CurveWindow(curves).as_matrix())
    assert np.allclose(got, bias * scale + mean, atol=1e-12)


def scalar_oracle(model, window_matrix):
    """Independent step-by-step recurrence over explicit per-gate matrices."""
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))  # noqa: E731
    w = {g: model.gate_weights(g) for g in GATES}
    u = {g: model.recurrent_weights(g) for g in GATES}
    b = {g: model.gate_bias(g) for g in GATES}
    hidden, length = w["input"].shape
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
    got = forward_samples(model, window_matrix)
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
            forward_samples(model, matrix), scalar_oracle(model, matrix), atol=1e-10
        )


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


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("batch", [1, 7])
def test_forward_seq_equals_per_gate_reference_bit_for_bit(dtype, batch):
    model = small_model(length=24, hidden=16, window=9, seed=batch, dtype=dtype)
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 2.0, size=(batch, 9, 24)).astype(dtype)
    want_y, want_h, want_caches = per_gate_forward_seq(model.params(), x)
    # without caches every step reuses one set of buffers
    for need_cache in (True, False):
        y, h, caches = _forward_seq(model.params(), x, need_cache=need_cache)
        assert same_bits(y, want_y) and same_bits(h, want_h)
        for got, want in zip(caches, want_caches if need_cache else [], strict=True):
            assert all(same_bits(g, w) for g, w in zip(got, want, strict=True))


def test_gate_activations_stay_in_range():
    model = small_model(length=5, hidden=4, window=3, seed=2)
    x = model.normalize(np.random.default_rng(0).uniform(0, 9, (3, 5)))[np.newaxis]
    _, _, caches = _forward_seq(model.params(), x, need_cache=True)
    for i, f, o, g, c_prev, tc, h_prev in caches:
        for gate in (i, f, o):
            assert np.all(gate > 0.0) and np.all(gate < 1.0)
        assert np.all(np.abs(g) < 1.0)
        assert np.all(np.abs(tc) < 1.0)


def test_forward_rejects_bad_windows():
    model = zero_model(4, 2, window=3)
    curves = random_curves(2, 4)
    with pytest.raises(ValueError, match="expected window of 3"):
        forward(model, CurveWindow(curves))
    with pytest.raises(ValueError, match="shape"):
        forward_samples(model, np.zeros((3, 5)))
    bad = np.full((3, 4), np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        forward_samples(model, bad)


def test_forward_returns_successor_curve():
    model = zero_model(4, 2, window=2, mean=np.full(4, 3.0))
    curves = random_curves(2, 4)
    predicted = forward(model, CurveWindow(curves))
    assert predicted.op_index == curves[-1].op_index + 1
    assert predicted.timestamp > curves[-1].timestamp


def test_normalization_round_trip():
    model = small_model(4, 2, 2, seed=5)
    model.norm_mean = np.array([1.0, -2.0, 3.0, 0.5])
    model.norm_scale = np.array([0.1, 10.0, 3.0, 1.0])
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

def random_check_instance(seed):
    """Random small model plus a pair whose initial loss is ~1e-2.

    Targets sit near the untrained prediction: the finite-difference noise
    scales with the loss, so a moderate loss keeps the comparison above the
    noise floor for every parameter element while still driving gradients
    through all blocks.
    """
    rng = np.random.default_rng(seed)
    length = int(rng.integers(2, 9))
    hidden = int(rng.integers(1, 9))
    window = int(rng.integers(1, 5))
    params = _init_params(length, hidden, rng, np.float64)
    model = ForecastModel(
        **params,
        norm_mean=np.full(length, 5.0),
        norm_scale=np.full(length, 8.0 / math.sqrt(12.0)),
        window=window,
        meta={"dtype": "float64"},
    )
    curves = [
        PowerCurve(rng.uniform(1.0, 9.0, length), k, 10.0 + k) for k in range(window)
    ]
    predicted = forward_samples(model, np.stack([c.samples for c in curves]))
    target_raw = model.denormalize(model.normalize(predicted) + 0.1 * rng.normal(size=length))
    curves.append(PowerCurve(np.clip(target_raw, 0.0, None), window, 10.0 + window))
    return model, make_dataset(curves, window)[0]


def test_gradient_check_on_random_small_models():
    for seed in range(5):
        model, pair = random_check_instance(seed)
        assert gradient_check(model, pair) < 1e-4


def test_gradient_check_zero_model_readout_blocks():
    model = zero_model(4, 3, window=2)
    curves = random_curves(3, 4, seed=5)
    pair = make_dataset(curves, 2)[0]
    assert gradient_check(model, pair) < 1e-6


def test_perturbation_matches_first_order_taylor():
    model = small_model(3, 2, 2, seed=13)
    curves = random_curves(3, 3, seed=14)
    pair = make_dataset(curves, 2)[0]

    from turnoutguard.forecaster import _loss_and_grads

    params = {k: p.copy() for k, p in model.params().items()}
    x = model.normalize(pair.window.as_matrix())[np.newaxis]
    y = model.normalize(pair.target.samples)[np.newaxis]
    scale = 1.0 / y.size
    loss0, grads = _loss_and_grads(params, x, y, scale)

    step = 1e-5
    params["v_out"][1, 1] += step
    loss1, _ = _loss_and_grads(params, x, y, scale)
    assert loss1 - loss0 == pytest.approx(grads["v_out"][1, 1] * step, rel=1e-3)


def test_gradient_check_tolerance_raises():
    model = small_model(3, 2, 2, seed=1)
    curves = random_curves(3, 3, seed=2)
    pair = make_dataset(curves, 2)[0]
    with pytest.raises(AssertionError, match="gradient check"):
        gradient_check(model, pair, tolerance=0.0)


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
    predicted = forward_samples(model, pairs[0].window.as_matrix())
    assert mse(model.normalize(predicted), model.normalize(pairs[0].target.samples)) < 1e-4
    # the constant curve itself comes back
    assert np.allclose(predicted, pairs[0].target.samples, rtol=1e-3)


def test_training_loss_decreases_on_structured_data():
    corpus = generate_lifecycle(GeneratorConfig(length=24, operations=80, seed=5))
    pairs = make_dataset(corpus, 6)
    model, report = train(pairs, TrainConfig(hidden=8, epochs=25, seed=1))
    assert all(np.isfinite(v) and v >= 0.0 for v in report.train_losses)
    assert report.train_losses[-1] < report.train_losses[0]
    assert report.epochs_run == 25
    assert report.wall_seconds > 0.0


def test_training_is_deterministic():
    corpus = generate_lifecycle(GeneratorConfig(length=16, operations=40, seed=6))
    pairs = make_dataset(corpus, 5)
    config = TrainConfig(hidden=6, epochs=8, seed=42)
    model_a, report_a = train(pairs, config)
    model_b, report_b = train(pairs, config)
    for k in model_a.params():
        assert np.array_equal(model_a.params()[k], model_b.params()[k])
    assert report_a.train_losses == report_b.train_losses


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
from turnoutguard.curvegen import GeneratorConfig, generate_lifecycle
from turnoutguard.dataio import make_dataset
from turnoutguard.forecaster import ForecastModel, TrainConfig, _init_params, forward_samples, train

pairs = make_dataset(generate_lifecycle(GeneratorConfig(length=40, operations=120, seed=4)), 10)
model, _ = train(pairs, TrainConfig(hidden=16, epochs=3, seed=2))
print(hashlib.sha256(b"".join(p.tobytes() for p in model.params().values())).hexdigest())
params = _init_params(200, 64, np.random.default_rng(1), np.dtype("float32"))
model = ForecastModel(**params, norm_mean=np.full(200, 500.0), norm_scale=np.full(200, 100.0),
                      window=50, meta={"dtype": "float32"})
window = np.random.default_rng(2).uniform(0.0, 1000.0, (50, 200))
print(hashlib.sha256(forward_samples(model, window).tobytes()).hexdigest())
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


def test_mixed_window_sizes_rejected():
    curves = random_curves(10, 4)
    pairs = make_dataset(curves, 3) + make_dataset(curves, 4)
    with pytest.raises(ValueError, match="window sizes"):
        train(pairs, TrainConfig(hidden=2, epochs=1))


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
    matrix = pairs[0].window.as_matrix()
    assert np.array_equal(forward_samples(model, matrix), forward_samples(loaded, matrix))
    assert loaded.window == model.window
    assert loaded.meta["hidden"] == 6


def test_save_load_round_trip_float32(tmp_path):
    corpus = generate_lifecycle(GeneratorConfig(length=20, operations=30, seed=11))
    pairs = make_dataset(corpus, 5)
    model, _ = train(pairs, TrainConfig(hidden=4, epochs=2, seed=3, dtype="float32"))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    matrix = pairs[0].window.as_matrix()
    assert np.array_equal(forward_samples(model, matrix), forward_samples(loaded, matrix))


def test_truncated_weights_file_fails_cleanly(tmp_path):
    model = zero_model(4, 2, 2)
    path = tmp_path / "model.json"
    save_model(model, path)
    blob = path.read_text()
    path.write_text(blob[: len(blob) // 2])
    with pytest.raises(ModelFormatError, match="not a valid weights file"):
        load_model(path)


def test_version_mismatch_fails_cleanly(tmp_path):
    import json

    model = zero_model(4, 2, 2)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="version 999"):
        load_model(path)


def test_missing_block_fails_cleanly(tmp_path):
    import json

    model = zero_model(4, 2, 2)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    del doc["parameters"]["u_forget"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="malformed"):
        load_model(path)


@pytest.mark.parametrize("parameters", [["w_input"], "w_input", 3])
def test_non_object_parameters_fail_cleanly(tmp_path, parameters):
    import json

    path = tmp_path / "model.json"
    save_model(zero_model(4, 2, 2), path)
    doc = json.loads(path.read_text())
    doc["parameters"] = parameters
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="malformed"):
        load_model(path)


def test_loaded_model_rejects_wrong_window(tmp_path):
    model = zero_model(4, 2, window=3)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    with pytest.raises(ValueError, match="expected window of 3"):
        forward(loaded, CurveWindow(random_curves(2, 4)))
