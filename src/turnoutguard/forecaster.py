"""Sequence-to-one LSTM forecaster for switch-operation power curves.

One curve is one timestep: the recurrence consumes a window of consecutive
curves (oldest first, each normalized per sample position) and a linear
readout of the final hidden state yields the next expected curve.  Training
is mean-squared error with full backpropagation through time and Adam
updates; everything is plain numpy, seeded and bit-reproducible.

Gate blocks are stored stacked side by side, columns ordered
``[input | forget | output | candidate]``, which keeps the hot path in a
few large matmuls.  The persisted weights file exposes the conventional
per-gate matrices.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .curvegen import OP_PERIOD_S, PowerCurve
from .dataio import INTEGER, CurveWindow, SupervisedPair, curves_digest, json_field

MODEL_FORMAT_VERSION = 1
GATES = ("input", "forget", "output", "candidate")
DTYPES = ("float32", "float64")

# chunk of pairs processed per pass; bounds memory, order is fixed so
# accumulated batch gradients stay bit-reproducible
_CHUNK = 256

# Adam moment decays and denominator guard, and the global gradient-norm clip
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
CLIP_NORM = 5.0

# positions whose spread is mere summation dust (std of N equal values can
# round to ~2e-16 * |mean|) count as constant and keep a unit scale
_SCALE_RTOL = 1e-9


class ModelFormatError(ValueError):
    """Weights file is corrupt, incomplete, or of an unsupported version."""


class TrainingDiverged(RuntimeError):
    """Non-finite values appeared during training."""


@dataclass
class TrainConfig:
    hidden: int = 64
    epochs: int = 100
    learning_rate: float = 1e-3
    seed: int = 0
    batch_size: int | None = None    # None: full-batch, one batch of all pairs
    dtype: str = "float64"           # "float32" roughly halves training time
    target_val_mse: float | None = None   # stop early once validation reaches this

    def __post_init__(self):
        """ValueError for a value training cannot run with or would run wrongly."""
        counts = {"hidden": self.hidden, "epochs": self.epochs, "batch_size": self.batch_size}
        for name, value in counts.items():
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {list(DTYPES)}, got {self.dtype!r}")
        if self.target_val_mse is not None and not self.target_val_mse >= 0.0:
            raise ValueError(f"target_val_mse must be >= 0, got {self.target_val_mse}")


@dataclass
class TrainReport:
    """Per-epoch losses, wall seconds and pre-clip gradient norms.

    An epoch's gradient norm is the largest of its batches' norms.
    """

    train_losses: list[float]
    val_losses: list[float]
    epoch_seconds: list[float]
    grad_norms: list[float]
    wall_seconds: float
    epochs_run: int

    def to_dict(self) -> dict:
        return {
            "train_losses": self.train_losses,
            "val_losses": self.val_losses,
            "epoch_seconds": self.epoch_seconds,
            "grad_norms": self.grad_norms,
            "wall_seconds": self.wall_seconds,
            "epochs_run": self.epochs_run,
        }


@dataclass
class ForecastModel:
    """Single-layer LSTM plus linear readout and normalization stats."""

    w_x: np.ndarray        # (length, 4*hidden) input weights, gate-stacked
    w_h: np.ndarray        # (hidden, 4*hidden) recurrent weights
    b: np.ndarray          # (4*hidden,) gate biases
    v_out: np.ndarray      # (length, hidden) readout
    b_out: np.ndarray      # (length,) readout bias
    norm_mean: np.ndarray  # (length,) per-position mean of the training data
    norm_scale: np.ndarray # (length,) per-position scale, > 0
    window: int            # curves per input sequence
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.norm_mean = np.asarray(self.norm_mean, dtype=np.float64)
        self.norm_scale = np.asarray(self.norm_scale, dtype=np.float64)
        if np.any(self.norm_scale <= 0.0):
            raise ValueError("normalization scale must be > 0")
        length, four_h = self.w_x.shape
        hidden = four_h // 4
        if self.w_h.shape != (hidden, four_h) or self.b.shape != (four_h,):
            raise ValueError("inconsistent gate parameter shapes")
        if self.v_out.shape != (length, hidden) or self.b_out.shape != (length,):
            raise ValueError("inconsistent readout shapes")
        if self.norm_mean.shape != (length,) or self.norm_scale.shape != (length,):
            raise ValueError("normalization stats do not match the curve length")

    @property
    def length(self) -> int:
        return self.w_x.shape[0]

    @property
    def hidden(self) -> int:
        return self.w_h.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {
            "w_x": self.w_x, "w_h": self.w_h, "b": self.b,
            "v_out": self.v_out, "b_out": self.b_out,
        }

    def _gate_slice(self, gate: str) -> slice:
        k = GATES.index(gate)
        return slice(k * self.hidden, (k + 1) * self.hidden)

    def gate_weights(self, gate: str) -> np.ndarray:
        """(hidden, length) input weight matrix of one gate."""
        return self.w_x[:, self._gate_slice(gate)].T

    def recurrent_weights(self, gate: str) -> np.ndarray:
        """(hidden, hidden) recurrent weight matrix of one gate."""
        return self.w_h[:, self._gate_slice(gate)].T

    def gate_bias(self, gate: str) -> np.ndarray:
        return self.b[self._gate_slice(gate)]

    def normalize(self, raw: np.ndarray) -> np.ndarray:
        return (raw - self.norm_mean) / self.norm_scale

    def denormalize(self, normed: np.ndarray) -> np.ndarray:
        return normed * self.norm_scale + self.norm_mean


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------

def mse(predicted, target) -> float:
    """Mean over the curve of squared pointwise differences."""
    a = predicted.samples if isinstance(predicted, PowerCurve) else np.asarray(predicted, dtype=np.float64)
    b = target.samples if isinstance(target, PowerCurve) else np.asarray(target, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"curve lengths differ: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.mean(d * d))


def _forward_seq(params: dict, x: np.ndarray, need_cache: bool = False):
    """Run the recurrence over x (batch, steps, length).

    Returns (readout, last_hidden, caches); caches hold per-step gate
    activations when requested (for backprop and for gate-range checks).
    Every step writes its results into buffers: inference reuses one set for
    all steps, while with ``need_cache`` each step gets fresh arrays that its
    cache entry keeps.  The gate pre-activations ``a`` are scratch either way.
    """
    batch, steps, length = x.shape
    w_h = params["w_h"]
    hidden = w_h.shape[0]
    a_x = x.reshape(batch * steps, length) @ params["w_x"]
    a_x += params["b"]
    a_x = a_x.reshape(batch, steps, 4 * hidden)

    def step_buffers():
        # gate-major (3, batch, hidden) for the input, forget and output
        # sigmoids, so each gate is a contiguous block, with its three gate
        # views; then g, c, tanh(c), h
        ifo = np.empty((3, batch, hidden), dtype=x.dtype)
        return (ifo, *ifo, *np.empty((4, batch, hidden), dtype=x.dtype))

    # an array operand costs less per call than a Python scalar
    ones = np.ones((3, batch, hidden), dtype=x.dtype)
    a = np.empty((batch, 4 * hidden), dtype=x.dtype)
    a_ifo = a[:, :3 * hidden].reshape(batch, 3, hidden).transpose(1, 0, 2)
    a_g = a[:, 3 * hidden:]
    h = np.zeros((batch, hidden), dtype=x.dtype)
    c = np.zeros((batch, hidden), dtype=x.dtype)
    reused = None if need_cache else step_buffers()
    caches = []
    # a saturated gate overflows exp() harmlessly: 1 / (1 + inf) is 0
    with np.errstate(over="ignore"):
        for a_x_t in a_x.transpose(1, 0, 2):
            ifo, i, f, o, g, c_new, tc, h_new = reused or step_buffers()
            np.matmul(h, w_h, out=a)
            np.add(a_x_t, a, out=a)
            # sigmoid 1 / (1 + exp(-a)) for three gates in one pass
            np.negative(a_ifo, out=ifo)
            np.exp(ifo, out=ifo)
            np.add(ones, ifo, out=ifo)
            np.divide(ones, ifo, out=ifo)
            np.tanh(a_g, out=g)
            # c_new = f * c + i * g, with i * g held in tc until tanh(c_new);
            # f * c reads c before c_new (c itself when reused) is written
            np.multiply(f, c, out=c_new)
            np.multiply(i, g, out=tc)
            np.add(c_new, tc, out=c_new)
            np.tanh(c_new, out=tc)
            np.multiply(o, tc, out=h_new)
            if need_cache:
                caches.append((i, f, o, g, c, tc, h))
            c, h = c_new, h_new
    y = h @ params["v_out"].T + params["b_out"]
    return y, h, caches


def _loss_and_grads(params: dict, x: np.ndarray, y_true: np.ndarray, scale: float):
    """Squared-error loss and gradients for one chunk.

    ``scale`` is 1 / (pairs in the batch * length); summing the batch's chunk
    contributions reproduces its mean loss and gradient.  Overflow is not
    trapped here; the train loop's finite checks abort a diverging run.
    """
    batch, steps, length = x.shape
    hidden = params["w_h"].shape[0]
    y, h_last, caches = _forward_seq(params, x, need_cache=True)
    diff = y - y_true
    loss = float(np.sum(diff * diff)) * scale

    d_y = (2.0 * scale) * diff
    grads = {
        "v_out": d_y.T @ h_last,
        "b_out": d_y.sum(axis=0),
        "w_h": np.zeros_like(params["w_h"]),
        "b": np.zeros_like(params["b"]),
    }
    dh = d_y @ params["v_out"]
    dc = np.zeros((batch, hidden), dtype=x.dtype)
    d_a = np.empty((batch, steps, 4 * hidden), dtype=x.dtype)
    for t in reversed(range(steps)):
        i, f, o, g, c_prev, tc, h_prev = caches[t]
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        da = d_a[:, t, :]
        da[:, :hidden] = dc * g * i * (1.0 - i)
        da[:, hidden:2 * hidden] = dc * c_prev * f * (1.0 - f)
        da[:, 2 * hidden:3 * hidden] = do * o * (1.0 - o)
        da[:, 3 * hidden:] = dc * i * (1.0 - g * g)
        grads["w_h"] += h_prev.T @ da
        grads["b"] += da.sum(axis=0)
        dh = da @ params["w_h"].T
        dc = dc * f
    grads["w_x"] = x.reshape(batch * steps, length).T @ d_a.reshape(batch * steps, 4 * hidden)
    # in parameter order, the order in which the clip sums the squares
    return loss, {k: grads[k] for k in params}


@dataclass
class AdamState:
    """Adam moments; update uses bias correction m/(1-BETA1^t), v/(1-BETA2^t)."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    learning_rate: float
    t: int = 0

    @classmethod
    def for_params(cls, params: dict, config: TrainConfig) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            learning_rate=config.learning_rate,
        )

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for k, p in params.items():
            g = grads[k]
            self.m[k] = BETA1 * self.m[k] + (1.0 - BETA1) * g
            self.v[k] = BETA2 * self.v[k] + (1.0 - BETA2) * (g * g)
            m_hat = self.m[k] / bc1
            v_hat = self.v[k] / bc2
            p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients down to a global norm of max_norm. Returns the norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return norm


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _init_params(length: int, hidden: int, rng: np.random.Generator, dtype) -> dict:
    bound = 1.0 / np.sqrt(hidden)
    params = {
        "w_x": rng.uniform(-bound, bound, size=(length, 4 * hidden)),
        "w_h": rng.uniform(-bound, bound, size=(hidden, 4 * hidden)),
        "b": np.zeros(4 * hidden),
        "v_out": rng.uniform(-bound, bound, size=(length, hidden)),
        "b_out": np.zeros(length),
    }
    params["b"][hidden:2 * hidden] = 1.0   # open forget gates at start
    return {k: v.astype(dtype) for k, v in params.items()}


def _index_pairs(pairs: list[SupervisedPair]):
    """Deduplicate the curves behind the pairs into an op-ordered list plus indices."""
    unique: dict[int, PowerCurve] = {}
    for pair in pairs:
        for curve in list(pair.window) + [pair.target]:
            unique.setdefault(curve.op_index, curve)
    curves = [unique[op] for op in sorted(unique)]
    lookup = {c.op_index: k for k, c in enumerate(curves)}
    win_idx = np.array(
        [[lookup[c.op_index] for c in pair.window] for pair in pairs], dtype=np.intp
    )
    tgt_idx = np.array([lookup[pair.target.op_index] for pair in pairs], dtype=np.intp)
    return curves, win_idx, tgt_idx


def _check_pairs(pairs: list[SupervisedPair]):
    if not pairs:
        raise ValueError("no training pairs")
    window = pairs[0].window.size
    length = len(pairs[0].target)
    for pair in pairs:
        if pair.window.size != window:
            raise ValueError("pairs mix window sizes")
        if len(pair.target) != length:
            raise ValueError("pairs mix curve lengths")
    return window, length


def _dataset_loss(params, matrix, win_idx, tgt_idx, length) -> float:
    total = 0.0
    n = win_idx.shape[0]
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        x = matrix[win_idx[lo:hi]]
        y, _, _ = _forward_seq(params, x)
        diff = y - matrix[tgt_idx[lo:hi]]
        total += float(np.sum(diff * diff))
    return total / (n * length)


def train(
    pairs: list[SupervisedPair],
    config: TrainConfig | None = None,
    val_pairs: list[SupervisedPair] | None = None,
) -> tuple[ForecastModel, TrainReport]:
    """Fit the forecaster on supervised pairs.

    Deterministic for a fixed seed: fixed initialization, fixed chunk and
    batch order, no shuffling.  Each consecutive batch of ``batch_size``
    pairs (all pairs with ``batch_size=None``) accumulates its gradient over
    chunks of at most ``_CHUNK`` pairs, in fixed order, and then takes one
    clipped Adam step.  When no validation pairs are given the reported
    validation losses repeat the training losses.
    """
    config = config or TrainConfig()
    window, length = _check_pairs(pairs)
    dtype = np.dtype(config.dtype)
    t0 = time.perf_counter()

    curves, win_idx, tgt_idx = _index_pairs(pairs)
    raw = np.stack([c.samples for c in curves])
    norm_mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    tol = _SCALE_RTOL * np.maximum(np.abs(norm_mean), 1.0)
    norm_scale = np.where(std <= tol, 1.0, std)
    matrix = ((raw - norm_mean) / norm_scale).astype(dtype)

    val_set = None
    if val_pairs is not None:
        v_window, v_length = _check_pairs(val_pairs)
        if (v_window, v_length) != (window, length):
            raise ValueError("validation pairs do not match training dimensions")
        v_curves, v_win, v_tgt = _index_pairs(val_pairs)
        v_raw = np.stack([c.samples for c in v_curves])
        val_set = (((v_raw - norm_mean) / norm_scale).astype(dtype), v_win, v_tgt)

    rng = np.random.default_rng(config.seed)
    params = _init_params(length, config.hidden, rng, dtype)
    adam = AdamState.for_params(params, config)

    n = len(pairs)
    batch = config.batch_size or n

    train_losses: list[float] = []
    val_losses: list[float] = []
    epoch_seconds: list[float] = []
    grad_norms: list[float] = []
    # saturated gates overflow exp() harmlessly, and a diverging run would
    # flood the log with numpy warnings before the finite checks abort it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            t_epoch = time.perf_counter()
            loss = norm = 0.0
            for start in range(0, n, batch):
                stop = min(start + batch, n)
                scale = 1.0 / ((stop - start) * length)
                acc = None
                for lo in range(start, stop, _CHUNK):
                    hi = min(lo + _CHUNK, stop)
                    part, grads = _loss_and_grads(
                        params, matrix[win_idx[lo:hi]], matrix[tgt_idx[lo:hi]], scale
                    )
                    loss += part * ((stop - start) / n)
                    if acc is None:
                        acc = grads
                    else:
                        for k in acc:
                            acc[k] += grads[k]
                norm = max(norm, clip_gradients(acc, CLIP_NORM))
                adam.step(params, acc)

            if not np.isfinite(loss):
                raise TrainingDiverged(f"epoch {epoch}: training loss is not finite")
            for k, p in params.items():
                if not np.all(np.isfinite(p)):
                    raise TrainingDiverged(f"epoch {epoch}: non-finite values in {k}")

            train_losses.append(loss)
            if val_set is not None:
                val_losses.append(_dataset_loss(params, *val_set, length))
            else:
                val_losses.append(loss)
            grad_norms.append(norm)
            epoch_seconds.append(time.perf_counter() - t_epoch)
            if config.target_val_mse is not None and val_losses[-1] < config.target_val_mse:
                break

    model = ForecastModel(
        **params,
        norm_mean=norm_mean,
        norm_scale=norm_scale,
        window=window,
        meta={
            "format_version": MODEL_FORMAT_VERSION,
            "window": window,
            "length": length,
            "hidden": config.hidden,
            "seed": config.seed,
            "epochs": len(train_losses),
            "dtype": config.dtype,
            "input_order": "oldest_first",
            "training_pairs": n,
            "corpus_sha256": curves_digest(curves),
        },
    )
    if val_set is not None:
        model.meta["validation_sha256"] = curves_digest(v_curves)
    report = TrainReport(
        train_losses=train_losses,
        val_losses=val_losses,
        epoch_seconds=epoch_seconds,
        grad_norms=grad_norms,
        wall_seconds=time.perf_counter() - t0,
        epochs_run=len(train_losses),
    )
    return model, report


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def forward_samples(model: ForecastModel, window_matrix: np.ndarray) -> np.ndarray:
    """Predict the next curve (raw watts) from a (window, length) matrix."""
    x = np.asarray(window_matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape != (model.window, model.length):
        raise ValueError(
            f"expected a window of {model.window} curves of {model.length} "
            f"samples, got array of shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite value in forecaster input")
    dtype = np.dtype(model.meta.get("dtype", "float64"))
    normed = model.normalize(x).astype(dtype)[np.newaxis]
    y, _, _ = _forward_seq(model.params(), normed)
    return model.denormalize(y[0].astype(np.float64))


def forward(model: ForecastModel, window: CurveWindow) -> PowerCurve:
    """Predict the curve expected at the operation after the window.

    The readout is clipped at 0 W so the prediction is itself a valid
    power curve.
    """
    if window.size != model.window:
        raise ValueError(
            f"expected window of {model.window} curves, got {window.size}"
        )
    samples = np.clip(forward_samples(model, window.as_matrix()), 0.0, None)
    return PowerCurve(
        samples=samples,
        op_index=window.last.op_index + 1,
        timestamp=window.last.timestamp + OP_PERIOD_S,
    )


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

def gradient_check(
    model: ForecastModel,
    pair: SupervisedPair,
    step: float = 1e-5,
    tolerance: float | None = None,
) -> float:
    """Compare analytic BPTT gradients with central finite differences.

    Runs in float64 over every parameter element and returns the maximum
    relative error |g_a - g_n| / max(|g_a|, |g_n|, 1e-8).  Intended for
    small models; cost grows with the parameter count times the forward
    cost.  When ``tolerance`` is given, a failure raises AssertionError.
    """
    params = {k: p.astype(np.float64).copy() for k, p in model.params().items()}
    x = model.normalize(pair.window.as_matrix())[np.newaxis]
    y_true = model.normalize(pair.target.samples)[np.newaxis]
    scale = 1.0 / y_true.size

    _, analytic = _loss_and_grads(params, x, y_true, scale)

    def loss_at() -> float:
        y, _, _ = _forward_seq(params, x)
        d = y - y_true
        return float(np.sum(d * d)) * scale

    worst = 0.0
    for name, p in params.items():
        flat = p.ravel()
        g_a = analytic[name].ravel()
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + step
            up = loss_at()
            flat[idx] = keep - step
            down = loss_at()
            flat[idx] = keep
            g_n = (up - down) / (2.0 * step)
            rel = abs(g_a[idx] - g_n) / max(abs(g_a[idx]), abs(g_n), 1e-8)
            worst = max(worst, rel)
    if tolerance is not None and worst > tolerance:
        raise AssertionError(f"gradient check failed: max relative error {worst:.3e}")
    return worst


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_model(model: ForecastModel, path):
    """Write a versioned JSON weights file (full-precision decimal floats)."""
    blocks = {}
    for gate in GATES:
        blocks[f"w_{gate}"] = model.gate_weights(gate)
        blocks[f"u_{gate}"] = model.recurrent_weights(gate)
        blocks[f"b_{gate}"] = model.gate_bias(gate)
    blocks["v_out"] = model.v_out
    blocks["b_out"] = model.b_out
    hyper = {
        "window": model.window,
        "length": model.length,
        "hidden": model.hidden,
        "dtype": model.meta.get("dtype", str(model.w_x.dtype)),
    }
    for key in ("seed", "epochs", "training_pairs", "corpus_sha256", "validation_sha256"):
        if key in model.meta:
            hyper[key] = model.meta[key]
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "hyper": hyper,
        "input_order": "oldest_first",
        "normalization": {
            "mean": model.norm_mean.tolist(),
            "scale": model.norm_scale.tolist(),
        },
        "parameters": {
            name: {"shape": list(arr.shape), "data": np.asarray(arr, dtype=np.float64).ravel().tolist()}
            for name, arr in blocks.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path) -> ForecastModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not a valid weights file: {exc.msg}") from exc
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ModelFormatError("not a weights file (missing format_version)")
    if doc["format_version"] != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported weights format version {doc['format_version']} "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    try:
        hyper = doc["hyper"]
        window, length, hidden = (json_field(hyper[k], INTEGER, f"hyper.{k}")
                                   for k in ("window", "length", "hidden"))
        dtype = hyper.get("dtype", "float64")
        if dtype not in DTYPES:
            raise ValueError(f"hyper.dtype must be one of {list(DTYPES)}, got {dtype!r}")
        norm = doc["normalization"]
        raw = {
            name: np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
            for name, entry in doc["parameters"].items()
        }
        w_x = np.empty((length, 4 * hidden))
        w_h = np.empty((hidden, 4 * hidden))
        b = np.empty(4 * hidden)
        for k, gate in enumerate(GATES):
            sl = slice(k * hidden, (k + 1) * hidden)
            w_x[:, sl] = raw[f"w_{gate}"].T
            w_h[:, sl] = raw[f"u_{gate}"].T
            b[sl] = raw[f"b_{gate}"]
        model = ForecastModel(
            w_x=w_x.astype(dtype),
            w_h=w_h.astype(dtype),
            b=b.astype(dtype),
            v_out=raw["v_out"].astype(dtype),
            b_out=raw["b_out"].astype(dtype),
            norm_mean=np.asarray(norm["mean"], dtype=np.float64),
            norm_scale=np.asarray(norm["scale"], dtype=np.float64),
            window=window,
            meta={"format_version": MODEL_FORMAT_VERSION, **hyper,
                  "input_order": doc.get("input_order", "oldest_first")},
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed weights file: {exc}") from exc
    return model
