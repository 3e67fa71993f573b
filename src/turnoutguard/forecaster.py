"""Sequence-to-one LSTM forecaster for switch-operation power curves.

One curve is one timestep: the recurrence consumes a window of consecutive
curves (oldest first, each normalized per sample position) and a linear
readout of the final hidden state yields the next expected curve.  Training
is mean-squared error with full backpropagation through time and Adam
updates; everything is plain numpy, seeded and bit-reproducible.

Gate blocks are stored stacked side by side, which keeps the hot path in a
few large matmuls; the persisted weights file exposes the conventional
per-gate matrices, and only ``save_model`` and ``load_model`` know the
order of the gates.

A forecast reuses the work of the one before it: the caller's
``ForecastSession`` keeps the states of every suffix of its latest window of
curves, so the window shifted by one curve costs one step of the recurrence
instead of a whole run, and rounds to the bytes of that run.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .curvegen import OP_PERIOD_S, PowerCurve
from .dataio import (OBJECT, CurveWindow, Dataset, curves_digest, json_field, json_integer,
                     json_numbers, json_sha256, read_document, short_repr, write_document)

MODEL_FORMAT_VERSION = 1
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


# provenance a model carries in ``meta`` and its weights file in ``hyper``,
# each with the least integer it may hold, or None for a sha256 digest
META_KEYS = {"seed": 0, "epochs": 1, "training_pairs": 1,
             "corpus_sha256": None, "validation_sha256": None}


@dataclass(frozen=True)
class ForecastModel:
    """Single-layer LSTM plus linear readout and normalization stats.

    Immutable: no field can be reassigned and the seven arrays are
    read-only.  The five weight arrays are stored row-major, so a forecast
    does not depend on the layout they were given in.  The forecasts run in
    the dtype of the weight arrays, and ``meta`` records provenance only
    (the keys of ``META_KEYS``).
    """

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
        for name in ("norm_mean", "norm_scale"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        for name in self.params():
            object.__setattr__(self, name, np.ascontiguousarray(getattr(self, name)))
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
        params = self.params().values()
        if self.w_x.dtype.name not in DTYPES or any(p.dtype != self.w_x.dtype for p in params):
            raise ValueError(f"parameters must share one dtype of {list(DTYPES)}")
        for array in (*params, self.norm_mean, self.norm_scale):
            array.flags.writeable = False

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

    def normalize(self, raw: np.ndarray) -> np.ndarray:
        return (raw - self.norm_mean) / self.norm_scale

    def denormalize(self, normed: np.ndarray) -> np.ndarray:
        return normed * self.norm_scale + self.norm_mean


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------

class _Chunk(NamedTuple):
    """Up to ``_CHUNK`` consecutive pairs, as views of the normalized curves.

    Window k is rows k ... k + steps - 1 and ``target`` row k the curve
    after it, so each curve of the windows is stored once.
    """

    rows: np.ndarray
    steps: int
    target: np.ndarray


def _chunks(matrix: np.ndarray, steps: int, start: int, stop: int) -> list[_Chunk]:
    """Pairs ``start`` ... ``stop - 1`` of the consecutive curves ``matrix``,
    in order, as chunks of at most ``_CHUNK``."""
    chunks = []
    for lo in range(start, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        chunks.append(_Chunk(matrix[lo:hi + steps - 1], steps, matrix[lo + steps:hi + steps]))
    return chunks


# per step and pair, the BPTT workspace keeps the gates i, f, o, g, then c, h
_KEPT = 6


def _workspace(steps: int, batch: int, hidden: int, dtype) -> np.ndarray:
    """Flat buffer for the step values of a chunk of up to ``batch`` pairs."""
    return np.empty(steps * _KEPT * batch * hidden, dtype=dtype)


def _step_views(kept: np.ndarray) -> tuple:
    """(ifo, i, f, o, g, c, h) of one step's (6, batch, hidden) values.

    Gate-major, so the three sigmoid gates ifo are one contiguous block.
    """
    return (kept[:3], *kept)


def _cell(a: np.ndarray, c: np.ndarray, kept: np.ndarray, tc: np.ndarray,
          ones: np.ndarray):
    """One LSTM step from the pre-activations ``a`` (batch, 4*hidden) and
    the cell state ``c`` (batch, hidden).

    Writes the gates i, f, o, g, the new cell state and the new hidden state
    into ``kept``, (6, batch, hidden) in the layout of ``_step_views``, and
    returns (c, h) as views of it; ``c`` may be kept's own c.  ``tc`` is
    scratch and ``ones`` is (3, batch, hidden) of ones.  Every recurrence
    steps through here, so all of them round alike.
    """
    ifo, i, f, o, g, c_new, h_new = _step_views(kept)
    hidden = c.shape[1]
    a_ifo = a[:, :3 * hidden].reshape(len(a), 3, hidden).transpose(1, 0, 2)
    # sigmoid 1 / (1 + exp(-a)) for three gates in one pass
    np.negative(a_ifo, out=ifo)
    np.exp(ifo, out=ifo)
    np.add(ones, ifo, out=ifo)
    np.divide(ones, ifo, out=ifo)
    np.tanh(a[:, 3 * hidden:], out=g)
    # c_new = f * c + i * g, with i * g held in tc until tanh(c_new);
    # f * c reads c before c_new (c itself when reused) is written
    np.multiply(f, c, out=c_new)
    np.multiply(i, g, out=tc)
    np.add(c_new, tc, out=c_new)
    np.tanh(c_new, out=tc)
    np.multiply(o, tc, out=h_new)
    return c_new, h_new


def _forward_seq(params: dict, rows: np.ndarray, steps: int,
                 cache: np.ndarray | None = None):
    """Run the recurrence over every window of ``steps`` consecutive curves.

    Window k is rows k ... k + steps - 1 of ``rows`` (curves, length), so
    each curve is projected by ``w_x`` once however many windows share it,
    and step t reads its pre-activations as a view of consecutive projected
    rows, not a gather.  Returns (readout, last_hidden).  With ``cache``, a
    (steps, 6, batch, hidden) view of a BPTT workspace, step t writes its
    gates i, f, o, g, its cell state c and its hidden state h into
    ``cache[t]`` for backprop; otherwise every step reuses one set of
    buffers.  The gate pre-activations ``a`` and tanh(c) are scratch either
    way.
    """
    dtype = rows.dtype
    w_h = params["w_h"]
    hidden = w_h.shape[0]
    proj = rows @ params["w_x"]
    proj += params["b"]
    batch = len(rows) - steps + 1
    row, item = proj.strides
    a_x = as_strided(proj, (steps, batch, 4 * hidden), (row, row, item), writeable=False)

    # an array operand costs less per call than a Python scalar
    ones = np.ones((3, batch, hidden), dtype=dtype)
    a = np.empty((batch, 4 * hidden), dtype=dtype)
    tc = np.empty((batch, hidden), dtype=dtype)
    h = np.zeros((batch, hidden), dtype=dtype)
    c = np.zeros((batch, hidden), dtype=dtype)
    reused = np.empty((_KEPT, batch, hidden), dtype=dtype) if cache is None else None
    # a saturated gate overflows exp() harmlessly: 1 / (1 + inf) is 0
    with np.errstate(over="ignore"):
        for t, a_x_t in enumerate(a_x):
            np.matmul(h, w_h, out=a)
            np.add(a_x_t, a, out=a)
            c, h = _cell(a, c, cache[t] if reused is None else reused, tc, ones)
    y = h @ params["v_out"].T + params["b_out"]
    return y, h


def _loss_and_grads(params: dict, chunk: _Chunk, scale: float,
                    workspace: np.ndarray | None = None):
    """Squared-error loss and gradients for one chunk.

    ``scale`` is 1 / (pairs in the batch * length); summing the batch's chunk
    contributions reproduces its mean loss and gradient.  The step values go
    into ``workspace`` (from ``_workspace``, for at least this many pairs;
    a fresh one when None), and the backward pass recomputes tanh(c) from
    the kept c.  Overflow is not trapped here; the train loop's finite
    checks abort a diverging run.
    """
    rows, steps, y_true = chunk
    batch = len(y_true)
    w_h = params["w_h"]
    hidden = w_h.shape[0]
    dtype = rows.dtype
    if workspace is None:
        workspace = _workspace(steps, batch, hidden, dtype)
    cache = workspace[:steps * _KEPT * batch * hidden].reshape(steps, _KEPT, batch, hidden)
    y, h_last = _forward_seq(params, rows, steps, cache)
    diff = y - y_true
    loss = float(np.sum(diff * diff)) * scale

    d_y = (2.0 * scale) * diff
    grads = {
        "v_out": d_y.T @ h_last,
        "b_out": d_y.sum(axis=0),
        "w_h": np.zeros_like(w_h),
        "b": np.zeros_like(params["b"]),
    }
    dh = d_y @ params["v_out"]
    dc = np.zeros((batch, hidden), dtype=dtype)
    zero = np.zeros((batch, hidden), dtype=dtype)   # c and h before step 0
    ones = np.ones((3, batch, hidden), dtype=dtype)
    one_minus = np.empty((3, batch, hidden), dtype=dtype)
    tc = np.empty((batch, hidden), dtype=dtype)
    # the gates' gradients, gate-major like the cache, so the elementwise
    # work runs on contiguous blocks; each step copies them once into da,
    # the (batch, 4*hidden) layout the matmuls read
    da_gates = np.empty((4, batch, hidden), dtype=dtype)
    da_ifo, (da_i, da_f, da_o, da_g) = da_gates[:3], da_gates
    da = np.empty((batch, 4 * hidden), dtype=dtype)
    da_by_gate = da.reshape(batch, 4, hidden).transpose(1, 0, 2)
    d_w_h = np.empty_like(w_h)
    # gradient of each curve's projection, summed over the windows and
    # positions that hold it: position t of window k is row t + k
    d_rows = np.zeros((len(rows), 4 * hidden), dtype=dtype)
    for t in reversed(range(steps)):
        ifo, i, f, o, g, c, _ = _step_views(cache[t])
        c_prev, h_prev = cache[t - 1, 4:] if t else (zero, zero)
        # each gradient is multiplied left to right as it is written here,
        # so it rounds the same whatever buffer holds it:
        # do = dh * tanh(c), dc += dh * o * (1 - tanh(c)^2),
        # da_i = dc * g * i * (1 - i), da_f = dc * c_prev * f * (1 - f),
        # da_o = do * o * (1 - o), da_g = dc * i * (1 - g^2)
        np.tanh(c, out=tc)
        np.multiply(dh, tc, out=da_o)
        np.multiply(tc, tc, out=tc)
        np.subtract(ones[0], tc, out=tc)
        np.multiply(dh, o, out=dh)   # dh is scratch until the step's last line
        np.multiply(dh, tc, out=dh)
        np.add(dc, dh, out=dc)
        np.multiply(dc, g, out=da_i)
        np.multiply(dc, c_prev, out=da_f)
        np.multiply(da_ifo, ifo, out=da_ifo)
        np.subtract(ones, ifo, out=one_minus)
        np.multiply(da_ifo, one_minus, out=da_ifo)
        np.multiply(g, g, out=tc)
        np.subtract(ones[0], tc, out=tc)
        np.multiply(dc, i, out=da_g)
        np.multiply(da_g, tc, out=da_g)
        np.copyto(da_by_gate, da_gates)
        np.matmul(h_prev.T, da, out=d_w_h)
        grads["w_h"] += d_w_h
        grads["b"] += da.sum(axis=0)
        d_rows[t:t + batch] += da
        np.matmul(da, w_h.T, out=dh)
        np.multiply(dc, f, out=dc)
    grads["w_x"] = rows.T @ d_rows
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
            g, m, v = grads[k], self.m[k], self.v[k]
            # in place, in the order of m = BETA1 * m + (1 - BETA1) * g
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + EPS)


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


def _dataset_loss(params, chunks: list[_Chunk]) -> float:
    total = 0.0
    for chunk in chunks:
        y, _ = _forward_seq(params, chunk.rows, chunk.steps)
        diff = y - chunk.target
        total += float(np.sum(diff * diff))
    return total / sum(chunk.target.size for chunk in chunks)


def train(
    pairs: Dataset,
    config: TrainConfig | None = None,
    val_pairs: Dataset | None = None,
) -> tuple[ForecastModel, TrainReport]:
    """Fit the forecaster on the pairs of one run of curves.

    Deterministic for a fixed seed: fixed initialization, fixed chunk and
    batch order, no shuffling.  Each consecutive batch of ``batch_size``
    pairs (all pairs with ``batch_size=None``) accumulates its gradient over
    chunks of at most ``_CHUNK`` pairs, in fixed order, and then takes one
    clipped Adam step.  When no validation pairs are given the reported
    validation losses repeat the training losses.  ValueError naming the op
    and sample position of a training sample so large that the per-position
    normalization statistics overflow or that its normalized value is not
    finite in the training dtype, or of a validation sample whose
    normalized value, or its square, is not finite in the training dtype.
    """
    config = config or TrainConfig()
    dtype = np.dtype(config.dtype)
    t0 = time.perf_counter()

    raw = pairs.as_matrix()
    window, length = pairs.window, raw.shape[1]
    # samples near the float maximum overflow the sums; refused below
    with np.errstate(over="ignore"):
        norm_mean = raw.mean(axis=0)
        std = raw.std(axis=0)
    overflow = ~(np.isfinite(norm_mean) & np.isfinite(std))
    if overflow.any():
        k = int(np.argmax(overflow))
        worst = int(np.argmax(np.abs(raw[:, k])))
        raise ValueError(f"sample {k} of training op {pairs.curves[worst].op_index} "
                         f"({float(raw[worst, k])!r} W) overflows the normalization statistics")
    tol = _SCALE_RTOL * np.maximum(np.abs(norm_mean), 1.0)
    norm_scale = np.where(std <= tol, 1.0, std)
    # where a huge mean's spread is too small to scale by, the unit scale
    # leaves a rounding residual that can overflow the cast; refused below
    with np.errstate(over="ignore"):
        matrix = ((raw - norm_mean) / norm_scale).astype(dtype)
    too_large = ~np.isfinite(matrix)
    if too_large.any():
        row, k = (int(x) for x in np.argwhere(too_large)[0])
        raise ValueError(f"sample {k} of training op {pairs.curves[row].op_index} "
                         f"({float(raw[row, k])!r} W) is too large: its normalized value "
                         f"overflows {dtype}")
    del raw   # every epoch reads the normalized copy only

    val_set = None
    if val_pairs is not None:
        if (val_pairs.window, len(val_pairs.curves[0])) != (window, length):
            raise ValueError("validation pairs do not match training dimensions")
        v_raw = val_pairs.as_matrix()
        # a sample far outside the training spread overflows the cast or the
        # validation loss's square; refused below
        with np.errstate(over="ignore"):
            v_matrix = ((v_raw - norm_mean) / norm_scale).astype(dtype)
            too_large = ~np.isfinite(v_matrix * v_matrix)
        if too_large.any():
            row, k = (int(x) for x in np.argwhere(too_large)[0])
            raise ValueError(f"sample {k} of validation op {val_pairs.curves[row].op_index} "
                             f"({float(v_raw[row, k])!r} W) is too large: its normalized square "
                             f"overflows {dtype}")
        val_set = _chunks(v_matrix, window, 0, len(val_pairs))

    rng = np.random.default_rng(config.seed)
    params = _init_params(length, config.hidden, rng, dtype)
    adam = AdamState.for_params(params, config)

    n = len(pairs)
    batch = config.batch_size or n
    # (pairs, chunks) of each batch, built once for every epoch
    batches = [(min(batch, n - start), _chunks(matrix, window, start, min(start + batch, n)))
               for start in range(0, n, batch)]
    # one BPTT workspace for every chunk, sized for the largest
    workspace = _workspace(window, min(batch, n, _CHUNK), config.hidden, dtype)

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
            for size, chunks in batches:
                scale = 1.0 / (size * length)
                acc = None
                for chunk in chunks:
                    part, grads = _loss_and_grads(params, chunk, scale, workspace)
                    loss += part * (size / n)
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
                val_losses.append(_dataset_loss(params, val_set))
                # finite weights can still forecast past the float maximum
                if not np.isfinite(val_losses[-1]):
                    raise TrainingDiverged(f"epoch {epoch}: validation loss is not finite")
            else:
                val_losses.append(loss)
            grad_norms.append(norm)
            epoch_seconds.append(time.perf_counter() - t_epoch)
            if config.target_val_mse is not None and val_losses[-1] < config.target_val_mse:
                break

    provenance = [config.seed, len(train_losses), n, curves_digest(pairs.curves)]
    if val_set is not None:
        provenance.append(curves_digest(val_pairs.curves))
    model = ForecastModel(
        **params,
        norm_mean=norm_mean,
        norm_scale=norm_scale,
        window=window,
        meta=dict(zip(META_KEYS, provenance)),
    )
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

class ForecastSession:
    """One caller's latest window of curves and its forecast on a model, with
    the LSTM states of every suffix sequence of that window.

    Sequence j started at curve j of the window and has consumed curves
    j ... w - 1, so sequence 0 has consumed the whole window and gives the
    forecast.  Sequence j lives in slot (start + j) % w of buffers allocated
    here, so a shift by one curve moves no state.  Every sequence steps with
    one gemv of its own hidden state, as the recurrence of one window does,
    and rounds exactly as that would.  ``advance`` is the only step: w of
    them over a window's curves rebuild every suffix state from whatever the
    slots held before, as each slot is zeroed just before its first curve.
    """

    def __init__(self, model: ForecastModel):
        window, hidden, dtype = model.window, model.hidden, model.w_x.dtype
        self.model = model
        self.latest, self.forecast = (), None   # the latest window's curves and forecast
        self.curve = None   # the curve ``forward`` built from that forecast
        self.kept = np.zeros((_KEPT, window, hidden), dtype=dtype)   # i, f, o, g, c, h per slot
        self.a = np.empty((window, 4 * hidden), dtype=dtype)
        self.tc = np.empty((window, hidden), dtype=dtype)
        self.ones = np.ones((3, window, hidden), dtype=dtype)
        self.start = 0   # the slot of sequence 0

    def advance(self, a_x: np.ndarray) -> np.ndarray:
        """Shift the window by one curve whose projected row is ``a_x``: the
        slot of the old sequence 0 starts the new sequence w - 1 from zero
        state, and one step feeds the row to all w sequences.  Returns the
        (1, hidden) state of the new sequence 0.
        """
        kept, a = self.kept, self.a
        kept[4:, self.start] = 0.0
        np.matmul(kept[5][:, None], self.model.w_h, out=a[:, None])
        np.add(a_x, a, out=a)
        _cell(a, kept[4], kept, self.tc, self.ones)
        self.start = (self.start + 1) % len(a)
        return kept[5, self.start:self.start + 1]


def _same(curves: tuple, others: tuple) -> bool:
    """Whether the two runs of curves are the same objects, in the same order."""
    return len(curves) == len(others) and all(map(operator.is_, curves, others))


def forward_samples(session: ForecastSession, curves) -> np.ndarray:
    """Predict the next curve (raw watts) from a window of curves, oldest first.

    A curve never changes, so the session keys its forecast on the curve
    objects: the latest window's own curves (a window frozen by rejections)
    get a copy of its forecast; the latest window shifted by one curve costs
    one advance of the recurrence; any other window, even of equal curves in
    new objects, rebuilds the suffix states in w advances.  Each path gives
    the bytes a fresh session gives.
    """
    model = session.model
    curves, latest = tuple(curves), session.latest
    if not _same(curves, latest):
        params = model.params()
        shifted = bool(latest) and _same(curves[:-1], latest[1:])
        # the latest window shifted by one curve projects only its new curve,
        # as the last row of a two-row product: that row rounds as it does in
        # the whole window's product, and a one-row product takes numpy's
        # vector path, which may round otherwise.  Curves shared with the
        # latest window were checked with it
        new = curves[-2:] if shifted else curves
        if len(curves) != model.window or any(len(c) != model.length for c in new):
            raise ValueError(f"expected a window of {model.window} curves of {model.length} "
                             f"samples, got {len(curves)} curves of "
                             f"{sorted({len(c) for c in curves})} samples")
        with np.errstate(over="ignore", invalid="ignore"):
            normed = model.normalize(np.stack([c.samples for c in new])).astype(model.w_x.dtype)
        if not np.all(np.isfinite(normed)):
            raise ValueError(f"a normalized sample of the window overflows {model.w_x.dtype}")
        proj = normed @ params["w_x"]
        if shifted:
            proj = proj[-1:]
        proj += params["b"]
        session.latest, session.curve = (), None   # rebuilt unless this call completes
        # a saturated gate overflows exp() harmlessly: 1 / (1 + inf) is 0
        with np.errstate(over="ignore"):
            for a_x in proj:
                h = session.advance(a_x)
        y = h @ params["v_out"].T + params["b_out"]
        session.latest, session.forecast = curves, model.denormalize(y[0].astype(np.float64))
    return session.forecast.copy()


def forward(session: ForecastSession, window: CurveWindow) -> PowerCurve:
    """Predict the curve expected at the operation after the window.

    The readout is clipped at 0 W so the prediction is itself a valid
    power curve.  The session's latest window (one frozen by rejections)
    gets the curve built for it before: the same object, with whatever was
    derived from it, such as its features.
    """
    samples = forward_samples(session, window.curves)
    if session.curve is None:
        last = window.last
        session.curve = PowerCurve(np.clip(samples, 0.0, None), last.op_index + 1,
                                   last.timestamp + OP_PERIOD_S)
    return session.curve


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

# the gate blocks side by side in w_x, w_h and b, and by name in a weights file
GATES = ("input", "forget", "output", "candidate")


def save_model(model: ForecastModel, path):
    """Write a versioned JSON weights file (full-precision decimal floats)."""
    blocks = {}
    per_gate = zip(GATES, np.hsplit(model.w_x, 4), np.hsplit(model.w_h, 4), np.split(model.b, 4))
    for gate, w, u, b in per_gate:
        blocks |= {f"w_{gate}": w.T, f"u_{gate}": u.T, f"b_{gate}": b}
    blocks["v_out"] = model.v_out
    blocks["b_out"] = model.b_out
    hyper = {
        "window": model.window,
        "length": model.length,
        "hidden": model.hidden,
        "dtype": model.w_x.dtype.name,
    }
    hyper.update((key, model.meta[key]) for key in META_KEYS if key in model.meta)
    write_document(path, MODEL_FORMAT_VERSION, {
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
    })


def load_model(path) -> ForecastModel:
    """The model ``save_model`` wrote to ``path``.

    dataio.FormatError naming the key of any value it would not write: a
    wrong JSON type, a non-finite number, a count below 1, a digest that is
    not 64 lowercase hex digits, a block of another shape or a normalization
    mean or scale that ``train`` never writes.
    """
    return read_document(path, "weights file", MODEL_FORMAT_VERSION, _model)


def _model(doc: dict) -> ForecastModel:
    hyper = json_field(doc["hyper"], OBJECT, "hyper")
    window, length, hidden = (json_integer(hyper[key], f"hyper.{key}", 1)
                              for key in ("window", "length", "hidden"))
    dtype = hyper.get("dtype", "float64")
    if dtype not in DTYPES:
        raise ValueError(f"hyper.dtype must be one of {list(DTYPES)}, got {short_repr(dtype)}")
    if doc["input_order"] != "oldest_first":
        raise ValueError(f"input_order must be 'oldest_first', "
                         f"got {short_repr(doc['input_order'])}")
    meta = {key: json_sha256(hyper[key], f"hyper.{key}") if least is None
            else json_integer(hyper[key], f"hyper.{key}", least)
            for key, least in META_KEYS.items() if key in hyper}
    shapes = {}
    for gate in GATES:
        shapes |= {f"w_{gate}": [hidden, length], f"u_{gate}": [hidden, hidden],
                   f"b_{gate}": [hidden]}
    shapes |= {"v_out": [length, hidden], "b_out": [length]}
    parameters = json_field(doc["parameters"], OBJECT, "parameters")
    blocks = {}
    # each block exactly as saved, so none can broadcast
    for name, shape in shapes.items():
        entry = json_field(parameters[name], OBJECT, f"parameters.{name}")
        if entry["shape"] != shape or not all(type(n) is int for n in entry["shape"]):
            raise ValueError(f"parameters.{name} has shape {short_repr(entry['shape'])}, "
                             f"expected {shape}")
        data = json_numbers(entry["data"], f"parameters.{name}")
        if data.size != math.prod(shape):
            raise ValueError(f"parameters.{name} holds {data.size} numbers, "
                             f"expected {math.prod(shape)}")
        if np.any(np.abs(data) > np.finfo(dtype).max):   # the cast would overflow
            raise ValueError(f"parameters.{name} holds a number beyond the {dtype} range")
        blocks[name] = data.reshape(shape).astype(dtype)
    w, u, b = (np.concatenate([blocks[f"{key}_{gate}"] for gate in GATES]) for key in "wub")
    norm = json_field(doc["normalization"], OBJECT, "normalization")
    model = ForecastModel(
        w_x=w.T,
        w_h=u.T,
        b=b,
        v_out=blocks["v_out"],
        b_out=blocks["b_out"],
        norm_mean=json_numbers(norm["mean"], "normalization.mean"),
        norm_scale=json_numbers(norm["scale"], "normalization.scale"),
        window=window,
        meta=meta,
    )
    k = int(np.argmax(model.norm_mean < 0.0))   # train means samples, never negative
    if model.norm_mean[k] < 0.0:
        raise ValueError(f"normalization.mean holds {float(model.norm_mean[k])!r} at position "
                         f"{k}, a negative mean, which train never writes")
    # train writes the spread where it is above this floor, and 1.0 elsewhere
    floor = _SCALE_RTOL * np.maximum(model.norm_mean, 1.0)
    low = (model.norm_scale <= floor) & (model.norm_scale != 1.0)
    if low.any():
        k = int(np.argmax(low))
        raise ValueError(f"normalization.scale holds {float(model.norm_scale[k])!r} at position "
                         f"{k}, at or below {float(floor[k])!r}, set by normalization.mean "
                         f"{float(model.norm_mean[k])!r} there, which train never writes")
    return model
