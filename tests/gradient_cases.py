"""Gradient checks of the forecaster's BPTT, and random small instances for them.

Shared by the forecaster tests and the acceptance suite, so that neither
imports the other's test module.
"""

import math

import numpy as np

from turnoutguard.curvegen import PowerCurve
from turnoutguard.dataio import Dataset, make_dataset
from turnoutguard.forecaster import (ForecastModel, ForecastSession, _Chunk, _dataset_loss,
                                     _init_params, _loss_and_grads, forward_samples)


def gradient_check(
    model: ForecastModel,
    dataset: Dataset,
    step: float = 1e-5,
    tolerance: float | None = None,
) -> float:
    """Compare analytic BPTT gradients with central finite differences.

    Runs in float64 over every parameter element, on the mean loss of every
    pair of ``dataset`` in one chunk, and returns the maximum relative error
    |g_a - g_n| / max(|g_a|, |g_n|, 1e-8).  Intended for small models and
    datasets; cost grows with the parameter count times the forward cost.
    When ``tolerance`` is given, a failure raises AssertionError.
    """
    params = {k: p.astype(np.float64).copy() for k, p in model.params().items()}
    matrix = model.normalize(dataset.as_matrix())
    chunk = _Chunk(matrix[:-1], dataset.window, matrix[dataset.window:])
    _, analytic = _loss_and_grads(params, chunk, 1.0 / chunk.target.size)

    worst = 0.0
    for name, p in params.items():
        flat = p.ravel()
        g_a = analytic[name].ravel()
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + step
            up = _dataset_loss(params, [chunk])
            flat[idx] = keep - step
            down = _dataset_loss(params, [chunk])
            flat[idx] = keep
            g_n = (up - down) / (2.0 * step)
            rel = abs(g_a[idx] - g_n) / max(abs(g_a[idx]), abs(g_n), 1e-8)
            worst = max(worst, rel)
    if tolerance is not None and worst > tolerance:
        raise AssertionError(f"gradient check failed: max relative error {worst:.3e}")
    return worst


def random_check_instance(seed):
    """Random small model plus a one-pair dataset whose initial loss is ~1e-2.

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
    )
    curves = [
        PowerCurve(rng.uniform(1.0, 9.0, length), k, 10.0 + k) for k in range(window)
    ]
    predicted = forward_samples(ForecastSession(model), curves)
    target_raw = model.denormalize(model.normalize(predicted) + 0.1 * rng.normal(size=length))
    curves.append(PowerCurve(np.clip(target_raw, 0.0, None), window, 10.0 + window))
    return model, make_dataset(curves, window)
