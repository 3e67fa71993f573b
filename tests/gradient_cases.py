"""Random small forecaster instances for gradient checks.

Shared by the forecaster tests and the acceptance suite, so that neither
imports the other's test module.
"""

import math

import numpy as np

from turnoutguard.curvegen import PowerCurve
from turnoutguard.dataio import make_dataset
from turnoutguard.forecaster import ForecastModel, ForecastSession, _init_params, forward_samples


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
    predicted = forward_samples(ForecastSession(model), np.stack([c.samples for c in curves]))
    target_raw = model.denormalize(model.normalize(predicted) + 0.1 * rng.normal(size=length))
    curves.append(PowerCurve(np.clip(target_raw, 0.0, None), window, 10.0 + window))
    return model, make_dataset(curves, window)
