"""Distances between predicted and field curves, and the validation rule.

Two criteria together decide whether a field curve matches the prediction:
the warping distance tolerates small time-axis stretches, the Euclidean
distance catches phase shifts the warping forgives.  A curve validates only
when both fall within thresholds calibrated on held-out test residuals.
Distances are computed in raw watts, so the thresholds stay meaningful for
field curves that never pass through the model's normalizer.

The warping distance runs on one exact numpy kernel over the full cost
matrix: an anti-diagonal wavefront that does the same arithmetic as the
textbook row-by-row loop, so its results equal the loop's bit for bit.
Nothing is compiled.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .classifier import ClassifierReference
from .curvegen import PowerCurve
from .dataio import (Dataset, json_integer, json_number, json_sha256, read_document, short_repr,
                     write_document)
from .forecaster import ForecastModel, ForecastSession, forward_samples

#: the warping kernel, recorded in run provenance
DTW_BACKEND = "numpy-wavefront"

# anti-diagonals whose cell costs one block computes at once; bounds the
# block's memory to this many rows of the shorter series
_DIAGONALS_PER_BLOCK = 64

THRESHOLDS_FORMAT_VERSION = 3


class CalibrationWarning(UserWarning):
    pass


@dataclass(frozen=True, slots=True)
class DistancePair:
    euclidean: float
    dtw: float


@dataclass
class Thresholds:
    tau_euclidean: float
    tau_dtw: float
    calibration: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (np.isfinite(self.tau_euclidean) and np.isfinite(self.tau_dtw)):
            raise ValueError("thresholds must be finite")
        if self.tau_euclidean < 0.0 or self.tau_dtw < 0.0:
            raise ValueError("thresholds must be >= 0")


@dataclass(frozen=True, slots=True)
class ValidationResult:
    validated: bool
    distances: DistancePair


def _samples(x) -> np.ndarray:
    if isinstance(x, PowerCurve):
        return x.samples
    return np.asarray(x, dtype=np.float64)


def euclidean(a, b) -> float:
    """Root of the summed squared pointwise differences (watts)."""
    xa, xb = _samples(a), _samples(b)
    if xa.shape != xb.shape:
        raise ValueError(f"curve lengths differ: {xa.shape[0]} vs {xb.shape[0]}")
    d = xa - xb
    return float(np.sqrt(np.sum(d * d)))


def dtw(a, b) -> float:
    """Warping distance: cheapest alignment path cost with |a_i - b_j| cells.

    Admissible moves are (i-1, j), (i, j-1) and (i-1, j-1).  Lengths may
    differ, and the path may cross the whole cost matrix.  The result equals
    the row-by-row dynamic program bit for bit.  Time O(len(a)*len(b)) in
    three numpy calls per anti-diagonal plus two per block of
    ``_DIAGONALS_PER_BLOCK`` diagonals.  Each block computes a rectangle of
    cells that covers its diagonals' ranges, so somewhat more slots than
    cells are computed.  Memory: a padded copy of the longer series and
    ``_DIAGONALS_PER_BLOCK`` + 3 rows the length of the shorter one, so a
    long pair never allocates its whole cost matrix.
    """
    xa, xb = _samples(a), _samples(b)
    if xa.size == 0 or xb.size == 0:
        raise ValueError("cannot warp an empty series")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(xb))):
        raise ValueError("non-finite value in series")
    if xb.size > xa.size:
        xa, xb = xb, xa   # cost and moves are symmetric; keep xb the short one
    return float(_dtw_cost(xa, xb))


def _dtw_cost(long: np.ndarray, short: np.ndarray) -> float:
    """Accumulated cost D[n, m] by anti-diagonals k = i + j of the cost matrix.

    Rows i index ``short`` (m), columns j index ``long`` (n >= m).  Three
    buffers of m + 1 slots hold diagonals k-2, k-1 and k, indexed by i.  The
    cells of diagonal k read i-1 and i of diagonal k-1 and i-1 of diagonal
    k-2.  Each cell is d + min(three neighbours) as in the row loop; min is
    exact and IEEE addition and |x - y| are symmetric, so the results are
    identical.

    Diagonal 2, D[1, 1] = |short[0] - long[0]|, is computed before the loop,
    so the path's start D[0, 0] = 0 never sits in a buffer and every slot
    starts at inf.  The loop's diagonals go in blocks of
    ``_DIAGONALS_PER_BLOCK``.  Each diagonal of a block computes the block's
    span of rows [first, last], the union of their ranges, so buffer views
    are taken once per block and each diagonal costs two minimums and an
    addition.  A span cell off the matrix costs inf through the inf padding
    of ``long``, and an inf cost makes the cell inf whatever its neighbours
    hold.  Slot first-1 is read only by the cell in row first, which lies on
    the matrix only on a block's first diagonal or in row 1: there the slot
    holds what the previous block computed for it, or the inf of row 0,
    which is never written.  Slots above ``last`` were never written either,
    because ``last`` never decreases, and keep their initial inf.
    """
    n, m = long.size, short.size
    inf = np.inf
    # padded[n-k+m+i] == long[k-i-1]; the inf fill is the cost of every span
    # cell whose column j = k - i leaves [1, n]
    padded = np.full(n + 2 * m, inf)
    padded[m:m + n] = long[::-1]
    # diagonal k = b + 2 reads long[k-i-1] at diagonals[n+m-1-b][i-1]
    step = padded.strides[0]
    diagonals = as_strided(padded, (n + m + 1, m), (step, step), writeable=False)
    short = np.ascontiguousarray(short)
    prev2 = np.full(m + 1, inf)   # diagonal 1: D[0, 1] = D[1, 0] = inf
    prev1 = np.full(m + 1, inf)   # diagonal 2: D[1, 1], the path's first cell
    prev1[1] = abs(short[0] - long[0])
    cur = np.full(m + 1, inf)
    costs = np.empty((_DIAGONALS_PER_BLOCK, m))
    # the loop runs n + m - 2 times; local names save an attribute lookup per call
    minimum, add = np.minimum, np.add
    for b0 in range(1, n + m - 1, _DIAGONALS_PER_BLOCK):
        b1 = min(b0 + _DIAGONALS_PER_BLOCK, n + m - 1)   # diagonals b0+2 .. b1+1
        # rows of diagonal k run from max(1, k - n) to min(m, k - 1)
        first, last = max(1, b0 + 2 - n), min(m, b1)
        block = costs[:b1 - b0, :last - first + 1]
        np.subtract(short[first - 1:last],
                    diagonals[n + m - b1:n + m - b0][::-1, first - 1:last], out=block)
        np.absolute(block, out=block)
        # per buffer: the whole buffer, slots first-1 .. last-1, slots first .. last
        v2, v1, v0 = ((buf, buf[first - 1:last], buf[first:last + 1])
                      for buf in (prev2, prev1, cur))
        for row in block:
            out = v0[2]
            minimum(v1[1], v1[2], out=out)
            minimum(out, v2[1], out=out)
            add(row, out, out=out)
            v2, v1, v0 = v1, v0, v2
        prev2, prev1, cur = v2[0], v1[0], v0[0]
    return float(prev1[m])


def distance_pair(a, b) -> DistancePair:
    """Both distances; ValueError if either is not finite.

    Samples near the float maximum overflow a distance to inf, which no
    threshold or report can hold; numpy's overflow warning is silenced.
    """
    with np.errstate(over="ignore"):
        d = DistancePair(euclidean=euclidean(a, b), dtw=dtw(a, b))
    if not (math.isfinite(d.euclidean) and math.isfinite(d.dtw)):
        raise ValueError(f"the distances overflow (euclidean {d.euclidean}, dtw {d.dtw}): "
                         "a sample is too large")
    return d


def calibrate(
    model: ForecastModel,
    test_pairs: Dataset,
    percentile: float = 100.0,
    safety_factor: float = 1.0,
) -> Thresholds:
    """Derive acceptance thresholds from prediction residuals on test data.

    Runs the forecaster over every test window in one session, measures
    both distances between prediction and the true next curve, and takes
    the given percentile of each (by default 100, the maximum), times the
    safety factor; ValueError naming the test op whose distances overflow,
    or if a product is not finite.
    """
    _check_calibration(percentile, safety_factor)

    session = ForecastSession(model)
    matrix, w = test_pairs.as_matrix(), test_pairs.window
    eucl = np.empty(len(test_pairs))
    warp = np.empty(len(test_pairs))
    for k, target in enumerate(test_pairs.curves[w:]):
        predicted = np.clip(forward_samples(session, matrix[k:k + w]), 0.0, None)
        try:
            d = distance_pair(predicted, target)
        except ValueError as exc:
            raise ValueError(f"test op {target.op_index}: {exc}") from None
        eucl[k], warp[k] = d.euclidean, d.dtw

    tau_e = float(np.percentile(eucl, percentile)) * safety_factor
    tau_d = float(np.percentile(warp, percentile)) * safety_factor
    if not (np.isfinite(tau_e) and np.isfinite(tau_d)):
        raise ValueError(f"the residuals times safety_factor {safety_factor} are not finite")
    if tau_e == 0.0 or tau_d == 0.0:
        warnings.warn(
            "calibrated threshold is zero; only exact matches will validate",
            CalibrationWarning,
            stacklevel=2,
        )
    return Thresholds(
        tau_euclidean=tau_e,
        tau_dtw=tau_d,
        calibration={
            "test_size": len(test_pairs),
            "percentile": percentile,
            "safety_factor": safety_factor,
        },
    )


def _check_calibration(percentile: float, safety_factor: float):
    """ValueError for a percentile or safety factor ``calibrate`` cannot use."""
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {percentile}")
    if not (np.isfinite(safety_factor) and safety_factor > 0.0):
        raise ValueError(f"safety_factor must be finite and > 0, got {safety_factor}")


def validate(field, predicted, thresholds: Thresholds) -> ValidationResult:
    """Both criteria must pass; either distance beyond its bound rejects.

    ValueError, from ``distance_pair``, if the two curves differ in length
    or a distance is not finite.
    """
    d = distance_pair(field, predicted)
    ok = d.euclidean <= thresholds.tau_euclidean and d.dtw <= thresholds.tau_dtw
    return ValidationResult(validated=ok, distances=d)


# ---------------------------------------------------------------------------
# persistence: thresholds + classifier baseline live in one document,
# versioned together with the weights file format
# ---------------------------------------------------------------------------

def save_thresholds(path, thresholds: Thresholds, classifier_reference: dict):
    write_document(path, THRESHOLDS_FORMAT_VERSION, {
        "tau_euclidean": thresholds.tau_euclidean,
        "tau_dtw": thresholds.tau_dtw,
        "calibration": thresholds.calibration,
        "classifier_reference": classifier_reference,
    })


def load_thresholds(path) -> tuple[Thresholds, dict]:
    """Thresholds and the classifier baseline dict.

    Raises dataio.FormatError on every schema violation, including one in
    the classifier baseline, so a corrupt file never reaches the pipeline.
    """
    return read_document(path, "thresholds file", THRESHOLDS_FORMAT_VERSION, _thresholds)


def _thresholds(doc: dict) -> tuple[Thresholds, dict]:
    reference = doc["classifier_reference"]
    th = Thresholds(
        tau_euclidean=json_number(doc["tau_euclidean"], "tau_euclidean"),
        tau_dtw=json_number(doc["tau_dtw"], "tau_dtw"),
        calibration=doc.get("calibration", {}),
    )
    if not isinstance(th.calibration, dict):
        raise ValueError("calibration must be a JSON object")
    cal = th.calibration
    if "test_size" in cal:
        json_integer(cal["test_size"], "calibration test_size", 1)
    if cal.get("band") is not None:   # null: the full matrix, as earlier files record it
        raise ValueError(f"calibration band {short_repr(cal['band'])} is not supported: distances "
                         "search the full warping matrix; re-run calibrate")
    if "model_sha256" in cal:
        json_sha256(cal["model_sha256"], "calibration model_sha256")
    _check_calibration(
        json_number(cal.get("percentile", 100.0), "calibration percentile"),
        json_number(cal.get("safety_factor", 1.0), "calibration safety_factor"),
    )
    ClassifierReference.from_dict(reference)
    return th, reference
