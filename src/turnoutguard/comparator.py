"""Distances between predicted and field curves, and the validation rule.

Two criteria together decide whether a field curve matches the prediction:
the warping distance tolerates small time-axis stretches, the Euclidean
distance catches phase shifts the warping forgives.  A curve validates only
when both fall within thresholds calibrated on held-out test residuals.
Distances are computed in raw watts, so the thresholds stay meaningful for
field curves that never pass through the model's normalizer.

The warping distance runs on one numpy kernel over the full cost matrix:
two anti-diagonal wavefronts in lockstep, the textbook dynamic program
from the first cells and from the last, joined at the middle diagonal.
Each half does the textbook loop's arithmetic bit for bit; the join adds
a forward and a reverse cost, so the distance is within 2 (n + m) 2**-53
of the loop's, relative, and symmetric bit for bit.  Each step is three
numpy calls that cover one diagonal of each half, on views that a plan
builds once per pair of lengths and each thread keeps, and memory stays
O(n + m) plus one block of cell costs, never the whole matrix.  Nothing
is compiled.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .classifier import ClassifierReference
from .curvegen import PowerCurve
from .dataio import (Dataset, json_integer, json_number, json_sha256, read_document, short_repr,
                     write_document)
from .forecaster import ForecastModel, ForecastSession, forward_samples

#: the warping kernel, recorded in run provenance
DTW_BACKEND = "numpy-wavefront-joined"

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
    differ, and the path may cross the whole cost matrix.  The result is
    the least sum of the row-by-row dynamic program's cost to a cell on the
    middle anti-diagonals and the same program's cost, on both series
    reversed, from the next cell of a path to the end: so within
    2 (len(a) + len(b)) 2**-53 of the row-by-row result, relative, and
    dtw(a, b) == dtw(b, a) bit for bit.  Time O(len(a)*len(b)) in three
    numpy calls per pair of anti-diagonals, one from each end, plus two per
    block of ``_DIAGONALS_PER_BLOCK`` such steps and five for the join,
    each on views planned once for the pair of lengths.  Memory
    O(len(a) + len(b)) plus one block of ``_DIAGONALS_PER_BLOCK`` rows
    twice the length of the shorter series: the plan, with its buffers and
    views, takes about 0.4 MB for 200 x 200 and 3.6 MB for 2,000 x 2,000,
    where the whole cost matrix would take 32 MB.  Each thread keeps its
    own plan, so threads may warp at once.
    """
    xa, xb = _samples(a), _samples(b)
    if xa.size == 0 or xb.size == 0:
        raise ValueError("cannot warp an empty series")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(xb))):
        raise ValueError("non-finite value in series")
    if xb.size > xa.size:
        xa, xb = xb, xa   # cost and moves are symmetric; keep xb the short one
    return float(_dtw_cost(xa, xb))


class _Plan:
    """Buffers, and every view ``_dtw_cost`` computes on, for lengths n >= m.

    Two problems share each buffer along a trailing axis of 2: column 0 is
    the forward DP on (long, short), column 1 the same DP on the reversed
    series, whose cell (i, j) is cell (m + 1 - i, n + 1 - j) of the first.
    Both run over anti-diagonals k = 2, 3, ... at once, so a diagonal's
    views are contiguous (count, 2) blocks and its three calls cover both.

    Cell (i, j) of an accumulated cost D, row i of ``short`` and column j
    of ``long``, lies on anti-diagonal k = i + j and on line d = i - j, and
    d has the parity of k.  ``lines[k % 2]`` holds one slot per line of
    that parity, slot (d + n) // 2, so the cells of a diagonal are
    consecutive slots.  Diagonal k reads lines d - 1 and d + 1 of the other
    buffer, D[i-1, j] and D[i, j-1] from diagonal k - 1, and line d of its
    own, D[i-1, j-1] from diagonal k - 2, which it then overwrites with
    D[i, j].  A slot not yet written holds the border of D: inf, or
    D[0, 0] = 0 on line 0 of buffer 0.  A diagonal's views cover exactly
    its cells, rows max(1, k - n) to min(m, k - 1), so no slot off the
    matrix is read.

    The forward sweep stops at the middle diagonal K = (n + m) // 2 + 1
    and the reverse one at n + m + 1 - K, the mirror of K + 1, so the
    forward sweep runs one diagonal more, on column 0 alone, when n + m
    is even.  Each then still holds its last two diagonals, and ``join``
    pairs them: every path crosses from diagonal K or K - 1 to K + 1 or
    K + 2 by one move, (1, 0), (0, 1) or (1, 1) from a cell X on K, or
    (1, 1) from X on K - 1, and the distance is the least forward cost at
    X plus reverse cost at the move's end Y.  The reverse views run
    backwards, since mirroring reverses a diagonal.  A Y one past the last
    row or column is a border cell of the reverse sweep: inf, or its
    D[0, 0] = 0 when X is cell (m, n), which only a 1 x 1 pair joins at.

    The cell costs of a block of diagonals come from one subtraction over
    the rectangle of rows the block spans, a contiguous prefix of one flat
    buffer that every block shares.  ``padded`` holds each problem's
    long series reversed after m slots of inf, so with the block's
    diagonals in descending k a sliding view of it reads long[k - i - 1]
    with positive strides.  Rectangle cells off the matrix cost inf and
    are never read.
    """

    def __init__(self, n: int, m: int, per_block: int):
        self.key = (n, m, per_block)
        self.lines = np.empty((2, (n + m) // 2 + 1, 2))
        self.short = np.empty((m, 2))
        self.padded = np.full((n + 2 * m, 2), np.inf)
        costs = np.empty(per_block * m * 2)   # each block's contiguous prefix
        last_k, reverse_k = (n + m) // 2 + 1, (n + m + 1) // 2   # K and n + m + 1 - K

        def cells(buf, d, count):   # slots of lines d, d + 2, ... of one parity
            return buf[(d + n) // 2:(d + n) // 2 + count]

        def rows(k):   # first row and cell count of diagonal k
            lo = max(1, k - n)
            return lo, min(m, k - 1) - lo + 1

        # per block: (the subtraction's operands, its out, the diagonals'
        # (out, up, left, cost, (out,)) in ascending k)
        self.blocks = []
        for k0 in range(2, last_k + 1, per_block):
            k1 = min(k0 + per_block - 1, last_k)
            first, last = max(1, k0 - n), min(m, k1 - 1)
            block = costs[:(k1 - k0 + 1) * (last - first + 1) * 2].reshape(k1 - k0 + 1, -1, 2)
            # row r is diagonal k1 - r: long[k - i - 1] = padded[m + n - k + i]
            windows = sliding_window_view(self.padded, last - first + 1, axis=0)
            operands = (self.short[first - 1:last],
                        windows[m + n - k1 + first:][:k1 - k0 + 1].transpose(0, 2, 1))
            diagonals = []
            for k in range(k0, k1 + 1):
                lo, count = rows(k)
                own, other = self.lines[k % 2], self.lines[1 - k % 2]
                d = 2 * lo - k   # the line of the first cell
                views = (cells(own, d, count), cells(other, d - 1, count),
                         cells(other, d + 1, count), block[k1 - k, lo - first:lo - first + count])
                if k > reverse_k:   # the forward sweep's one extra diagonal
                    views = tuple(v[:, 0] for v in views)
                diagonals.append((*views, (views[0],)))
            self.blocks.append((operands, (block,), diagonals))

        # per crossing move: (forward costs at X, reverse costs at Y, out)
        moves = ((last_k, 1, 0), (last_k, 0, 1), (last_k, 1, 1), (last_k - 1, 1, 1))
        self.joined = np.empty(sum(rows(k)[1] for k, _, _ in moves))
        self.join, start = [], 0
        for k, di, dj in moves:
            lo, count = rows(k)
            d = 2 * lo - k
            # Y = X + (di, dj) lies on line d + di - dj, mirrored to
            # m - n - (d + di - dj); the last X's Y has the lowest
            mirrored = m - n - (d + 2 * (count - 1) + di - dj)
            self.join.append((cells(self.lines[k % 2], d, count)[:, 0],
                              cells(self.lines[(n + m + 2 - k - di - dj) % 2], mirrored,
                                    count)[::-1, 1],
                              (self.joined[start:start + count],)))
            start += count


# per thread, the plan for the lengths it warped last
_plans = threading.local()


def _dtw_cost(long: np.ndarray, short: np.ndarray) -> float:
    """Least path cost, joined from two half sweeps that run in lockstep.

    Each cell of either sweep is |x - y| + min(three neighbours) as in the
    textbook row loop, so each holds the loop's accumulated costs bit for
    bit, and the result is the least of the planned sums forward cost +
    reverse cost across the middle (see ``_Plan``).  The plan is kept for
    the next call on the same lengths and block size; a call copies the
    series into it and resets the lines, and then each diagonal is two
    minimums and an addition on prebuilt views, and the join four
    additions and a minimum.
    """
    n, m = long.size, short.size
    plan = getattr(_plans, "plan", None)
    if plan is None or plan.key != (n, m, _DIAGONALS_PER_BLOCK):
        plan = _plans.plan = _Plan(n, m, _DIAGONALS_PER_BLOCK)
    plan.lines.fill(np.inf)
    plan.lines[0, n // 2] = 0.0   # D[0, 0] of both sweeps, the paths' start
    plan.short[:, 0] = short
    plan.short[:, 1] = short[::-1]
    plan.padded[m:m + n, 0] = long[::-1]
    plan.padded[m:m + n, 1] = long
    # the loop makes about 1.5 (n + m) calls; local names save an attribute lookup each
    minimum, add, subtract, absolute = np.minimum, np.add, np.subtract, np.absolute
    for operands, costs, diagonals in plan.blocks:
        subtract(*operands, out=costs)
        absolute(costs[0], out=costs)
        for out, up, left, cost, o in diagonals:
            minimum(out, up, out=o)
            minimum(out, left, out=o)
            add(cost, out, out=o)
    for forward, reverse, o in plan.join:
        add(forward, reverse, out=o)
    return float(plan.joined.min())


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
    curves, w = test_pairs.curves, test_pairs.window
    eucl = np.empty(len(test_pairs))
    warp = np.empty(len(test_pairs))
    for k, target in enumerate(curves[w:]):
        predicted = np.clip(forward_samples(session, curves[k:k + w]), 0.0, None)
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
