"""Rule-based curve classifier.

Stands in for the condition-monitoring classifier the investigation logic
consults: it reduces a curve to a handful of signature features and
compares them against baseline statistics built from trusted (healthy,
untampered) training curves.  Bands are 3 sigma around the baseline with
relative floors so that zero-noise corpora do not collapse the bands to
nothing.  Deterministic by construction.

Closed-loop guarantee: at the generator's default noise (2% of the plateau
level) and with deformation severities of roughly 0.1 or more, generated
curves classify back to their generated kinds; below that a deformation is
smaller than the noise bands and is healthy by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvegen import CurveKind, LabeledCurve, PowerCurve

# feature windows as fractions of the curve
PEAK_REGION = 0.2      # first 20%: unlocking inrush
PLATEAU_REGION = 0.8   # 20%..80%: translation plateau
TAIL_FRACTION = 0.05   # used for the truncation test

# decision bands: CORRIDOR bounds how far above baseline a plateau may sit
# and still read as progressive deterioration rather than a gross
# discontinuity; SPIKE_FACTOR flags inrush overcurrent; REL_FLOOR keeps bands
# open on noise-free data; TRANSIENT_FLOOR (fraction of the baseline plateau)
# is the smallest plateau transient treated as a real event
CORRIDOR = 0.5
SPIKE_FACTOR = 1.5
REL_FLOOR = 0.005
TRANSIENT_FLOOR = 0.05

FEATURE_NAMES = (
    "peak_amplitude",
    "peak_position",
    "plateau_mean",
    "plateau_slope",
    "bump_amplitude",
    "transient_amplitude",
)


@dataclass(frozen=True)
class CurveFeatures:
    peak_amplitude: float       # W, max of the inrush region
    peak_position: float        # argmax as a fraction of the whole curve
    plateau_mean: float         # W
    plateau_slope: float        # W per sample, linear fit over the plateau
    bump_amplitude: float       # W above the plateau mean, locking region
    transient_amplitude: float  # W, max minus median inside the plateau
    truncated: bool             # curve ends far below its plateau baseline

    def as_dict(self) -> dict[str, float]:
        return {name: float(getattr(self, name)) for name in FEATURE_NAMES}


def extract_features(curve: PowerCurve | np.ndarray) -> CurveFeatures:
    """The curve's signature features; a PowerCurve computes them once and keeps them."""
    if not isinstance(curve, PowerCurve):
        return _features(np.asarray(curve, dtype=np.float64))
    if curve.features is None:
        curve.features = _features(curve.samples)
    return curve.features


def _features(s: np.ndarray) -> CurveFeatures:
    n = s.size
    k1 = int(PEAK_REGION * n)
    k2 = int(PLATEAU_REGION * n)
    peak_region = s[:k1]
    plateau = s[k1:k2]
    locking = s[k2:]
    tail = s[-max(1, int(TAIL_FRACTION * n)):]

    plateau_mean = float(plateau.mean())
    # closed-form least-squares slope over centred sample positions
    x = np.arange(plateau.size) - 0.5 * (plateau.size - 1)
    slope = float(np.dot(x, plateau - plateau_mean) / np.dot(x, x))
    return CurveFeatures(
        peak_amplitude=float(peak_region.max()),
        peak_position=float(np.argmax(peak_region)) / n,
        plateau_mean=plateau_mean,
        plateau_slope=slope,
        bump_amplitude=float(locking.max()) - plateau_mean,
        transient_amplitude=float(plateau.max() - np.median(plateau)),
        truncated=bool(tail.mean() < 0.3 * max(plateau_mean, 1.0)),
    )


@dataclass
class ClassifierReference:
    """Baseline feature statistics from trusted healthy curves."""

    mean: dict[str, float]
    std: dict[str, float]
    n_reference: int

    def to_dict(self) -> dict:
        return {"mean": dict(self.mean), "std": dict(self.std), "n_reference": self.n_reference}

    @classmethod
    def from_dict(cls, d: dict) -> "ClassifierReference":
        """Inverse of ``to_dict``; ValueError on a missing, unknown or bad entry."""
        if not isinstance(d, dict):
            raise ValueError("classifier reference must be a JSON object")
        try:
            ref = cls(**d)
        except TypeError as exc:   # a key missing or unknown
            raise ValueError(f"classifier reference: {exc}") from None
        for table in (ref.mean, ref.std):
            if not (isinstance(table, dict) and set(table) == set(FEATURE_NAMES)
                    and all(_finite(v) for v in table.values())):
                raise ValueError(
                    "classifier reference mean and std must map each of "
                    f"{', '.join(FEATURE_NAMES)} to a finite number"
                )
        if not _finite(ref.n_reference):
            raise ValueError("classifier reference n_reference must be a finite number")
        return ref


def _finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def build_reference(corpus: list[LabeledCurve]) -> ClassifierReference:
    """Baseline from the untampered early-life curves of a trusted corpus."""
    healthy = [
        lc.curve for lc in corpus
        if lc.label.kind is CurveKind.EARLY_LIFE_NORMAL and not lc.tampered
    ]
    if not healthy:
        raise ValueError("no healthy early-life curves to build a baseline from")
    table = {name: [] for name in FEATURE_NAMES}
    for curve in healthy:
        feats = extract_features(curve).as_dict()
        for name in FEATURE_NAMES:
            table[name].append(feats[name])
    return ClassifierReference(
        mean={name: float(np.mean(v)) for name, v in table.items()},
        std={name: float(np.std(v)) for name, v in table.items()},
        n_reference=len(healthy),
    )


def _band(ref: ClassifierReference, name: str, scale: float) -> float:
    return max(3.0 * ref.std[name], REL_FLOOR * abs(scale), 1e-9)


def classify(curve: PowerCurve | np.ndarray, ref: ClassifierReference) -> CurveKind:
    """Assign a curve kind relative to the healthy baseline.

    Decision order matters: hard discontinuities first (truncation, inrush
    overcurrent), then isolated plateau transients, then sustained plateau
    elevation, which reads as progressive deterioration while it stays
    inside the corridor and as a gross discontinuity beyond it.
    """
    f = extract_features(curve)
    plateau_ref = ref.mean["plateau_mean"]

    if f.truncated:
        return CurveKind.SUDDEN_FAILURE
    if f.peak_amplitude > SPIKE_FACTOR * ref.mean["peak_amplitude"]:
        return CurveKind.SUDDEN_FAILURE

    transient_limit = ref.mean["transient_amplitude"] + max(
        3.0 * ref.std["transient_amplitude"],
        TRANSIENT_FLOOR * plateau_ref,
    )
    if f.transient_amplitude > transient_limit:
        return CurveKind.MINOR_ANOMALY

    band = _band(ref, "plateau_mean", plateau_ref)
    if f.plateau_mean > plateau_ref + band:
        if f.plateau_mean <= plateau_ref * (1.0 + CORRIDOR):
            return CurveKind.PROGRESSIVE_PRE_FAULT
        return CurveKind.SUDDEN_FAILURE
    if f.plateau_mean < plateau_ref - band:
        # sustained power loss with an intact tail: discontinuous behavior
        return CurveKind.SUDDEN_FAILURE
    return CurveKind.EARLY_LIFE_NORMAL


#: generated kinds collapse onto the classifier's four decision kinds
DECISION_KIND = {
    CurveKind.AGING: CurveKind.PROGRESSIVE_PRE_FAULT,
    CurveKind.END_OF_LIFE: CurveKind.PROGRESSIVE_PRE_FAULT,
}


def decision_kind(kind: CurveKind) -> CurveKind:
    return DECISION_KIND.get(kind, kind)
