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

from dataclasses import dataclass

import numpy as np

from .curvegen import CurveKind, LabeledCurve, PowerCurve
from .dataio import json_integer, json_number, short_repr

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

#: the features a decision rule reads, tabled in the classifier reference
FEATURE_NAMES = ("peak_amplitude", "plateau_mean", "transient_amplitude")


@dataclass(frozen=True, slots=True)
class CurveFeatures:
    peak_amplitude: float       # W, max of the inrush region
    plateau_mean: float         # W
    transient_amplitude: float  # W, max minus median inside the plateau
    truncated: bool             # curve ends far below its plateau baseline

    def as_dict(self) -> dict[str, float]:
        return {name: float(getattr(self, name)) for name in FEATURE_NAMES}


def extract_features(curve: PowerCurve) -> CurveFeatures:
    """The curve's signature features, computed once and kept on the curve."""
    if curve.features is None:
        curve.features = _features(curve.samples)
    return curve.features


def _features(s: np.ndarray) -> CurveFeatures:
    n = s.size
    k1 = int(PEAK_REGION * n)
    k2 = int(PLATEAU_REGION * n)
    if k1 < 1:   # every region below is then non-empty too
        raise ValueError(f"a curve of {n} samples is too short to classify: its peak region "
                         f"(the first {PEAK_REGION:.0%}) holds no sample")
    peak_region = s[:k1]
    plateau = s[k1:k2]
    tail = s[-max(1, int(TAIL_FRACTION * n)):]

    # means and median as ndarray.mean and np.median compute them (np.add.reduce
    # over the count), without the cost of their wrappers
    plateau_mean = float(np.add.reduce(plateau) / plateau.size)
    # the middle value, or the mean of the middle two; a NaN reaches the
    # transient through plateau.max()
    half = plateau.size // 2
    lo = half - 1 + plateau.size % 2
    middle = np.partition(plateau, (lo, half))[lo:half + 1]
    median = np.add.reduce(middle) / middle.size
    return CurveFeatures(
        peak_amplitude=float(peak_region.max()),
        plateau_mean=plateau_mean,
        transient_amplitude=float(plateau.max() - median),
        truncated=bool(np.add.reduce(tail) / tail.size < 0.3 * max(plateau_mean, 1.0)),
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
        if not (isinstance(d, dict) and set(d) == {"mean", "std", "n_reference"}):
            raise ValueError("classifier reference must be a JSON object of mean, std and "
                             f"n_reference, got {short_repr(d)}")
        ref = cls(**d)
        for table in (ref.mean, ref.std):
            if not (isinstance(table, dict) and set(table) == set(FEATURE_NAMES)):
                raise ValueError(
                    "classifier reference mean and std must map each of "
                    f"{', '.join(FEATURE_NAMES)} to a finite number, got {short_repr(table)}"
                )
        for name in FEATURE_NAMES:
            json_number(ref.mean[name], f"classifier reference mean {name}")
            if json_number(ref.std[name], f"classifier reference std {name}") < 0.0:
                raise ValueError(f"classifier reference std {name} must be >= 0, "
                                 f"got {ref.std[name]}")
        json_integer(ref.n_reference, "classifier reference n_reference", 1)
        return ref


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


def classify(curve: PowerCurve, ref: ClassifierReference) -> CurveKind:
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
