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

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

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


@dataclass(frozen=True, slots=True)
class ClassifierReference:
    """Baseline feature statistics from trusted healthy curves: immutable and
    checked when made, however it is made.  ``mean`` and ``std`` are kept as
    read-only mappings of floats, and the limits (W) that ``classify``
    compares features with are derived from them once, here."""

    mean: Mapping[str, float]
    std: Mapping[str, float]
    n_reference: int
    # derived here: the limits (W) that classify compares features with
    spike: float = field(init=False, repr=False, compare=False)
    transient: float = field(init=False, repr=False, compare=False)
    plateau_low: float = field(init=False, repr=False, compare=False)
    plateau_high: float = field(init=False, repr=False, compare=False)
    corridor_top: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for table in (self.mean, self.std):
            if not (isinstance(table, Mapping) and set(table) == set(FEATURE_NAMES)):
                raise ValueError("classifier reference mean and std must map each of "
                                 f"{', '.join(FEATURE_NAMES)} to a finite number, "
                                 f"got {short_repr(table)}")
        mean, std = {}, {}
        for name in FEATURE_NAMES:
            mean[name] = json_number(self.mean[name], f"classifier reference mean {name}")
            std[name] = json_number(self.std[name], f"classifier reference std {name}")
            if std[name] < 0.0:
                raise ValueError(f"classifier reference std {name} must be >= 0, "
                                 f"got {self.std[name]}")
        json_integer(self.n_reference, "classifier reference n_reference", 1)
        plateau = mean["plateau_mean"]
        band = max(3.0 * std["plateau_mean"], REL_FLOOR * abs(plateau), 1e-9)
        for name, value in (("mean", MappingProxyType(mean)), ("std", MappingProxyType(std)),
                            ("spike", SPIKE_FACTOR * mean["peak_amplitude"]),
                            ("transient", mean["transient_amplitude"] + max(
                                3.0 * std["transient_amplitude"], TRANSIENT_FLOOR * plateau)),
                            ("plateau_low", plateau - band), ("plateau_high", plateau + band),
                            ("corridor_top", plateau * (1.0 + CORRIDOR))):
            object.__setattr__(self, name, value)

    def __hash__(self):
        # the tables hold their values in FEATURE_NAMES order, so equal references hash equal
        return hash((tuple(self.mean.values()), tuple(self.std.values()), self.n_reference))

    def __reduce__(self):
        # a mappingproxy neither pickles nor copies; rebuild through the checks
        return type(self), (dict(self.mean), dict(self.std), self.n_reference)

    def to_dict(self) -> dict:
        return {"mean": dict(self.mean), "std": dict(self.std), "n_reference": self.n_reference}

    @classmethod
    def from_dict(cls, d: dict) -> "ClassifierReference":
        """Inverse of ``to_dict``; ValueError on a missing, unknown or bad entry."""
        if not (isinstance(d, dict) and set(d) == {"mean", "std", "n_reference"}):
            raise ValueError("classifier reference must be a JSON object of mean, std and "
                             f"n_reference, got {short_repr(d)}")
        return cls(**d)


def build_reference(corpus: list[LabeledCurve]) -> ClassifierReference:
    """Baseline from the untampered early-life curves of a trusted corpus."""
    healthy = [extract_features(lc.curve) for lc in corpus
               if lc.label.kind is CurveKind.EARLY_LIFE_NORMAL and not lc.tampered]
    if not healthy:
        raise ValueError("no healthy early-life curves to build a baseline from")
    table = {name: [getattr(f, name) for f in healthy] for name in FEATURE_NAMES}
    return ClassifierReference({name: float(np.mean(v)) for name, v in table.items()},
                               {name: float(np.std(v)) for name, v in table.items()}, len(healthy))


def classify(curve: PowerCurve, ref: ClassifierReference) -> CurveKind:
    """Assign a curve kind relative to the healthy baseline.

    Decision order matters: hard discontinuities first (truncation, inrush
    overcurrent), then isolated plateau transients, then sustained plateau
    elevation, which reads as progressive deterioration while it stays
    inside the corridor and as a gross discontinuity beyond it.
    """
    f = extract_features(curve)
    if f.truncated or f.peak_amplitude > ref.spike:
        return CurveKind.SUDDEN_FAILURE
    if f.transient_amplitude > ref.transient:
        return CurveKind.MINOR_ANOMALY
    if f.plateau_mean > ref.plateau_high:
        if f.plateau_mean <= ref.corridor_top:
            return CurveKind.PROGRESSIVE_PRE_FAULT
        return CurveKind.SUDDEN_FAILURE
    if f.plateau_mean < ref.plateau_low:
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
