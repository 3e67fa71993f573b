"""Corpus persistence, chronological splits, and sliding-window datasets.

Corpora are NDJSON: one record per operation, in op order, with the full
sample vector serialized at full precision (``repr``-based JSON floats
round-trip float64 exactly).
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .curvegen import CurveKind, CurveLabel, LabeledCurve, PowerCurve


class CorpusFormatError(ValueError):
    """A corpus file violates the NDJSON schema; carries the line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


#: JSON types for ``json_field``: a name, and the Python types json.load gives
NUMBER = ("number", (int, float))
INTEGER = ("integer", (int,))
BOOLEAN = ("boolean", (bool,))
STRING = ("string", (str,))
OPTIONAL_BOOLEAN = ("boolean or null", (bool, type(None)))
OPTIONAL_STRING = ("string or null", (str, type(None)))
OBJECT = ("object", (dict,))
ARRAY = ("array", (list,))


def json_field(value, kind: tuple[str, tuple], name: str, error=ValueError):
    """``value`` if json.load gave it one of ``kind``'s types (a boolean is no number).

    ``error`` (a ValueError) naming ``name`` otherwise.
    """
    wanted, types = kind
    if type(value) not in types:
        raise error(f"{name} must be a JSON {wanted}, got {value!r}")
    return value


def json_number(value, name: str) -> float:
    """``value`` as a float if json.load gave it a finite number.

    json.load also reads NaN, Infinity and -Infinity, which no file written
    here holds; ValueError naming ``name`` for them as for a wrong type.
    """
    number = float(json_field(value, NUMBER, name))
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return number


@contextmanager
def open_text(path):
    """``open(path)`` for reading UTF-8 text.

    A byte that does not decode raises UnicodeDecodeError with the path
    appended to its message, so the caller's error names the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            exc.reason = f"{exc.reason} in {path}"
            raise


class CurveWindow:
    """FIFO buffer of the most recent curves, oldest first.

    Holds exactly ``size`` curves once constructed; pushing a new curve
    discards the oldest one.
    """

    def __init__(self, curves):
        curves = list(curves)
        if not curves:
            raise ValueError("window needs at least one curve")
        self._buf = deque(curves, maxlen=len(curves))

    @property
    def size(self) -> int:
        return self._buf.maxlen

    @property
    def curves(self) -> list[PowerCurve]:
        return list(self._buf)

    @property
    def last(self) -> PowerCurve:
        return self._buf[-1]

    def push(self, curve: PowerCurve):
        self._buf.append(curve)

    def as_matrix(self) -> np.ndarray:
        """(size, curve_length) float64 view of the window, oldest row first."""
        return np.stack([c.samples for c in self._buf])

    def __len__(self):
        return len(self._buf)

    def __iter__(self):
        return iter(self._buf)


@dataclass
class SupervisedPair:
    """A window of consecutive curves and the curve that followed it."""

    window: CurveWindow
    target: PowerCurve

    def __post_init__(self):
        if self.target.op_index != self.window.last.op_index + 1:
            raise ValueError(
                f"target op {self.target.op_index} does not follow window "
                f"ending at op {self.window.last.op_index}"
            )


def as_power_curves(corpus) -> list[PowerCurve]:
    """Accept either labeled or bare curves; return the bare curves."""
    return [lc.curve if isinstance(lc, LabeledCurve) else lc for lc in corpus]


def curves_digest(corpus) -> str:
    """sha256 over each curve's op index and samples, in corpus order.

    Op indices hash as little-endian int64 and samples as little-endian
    float64, so the digest is the same on every platform.
    """
    h = hashlib.sha256()
    for curve in as_power_curves(corpus):
        h.update(int(curve.op_index).to_bytes(8, "little", signed=True))
        h.update(np.asarray(curve.samples, dtype="<f8").tobytes())
    return h.hexdigest()


def make_dataset(corpus, window: int) -> list[SupervisedPair]:
    """Slide a window of ``window`` curves over the corpus.

    A corpus of M curves yields exactly M - window pairs: pair k has input
    ops [k, k + window) and target op k + window, in corpus order.
    """
    curves = as_power_curves(corpus)
    if window < 1:
        raise ValueError("window must be >= 1")
    if len(curves) <= window:
        raise ValueError(
            f"insufficient history: {len(curves)} curves cannot fill a "
            f"window of {window} plus a target"
        )
    return [
        SupervisedPair(CurveWindow(curves[k:k + window]), curves[k + window])
        for k in range(len(curves) - window)
    ]


def split(corpus, train_fraction: float):
    """Chronological split: the first fraction trains, the suffix tests.

    No shuffling; the operation phase bootstraps from the test suffix, so
    temporal order must survive the split.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    cut = int(round(len(corpus) * train_fraction))
    return list(corpus[:cut]), list(corpus[cut:])


# ---------------------------------------------------------------------------
# NDJSON corpus files
# ---------------------------------------------------------------------------

def _record(lc: LabeledCurve) -> dict:
    return {
        "op_index": lc.curve.op_index,
        "timestamp": lc.curve.timestamp,
        "samples": lc.curve.samples.tolist(),
        "label": {"kind": lc.label.kind.value, "severity": lc.label.severity},
        "tampered": lc.tampered,
    }


def write_corpus(path, corpus: list[LabeledCurve]):
    with open(path, "w", encoding="utf-8") as fh:
        for lc in corpus:
            fh.write(json.dumps(_record(lc)))
            fh.write("\n")


def read_corpus(path) -> list[LabeledCurve]:
    """Parse an NDJSON corpus; schema violations name the offending line."""
    corpus: list[LabeledCurve] = []
    with open_text(path) as fh:
        for n, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid JSON ({exc.msg})", n) from exc
            try:
                lc = _parse_record(rec)
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusFormatError(str(exc), n) from exc
            if corpus and len(lc.curve) != len(corpus[0].curve):
                raise CorpusFormatError(
                    f"curve has {len(lc.curve)} samples, corpus uses {len(corpus[0].curve)}", n
                )
            if corpus and lc.curve.op_index <= corpus[-1].curve.op_index:
                raise CorpusFormatError("op_index must strictly increase", n)
            if corpus and lc.curve.timestamp <= corpus[-1].curve.timestamp:
                raise CorpusFormatError("timestamps must strictly increase", n)
            corpus.append(lc)
    return corpus


def _parse_record(rec: dict) -> LabeledCurve:
    missing = {"op_index", "timestamp", "samples", "label"} - set(json_field(rec, OBJECT, "record"))
    if missing:
        raise ValueError(f"missing fields {sorted(missing)}")
    label = json_field(rec["label"], OBJECT, "label")
    samples = json_field(rec["samples"], ARRAY, "samples")
    # one type test per value: a boolean, string, null or array is no number
    if not set(map(type, samples)) <= set(NUMBER[1]):
        bad = next(v for v in samples if type(v) not in NUMBER[1])
        raise ValueError(f"samples must be a JSON array of numbers, got {bad!r}")
    curve = PowerCurve(
        samples=np.asarray(samples, dtype=np.float64),
        op_index=json_field(rec["op_index"], INTEGER, "op_index"),
        timestamp=float(json_field(rec["timestamp"], NUMBER, "timestamp")),
    )
    severity = json_field(label.get("severity", 0.0), NUMBER, "label severity")
    return LabeledCurve(
        curve=curve,
        label=CurveLabel(CurveKind(label["kind"]), float(severity)),
        tampered=bool(json_field(rec.get("tampered"), OPTIONAL_BOOLEAN, "tampered")),
    )
