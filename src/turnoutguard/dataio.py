"""Corpus persistence, chronological splits, and sliding-window datasets.

Every artifact file is read and written here as strict JSON, a document
(weights, thresholds, config, summaries) or NDJSON lines (corpora, reports);
a file the readers refuse raises one ``FormatError``.  A corpus holds one
record per operation, in op order, with the full sample vector at full
precision (``repr``-based JSON floats round-trip float64 exactly).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import reprlib
import sys
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .curvegen import CurveKind, CurveLabel, LabeledCurve, PowerCurve


class FormatError(ValueError):
    """An artifact file is not what its writer writes: not JSON, of another
    format version, or holding a value its reader refuses.  For an NDJSON
    file the message starts with the line number."""


#: JSON types for ``json_field``: a name, and the Python types json.load gives
NUMBER = ("number", (int, float))
INTEGER = ("integer", (int,))
BOOLEAN = ("boolean", (bool,))
STRING = ("string", (str,))
OPTIONAL_BOOLEAN = ("boolean or null", (bool, type(None)))
OPTIONAL_STRING = ("string or null", (str, type(None)))
OBJECT = ("object", (dict,))
ARRAY = ("array", (list,))


_SHORT = reprlib.Repr()
# a sha256 digest, a float and a small array print whole
_SHORT.maxstring = _SHORT.maxother = 100
_SHORT.maxlevel = 2


def short_repr(value) -> str:
    """``repr(value)``, with long strings, numbers and containers cut to ``...``,
    so that a message printing a refused value stays short however big it is."""
    return _SHORT.repr(value)


def json_enum(cls, value, name: str):
    """``cls(value)`` for an Enum ``cls``; its ValueError naming ``name``, with
    ``value`` cut short."""
    try:
        return cls(value)
    except ValueError:
        raise ValueError(f"{name}: {short_repr(value)} is not a valid {cls.__qualname__}") from None


def json_field(value, kind: tuple[str, tuple], name: str):
    """``value`` if json.load gave it one of ``kind``'s types (a boolean is no number).

    ValueError naming ``name`` otherwise.
    """
    wanted, types = kind
    if type(value) not in types:
        raise ValueError(f"{name} must be a JSON {wanted}, got {short_repr(value)}")
    return value


def json_number(value, name: str) -> float:
    """``value`` as a float if json.load gave it a finite number.

    json.load also reads NaN, Infinity and -Infinity, and integers too large
    for a float, which no file written here holds; ValueError naming
    ``name`` for them as for a wrong type.
    """
    # false for NaN, the infinities and an integer too large for a float
    if not abs(json_field(value, NUMBER, name)) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, got {short_repr(value)}")
    return float(value)


def json_integer(value, name: str, minimum: int) -> int:
    """``value`` if json.load gave it an integer of at least ``minimum``."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {short_repr(value)}")
    return value


_SHA256 = re.compile("[0-9a-f]{64}")


def json_sha256(value, name: str) -> str:
    """``value`` if json.load gave it a sha256 digest: 64 lowercase hex digits."""
    if type(value) is not str or not _SHA256.fullmatch(value):
        raise ValueError(f"{name} must be a sha256 digest of 64 lowercase hex digits, "
                         f"got {short_repr(value)}")
    return value


def json_numbers(value, name: str) -> np.ndarray:
    """``value`` as a float64 array if json.load gave it an array of finite numbers.

    A boolean, string, null or array in it is no number; ValueError naming
    ``name`` for it as for a non-finite number.
    """
    json_field(value, ARRAY, name)
    # one type test per value
    if not set(map(type, value)) <= set(NUMBER[1]):
        bad = next(v for v in value if type(v) not in NUMBER[1])
        raise ValueError(f"{name} must be a JSON array of numbers, got {short_repr(bad)}")
    try:
        array = np.asarray(value, dtype=np.float64)
        finite = np.all(np.isfinite(array))
    except OverflowError:   # an integer too large for a float
        finite = False
    if not finite:
        raise ValueError(f"{name} holds a non-finite value")
    return array


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


def _loads(text: str, what: str):
    """The JSON value of ``text``; FormatError naming ``what`` it should be if none."""
    try:
        return json.loads(text)
    # JSONDecodeError, an integer of over 4300 digits, or arrays or objects
    # nested deeper than the recursion limit
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"not a valid {what}: {exc}") from exc


def _parsed(parse, value, where: str):
    """``parse(value)``; FormatError starting with ``where`` for the KeyError,
    TypeError or ValueError it raises."""
    try:
        return parse(value)
    except KeyError as exc:
        raise FormatError(f"{where}missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}{exc}") from exc


def read_json(path, what: str):
    """The JSON value of the UTF-8 file ``path``, which should be ``what``."""
    with open_text(path) as fh:
        return _loads(fh.read(), what)


def read_document(path, what: str, version: int, parse):
    """``parse`` of the JSON object of ``path`` if its ``format_version`` is the
    integer ``version``; FormatError naming ``what`` the file should be otherwise."""
    def versioned(doc):
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        found = json_field(doc.get("format_version"), INTEGER, "format_version")
        if found != version:
            raise ValueError(f"unsupported format version {found} (expected {version})")
        return parse(doc)

    return _parsed(versioned, read_json(path, what), f"malformed {what}: ")


def read_ndjson(path, what: str, parse):
    """The number and ``parse`` of the JSON value of each non-blank line of
    ``path``; FormatError starting ``line N: `` for a line that fails."""
    with open_text(path) as fh:
        for n, line in enumerate(fh, start=1):
            if line.strip():
                yield n, _parsed(lambda text: parse(_loads(text, what)), line, f"line {n}: ")


def _write(path, values, end: str):
    """Write each of ``values`` as strict JSON, then ``end``; ValueError for NaN or ±inf.

    The text goes to a new file beside ``path`` that replaces it once every
    value is written, and is removed on any failure, so ``path`` is written
    whole or left as it was.  OSError for a ``path`` that is a link or is
    there but is no regular file, such as ``/dev/stdout`` or a directory,
    which the new file would replace instead of writing through.
    """
    if os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
        raise OSError(f"{path} is not a regular file")
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            for value in values:
                fh.write(json.dumps(value, allow_nan=False) + end)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_json(path, value):
    """The twin of ``read_json``: ``value`` as one JSON document."""
    _write(path, [value], "")


def write_document(path, version: int, body: dict):
    """The twin of ``read_document``: ``{"format_version": version, **body}``."""
    write_json(path, {"format_version": version, **body})


def write_ndjson(path, records):
    """The twin of ``read_ndjson``: each record on a line of its own."""
    _write(path, records, "\n")


class CurveWindow:
    """FIFO buffer of the most recent curves, oldest first.

    Holds as many curves, all of one length, as it was constructed with;
    pushing a new curve discards the oldest one.  ValueError for no curves,
    or for a curve whose length is not the window's.
    """

    def __init__(self, curves):
        curves = list(curves)
        if not curves:
            raise ValueError("window needs at least one curve")
        for curve in curves:
            self._check_length(curve, len(curves[0]))
        self._buf = deque(curves, maxlen=len(curves))

    @staticmethod
    def _check_length(curve: PowerCurve, length: int):
        if len(curve) != length:
            raise ValueError(f"curve op {curve.op_index} has {len(curve)} samples, "
                             f"the window's curves have {length}")

    @property
    def curves(self) -> list[PowerCurve]:
        return list(self._buf)

    @property
    def last(self) -> PowerCurve:
        return self._buf[-1]

    def push(self, curve: PowerCurve):
        self._check_length(curve, len(self._buf[0]))
        self._buf.append(curve)


@dataclass(frozen=True)
class Dataset:
    """A run of consecutive curves and the window that slides over it.

    Pair k has input curves k ... k + window - 1 and target curve
    k + window, so ``len`` is the number of pairs, M - window.  ValueError
    for a window below 1, too few curves to fill a pair, curves of unequal
    length, or a target whose op does not follow the op before it.
    """

    curves: tuple[PowerCurve, ...]
    window: int

    def __post_init__(self):
        curves = tuple(self.curves)
        object.__setattr__(self, "curves", curves)
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if len(curves) <= self.window:
            raise ValueError(
                f"insufficient history: {len(curves)} curves cannot fill a "
                f"window of {self.window} plus a target"
            )
        if any(len(c) != len(curves[0]) for c in curves):
            raise ValueError("curves differ in length")
        for before, target in zip(curves[self.window - 1:], curves[self.window:]):
            if target.op_index != before.op_index + 1:
                raise ValueError(f"target op {target.op_index} does not follow window "
                                 f"ending at op {before.op_index}")

    def __len__(self):
        return len(self.curves) - self.window

    def as_matrix(self) -> np.ndarray:
        """(curves, curve_length) float64 matrix of the run, oldest row first."""
        return np.stack([c.samples for c in self.curves])


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


def make_dataset(corpus, window: int) -> Dataset:
    """Slide a window of ``window`` curves over the corpus.

    A corpus of M curves yields exactly M - window pairs: pair k has input
    ops [k, k + window) and target op k + window, in corpus order.
    """
    return Dataset(as_power_curves(corpus), window)


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
    write_ndjson(path, map(_record, corpus))


def iter_corpus(path):
    """Each record of an NDJSON corpus as it is read; FormatError names the
    first line that fails, once the records before it are yielded."""
    previous = None
    for n, lc in read_ndjson(path, "corpus", _parse_record):
        if previous and len(lc.curve) != len(previous.curve):
            raise FormatError(f"line {n}: curve has {len(lc.curve)} samples, "
                              f"corpus uses {len(previous.curve)}")
        if previous and lc.curve.op_index <= previous.curve.op_index:
            raise FormatError(f"line {n}: op_index must strictly increase")
        if previous and lc.curve.timestamp <= previous.curve.timestamp:
            raise FormatError(f"line {n}: timestamps must strictly increase")
        previous = lc
        yield lc


def read_corpus(path) -> list[LabeledCurve]:
    """Parse an NDJSON corpus; FormatError names the offending line."""
    return list(iter_corpus(path))


def _parse_record(rec) -> LabeledCurve:
    label = json_field(json_field(rec, OBJECT, "record")["label"], OBJECT, "label")
    op_index = json_field(rec["op_index"], INTEGER, "op_index")
    # curves_digest hashes op indices as int64
    if not -2**63 <= op_index < 2**63:
        raise ValueError(f"op_index must lie in [-2**63, 2**63), got {short_repr(op_index)}")
    curve = PowerCurve(
        samples=json_numbers(rec["samples"], "samples"),
        op_index=op_index,
        timestamp=json_number(rec["timestamp"], "timestamp"),
    )
    return LabeledCurve(
        curve=curve,
        label=CurveLabel(json_enum(CurveKind, label["kind"], "label.kind"),
                         json_number(label.get("severity", 0.0), "label severity")),
        tampered=bool(json_field(rec.get("tampered"), OPTIONAL_BOOLEAN, "tampered")),
    )
