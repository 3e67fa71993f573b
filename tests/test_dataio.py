"""Dataset preparation, chronological splits, and NDJSON round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turnoutguard.curvegen import GeneratorConfig, PowerCurve, generate_lifecycle
from turnoutguard.dataio import (
    CurveWindow,
    FormatError,
    make_dataset,
    read_corpus,
    short_repr,
    split,
    write_corpus,
)


def curves(n, length=4):
    rng = np.random.default_rng(0)
    return [
        PowerCurve(rng.uniform(0.0, 5.0, length), op_index=k, timestamp=100.0 + k)
        for k in range(n)
    ]


def test_dataset_size_matches_the_window_arithmetic():
    pairs = make_dataset(curves(1000), 50)
    assert len(pairs) == 950


def test_dataset_boundary_single_pair():
    pairs = make_dataset(curves(51), 50)
    assert len(pairs) == 1
    assert [c.op_index for c in pairs.curves] == list(range(51))
    assert pairs.window == 50


def test_dataset_preserves_order_and_alignment():
    cs = curves(30)
    pairs = make_dataset(cs, 7)
    assert len(pairs) == 23 and pairs.window == 7
    assert all(a is b for a, b in zip(pairs.curves, cs, strict=True))
    matrix = pairs.as_matrix()
    assert matrix.shape == (30, 4)
    assert all(np.array_equal(row, c.samples) for row, c in zip(matrix, cs))


def test_dataset_is_immutable():
    pairs = make_dataset(curves(5), 2)
    assert isinstance(pairs.curves, tuple)
    with pytest.raises(AttributeError):
        pairs.window = 3


@settings(max_examples=40, deadline=None)
@given(
    total=st.integers(min_value=2, max_value=120),
    window=st.integers(min_value=1, max_value=119),
)
def test_dataset_size_property(total, window):
    cs = curves(total, length=2)
    if total <= window:
        with pytest.raises(ValueError, match="insufficient history"):
            make_dataset(cs, window)
    else:
        assert len(make_dataset(cs, window)) == total - window


def test_insufficient_history_message():
    with pytest.raises(ValueError, match="insufficient history"):
        make_dataset(curves(50), 50)


def test_split_fractions():
    train, test = split(curves(1000), 0.8)
    assert len(train) == 800 and len(test) == 200
    train, test = split(curves(10), 0.5)
    assert len(train) == 5 and len(test) == 5


def test_split_is_chronological():
    train, test = split(curves(20), 0.7)
    assert [c.op_index for c in train + test] == list(range(20))


def test_split_then_dataset():
    _, test = split(curves(1000), 0.8)
    assert len(make_dataset(test, 50)) == 150


def test_split_rejects_degenerate_fraction():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            split(curves(10), bad)


def test_window_push_is_fifo():
    cs = curves(6)
    window = CurveWindow(cs[:4])
    assert window.size == 4
    window.push(cs[4])
    assert len(window) == 4
    assert window.last is cs[4]
    assert window.curves[0] is cs[1]
    window.push(cs[5])
    assert [c.op_index for c in window] == [2, 3, 4, 5]


def test_window_matrix_is_oldest_first():
    cs = curves(3, length=2)
    m = CurveWindow(cs).as_matrix()
    assert m.shape == (3, 2)
    assert np.array_equal(m[0], cs[0].samples)
    assert np.array_equal(m[-1], cs[2].samples)


def test_window_refuses_curves_of_another_length():
    cs = curves(3)
    short = PowerCurve(np.ones(3), op_index=7, timestamp=200.0)
    with pytest.raises(ValueError, match="curve op 7 has 3 samples, the window's curves have 4"):
        CurveWindow(cs + [short])
    window = CurveWindow(cs)
    with pytest.raises(ValueError, match="curve op 7 has 3 samples, the window's curves have 4"):
        window.push(short)
    # the refused push leaves the window as it was
    assert [c.op_index for c in window] == [0, 1, 2]
    assert np.array_equal(window.as_matrix(), np.stack([c.samples for c in cs]))


def test_window_matrix_is_a_copy_that_later_pushes_do_not_change():
    cs = curves(5)
    window = CurveWindow(cs[:3])
    m = window.as_matrix()
    window.push(cs[3])
    assert np.array_equal(m, np.stack([c.samples for c in cs[:3]]))
    m[:] = -1.0
    assert np.array_equal(window.as_matrix(), np.stack([c.samples for c in cs[1:4]]))


@pytest.mark.parametrize("size", [1, 2, 5])
def test_window_rows_follow_its_curves_over_many_pushes(size):
    cs = curves(3 * size + 4, length=6)
    window = CurveWindow(cs[:size])
    for k, curve in enumerate(cs[size:], start=1):
        window.push(curve)
        assert [c.op_index for c in window] == list(range(k, k + size))
        assert window.as_matrix().tobytes() == np.stack([c.samples for c in window]).tobytes()


def test_pair_rejects_misaligned_target():
    cs = curves(5)
    with pytest.raises(ValueError, match="target op 4 does not follow window ending at op 2"):
        make_dataset(cs[:3] + [cs[4]], 3)
    # a gap inside the first window has no target after it
    assert len(make_dataset([cs[0]] + cs[2:], 2)) == 2


def test_dataset_rejects_curves_of_two_lengths():
    short, long = curves(3, length=4), curves(3, length=5)
    with pytest.raises(ValueError, match="curves differ in length"):
        make_dataset(short[:2] + long[2:], 1)


# ---------------------------------------------------------------------------
# NDJSON persistence
# ---------------------------------------------------------------------------

def test_corpus_round_trip_is_lossless(tmp_path):
    corpus = generate_lifecycle(GeneratorConfig(length=40, operations=30, seed=77))
    path = tmp_path / "corpus.ndjson"
    write_corpus(path, corpus)
    back = read_corpus(path)
    assert len(back) == len(corpus)
    for a, b in zip(corpus, back):
        assert np.array_equal(a.curve.samples, b.curve.samples)
        assert a.curve.op_index == b.curve.op_index
        assert a.curve.timestamp == b.curve.timestamp
        assert a.label == b.label
        assert a.tampered == b.tampered


def test_empty_file_is_empty_corpus(tmp_path):
    path = tmp_path / "empty.ndjson"
    path.write_text("")
    assert read_corpus(path) == []


def test_malformed_json_names_the_line(tmp_path):
    corpus = generate_lifecycle(GeneratorConfig(length=32, operations=3, seed=1))
    path = tmp_path / "corpus.ndjson"
    write_corpus(path, corpus)
    lines = path.read_text().splitlines()
    lines[1] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="line 2"):
        read_corpus(path)


def test_inconsistent_length_names_the_line(tmp_path):
    corpus = generate_lifecycle(GeneratorConfig(length=32, operations=4, seed=1))
    path = tmp_path / "corpus.ndjson"
    write_corpus(path, corpus)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["samples"] = rec["samples"][:-3]
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="line 3"):
        read_corpus(path)


def test_missing_field_names_the_line(tmp_path):
    path = tmp_path / "corpus.ndjson"
    path.write_text('{"op_index": 0, "timestamp": 1.0, "samples": [1, 2]}\n')
    with pytest.raises(FormatError, match="line 1.*label"):
        read_corpus(path)


def test_non_monotone_timestamps_rejected(tmp_path):
    corpus = generate_lifecycle(GeneratorConfig(length=32, operations=3, seed=1))
    corpus[2].curve.timestamp = corpus[0].curve.timestamp
    path = tmp_path / "corpus.ndjson"
    write_corpus(path, corpus)
    with pytest.raises(FormatError, match="line 3.*increase"):
        read_corpus(path)


@pytest.mark.parametrize("op_index", [1, 0], ids=["repeated", "decreasing"])
def test_non_increasing_op_index_names_the_line(tmp_path, op_index):
    corpus = generate_lifecycle(GeneratorConfig(length=32, operations=3, seed=1))
    corpus[2].curve.op_index = op_index
    path = tmp_path / "corpus.ndjson"
    write_corpus(path, corpus)
    with pytest.raises(FormatError, match="line 3.*op_index"):
        read_corpus(path)


@pytest.mark.parametrize("key, value", [
    ("tampered", "no"), ("tampered", 0), ("op_index", 2.0), ("op_index", "2"), ("timestamp", True),
])
def test_corpus_value_of_the_wrong_json_type_names_line_and_key(tmp_path, key, value):
    corpus = generate_lifecycle(GeneratorConfig(length=32, operations=3, seed=1))
    path = tmp_path / "corpus.ndjson"
    write_corpus(path, corpus)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec[key] = value
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=f"line 3: {key} must be a JSON"):
        read_corpus(path)


@pytest.mark.parametrize("sample", ["600.5", True, None, [600.5]],
                         ids=["string", "boolean", "null", "nested-array"])
def test_corpus_sample_that_is_not_a_number_names_line_and_samples(tmp_path, sample):
    corpus = generate_lifecycle(GeneratorConfig(length=32, operations=3, seed=1))
    path = tmp_path / "corpus.ndjson"
    write_corpus(path, corpus)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["samples"][5] = sample
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="line 3: samples must be a JSON array of numbers"):
        read_corpus(path)


def test_corpus_tamper_flag_may_be_null_or_absent(tmp_path):
    corpus = generate_lifecycle(GeneratorConfig(length=32, operations=2, seed=1))
    path = tmp_path / "corpus.ndjson"
    write_corpus(path, corpus)
    first, second = (json.loads(line) for line in path.read_text().splitlines())
    first["tampered"] = None
    del second["tampered"]
    path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
    assert [lc.tampered for lc in read_corpus(path)] == [False, False]


@pytest.mark.parametrize("op_index, accepted", [(2**63 - 1, True), (-2**63, True), (2**63, False),
                                                (-2**63 - 1, False), (10**19, False)])
def test_op_index_must_fit_in_int64(tmp_path, op_index, accepted):
    """curves_digest hashes op indices as int64, so a corpus may hold no other."""
    corpus = generate_lifecycle(GeneratorConfig(length=32, operations=3, seed=1))
    path = tmp_path / "corpus.ndjson"
    write_corpus(path, corpus)
    lines = path.read_text().splitlines()
    # the first line for a negative index and the last for a positive one,
    # so the indices still increase
    line = 1 if op_index < 0 else 3
    rec = json.loads(lines[line - 1])
    rec["op_index"] = op_index
    lines[line - 1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    if accepted:
        assert read_corpus(path)[line - 1].curve.op_index == op_index
    else:
        with pytest.raises(FormatError, match=f"line {line}: op_index must lie in"):
            read_corpus(path)


@pytest.mark.parametrize("value", [
    "x" * 100_000, [0.5] * 100_000, {str(k): k for k in range(100_000)}, 10**1000,
    [[[[0.5] * 1000]]],
], ids=["string", "list", "dict", "int", "nested"])
def test_short_repr_cuts_a_huge_value(value):
    text = short_repr(value)
    assert len(text) < 200 and "..." in text


@pytest.mark.parametrize("value", ["0" * 64, 0.1, -2**63, [1.0, 2.0, 3.0], {"band": 5}, None],
                         ids=["sha256", "float", "int64", "short-list", "small-dict", "null"])
def test_short_repr_keeps_a_small_value_whole(value):
    assert short_repr(value) == repr(value)
