"""Dataset preparation, chronological splits, and NDJSON round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turnoutguard.curvegen import GeneratorConfig, PowerCurve, generate_lifecycle
from turnoutguard.dataio import (
    CorpusFormatError,
    CurveWindow,
    make_dataset,
    read_corpus,
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
    assert [c.op_index for c in pairs[0].window] == list(range(50))
    assert pairs[0].target.op_index == 50


def test_dataset_preserves_order_and_alignment():
    pairs = make_dataset(curves(30), 7)
    assert len(pairs) == 23
    for k, pair in enumerate(pairs):
        assert pair.window.curves[0].op_index == k
        assert pair.target.op_index == k + 7


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


def test_pair_rejects_misaligned_target():
    cs = curves(5)
    from turnoutguard.dataio import SupervisedPair

    with pytest.raises(ValueError, match="does not follow"):
        SupervisedPair(CurveWindow(cs[:3]), cs[4])


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
    with pytest.raises(CorpusFormatError, match="line 2"):
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
    with pytest.raises(CorpusFormatError, match="line 3"):
        read_corpus(path)


def test_missing_field_names_the_line(tmp_path):
    path = tmp_path / "corpus.ndjson"
    path.write_text('{"op_index": 0, "timestamp": 1.0, "samples": [1, 2]}\n')
    with pytest.raises(CorpusFormatError, match="line 1.*label"):
        read_corpus(path)


def test_non_monotone_timestamps_rejected(tmp_path):
    corpus = generate_lifecycle(GeneratorConfig(length=32, operations=3, seed=1))
    corpus[2].curve.timestamp = corpus[0].curve.timestamp
    path = tmp_path / "corpus.ndjson"
    write_corpus(path, corpus)
    with pytest.raises(CorpusFormatError, match="line 3.*increase"):
        read_corpus(path)


@pytest.mark.parametrize("op_index", [1, 0], ids=["repeated", "decreasing"])
def test_non_increasing_op_index_names_the_line(tmp_path, op_index):
    corpus = generate_lifecycle(GeneratorConfig(length=32, operations=3, seed=1))
    corpus[2].curve.op_index = op_index
    path = tmp_path / "corpus.ndjson"
    write_corpus(path, corpus)
    with pytest.raises(CorpusFormatError, match="line 3.*op_index"):
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
    with pytest.raises(CorpusFormatError, match=f"line 3: {key} must be a JSON"):
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
