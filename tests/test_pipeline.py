"""Operation-phase loop: bootstrap, stepping, policies, determinism."""

import gc
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from turnoutguard import classifier, forecaster
from turnoutguard.classifier import build_reference
from turnoutguard.comparator import DistancePair, Thresholds, calibrate, validate
from turnoutguard.curvegen import (
    OP_PERIOD_S,
    AttackKind,
    AttackScenario,
    CurveKind,
    CurveLabel,
    GeneratorConfig,
    LabeledCurve,
    PowerCurve,
    generate_lifecycle,
    inject_attack,
)
from turnoutguard.dataio import make_dataset
from turnoutguard.forecaster import (ForecastModel, ForecastSession, TrainConfig, load_model,
                                    save_model, train)
from turnoutguard.investigator import Verdict, VerdictKind
from turnoutguard.pipeline import Pipeline, PipelineConfig

from recurrence_counts import count_advances

LENGTH = 40
WINDOW = 5


@pytest.fixture(scope="module")
def constant_world():
    """Zero-weight model that predicts the constant corpus curve exactly."""
    cfg = GeneratorConfig(length=LENGTH, operations=60, seed=3, noise_sigma=0.0)
    corpus = generate_lifecycle(cfg)
    hidden = 4
    model = ForecastModel(
        w_x=np.zeros((LENGTH, 4 * hidden)),
        w_h=np.zeros((hidden, 4 * hidden)),
        b=np.zeros(4 * hidden),
        v_out=np.zeros((LENGTH, hidden)),
        b_out=np.zeros(LENGTH),
        norm_mean=corpus[0].curve.samples.copy(),
        norm_scale=np.ones(LENGTH),
        window=WINDOW,
    )
    reference = build_reference(corpus[:40])
    thresholds = Thresholds(tau_euclidean=10.0, tau_dtw=50.0)
    return cfg, corpus, model, reference, thresholds


@pytest.mark.parametrize("options, match", [
    ({"alarm_after": 0}, "alarm_after must be >= 1"),
    ({"band": 3}, "band must be None"),
], ids=["zero-alarm-after", "band"])
def test_pipeline_config_checks_itself(options, match):
    with pytest.raises(ValueError, match=match):
        PipelineConfig(**options)


def fresh_pipeline(world, **config):
    _, corpus, model, reference, thresholds = world
    pipe = Pipeline(model, thresholds, reference, PipelineConfig(**config))
    return pipe.bootstrap(corpus[:40])


def field_curve(world, op, bump=0.0, label=CurveKind.EARLY_LIFE_NORMAL):
    cfg, corpus, *_ = world
    samples = corpus[0].curve.samples.copy()
    if bump:
        samples[10:20] += bump
    curve = PowerCurve(samples, op_index=op, timestamp=2_000_000_000.0 + op)
    return LabeledCurve(curve, CurveLabel(label), tampered=bump != 0.0)


def test_bootstrap_takes_the_last_window(constant_world):
    _, corpus, model, reference, thresholds = constant_world
    pipe = Pipeline(model, thresholds, reference)
    pipe.bootstrap(corpus[:WINDOW])
    assert [c.op_index for c in pipe.window.curves] == [0, 1, 2, 3, 4]
    pipe.bootstrap(corpus[: WINDOW + 5])
    assert [c.op_index for c in pipe.window.curves] == [5, 6, 7, 8, 9]


def test_bootstrap_twice_resets_state(constant_world):
    pipe = fresh_pipeline(constant_world)
    lc = field_curve(constant_world, 100)
    pipe.step(lc)
    assert pipe.reports and pipe.window.last is lc.curve
    pipe.bootstrap([lc.curve for lc in constant_world[1][:40]])
    assert pipe.reports == [] and all(c is not lc.curve for c in pipe.window.curves)
    assert [c.op_index for c in pipe.window.curves] == [35, 36, 37, 38, 39]


def test_bootstrap_requires_enough_curves(constant_world):
    _, corpus, model, reference, thresholds = constant_world
    with pytest.raises(ValueError, match="insufficient test data"):
        Pipeline(model, thresholds, reference).bootstrap(corpus[:WINDOW - 1])


def test_step_requires_bootstrap(constant_world):
    _, corpus, model, reference, thresholds = constant_world
    with pytest.raises(RuntimeError, match="bootstrap"):
        Pipeline(model, thresholds, reference).step(corpus[41])


def test_exact_match_validates_and_advances_the_window(constant_world):
    pipe = fresh_pipeline(constant_world)
    before = pipe.window.curves
    lc = field_curve(constant_world, 50)
    report = pipe.step(lc)
    assert report.verdict.kind is VerdictKind.VALIDATED
    assert report.distances.euclidean == 0.0
    assert report.tampered is False
    assert pipe.window.last is lc.curve
    assert pipe.window.curves == before[1:] + [lc.curve]


def test_rejected_curve_leaves_the_window_frozen(constant_world):
    pipe = fresh_pipeline(constant_world)
    before = pipe.window.curves
    lc = field_curve(constant_world, 50, bump=400.0)
    report = pipe.step(lc)
    assert report.verdict.kind is not VerdictKind.VALIDATED
    assert pipe.window.curves == before
    assert all(c is not lc.curve for c in pipe.window.curves)


def test_window_purity_over_a_mixed_run(constant_world):
    pipe = fresh_pipeline(constant_world)
    bootstrap_ids = {id(c) for c in pipe.window.curves}
    stream = [
        field_curve(constant_world, 50),
        field_curve(constant_world, 51, bump=300.0),
        field_curve(constant_world, 52),
        field_curve(constant_world, 53, bump=300.0),
        field_curve(constant_world, 54),
    ]
    pipe.run(stream)
    validated = {r.op_index for r in pipe.reports if r.verdict.kind is VerdictKind.VALIDATED}
    sent = {lc.curve.op_index: lc.curve for lc in stream}
    assert validated
    for curve in pipe.window.curves:
        assert id(curve) in bootstrap_ids or (
            sent.get(curve.op_index) is curve and curve.op_index in validated)


def test_run_emits_one_report_per_curve_in_order(constant_world):
    pipe = fresh_pipeline(constant_world)
    assert pipe.run([]) == []
    stream = [field_curve(constant_world, 50 + k) for k in range(7)]
    reports = pipe.run(stream)
    assert len(reports) == 7
    ops = [r.op_index for r in reports]
    assert ops == sorted(ops) and len(set(ops)) == 7


def test_replayed_stream_reproduces_identical_reports(constant_world):
    stream = [
        field_curve(constant_world, 50),
        field_curve(constant_world, 51, bump=500.0),
        field_curve(constant_world, 52),
    ]
    a = fresh_pipeline(constant_world).run(stream)
    b = fresh_pipeline(constant_world).run(stream)
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


def test_fresh_copies_of_a_stream_reproduce_the_reports(constant_world):
    """Features cached on the curves of one run change nothing in the next."""
    _, corpus, model, reference, thresholds = constant_world
    stream = [field_curve(constant_world, 50 + k, bump=500.0 * (k % 3 == 1)) for k in range(9)]
    first = [r.to_dict() for r in fresh_pipeline(constant_world).run(stream)]
    assert all(lc.curve.features is not None for lc in stream)
    copies = [
        LabeledCurve(PowerCurve(lc.curve.samples.copy(), lc.curve.op_index, lc.curve.timestamp),
                     lc.label, lc.tampered)
        for lc in stream
    ]
    again = Pipeline(model, thresholds, reference).bootstrap(
        [PowerCurve(lc.curve.samples.copy(), lc.curve.op_index, lc.curve.timestamp)
         for lc in corpus[:40]]
    )
    assert [r.to_dict() for r in again.run(copies)] == first
    assert {r["verdict"]["kind"] for r in first} == {"validated", "no_suspicion"}


def test_non_monotone_stream_is_rejected(constant_world):
    pipe = fresh_pipeline(constant_world)
    pipe.step(field_curve(constant_world, 50))
    with pytest.raises(ValueError, match="advance"):
        pipe.step(field_curve(constant_world, 50))


def test_wrong_length_curve_is_rejected(constant_world):
    pipe = fresh_pipeline(constant_world)
    bad = PowerCurve(np.ones(LENGTH + 1), op_index=50, timestamp=2_000_000_000.0)
    with pytest.raises(ValueError, match="samples"):
        pipe.step(bad)


def test_a_field_curve_whose_distances_overflow_is_refused(constant_world):
    """Its report could hold no finite distance, so the step refuses the op."""
    pipe = fresh_pipeline(constant_world)
    before = pipe.window.curves
    samples = field_curve(constant_world, 50).curve.samples.copy()
    samples[7] = 1e308
    huge = PowerCurve(samples, op_index=50, timestamp=2_000_000_050.0)
    with pytest.raises(ValueError, match="^field op 50: the distances overflow"):
        pipe.step(huge)
    assert pipe.reports == []
    assert all(a is b for a, b in zip(pipe.window.curves, before, strict=True))
    assert pipe.step(field_curve(constant_world, 51)).verdict.kind is VerdictKind.VALIDATED


def test_rejection_streak_raises_an_alert(constant_world):
    pipe = fresh_pipeline(constant_world, alarm_after=3)
    reports = pipe.run(
        [field_curve(constant_world, 50 + k, bump=400.0) for k in range(4)]
    )
    assert [r.alert is not None for r in reports] == [False, False, True, True]
    assert "3 consecutive" in reports[2].alert
    # a validated step clears the streak
    cleared = pipe.step(field_curve(constant_world, 60))
    assert cleared.alert is None


def test_bare_power_curves_have_no_ground_truth(constant_world):
    pipe = fresh_pipeline(constant_world)
    report = pipe.step(field_curve(constant_world, 50).curve)
    assert report.tampered is None


def test_minor_transient_gets_no_suspicion(constant_world):
    cfg, corpus, model, reference, thresholds = constant_world
    pipe = fresh_pipeline(constant_world)
    samples = corpus[0].curve.samples.copy()
    k = len(samples) // 2
    samples[k - 1:k + 2] += 0.6 * cfg.base_shape.plateau_level
    lc = LabeledCurve(
        PowerCurve(samples, 50, 2_000_000_000.0), CurveLabel(CurveKind.MINOR_ANOMALY)
    )
    report = pipe.step(lc)
    assert report.field_kind is CurveKind.MINOR_ANOMALY
    assert report.verdict.kind is VerdictKind.NO_SUSPICION


@pytest.fixture(scope="module")
def attacked_world(tmp_path_factory):
    """A trained model read from its weights file, and a stream with three
    attacks that freeze the window for several ops each."""
    cfg = GeneratorConfig(length=LENGTH, operations=160, seed=8)
    corpus = generate_lifecycle(cfg)
    for kind, start, end in [(AttackKind.SPURIOUS_FAILURE, 110, 117),
                             (AttackKind.SPURIOUS_PRE_FAULT, 125, 134),
                             (AttackKind.SPURIOUS_FAILURE, 145, 149)]:
        corpus = inject_attack(corpus, AttackScenario(kind, start, end, seed=start), cfg)
    model, _ = train(make_dataset(corpus[:80], WINDOW),
                     TrainConfig(hidden=8, epochs=30, seed=2, dtype="float32"))
    path = tmp_path_factory.mktemp("attacked") / "model.json"
    save_model(model, path)
    model = load_model(path)
    thresholds = calibrate(model, make_dataset(corpus[80:100], WINDOW))
    reference = build_reference(corpus[:80])
    return model, thresholds, reference, corpus


def test_reused_forecasts_replay_a_fresh_session_before_every_step(attacked_world, monkeypatch):
    """A frozen window is forecast once; the reports equal, byte for byte,
    those of a pipeline that starts a fresh forecast session before every
    step."""
    model, thresholds, reference, corpus = attacked_world
    stream = corpus[100:]

    advances = count_advances(monkeypatch)
    one = Pipeline(model, thresholds, reference).bootstrap(corpus[:100])
    reused = [json.dumps(one.step(lc).to_dict()) for lc in stream]

    fresh = Pipeline(model, thresholds, reference).bootstrap(corpus[:100])
    replayed = []
    for lc in stream:
        fresh.session = ForecastSession(model)
        replayed.append(json.dumps(fresh.step(lc).to_dict()))
    assert reused == replayed

    # the window moves only on a validated step, by one curve, so the first
    # step of each pipeline rebuilds the suffix states in WINDOW advances,
    # only the step after a validated one advances them once, and a fresh
    # session always rebuilds
    validated = [r.verdict.kind is VerdictKind.VALIDATED for r in one.reports]
    assert advances.count(one.session) == WINDOW + sum(validated[:-1])
    assert len(advances) - advances.count(one.session) == WINDOW * len(stream)
    streaks = "".join(".x"[not v] for v in validated).split(".")
    assert max(map(len, streaks)) >= 4 and sum(validated) >= 10


def test_a_frozen_window_is_forecast_as_one_curve(attacked_world, monkeypatch):
    """Over a rejection streak the window repeats, and so does the forecast:
    one curve object, whose features are extracted once.  The reports equal
    those of a forward that builds a fresh curve on every step."""
    model, thresholds, reference, corpus = attacked_world
    history, stream = corpus[:100], corpus[100:]

    def fresh_forward(session, window):
        samples = np.clip(forecaster.forward_samples(session, window.curves), 0.0, None)
        return PowerCurve(samples, window.last.op_index + 1,
                          window.last.timestamp + OP_PERIOD_S)

    with monkeypatch.context() as patch:
        patch.setattr(forecaster, "forward", fresh_forward)
        fresh = Pipeline(model, thresholds, reference).bootstrap(history).run(stream)

    extracted = []
    real_features = classifier._features
    monkeypatch.setattr(classifier, "_features",
                        lambda samples: extracted.append(samples) or real_features(samples))
    pipe = Pipeline(model, thresholds, reference).bootstrap(history)
    predictions = []
    for lc in stream:
        pipe.step(lc)
        predictions.append(pipe.session.curve)
    assert [json.dumps(r.to_dict()) for r in pipe.reports] == \
        [json.dumps(r.to_dict()) for r in fresh]

    # step k forecasts from the window step k - 1 left, which a rejection froze
    validated = [r.verdict.kind is VerdictKind.VALIDATED for r in pipe.reports]
    for k in range(1, len(stream)):
        assert (predictions[k] is predictions[k - 1]) is not validated[k - 1], k
    for prediction in {id(p): p for p in predictions}.values():
        assert sum(samples is prediction.samples for samples in extracted) == 1
    streaks = "".join(".x"[not v] for v in validated).split(".")
    assert max(map(len, streaks)) >= 4


def test_pipelines_sharing_a_model_each_step_as_a_lone_one(attacked_world, monkeypatch):
    """Each pipeline holds its own forecast session: stepped interleaved
    with a second pipeline on the same model, one op behind it, each gives
    the reports of a pipeline stepped alone, with the same number of
    recurrence advances on every step."""
    model, thresholds, reference, corpus = attacked_world
    history, stream = corpus[:100], corpus[100:]
    advances = count_advances(monkeypatch)

    def step(pipe, lc, runs):
        before = len(advances)
        report = json.dumps(pipe.step(lc).to_dict())
        runs.append(len(advances) - before)
        return report

    lone_runs = []
    lone = Pipeline(model, thresholds, reference).bootstrap(history)
    lone_reports = [step(lone, lc, lone_runs) for lc in stream]

    ahead, behind = (Pipeline(model, thresholds, reference).bootstrap(history) for _ in "ab")
    ahead_reports, ahead_runs, behind_reports, behind_runs = [], [], [], []
    for k in range(len(stream) + 1):
        if k < len(stream):
            ahead_reports.append(step(ahead, stream[k], ahead_runs))
        if k:
            behind_reports.append(step(behind, stream[k - 1], behind_runs))
    assert ahead_reports == behind_reports == lone_reports
    assert ahead_runs == behind_runs == lone_runs
    assert 1 in lone_runs and 0 in lone_runs


def test_report_records_have_no_instance_dict(attacked_world):
    """Reports, their distances and verdicts, and validation results are
    slotted.  A report keeps its two distances as float fields; ``distances``
    is a read-only pair made from them."""
    model, thresholds, reference, corpus = attacked_world
    pipe = Pipeline(model, thresholds, reference).bootstrap(corpus[:100])
    report = pipe.step(corpus[100])
    outcome = validate(corpus[100].curve, pipe.session.curve, thresholds)
    for record in (report, report.distances, report.verdict, outcome):
        assert not hasattr(record, "__dict__"), type(record).__name__
    assert report.distances == outcome.distances == DistancePair(report.euclidean, report.dtw)
    with pytest.raises(AttributeError):
        report.distances = outcome.distances


def _retained(make):
    """Bytes that what ``make()`` returns keeps alive, and that value."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = make()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - base, kept
    finally:
        tracemalloc.stop()


def test_reports_retain_few_bytes_each(attacked_world):
    """Pipeline.reports keeps every report of the stream, so a report shares
    its verdict with every op that took the same branch.  The reference is
    the same reports, each holding a verdict and rationale of its own.  Over
    10 passes of the attacked stream the reports retained 0.53 of it
    (Python 3.11): about 205 bytes a report against 385."""
    model, thresholds, reference, corpus = attacked_world
    history, stream = corpus[:100], corpus[100:]
    first = Pipeline(model, thresholds, reference).bootstrap(history).run(stream)
    assert sum(r.alert is not None for r in first) >= 5
    shared, passes = _retained(
        lambda: [Pipeline(model, thresholds, reference).bootstrap(history).run(stream)
                 for _ in range(10)])
    reports = [r for run in passes for r in run]
    assert reports == first * 10

    def own(text):
        return None if text is None else text.encode().decode()

    def own_verdict(r):
        v = r.verdict
        return replace(r, euclidean=r.euclidean + 0.0, dtw=r.dtw + 0.0,
                       verdict=Verdict(v.kind, v.reason_code, own(v.rationale)),
                       alert=own(r.alert))

    unshared, copies = _retained(lambda: [own_verdict(r) for r in reports])
    assert copies == reports
    assert shared < 0.7 * unshared, f"{shared} bytes shared, {unshared} unshared"
    # equal verdicts are one object, whichever pipeline made them
    for a, b in zip(first, passes[-1]):
        assert a.verdict is b.verdict
