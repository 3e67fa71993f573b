"""Operation-phase loop: bootstrap, stepping, policies, determinism."""

import json

import numpy as np
import pytest

from turnoutguard.classifier import build_reference
from turnoutguard.comparator import Thresholds, calibrate
from turnoutguard.curvegen import (
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
from turnoutguard.investigator import VerdictKind
from turnoutguard.pipeline import Pipeline, PipelineConfig

from recurrence_counts import count_recurrences

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
    assert [c.op_index for c in pipe.window] == [0, 1, 2, 3, 4]
    pipe.bootstrap(corpus[: WINDOW + 5])
    assert [c.op_index for c in pipe.window] == [5, 6, 7, 8, 9]


def test_bootstrap_twice_resets_state(constant_world):
    pipe = fresh_pipeline(constant_world)
    pipe.step(field_curve(constant_world, 100))
    assert pipe.reports and pipe.validated_store
    pipe.bootstrap([lc.curve for lc in constant_world[1][:40]])
    assert pipe.reports == [] and pipe.validated_store == []
    assert [c.op_index for c in pipe.window] == [35, 36, 37, 38, 39]


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
    lc = field_curve(constant_world, 50)
    report = pipe.step(lc)
    assert report.verdict.kind is VerdictKind.VALIDATED
    assert report.distances.euclidean == 0.0
    assert report.tampered is False
    assert pipe.window.last is lc.curve
    assert pipe.validated_store == [lc.curve]


def test_rejected_curve_leaves_the_window_frozen(constant_world):
    pipe = fresh_pipeline(constant_world)
    before = pipe.window.curves
    report = pipe.step(field_curve(constant_world, 50, bump=400.0))
    assert report.verdict.kind is not VerdictKind.VALIDATED
    assert pipe.window.curves == before
    assert pipe.validated_store == []


def test_window_purity_over_a_mixed_run(constant_world):
    pipe = fresh_pipeline(constant_world)
    bootstrap_ids = {id(c) for c in pipe.window}
    stream = [
        field_curve(constant_world, 50),
        field_curve(constant_world, 51, bump=300.0),
        field_curve(constant_world, 52),
        field_curve(constant_world, 53, bump=300.0),
        field_curve(constant_world, 54),
    ]
    pipe.run(stream)
    accepted = {id(c) for c in pipe.validated_store}
    for curve in pipe.window:
        assert id(curve) in bootstrap_ids | accepted


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

    recurrences = count_recurrences(monkeypatch)
    one = Pipeline(model, thresholds, reference).bootstrap(corpus[:100])
    reused = [json.dumps(one.step(lc).to_dict()) for lc in stream]

    fresh = Pipeline(model, thresholds, reference).bootstrap(corpus[:100])
    replayed = []
    for lc in stream:
        fresh.session = ForecastSession(model)
        replayed.append(json.dumps(fresh.step(lc).to_dict()))
    assert reused == replayed

    # the window moves only on a validated step, by one curve, so the first
    # step of each pipeline builds the suffix states, only the step after a
    # validated one advances them, and a fresh session always builds
    validated = [r.verdict.kind is VerdictKind.VALIDATED for r in one.reports]
    assert recurrences.count("build") == 1 + len(stream)
    assert recurrences.count("advance") == sum(validated[:-1])
    streaks = "".join(".x"[not v] for v in validated).split(".")
    assert max(map(len, streaks)) >= 4 and sum(validated) >= 10


def test_pipelines_sharing_a_model_each_step_as_a_lone_one(attacked_world, monkeypatch):
    """Each pipeline holds its own forecast session: stepped interleaved
    with a second pipeline on the same model, one op behind it, each gives
    the reports of a pipeline stepped alone, with the same recurrence runs
    on every step."""
    model, thresholds, reference, corpus = attacked_world
    history, stream = corpus[:100], corpus[100:]
    recurrences = count_recurrences(monkeypatch)

    def step(pipe, lc, runs):
        before = len(recurrences)
        report = json.dumps(pipe.step(lc).to_dict())
        runs.append(recurrences[before:])
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
    assert ["advance"] in lone_runs and [] in lone_runs
