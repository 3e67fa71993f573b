"""Generator contracts: shapes, labels, determinism, attack injection."""

import math
from dataclasses import replace

import numpy as np
import pytest

from turnoutguard.classifier import build_reference, classify, extract_features
from turnoutguard.curvegen import (
    DEFORMATION,
    AttackKind,
    AttackScenario,
    BaseShape,
    CurveKind,
    GeneratorConfig,
    Phase,
    PowerCurve,
    generate_lifecycle,
    inject_attack,
    nominal_shape,
)


def plan(*phases):
    return tuple(Phase(kind, s, e, s0, s1) for kind, s, e, s0, s1 in phases)


def test_zero_noise_early_life_is_the_base_shape():
    cfg = GeneratorConfig(length=64, operations=12, seed=5, noise_sigma=0.0)
    corpus = generate_lifecycle(cfg)
    assert len(corpus) == 12
    base = nominal_shape(cfg.base_shape, 64)
    for lc in corpus:
        assert np.array_equal(lc.curve.samples, base)
        assert lc.label.kind is CurveKind.EARLY_LIFE_NORMAL
        assert lc.label.severity == 0.0
        assert lc.tampered is False


def test_same_seed_is_bit_identical():
    cfg = GeneratorConfig(length=48, operations=40, seed=1234)
    a = generate_lifecycle(cfg)
    b = generate_lifecycle(GeneratorConfig(length=48, operations=40, seed=1234))
    for x, y in zip(a, b):
        assert np.array_equal(x.curve.samples, y.curve.samples)
        assert x.curve.timestamp == y.curve.timestamp
        assert x.label == y.label


def test_different_seed_differs():
    base = GeneratorConfig(length=48, operations=10, seed=1)
    other = GeneratorConfig(length=48, operations=10, seed=2)
    a = generate_lifecycle(base)
    b = generate_lifecycle(other)
    assert not np.array_equal(a[0].curve.samples, b[0].curve.samples)


def test_prefault_ramp_raises_plateau_by_configured_gain():
    # oracle: evaluate the parametric shape directly at both severities
    cfg = GeneratorConfig(
        length=200,
        operations=900,
        seed=0,
        noise_sigma=0.0,
        phase_plan=plan(
            (CurveKind.EARLY_LIFE_NORMAL, 0, 600, 0.0, 0.0),
            (CurveKind.PROGRESSIVE_PRE_FAULT, 600, 900, 0.0, 1.0),
        ),
    )
    corpus = generate_lifecycle(cfg)
    assert corpus[600].label.severity == 0.0
    assert corpus[899].label.severity == 1.0

    gain, widening = DEFORMATION[CurveKind.PROGRESSIVE_PRE_FAULT]
    assert (gain, widening) == (0.30, 0.50)
    lo, hi = int(0.2 * 200), int(0.8 * 200)
    mean_at = lambda op: corpus[op].curve.samples[lo:hi].mean()  # noqa: E731
    gain_w = gain * cfg.base_shape.plateau_level
    assert mean_at(899) - mean_at(600) >= gain_w - 1e-9

    expected_0 = nominal_shape(cfg.base_shape, 200)[lo:hi].mean()
    expected_1 = nominal_shape(
        cfg.base_shape, 200, plateau_gain=gain, bump_widening=widening,
    )[lo:hi].mean()
    assert mean_at(600) == pytest.approx(expected_0, abs=1e-9)
    assert mean_at(899) == pytest.approx(expected_1, abs=1e-9)


def test_prefault_severity_is_non_decreasing():
    cfg = GeneratorConfig(
        length=32,
        operations=100,
        seed=3,
        phase_plan=plan(
            (CurveKind.EARLY_LIFE_NORMAL, 0, 40, 0.0, 0.0),
            (CurveKind.PROGRESSIVE_PRE_FAULT, 40, 80, 0.1, 0.7),
            (CurveKind.PROGRESSIVE_PRE_FAULT, 80, 100, 0.7, 1.0),
        ),
    )
    severities = [lc.label.severity for lc in generate_lifecycle(cfg)
                  if lc.label.kind is CurveKind.PROGRESSIVE_PRE_FAULT]
    assert severities == sorted(severities)


def test_timestamps_strictly_increase():
    corpus = generate_lifecycle(GeneratorConfig(length=32, operations=25, seed=9))
    stamps = [lc.curve.timestamp for lc in corpus]
    assert all(b > a for a, b in zip(stamps, stamps[1:]))


def test_curve_samples_are_read_only():
    curve = PowerCurve(np.ones(20), op_index=0, timestamp=0.0)
    with pytest.raises(ValueError, match="read-only"):
        curve.samples[3] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        curve.samples += 1.0
    assert np.all(curve.samples == 1.0)


def test_curve_keeps_a_copy_of_the_samples_it_is_given():
    """The caller's array stays writable, and writing into it changes
    neither the curve nor the features kept with it."""
    base = np.full(200, 600.0)
    curve = PowerCurve(base[:], op_index=0, timestamp=0.0)
    before = extract_features(curve)
    assert base.flags.writeable
    base[50:150] = 900.0
    assert curve.samples[100] == 600.0
    assert extract_features(curve) is before
    assert before == extract_features(PowerCurve(np.full(200, 600.0), op_index=0, timestamp=0.0))
    assert extract_features(PowerCurve(base, op_index=0, timestamp=0.0)).plateau_mean == 850.0


def test_curves_are_finite_and_non_negative():
    cfg = GeneratorConfig(
        length=32, operations=60, seed=17, noise_sigma=50.0,
        phase_plan=plan(
            (CurveKind.EARLY_LIFE_NORMAL, 0, 20, 0.0, 0.0),
            (CurveKind.SUDDEN_FAILURE, 20, 40, 0.0, 0.0),
            (CurveKind.MINOR_ANOMALY, 40, 60, 0.0, 0.0),
        ),
    )
    for lc in generate_lifecycle(cfg):
        assert np.all(np.isfinite(lc.curve.samples))
        assert np.all(lc.curve.samples >= 0.0)


@pytest.mark.parametrize(
    "phases, match",
    [
        # overlap
        ([(CurveKind.EARLY_LIFE_NORMAL, 0, 60, 0.0, 0.0),
          (CurveKind.AGING, 50, 100, 0.0, 0.5)], "aging phase starts at op 50, not at op 60"),
        # gap
        ([(CurveKind.EARLY_LIFE_NORMAL, 0, 40, 0.0, 0.0),
          (CurveKind.AGING, 60, 100, 0.0, 0.5)], "aging phase starts at op 60, not at op 40"),
        # not covering the tail
        ([(CurveKind.EARLY_LIFE_NORMAL, 0, 90, 0.0, 0.0)], r"covers \[0, 90\)"),
        # pre-fault healing
        ([(CurveKind.PROGRESSIVE_PRE_FAULT, 0, 50, 0.8, 0.2),
          (CurveKind.EARLY_LIFE_NORMAL, 50, 100, 0.0, 0.0)], "pre-fault severity decreases at op 0"),
        # severity on a non-progressive kind
        ([(CurveKind.SUDDEN_FAILURE, 0, 100, 0.0, 0.5)], "sudden_failure phase at op 0"),
        # severity outside [0, 1]
        ([(CurveKind.AGING, 0, 100, 0.0, 1.5)], "aging phase at op 0: severity 1.5"),
        # empty phase
        ([(CurveKind.AGING, 0, 0, 0.0, 0.0),
          (CurveKind.EARLY_LIFE_NORMAL, 0, 100, 0.0, 0.0)], r"aging phase \[0, 0\) is empty or negative"),
    ],
    ids=["overlap", "gap", "tail", "healing", "severity-on-failure", "severity-above-1", "empty"],
)
def test_bad_phase_plans_are_rejected(phases, match):
    with pytest.raises(ValueError, match=match):
        GeneratorConfig(length=32, operations=100, phase_plan=plan(*phases))


def test_too_short_curve_rejected():
    with pytest.raises(ValueError, match="too short"):
        GeneratorConfig(length=8, operations=10)


@pytest.mark.parametrize("options, match", [
    ({"noise_sigma": math.nan}, "noise_sigma must be finite"),
    ({"noise_sigma": math.inf}, "noise_sigma must be finite"),
    ({"noise_sigma": -1.0}, "noise_sigma must be finite and >= 0"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"operations": 0}, "operations must be >= 1"),
    ({"failure_mode": "zap"}, "failure_mode"),
], ids=["nan-noise", "infinite-noise", "negative-noise", "negative-seed", "no-operations",
        "unknown-failure-mode"])
def test_generator_config_checks_itself(options, match):
    with pytest.raises(ValueError, match=match):
        GeneratorConfig(**{"length": 32, "operations": 10, **options})


@pytest.mark.parametrize("name", ["peak_amplitude", "peak_position", "plateau_level",
                                  "bump_amplitude", "bump_center", "bump_width"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
def test_base_shape_checks_every_value(name, value):
    with pytest.raises(ValueError, match=name):
        BaseShape(**{name: value})


def test_config_is_frozen():
    cfg = GeneratorConfig(length=32, operations=10)
    with pytest.raises(AttributeError):
        cfg.noise_sigma = float("nan")
    assert cfg.noise_sigma == 0.02 * cfg.base_shape.plateau_level
    assert cfg.phase_plan == (Phase(CurveKind.EARLY_LIFE_NORMAL, 0, 10),)


# ---------------------------------------------------------------------------
# attack injection
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def prefault_corpus():
    cfg = GeneratorConfig(
        length=64,
        operations=800,
        seed=21,
        phase_plan=plan(
            (CurveKind.EARLY_LIFE_NORMAL, 0, 600, 0.0, 0.0),
            (CurveKind.PROGRESSIVE_PRE_FAULT, 600, 800, 0.5, 1.0),
        ),
    )
    return cfg, generate_lifecycle(cfg)


def test_empty_target_range_is_identity(prefault_corpus):
    cfg, corpus = prefault_corpus
    out = inject_attack(corpus, AttackScenario(AttackKind.REPLAY_CONCEAL, 700, 700))
    assert len(out) == len(corpus)
    assert all(a is b for a, b in zip(out, corpus))
    assert not any(lc.tampered for lc in out)


def test_replay_conceal_substitutes_healthy_curves(prefault_corpus):
    cfg, corpus = prefault_corpus
    out = inject_attack(corpus, AttackScenario(AttackKind.REPLAY_CONCEAL, 700, 750))
    reference = build_reference(corpus[:500])
    for op in range(700, 750):
        assert out[op].tampered
        assert out[op].curve.op_index == op
        assert out[op].curve.timestamp == corpus[op].curve.timestamp
        # classifier oracle: the substituted curve must read as early life
        assert classify(out[op].curve, reference) is CurveKind.EARLY_LIFE_NORMAL
    # tamper locality: every other op is bit-identical
    for op in list(range(700)) + list(range(750, 800)):
        assert out[op] is corpus[op]


def test_replay_conceal_requires_earlier_healthy_data():
    cfg = GeneratorConfig(
        length=32, operations=60, seed=2,
        phase_plan=plan((CurveKind.PROGRESSIVE_PRE_FAULT, 0, 60, 0.5, 1.0),),
    )
    corpus = generate_lifecycle(cfg)
    with pytest.raises(ValueError, match="no healthy curve"):
        inject_attack(corpus, AttackScenario(AttackKind.REPLAY_CONCEAL, 10, 20))


def test_spurious_failure_classifies_as_sudden_failure():
    cfg = GeneratorConfig(length=64, operations=300, seed=4)
    corpus = generate_lifecycle(cfg)
    out = inject_attack(
        corpus, AttackScenario(AttackKind.SPURIOUS_FAILURE, 100, 101, seed=9), cfg
    )
    reference = build_reference(corpus[:200])
    assert out[100].tampered
    assert out[100].label.kind is CurveKind.SUDDEN_FAILURE
    assert classify(out[100].curve, reference) is CurveKind.SUDDEN_FAILURE
    assert out[99] is corpus[99] and out[101] is corpus[101]


def test_spurious_prefault_classifies_as_prefault():
    cfg = GeneratorConfig(length=64, operations=300, seed=4)
    corpus = generate_lifecycle(cfg)
    out = inject_attack(
        corpus,
        AttackScenario(AttackKind.SPURIOUS_PRE_FAULT, 50, 60, severity=0.8, seed=1),
        cfg,
    )
    reference = build_reference(corpus[:200])
    for op in range(50, 60):
        assert classify(out[op].curve, reference) is CurveKind.PROGRESSIVE_PRE_FAULT


def test_spurious_attacks_need_generator_config(prefault_corpus):
    _, corpus = prefault_corpus
    with pytest.raises(ValueError, match="generator config"):
        inject_attack(corpus, AttackScenario(AttackKind.SPURIOUS_FAILURE, 10, 12))


def test_injection_is_deterministic(prefault_corpus):
    cfg, corpus = prefault_corpus
    scenario = AttackScenario(AttackKind.SPURIOUS_PRE_FAULT, 100, 120, seed=5)
    a = inject_attack(corpus, scenario, cfg)
    b = inject_attack(corpus, scenario, cfg)
    for x, y in zip(a, b):
        assert np.array_equal(x.curve.samples, y.curve.samples)


def test_bad_target_range_rejected(prefault_corpus):
    _, corpus = prefault_corpus
    with pytest.raises(ValueError, match="target range"):
        inject_attack(corpus, AttackScenario(AttackKind.REPLAY_CONCEAL, 500, 9000))


def _shifted(corpus, by):
    """The same curves with op indices (and timestamps) moved by ``by`` ops."""
    return [
        replace(lc, curve=replace(lc.curve, op_index=lc.curve.op_index + by,
                                  timestamp=lc.curve.timestamp + by * 360.0))
        for lc in corpus
    ]


@pytest.mark.parametrize("kind", [AttackKind.REPLAY_CONCEAL, AttackKind.SPURIOUS_FAILURE])
def test_attack_range_addresses_op_indices(prefault_corpus, kind):
    cfg, corpus = prefault_corpus
    shifted = _shifted(corpus[:150], 1000)        # ops 1000..1149
    out = inject_attack(shifted, AttackScenario(kind, 1100, 1110, seed=3), cfg)
    assert [lc.curve.op_index for lc in out if lc.tampered] == list(range(1100, 1110))
    assert all(a is b for a, b in zip(out, shifted) if not a.tampered)
    with pytest.raises(ValueError, match="outside corpus ops"):
        inject_attack(shifted, AttackScenario(kind, 100, 110), cfg)


def test_attack_range_skips_missing_ops(prefault_corpus):
    cfg, corpus = prefault_corpus
    sparse = corpus[::2]                          # ops 0, 2, 4, ...
    out = inject_attack(sparse, AttackScenario(AttackKind.REPLAY_CONCEAL, 101, 111))
    assert [lc.curve.op_index for lc in out if lc.tampered] == [102, 104, 106, 108, 110]
    # replayed from the latest healthy curves before op 101
    replayed = [lc.curve.samples for lc in out if lc.tampered]
    expected = [lc.curve.samples for lc in sparse if lc.curve.op_index < 101][-5:]
    assert all(np.array_equal(a, b) for a, b in zip(replayed, expected))


@pytest.mark.parametrize("options, match", [
    ({"failure_mode": "zap"}, "failure_mode"),
    ({"seed": -1}, "attack seed must be >= 0"),
    ({"severity": 1.5}, "attack severity"),
    ({"severity": math.nan}, "attack severity"),
    ({"end": 9}, r"attack range \[10, 9\) ends before it starts"),
], ids=["unknown-failure-mode", "negative-seed", "severity-above-1", "nan-severity",
        "inverted-range"])
def test_attack_scenario_checks_itself(options, match):
    with pytest.raises(ValueError, match=match):
        AttackScenario(**{"kind": AttackKind.SPURIOUS_FAILURE, "start": 10, "end": 12, **options})
