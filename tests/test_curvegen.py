"""Generator contracts: shapes, labels, determinism, attack injection."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest

from turnoutguard.classifier import build_reference, classify
from turnoutguard.curvegen import (
    CONFIG_KEYS,
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
    "phases",
    [
        # overlap
        [(CurveKind.EARLY_LIFE_NORMAL, 0, 60, 0.0, 0.0),
         (CurveKind.AGING, 50, 100, 0.0, 0.5)],
        # gap
        [(CurveKind.EARLY_LIFE_NORMAL, 0, 40, 0.0, 0.0),
         (CurveKind.AGING, 60, 100, 0.0, 0.5)],
        # not covering the tail
        [(CurveKind.EARLY_LIFE_NORMAL, 0, 90, 0.0, 0.0)],
        # pre-fault healing
        [(CurveKind.PROGRESSIVE_PRE_FAULT, 0, 50, 0.8, 0.2),
         (CurveKind.EARLY_LIFE_NORMAL, 50, 100, 0.0, 0.0)],
        # severity on a non-progressive kind
        [(CurveKind.SUDDEN_FAILURE, 0, 100, 0.0, 0.5)],
    ],
)
def test_bad_phase_plans_are_rejected(phases):
    cfg = GeneratorConfig(length=32, operations=100, phase_plan=plan(*phases))
    with pytest.raises(ValueError):
        cfg.validate()


def test_too_short_curve_rejected():
    with pytest.raises(ValueError, match="too short"):
        GeneratorConfig(length=8, operations=10).validate()


def test_config_json_round_trip():
    doc = {
        "length": 56, "operations": 120, "seed": 8, "noise_sigma": 3.5,
        "base_shape": {"peak_amplitude": 2000.0, "peak_position": 0.05, "plateau_level": 500.0,
                       "bump_amplitude": 200.0, "bump_center": 0.93, "bump_width": 0.025},
        "phases": [
            {"kind": "early_life_normal", "start": 0, "end": 70},
            {"kind": "progressive_pre_fault", "start": 70, "end": 120, "severity": [0.0, 0.9]},
        ],
        "failure_mode": "spike",
    }
    assert set(doc) == set(CONFIG_KEYS)
    cfg = GeneratorConfig.from_dict(json.loads(json.dumps(doc)))
    assert cfg == GeneratorConfig(
        length=56, operations=120, seed=8, noise_sigma=3.5,
        base_shape=BaseShape(2000.0, 0.05, 500.0, 200.0, 0.93, 0.025),
        phase_plan=plan(
            (CurveKind.EARLY_LIFE_NORMAL, 0, 70, 0.0, 0.0),
            (CurveKind.PROGRESSIVE_PRE_FAULT, 70, 120, 0.0, 0.9),
        ),
        failure_mode="spike",
    )
    default = GeneratorConfig()
    for f in fields(GeneratorConfig):
        assert getattr(cfg, f.name) != getattr(default, f.name), f.name
    for f in fields(BaseShape):
        assert getattr(cfg.base_shape, f.name) != getattr(default.base_shape, f.name), f.name
    with pytest.raises(ValueError, match="unknown generator config keys"):
        GeneratorConfig.from_dict({"lenght": 50})


@pytest.mark.parametrize("key, value", [
    ("prefault_plateau_gain", 0.25), ("prefault_bump_widening", 0.45),
    ("aging_plateau_gain", 0.15), ("endoflife_plateau_gain", 0.35),
    ("endoflife_bump_widening", 0.75), ("transient_amplitude", 150.0),
    ("transient_width", 0.03), ("transient_span", [0.4, 0.6]),
    ("failure_cut_span", [0.2, 0.8]), ("failure_spike_gain", 1.5),
])
def test_removed_magnitude_keys_are_rejected(key, value):
    with pytest.raises(ValueError, match="unknown generator config keys"):
        GeneratorConfig.from_dict({key: value})


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


def test_unknown_failure_mode_is_rejected(prefault_corpus):
    cfg, corpus = prefault_corpus
    scenario = AttackScenario(AttackKind.SPURIOUS_FAILURE, 10, 12, failure_mode="zap")
    with pytest.raises(ValueError, match="failure_mode"):
        inject_attack(corpus, scenario, cfg)
