"""Synthetic turnout life cycles and data-tampering scenarios.

A switch operation draws a characteristic power signature: an unlocking
inrush peak, a translation plateau while the blades move, and a locking
bump at the end.  This module builds labeled corpora of such curves over a
whole life cycle (healthy early life, aging, progressive pre-fault drift,
isolated transients, sudden failures) and can substitute tampered curves
into a corpus the way an attacker with write access to the field data
would: replaying old healthy operations to conceal a developing fault, or
planting fake fault shapes to trigger needless maintenance.

Everything is driven by explicit seeds; each operation draws from its own
``(seed, op_index)`` random stream, so corpora are reproducible bit for bit
and editing one phase of a plan never disturbs the curves of another.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum

import numpy as np

# synthetic timeline: one switch operation every 6 minutes
EPOCH_START = 1_700_000_000.0
OP_PERIOD_S = 360.0

# structural fractions of the three-phase signature
INRUSH_END = 0.15
LOCK_START = 0.85
MIN_CURVE_LEN = 16

FAILURE_MODES = ("truncate", "spike", "random")


class CurveKind(str, Enum):
    EARLY_LIFE_NORMAL = "early_life_normal"
    AGING = "aging"
    PROGRESSIVE_PRE_FAULT = "progressive_pre_fault"
    MINOR_ANOMALY = "minor_anomaly"
    SUDDEN_FAILURE = "sudden_failure"
    END_OF_LIFE = "end_of_life"


#: kinds whose curves deform progressively with a severity in (0, 1]
PROGRESSIVE_KINDS = frozenset(
    {CurveKind.AGING, CurveKind.PROGRESSIVE_PRE_FAULT, CurveKind.END_OF_LIFE}
)


class AttackKind(str, Enum):
    REPLAY_CONCEAL = "replay_conceal"
    SPURIOUS_FAILURE = "spurious_failure"
    SPURIOUS_PRE_FAULT = "spurious_pre_fault"


@dataclass
class PowerCurve:
    """Power samples (watts) recorded during one switch operation."""

    samples: np.ndarray
    op_index: int
    timestamp: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D vector")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError(f"op {self.op_index}: non-finite power sample")
        if np.any(self.samples < 0.0):
            raise ValueError(f"op {self.op_index}: negative power sample")

    def __len__(self):
        return self.samples.size


@dataclass(frozen=True)
class CurveLabel:
    kind: CurveKind
    severity: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.severity <= 1.0:
            raise ValueError(f"severity {self.severity} outside [0, 1]")
        if self.severity > 0.0 and self.kind not in PROGRESSIVE_KINDS:
            raise ValueError(f"{self.kind.value} does not carry a severity")


@dataclass
class LabeledCurve:
    curve: PowerCurve
    label: CurveLabel
    tampered: bool = False


@dataclass(frozen=True)
class BaseShape:
    """Parameters of the nominal three-phase power signature."""

    peak_amplitude: float = 2500.0  # W, unlocking inrush
    peak_position: float = 0.06     # fraction of the curve
    plateau_level: float = 600.0    # W, translation phase
    bump_amplitude: float = 250.0   # W above plateau, locking bump
    bump_center: float = 0.925      # fraction of the curve
    bump_width: float = 0.03        # gaussian sigma, fraction of the curve

    def validate(self):
        for name in ("peak_amplitude", "plateau_level", "bump_amplitude"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"base shape: {name} must be > 0")
        if not 0.0 < self.peak_position < INRUSH_END:
            raise ValueError("peak_position must fall inside the inrush phase")
        if not LOCK_START < self.bump_center < 1.0:
            raise ValueError("bump_center must fall inside the locking phase")
        if self.bump_width <= 0.0:
            raise ValueError("bump_width must be > 0")


@dataclass(frozen=True)
class Phase:
    """One contiguous stretch of the life cycle: ops [start, end)."""

    kind: CurveKind
    start: int
    end: int
    severity_start: float = 0.0
    severity_end: float = 0.0

    def severity_at(self, op_index: int) -> float:
        span = self.end - 1 - self.start
        if span <= 0:
            return self.severity_start
        frac = (op_index - self.start) / span
        return self.severity_start + (self.severity_end - self.severity_start) * frac


@dataclass
class GeneratorConfig:
    length: int = 200          # samples per curve
    operations: int = 1000     # curves per life cycle
    seed: int = 0
    noise_sigma: float | None = None   # W; default 2% of the plateau level
    base_shape: BaseShape = field(default_factory=BaseShape)
    phase_plan: tuple[Phase, ...] | None = None  # default: all early life

    # progressive deformation magnitudes (fraction of the base value at severity 1)
    prefault_plateau_gain: float = 0.30
    prefault_bump_widening: float = 0.50
    aging_plateau_gain: float = 0.10
    endoflife_plateau_gain: float = 0.40
    endoflife_bump_widening: float = 0.80

    # isolated transient (minor anomaly)
    transient_amplitude: float | None = None   # W; default 50% of the plateau
    transient_width: float = 0.02              # gaussian sigma, fraction of curve
    transient_span: tuple[float, float] = (0.35, 0.65)  # center drawn here

    # sudden failure
    failure_mode: str = "truncate"             # "truncate" | "spike" | "random"
    failure_cut_span: tuple[float, float] = (0.3, 0.7)
    failure_spike_gain: float = 2.0

    def __post_init__(self):
        if self.noise_sigma is None:
            self.noise_sigma = 0.02 * self.base_shape.plateau_level
        if self.transient_amplitude is None:
            self.transient_amplitude = 0.5 * self.base_shape.plateau_level
        if self.phase_plan is None:
            self.phase_plan = (
                Phase(CurveKind.EARLY_LIFE_NORMAL, 0, self.operations),
            )
        else:
            self.phase_plan = tuple(self.phase_plan)

    def validate(self):
        if self.length < MIN_CURVE_LEN:
            raise ValueError(
                f"curve length {self.length} too short to carry the "
                f"three-phase shape (minimum {MIN_CURVE_LEN})"
            )
        if self.operations < 1:
            raise ValueError("operations must be >= 1")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be >= 0")
        if self.failure_mode not in FAILURE_MODES:
            raise ValueError(f"unknown failure_mode {self.failure_mode!r}")
        self.base_shape.validate()
        self._validate_phases()

    def _validate_phases(self):
        plan = sorted(self.phase_plan, key=lambda p: p.start)
        cursor = 0
        for phase in plan:
            if phase.start < cursor:
                raise ValueError(
                    f"phase plan overlaps at op {phase.start} ({phase.kind.value})"
                )
            if phase.start > cursor:
                raise ValueError(f"phase plan leaves ops [{cursor}, {phase.start}) uncovered")
            if phase.end <= phase.start:
                raise ValueError(f"empty phase at op {phase.start}")
            for sev in (phase.severity_start, phase.severity_end):
                if not 0.0 <= sev <= 1.0:
                    raise ValueError("phase severities must lie in [0, 1]")
            if phase.kind not in PROGRESSIVE_KINDS and (
                phase.severity_start != 0.0 or phase.severity_end != 0.0
            ):
                raise ValueError(f"{phase.kind.value} phases cannot ramp a severity")
            cursor = phase.end
        if cursor != self.operations:
            raise ValueError(
                f"phase plan covers [0, {cursor}) but the life cycle has "
                f"{self.operations} operations"
            )
        # pre-fault deterioration never heals on its own within one life cycle
        last = None
        for phase in plan:
            if phase.kind is not CurveKind.PROGRESSIVE_PRE_FAULT:
                continue
            if phase.severity_end < phase.severity_start:
                raise ValueError("pre-fault severity must be non-decreasing")
            if last is not None and phase.severity_start < last:
                raise ValueError("pre-fault severity must be non-decreasing across phases")
            last = phase.severity_end

    def phase_at(self, op_index: int) -> Phase:
        for phase in self.phase_plan:
            if phase.start <= op_index < phase.end:
                return phase
        raise IndexError(f"op {op_index} not covered by the phase plan")

    # -- JSON round trip (CLI config files) ---------------------------------

    def to_dict(self) -> dict:
        d = dict(zip(CONFIG_KEYS, asdict(self).values()))
        d["phases"] = [
            {"kind": p.kind.value, "start": p.start, "end": p.end,
             "severity": [p.severity_start, p.severity_end]}
            for p in self.phase_plan
        ]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorConfig":
        """Inverse of ``to_dict``; ValueError on an unknown key or a bad value."""
        unknown = set(d) - set(CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown generator config keys: {sorted(unknown)}")
        kwargs = {}
        for key, f in zip(CONFIG_KEYS, fields(cls)):
            if key in d:
                try:
                    kwargs[f.name] = _FROM_JSON[f.type](d[key])
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"generator config {key}: bad value ({exc!r})") from exc
        return cls(**kwargs)


def _phase(d: dict) -> Phase:
    unknown = set(d) - {"kind", "start", "end", "severity"}
    if unknown:
        raise ValueError(f"unknown phase keys {sorted(unknown)}")
    severity = _pair(d.get("severity", (0.0, 0.0)))
    return Phase(CurveKind(d["kind"]), int(d["start"]), int(d["end"]), *severity)


def _pair(value) -> tuple[float, float]:
    lo, hi = value
    return float(lo), float(hi)


#: the keys of a generator config section, one per GeneratorConfig field
CONFIG_KEYS = tuple(
    "phases" if f.name == "phase_plan" else f.name for f in fields(GeneratorConfig)
)

# JSON value -> field value, by the field's annotation
_FROM_JSON = {
    "int": int,
    "float": float,
    "str": str,
    "float | None": lambda v: None if v is None else float(v),
    "tuple[float, float]": _pair,
    "BaseShape": lambda v: BaseShape(**{k: float(x) for k, x in dict(v).items()}),
    "tuple[Phase, ...] | None": lambda v: None if v is None else tuple(map(_phase, v)),
}


# ---------------------------------------------------------------------------
# shape synthesis
# ---------------------------------------------------------------------------

def nominal_shape(
    shape: BaseShape,
    length: int,
    plateau_gain: float = 0.0,
    bump_widening: float = 0.0,
) -> np.ndarray:
    """Noise-free power signature, optionally deformed.

    ``plateau_gain`` raises the translation plateau by that fraction;
    ``bump_widening`` widens the locking bump's sigma by that fraction.
    """
    pos = (np.arange(length) + 0.5) / length
    plateau = shape.plateau_level * (1.0 + plateau_gain)
    curve = np.full(length, plateau)

    # unlocking inrush: half-cosine rise to the peak, half-cosine decay back
    rising = pos < shape.peak_position
    curve[rising] = shape.peak_amplitude * 0.5 * (
        1.0 - np.cos(np.pi * pos[rising] / shape.peak_position)
    )
    falling = (pos >= shape.peak_position) & (pos < INRUSH_END)
    frac = (pos[falling] - shape.peak_position) / (INRUSH_END - shape.peak_position)
    curve[falling] = plateau + (shape.peak_amplitude - plateau) * 0.5 * (
        1.0 + np.cos(np.pi * frac)
    )

    # locking bump, confined to the locking phase
    locking = pos >= LOCK_START
    sigma = shape.bump_width * (1.0 + bump_widening)
    z = (pos[locking] - shape.bump_center) / sigma
    curve[locking] += shape.bump_amplitude * np.exp(-0.5 * z * z)
    return curve


def _deformation(config: GeneratorConfig, kind: CurveKind, severity: float):
    if kind is CurveKind.PROGRESSIVE_PRE_FAULT:
        return (
            config.prefault_plateau_gain * severity,
            config.prefault_bump_widening * severity,
        )
    if kind is CurveKind.AGING:
        return config.aging_plateau_gain * severity, 0.0
    if kind is CurveKind.END_OF_LIFE:
        return (
            config.endoflife_plateau_gain * severity,
            config.endoflife_bump_widening * severity,
        )
    return 0.0, 0.0


def synth_samples(
    config: GeneratorConfig,
    kind: CurveKind,
    severity: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One curve of the given kind, noise included, clipped at 0 W."""
    shape = config.base_shape
    gain, widening = _deformation(config, kind, severity)
    curve = nominal_shape(shape, config.length, gain, widening)

    if kind is CurveKind.MINOR_ANOMALY:
        lo, hi = config.transient_span
        center = rng.uniform(lo, hi)
        pos = (np.arange(config.length) + 0.5) / config.length
        z = (pos - center) / config.transient_width
        curve = curve + config.transient_amplitude * np.exp(-0.5 * z * z)
    elif kind is CurveKind.SUDDEN_FAILURE:
        mode = config.failure_mode
        if mode == "random":
            mode = "truncate" if rng.uniform() < 0.5 else "spike"
        if mode == "truncate":
            lo, hi = config.failure_cut_span
            cut = int(rng.uniform(lo, hi) * config.length)
            curve = curve.copy()
            curve[cut:] = 0.0   # motor drops out mid-translation
        else:
            curve = curve.copy()
            pos = (np.arange(config.length) + 0.5) / config.length
            inrush = pos < INRUSH_END
            curve[inrush] *= config.failure_spike_gain

    if config.noise_sigma > 0.0:
        curve = curve + rng.normal(0.0, config.noise_sigma, size=config.length)
    return np.clip(curve, 0.0, None)


def _op_rng(seed: int, op_index: int, salt: int = 0) -> np.random.Generator:
    # one independent stream per operation: phase-plan edits elsewhere in the
    # life cycle leave this op's curve bit-identical
    return np.random.default_rng(np.random.SeedSequence((seed, salt, op_index)))


def generate_lifecycle(config: GeneratorConfig) -> list[LabeledCurve]:
    """Generate the full labeled life cycle described by ``config``."""
    config.validate()
    corpus = []
    for op in range(config.operations):
        phase = config.phase_at(op)
        severity = phase.severity_at(op) if phase.kind in PROGRESSIVE_KINDS else 0.0
        samples = synth_samples(config, phase.kind, severity, _op_rng(config.seed, op))
        curve = PowerCurve(
            samples=samples,
            op_index=op,
            timestamp=EPOCH_START + op * OP_PERIOD_S,
        )
        corpus.append(LabeledCurve(curve, CurveLabel(phase.kind, severity)))
    return corpus


# ---------------------------------------------------------------------------
# attack injection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackScenario:
    """Substitution attack over the ops of a corpus with start <= op_index < end.

    ``replay_conceal`` re-sends copies of earlier healthy curves in place of
    the real ones (hides a developing fault); ``spurious_failure`` and
    ``spurious_pre_fault`` plant generated fault shapes over healthy data
    (triggers needless maintenance).  Substituted curves keep the victim
    op's index and timestamp, so the tampered corpus still looks like a
    well-formed stream.
    """

    kind: AttackKind
    start: int
    end: int
    severity: float = 0.8       # spurious pre-fault deformation
    seed: int = 0
    failure_mode: str | None = None   # override config.failure_mode

    def validate(self, ops: range):
        """Check the scenario against a corpus spanning op indices ``ops``."""
        if not ops.start <= self.start <= self.end <= ops.stop:
            raise ValueError(
                f"target range [{self.start}, {self.end}) outside corpus ops "
                f"[{ops.start}, {ops.stop})"
            )
        if not 0.0 <= self.severity <= 1.0:
            raise ValueError("attack severity must lie in [0, 1]")
        if self.failure_mode not in (None, *FAILURE_MODES):
            raise ValueError(f"unknown failure_mode {self.failure_mode!r}")


def inject_attack(
    corpus: list[LabeledCurve],
    scenario: AttackScenario,
    config: GeneratorConfig | None = None,
) -> list[LabeledCurve]:
    """Return a copy of ``corpus`` with the scenario's curves substituted.

    Curves outside the target range are the same objects as the input
    (bit-identical); substituted ones carry ``tampered=True`` and a label
    describing the curve actually planted.  The spurious kinds need the
    generator config to synthesize plausible shapes of the same length.
    """
    scenario.validate(
        range(corpus[0].curve.op_index, corpus[-1].curve.op_index + 1) if corpus else range(0)
    )
    if scenario.kind is not AttackKind.REPLAY_CONCEAL and config is None:
        raise ValueError(f"{scenario.kind.value} needs the generator config")
    if config is not None:
        config.validate()
        if corpus and config.length != len(corpus[0].curve):
            raise ValueError(
                f"config curve length {config.length} != corpus length "
                f"{len(corpus[0].curve)}"
            )

    out = list(corpus)
    targets = [
        k for k, lc in enumerate(corpus)
        if scenario.start <= lc.curve.op_index < scenario.end
    ]
    if not targets:
        return out

    if scenario.kind is AttackKind.REPLAY_CONCEAL:
        pool = [
            lc for lc in corpus
            if lc.curve.op_index < scenario.start
            and lc.label.kind is CurveKind.EARLY_LIFE_NORMAL and not lc.tampered
        ]
        if not pool:
            raise ValueError(
                f"no healthy curve before op {scenario.start} to replay"
            )
        # replay the most recent healthy stretch, cycling if it is shorter
        # than the target range
        pool = pool[-len(targets):]
        for k, pos in enumerate(targets):
            src = pool[k % len(pool)]
            out[pos] = _substitute(corpus[pos], src.curve.samples.copy(), src.label)
        return out

    if scenario.kind is AttackKind.SPURIOUS_FAILURE:
        kind, severity = CurveKind.SUDDEN_FAILURE, 0.0
    else:
        kind, severity = CurveKind.PROGRESSIVE_PRE_FAULT, scenario.severity

    gen_config = config
    if scenario.failure_mode is not None:
        gen_config = replace(config, failure_mode=scenario.failure_mode)
    for pos in targets:
        rng = _op_rng(scenario.seed, corpus[pos].curve.op_index, salt=1)
        samples = synth_samples(gen_config, kind, severity, rng)
        out[pos] = _substitute(corpus[pos], samples, CurveLabel(kind, severity))
    return out


def _substitute(victim: LabeledCurve, samples: np.ndarray, label: CurveLabel) -> LabeledCurve:
    curve = PowerCurve(
        samples=samples,
        op_index=victim.curve.op_index,
        timestamp=victim.curve.timestamp,
    )
    return LabeledCurve(curve, label, tampered=True)
