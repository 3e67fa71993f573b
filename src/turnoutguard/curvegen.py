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

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .classifier import CurveFeatures

# synthetic timeline: one switch operation every 6 minutes
EPOCH_START = 1_700_000_000.0
OP_PERIOD_S = 360.0

# structural fractions of the three-phase signature
INRUSH_END = 0.15
LOCK_START = 0.85
MIN_CURVE_LEN = 16

FAILURE_MODES = ("truncate", "spike", "random")

# isolated transient (minor anomaly): a gaussian bump of TRANSIENT_GAIN times
# the plateau, sigma TRANSIENT_WIDTH, centered uniformly in TRANSIENT_SPAN
TRANSIENT_GAIN = 0.5
TRANSIENT_WIDTH = 0.02
TRANSIENT_SPAN = (0.35, 0.65)

# sudden failure: truncation drops to 0 W from a cut drawn in FAILURE_CUT_SPAN;
# a spike multiplies the inrush by FAILURE_SPIKE_GAIN
FAILURE_CUT_SPAN = (0.3, 0.7)
FAILURE_SPIKE_GAIN = 2.0


class CurveKind(str, Enum):
    EARLY_LIFE_NORMAL = "early_life_normal"
    AGING = "aging"
    PROGRESSIVE_PRE_FAULT = "progressive_pre_fault"
    MINOR_ANOMALY = "minor_anomaly"
    SUDDEN_FAILURE = "sudden_failure"
    END_OF_LIFE = "end_of_life"


#: (plateau gain, bump widening) at severity 1, as fractions of the base
#: values, of the kinds whose curves deform progressively with a severity
DEFORMATION = {
    CurveKind.PROGRESSIVE_PRE_FAULT: (0.30, 0.50),
    CurveKind.AGING: (0.10, 0.0),
    CurveKind.END_OF_LIFE: (0.40, 0.80),
}

#: kinds whose curves deform progressively with a severity in (0, 1]
PROGRESSIVE_KINDS = frozenset(DEFORMATION)


class AttackKind(str, Enum):
    REPLAY_CONCEAL = "replay_conceal"
    SPURIOUS_FAILURE = "spurious_failure"
    SPURIOUS_PRE_FAULT = "spurious_pre_fault"


@dataclass
class PowerCurve:
    """Power samples (watts) recorded during one switch operation.

    The curve keeps a read-only copy of the samples it is given, so they never
    change and what is derived from them can be kept with the curve:
    ``features`` is filled by ``classifier.extract_features`` on first use,
    and ``dataclasses.replace`` starts a new curve without it.
    """

    samples: np.ndarray
    op_index: int
    timestamp: float
    features: CurveFeatures | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.samples = np.array(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D vector")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError(f"op {self.op_index}: non-finite power sample")
        if np.any(self.samples < 0.0):
            raise ValueError(f"op {self.op_index}: negative power sample")
        self.samples.flags.writeable = False

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

    def __post_init__(self):
        for name in ("peak_amplitude", "plateau_level", "bump_amplitude", "bump_width"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:   # false for NaN too
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0.0 < self.peak_position < INRUSH_END:
            raise ValueError(f"peak_position {self.peak_position} must fall inside the inrush phase")
        if not LOCK_START < self.bump_center < 1.0:
            raise ValueError(f"bump_center {self.bump_center} must fall inside the locking phase")


@dataclass(frozen=True)
class Phase:
    """One contiguous stretch of the life cycle: ops [start, end)."""

    kind: CurveKind
    start: int
    end: int
    severity_start: float = 0.0
    severity_end: float = 0.0

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError(f"{self.kind.value} phase [{self.start}, {self.end}) is empty or negative")
        try:
            for severity in (self.severity_start, self.severity_end):
                CurveLabel(self.kind, severity)
        except ValueError as exc:
            raise ValueError(f"{self.kind.value} phase at op {self.start}: {exc}") from None

    def severity_at(self, op_index: int) -> float:
        span = self.end - 1 - self.start
        if span <= 0:
            return self.severity_start
        frac = (op_index - self.start) / span
        return self.severity_start + (self.severity_end - self.severity_start) * frac


@dataclass(frozen=True)
class GeneratorConfig:
    length: int = 200          # samples per curve
    operations: int = 1000     # curves per life cycle
    seed: int = 0
    noise_sigma: float | None = None   # W; default 2% of the plateau level
    base_shape: BaseShape = field(default_factory=BaseShape)
    phase_plan: tuple[Phase, ...] | None = None  # default: all early life

    failure_mode: str = "truncate"     # "truncate" | "spike" | "random"

    def __post_init__(self):
        """ValueError for a value the generator cannot run with or would run wrongly."""
        if self.length < MIN_CURVE_LEN:
            raise ValueError(f"curve length {self.length} too short to carry the "
                             f"three-phase shape (minimum {MIN_CURVE_LEN})")
        if self.operations < 1:
            raise ValueError(f"operations must be >= 1, got {self.operations}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.failure_mode not in FAILURE_MODES:
            raise ValueError(f"unknown failure_mode {self.failure_mode!r}")
        if self.noise_sigma is None:
            object.__setattr__(self, "noise_sigma", 0.02 * self.base_shape.plateau_level)
        # false for NaN too, which would switch the noise off
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        plan = self.phase_plan
        if plan is None:
            plan = (Phase(CurveKind.EARLY_LIFE_NORMAL, 0, self.operations),)
        object.__setattr__(self, "phase_plan", tuple(plan))
        self._validate_phases()

    def _validate_phases(self):
        """Plan-level checks; each Phase checks its own range and severities."""
        cursor, last = 0, 0.0
        for phase in sorted(self.phase_plan, key=lambda p: p.start):
            if phase.start != cursor:
                raise ValueError(f"{phase.kind.value} phase starts at op {phase.start}, not at "
                                 f"op {cursor} where the plan before it ends")
            cursor = phase.end
            # pre-fault deterioration never heals on its own within one life cycle
            if phase.kind is CurveKind.PROGRESSIVE_PRE_FAULT:
                if not last <= phase.severity_start <= phase.severity_end:
                    raise ValueError(f"pre-fault severity decreases at op {phase.start}")
                last = phase.severity_end
        if cursor != self.operations:
            raise ValueError(f"phase plan covers [0, {cursor}) but the life cycle has "
                             f"{self.operations} operations")

    def phase_at(self, op_index: int) -> Phase:
        for phase in self.phase_plan:
            if phase.start <= op_index < phase.end:
                return phase
        raise IndexError(f"op {op_index} not covered by the phase plan")


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


def synth_samples(
    config: GeneratorConfig,
    kind: CurveKind,
    severity: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One curve of the given kind, noise included, clipped at 0 W."""
    shape = config.base_shape
    gain, widening = DEFORMATION.get(kind, (0.0, 0.0))
    curve = nominal_shape(shape, config.length, gain * severity, widening * severity)

    if kind is CurveKind.MINOR_ANOMALY:
        center = rng.uniform(*TRANSIENT_SPAN)
        pos = (np.arange(config.length) + 0.5) / config.length
        z = (pos - center) / TRANSIENT_WIDTH
        curve = curve + TRANSIENT_GAIN * shape.plateau_level * np.exp(-0.5 * z * z)
    elif kind is CurveKind.SUDDEN_FAILURE:
        mode = config.failure_mode
        if mode == "random":
            mode = "truncate" if rng.uniform() < 0.5 else "spike"
        if mode == "truncate":
            cut = int(rng.uniform(*FAILURE_CUT_SPAN) * config.length)
            curve = curve.copy()
            curve[cut:] = 0.0   # motor drops out mid-translation
        else:
            curve = curve.copy()
            pos = (np.arange(config.length) + 0.5) / config.length
            inrush = pos < INRUSH_END
            curve[inrush] *= FAILURE_SPIKE_GAIN

    if config.noise_sigma > 0.0:
        curve = curve + rng.normal(0.0, config.noise_sigma, size=config.length)
    return np.clip(curve, 0.0, None)


def _op_rng(seed: int, op_index: int, salt: int = 0) -> np.random.Generator:
    # one independent stream per operation: phase-plan edits elsewhere in the
    # life cycle leave this op's curve bit-identical
    return np.random.default_rng(np.random.SeedSequence((seed, salt, op_index)))


def generate_lifecycle(config: GeneratorConfig) -> list[LabeledCurve]:
    """Generate the full labeled life cycle described by ``config``."""
    corpus = []
    for op in range(config.operations):
        phase = config.phase_at(op)
        severity = phase.severity_at(op)
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

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError(f"attack range [{self.start}, {self.end}) ends before it starts")
        if not 0.0 <= self.severity <= 1.0:
            raise ValueError(f"attack severity must lie in [0, 1], got {self.severity}")
        if self.seed < 0:
            raise ValueError(f"attack seed must be >= 0, got {self.seed}")
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
    ops = range(corpus[0].curve.op_index, corpus[-1].curve.op_index + 1) if corpus else range(0)
    if not ops.start <= scenario.start <= scenario.end <= ops.stop:
        raise ValueError(
            f"target range [{scenario.start}, {scenario.end}) outside corpus ops "
            f"[{ops.start}, {ops.stop})"
        )
    if scenario.kind is not AttackKind.REPLAY_CONCEAL and config is None:
        raise ValueError(f"{scenario.kind.value} needs the generator config")
    if config is not None and corpus and config.length != len(corpus[0].curve):
        raise ValueError(
            f"config curve length {config.length} != corpus length {len(corpus[0].curve)}"
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
