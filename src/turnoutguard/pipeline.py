"""Operation-phase loop: predict, compare, trust or investigate.

The pipeline owns a sliding window of trusted curves.  Each incoming field
curve is compared against the forecast made from that window; validated
curves extend the window, rejected ones go through the investigation
decision instead and never touch it, so an attacker cannot steer future
predictions through rejected data.  The whole loop is a deterministic
fold: replaying the same stream from the same bootstrapped state
reproduces the same reports bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import comparator, forecaster
from .classifier import ClassifierReference, classify
from .comparator import Thresholds
from .curvegen import LabeledCurve, PowerCurve
from .dataio import CurveWindow, as_power_curves
from .forecaster import ForecastModel, ForecastSession
from .investigator import VALIDATED, InvestigationReport, investigate, window_shows_progression


@dataclass
class PipelineConfig:
    alarm_after: int = 5   # consecutive rejections before a stream alert
    band: None = None   # perfbench still passes it; goes when the benchmark next changes

    def __post_init__(self):
        if self.alarm_after < 1:
            raise ValueError("alarm_after must be >= 1")
        if self.band is not None:
            raise ValueError(f"band must be None, got {self.band!r}: distances have no band")


class Pipeline:
    """Stateful operation loop around one model + thresholds + baseline."""

    def __init__(
        self,
        model: ForecastModel,
        thresholds: Thresholds,
        reference: ClassifierReference,
        config: PipelineConfig | None = None,
    ):
        self.model = model
        self.thresholds = thresholds
        self.reference = reference
        self.config = config or PipelineConfig()
        self.window: CurveWindow | None = None
        self.session: ForecastSession | None = None   # the forecast state of this stream
        self.reports: list[InvestigationReport] = []
        self.last_prediction: PowerCurve | None = None   # the forecast of the latest step
        self._rejection_streak = 0
        self._last_op = None

    def bootstrap(self, test_corpus) -> "Pipeline":
        """Fill the window with the last curves of the test data.

        Resets any previous run state, so bootstrapping twice from the same
        corpus yields identical pipelines.
        """
        curves = as_power_curves(test_corpus)
        if len(curves) < self.model.window:
            raise ValueError(
                f"insufficient test data: need at least {self.model.window} "
                f"curves to bootstrap, got {len(curves)}"
            )
        self.window = CurveWindow(curves[-self.model.window:])
        self.session = ForecastSession(self.model)
        self.reports = []
        self.last_prediction = None
        self._rejection_streak = 0
        self._last_op = self.window.last.op_index
        return self

    def step(self, field_curve: PowerCurve | LabeledCurve) -> InvestigationReport:
        """Process one incoming operation; always emits exactly one report."""
        tampered = None
        if isinstance(field_curve, LabeledCurve):
            tampered = field_curve.tampered
            field_curve = field_curve.curve
        if self.window is None:
            raise RuntimeError("pipeline not bootstrapped")
        if len(field_curve) != self.model.length:
            raise ValueError(
                f"field curve has {len(field_curve)} samples, model expects "
                f"{self.model.length}"
            )
        if field_curve.op_index <= self._last_op:
            raise ValueError(
                f"op {field_curve.op_index} does not advance the stream "
                f"(last seen {self._last_op})"
            )

        predicted = self.last_prediction = forecaster.forward(self.session, self.window)
        outcome = comparator.validate(field_curve, predicted, self.thresholds)
        field_kind = classify(field_curve, self.reference)
        predicted_kind = classify(predicted, self.reference)
        progressive = window_shows_progression(self.window, self.reference)

        if outcome.validated:
            verdict = VALIDATED
            self.window.push(field_curve)
            self._rejection_streak = 0
        else:
            verdict = investigate(
                field_kind,
                predicted_kind,
                self.window,
                self.reference,
                outcome.distances,
                self.thresholds,
            )
            self._rejection_streak += 1

        alert = None
        if self._rejection_streak >= self.config.alarm_after:
            alert = (
                f"{self._rejection_streak} consecutive non-validated "
                "operations; forecast window is no longer advancing"
            )

        report = InvestigationReport(
            op_index=field_curve.op_index,
            distances=outcome.distances,
            tau_euclidean=self.thresholds.tau_euclidean,
            tau_dtw=self.thresholds.tau_dtw,
            predicted_kind=predicted_kind,
            field_kind=field_kind,
            window_progressive=progressive,
            verdict=verdict,
            tampered=tampered,
            alert=alert,
        )
        self.reports.append(report)
        self._last_op = field_curve.op_index
        return report

    def run(self, field_stream) -> list[InvestigationReport]:
        """Fold step over the stream in order; one report per curve."""
        return [self.step(curve) for curve in field_stream]
