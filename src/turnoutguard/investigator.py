"""Decision process for curves that failed validation.

Every non-validated curve gets exactly one verdict.  A curve that looks
healthy while the recent sequence has been progressing toward an anomaly is
suspicious (an attacker concealing deterioration); a pre-fault curve that
arrives with no progressive precursor in the window is suspicious (a
planted fault); an isolated minor transient resolves on its own and raises
no suspicion; a sudden failure cannot be judged from the sequence at all
and is escalated to a human expert.

Verdicts carry stable machine-readable reason codes (FIG4_*) so report
streams are scriptable; see the README for the code table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .classifier import ClassifierReference, classify, decision_kind
from .comparator import DistancePair, Thresholds
from .curvegen import CurveKind
from .dataio import (BOOLEAN, INTEGER, OBJECT, OPTIONAL_BOOLEAN, OPTIONAL_STRING, STRING,
                     CurveWindow, json_enum, json_field, json_number, read_ndjson, write_ndjson)

REASON_VALIDATED = "VALIDATED"
REASON_UNEXPECTED_HEALTHY = "FIG4_1"
REASON_UNHERALDED_PRE_FAULT = "FIG4_2_1"
REASON_MINOR_ANOMALY = "FIG4_2_2"
REASON_SUDDEN_FAILURE = "FIG4_2_3"

# a window progresses when at least PROGRESSION_FRACTION of its last
# RECENT_CURVES curves read as progressive pre-fault; a rejected pre-fault
# curve beyond ESCALATION_FACTOR times either threshold is a gross mismatch
RECENT_CURVES = 10
PROGRESSION_FRACTION = 0.3
ESCALATION_FACTOR = 2.0


class VerdictKind(str, Enum):
    VALIDATED = "validated"
    SUSPICIOUS = "suspicious"
    NO_SUSPICION = "no_suspicion"
    ESCALATE_TO_EXPERT = "escalate_to_expert"


@dataclass(frozen=True, slots=True)
class Verdict:
    kind: VerdictKind
    reason_code: str
    rationale: str


# The decision table: investigate and Pipeline.step return these shared
# immutable values, so a report holds a reference, not a verdict of its own.
VALIDATED = Verdict(VerdictKind.VALIDATED, REASON_VALIDATED,
                    "distances within calibrated thresholds")
#: keyed by the predicted curve's decision kind, which the rationale names
FIG4_1 = {kind: Verdict(VerdictKind.SUSPICIOUS, REASON_UNEXPECTED_HEALTHY, (
    f"field curve shows early-life behavior although the expected curve ({kind.value}) follows "
    "the sequence's evolution; an unexpected return to health suggests concealment"))
    for kind in CurveKind if decision_kind(kind) is kind}
FIG4_2_1_UNHERALDED = Verdict(VerdictKind.SUSPICIOUS, REASON_UNHERALDED_PRE_FAULT, (
    "pre-fault anomaly arrived without any prior indication of progressive degradation in the "
    "recent sequence"))
FIG4_2_1_GROSS = Verdict(VerdictKind.SUSPICIOUS, REASON_UNHERALDED_PRE_FAULT, (
    "pre-fault curve matches the window's progression in kind but deviates grossly from the "
    "predicted evolution"))
FIG4_2_1_CONTINUES = Verdict(VerdictKind.NO_SUSPICION, REASON_UNHERALDED_PRE_FAULT, (
    "pre-fault curve continues the progression already established by the sequence"))
FIG4_2_2 = Verdict(VerdictKind.NO_SUSPICION, REASON_MINOR_ANOMALY, (
    "isolated minor transient; resolves naturally without a maintenance intervention"))
FIG4_2_3 = Verdict(VerdictKind.ESCALATE_TO_EXPERT, REASON_SUDDEN_FAILURE, (
    "sudden failure cannot be assessed from the temporal sequence; additional expertise is "
    "required"))
FIG4_2_3_NO_PROGRESSION = Verdict(FIG4_2_3.kind, FIG4_2_3.reason_code, FIG4_2_3.rationale + (
    " (a mechanical failure should have been preceded by a progressive evolution, which is "
    "absent)"))
# every entry by value: a parsed verdict equal to one loads as that one
_SHARED = {v: v for v in (VALIDATED, *FIG4_1.values(), FIG4_2_1_UNHERALDED, FIG4_2_1_GROSS,
                          FIG4_2_1_CONTINUES, FIG4_2_2, FIG4_2_3, FIG4_2_3_NO_PROGRESSION)}


class InvestigatorParams:
    """perfbench's tracer reads ``InvestigatorParams().recent_curves``; this
    stub goes when the benchmark next changes."""

    recent_curves = RECENT_CURVES


def window_shows_progression(window: CurveWindow, reference: ClassifierReference) -> bool:
    """True when the window's recent curves establish a progression.

    The classifier is applied to the last ``RECENT_CURVES`` window entries;
    the sequence counts as progressing when at least
    ``PROGRESSION_FRACTION`` of them read as progressive pre-fault.
    """
    recent = window.curves[-RECENT_CURVES:]
    hits = sum(classify(c, reference) is CurveKind.PROGRESSIVE_PRE_FAULT for c in recent)
    return hits >= PROGRESSION_FRACTION * len(recent)


def investigate(
    field_kind: CurveKind,
    predicted_kind: CurveKind,
    window: CurveWindow,
    reference: ClassifierReference,
    distances: DistancePair,
    thresholds: Thresholds,
) -> Verdict:
    """Verdict for a non-validated field curve.

    ``predicted_kind`` is carried for context in reports; the decision
    branches on what the field curve shows and on whether the window had
    already established a progression.
    """
    kind = decision_kind(field_kind)

    if kind is CurveKind.EARLY_LIFE_NORMAL:
        return FIG4_1[decision_kind(predicted_kind)]

    if kind is CurveKind.PROGRESSIVE_PRE_FAULT:
        if not window_shows_progression(window, reference):
            return FIG4_2_1_UNHERALDED
        gross = (
            distances.euclidean > ESCALATION_FACTOR * thresholds.tau_euclidean
            or distances.dtw > ESCALATION_FACTOR * thresholds.tau_dtw
        )
        return FIG4_2_1_GROSS if gross else FIG4_2_1_CONTINUES

    if kind is CurveKind.MINOR_ANOMALY:
        return FIG4_2_2

    # sudden failure: not predictable from the sequence, defer to expertise
    if not window_shows_progression(window, reference):
        return FIG4_2_3_NO_PROGRESSION
    return FIG4_2_3


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class InvestigationReport:
    op_index: int
    euclidean: float
    dtw: float
    tau_euclidean: float
    tau_dtw: float
    predicted_kind: CurveKind
    field_kind: CurveKind
    window_progressive: bool
    verdict: Verdict
    tampered: bool | None = None   # ground truth, for scoring only
    alert: str | None = None       # pipeline-level alerts (rejection streaks)

    @property
    def distances(self) -> DistancePair:
        # the two numbers are fields of their own, so a report retained for
        # a whole stream holds no pair object
        return DistancePair(self.euclidean, self.dtw)

    def to_dict(self) -> dict:
        return {
            "op_index": self.op_index,
            "euclidean": self.euclidean,
            "dtw": self.dtw,
            "tau_euclidean": self.tau_euclidean,
            "tau_dtw": self.tau_dtw,
            "predicted_kind": self.predicted_kind.value,
            "field_kind": self.field_kind.value,
            "window_progressive": self.window_progressive,
            "verdict": {
                "kind": self.verdict.kind.value,
                "reason": self.verdict.reason_code,
                "rationale": self.verdict.rationale,
            },
            "tampered": self.tampered,
            "alert": self.alert,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "InvestigationReport":
        """Inverse of ``to_dict``; ValueError names a field of the wrong JSON type
        or a non-finite number."""
        v = json_field(d, OBJECT, "report")["verdict"]
        number = {k: json_number(d[k], k) for k in ("euclidean", "dtw", "tau_euclidean", "tau_dtw")}
        verdict = Verdict(json_enum(VerdictKind, v["kind"], "verdict.kind"),
                          json_field(v["reason"], STRING, "reason"),
                          json_field(v["rationale"], STRING, "rationale"))
        return cls(
            op_index=json_field(d["op_index"], INTEGER, "op_index"),
            **number,
            predicted_kind=json_enum(CurveKind, d["predicted_kind"], "predicted_kind"),
            field_kind=json_enum(CurveKind, d["field_kind"], "field_kind"),
            window_progressive=json_field(d["window_progressive"], BOOLEAN, "window_progressive"),
            verdict=_SHARED.get(verdict, verdict),
            tampered=json_field(d.get("tampered"), OPTIONAL_BOOLEAN, "tampered"),
            alert=json_field(d.get("alert"), OPTIONAL_STRING, "alert"),
        )


def write_reports(path, reports: list[InvestigationReport]):
    write_ndjson(path, (r.to_dict() for r in reports))


def read_reports(path) -> list[InvestigationReport]:
    """Parse an NDJSON report stream; a bad line raises dataio.FormatError."""
    return [r for _, r in read_ndjson(path, "reports file", InvestigationReport.from_dict)]


def summarize(reports) -> dict:
    """The summary of an iterable of reports, folded in one pass: counts by
    verdict kind and reason, the suspicious ops and the validation rate, then,
    if there are reports and each carries a tamper flag, ``score_run``'s."""
    kinds, reasons, flagged, flagged_suspicious = Counter(), Counter(), Counter(), Counter()
    suspicious_ops, alerts = [], 0
    for r in reports:
        kinds[r.verdict.kind] += 1
        reasons[r.verdict.reason_code] += 1
        flagged[r.tampered] += 1
        alerts += bool(r.alert)
        if r.verdict.kind is VerdictKind.SUSPICIOUS:
            flagged_suspicious[r.tampered] += 1
            suspicious_ops.append(r.op_index)
    n = kinds.total()
    summary = {
        "operations": n,
        "validated": kinds[VerdictKind.VALIDATED],
        "suspicious": kinds[VerdictKind.SUSPICIOUS],
        "no_suspicion": kinds[VerdictKind.NO_SUSPICION],
        "escalated": kinds[VerdictKind.ESCALATE_TO_EXPERT],
        "alerts": alerts,
        "validation_rate": kinds[VerdictKind.VALIDATED] / n if n else None,
        "reasons": dict(sorted(reasons.items())),
        "suspicious_ops": suspicious_ops,
    }
    if n and not flagged[None]:
        summary |= {
            "tampered": flagged[True],
            "detection_rate": flagged_suspicious[True] / flagged[True] if flagged[True] else None,
            "false_alarm_rate": flagged_suspicious[False] / flagged[False] if flagged[False] else None,
            "escalation_rate": summary["escalated"] / n,
        }
    return summary


def score_run(reports) -> dict:
    """Detection / false-alarm / escalation rates against ground truth, None
    where their denominator is 0; ValueError for a report without a tamper flag."""
    summary = summarize(reports)
    if summary["operations"] and "tampered" not in summary:
        raise ValueError("reports lack ground-truth tamper flags")
    rates = ("detection_rate", "false_alarm_rate", "escalation_rate")
    return {"operations": summary["operations"], "tampered": summary.get("tampered", 0),
            **{key: summary.get(key) for key in rates}}
