"""Decision table for non-validated curves, and run scoring."""

import itertools

import pytest

from turnoutguard.classifier import build_reference, classify
from turnoutguard.comparator import DistancePair, Thresholds
from turnoutguard.curvegen import CurveKind, GeneratorConfig, Phase, generate_lifecycle
from turnoutguard.dataio import CurveWindow
from turnoutguard.investigator import (
    REASON_MINOR_ANOMALY,
    REASON_SUDDEN_FAILURE,
    REASON_UNEXPECTED_HEALTHY,
    REASON_UNHERALDED_PRE_FAULT,
    VALIDATED,
    InvestigationReport,
    Verdict,
    VerdictKind,
    investigate,
    read_reports,
    score_run,
    window_shows_progression,
    write_reports,
)

THRESHOLDS = Thresholds(tau_euclidean=100.0, tau_dtw=1000.0)
SMALL = DistancePair(euclidean=120.0, dtw=1100.0)    # rejected, but not gross
GROSS = DistancePair(euclidean=500.0, dtw=9000.0)    # beyond twice the thresholds


@pytest.fixture(scope="module")
def setup():
    cfg = GeneratorConfig(
        length=80,
        operations=400,
        seed=31,
        phase_plan=(
            Phase(CurveKind.EARLY_LIFE_NORMAL, 0, 300),
            Phase(CurveKind.PROGRESSIVE_PRE_FAULT, 300, 400, 0.5, 1.0),
        ),
    )
    corpus = generate_lifecycle(cfg)
    reference = build_reference(corpus[:300])
    early_window = CurveWindow([lc.curve for lc in corpus[100:140]])
    progressing_window = CurveWindow([lc.curve for lc in corpus[320:360]])
    return reference, early_window, progressing_window


def test_progression_detector(setup):
    reference, early_window, progressing_window = setup
    assert not window_shows_progression(early_window, reference)
    assert window_shows_progression(progressing_window, reference)


@pytest.fixture(scope="module")
def kinds(setup):
    """Generated curves of each kind, as the classifier reads them."""
    reference, early_window, progressing_window = setup
    healthy = [c for c in early_window
               if classify(c, reference) is CurveKind.EARLY_LIFE_NORMAL]
    progressive = [c for c in progressing_window
                   if classify(c, reference) is CurveKind.PROGRESSIVE_PRE_FAULT]
    assert len(healthy) >= 15 and len(progressive) >= 3
    return reference, healthy, progressive


@pytest.mark.parametrize("slots, progressing", [
    ("HHHHHPHHPHHHHP", True),
    ("HHHHHPHHHHHHHP", False),
    ("PHPHHHHHHHP", False),
    ("HPHPH", True),
    ("HHHPH", False),
], ids=["3-of-last-10", "2-of-last-10", "11th-from-end-not-counted", "2-of-5", "1-of-5"])
def test_progression_rule_at_its_boundaries(kinds, slots, progressing):
    """At least 0.3 of the last 10 window curves (P: progressive, oldest first)."""
    reference, healthy, progressive = kinds
    h, p = iter(healthy), iter(progressive)
    window = CurveWindow([next(p) if slot == "P" else next(h) for slot in slots])
    assert window_shows_progression(window, reference) is progressing


def test_healthy_curve_in_progressing_sequence_is_suspicious(setup):
    reference, _, progressing_window = setup
    verdict = investigate(
        CurveKind.EARLY_LIFE_NORMAL,
        CurveKind.PROGRESSIVE_PRE_FAULT,
        progressing_window,
        reference,
        SMALL,
        THRESHOLDS,
    )
    assert verdict.kind is VerdictKind.SUSPICIOUS
    assert verdict.reason_code == REASON_UNEXPECTED_HEALTHY


def test_prefault_without_precursor_is_suspicious(setup):
    reference, early_window, _ = setup
    verdict = investigate(
        CurveKind.PROGRESSIVE_PRE_FAULT,
        CurveKind.EARLY_LIFE_NORMAL,
        early_window,
        reference,
        SMALL,
        THRESHOLDS,
    )
    assert verdict.kind is VerdictKind.SUSPICIOUS
    assert verdict.reason_code == REASON_UNHERALDED_PRE_FAULT
    assert "prior indication" in verdict.rationale


def test_prefault_in_progressing_window_needs_gross_mismatch(setup):
    reference, _, progressing_window = setup
    benign = investigate(
        CurveKind.PROGRESSIVE_PRE_FAULT,
        CurveKind.PROGRESSIVE_PRE_FAULT,
        progressing_window,
        reference,
        SMALL,
        THRESHOLDS,
    )
    assert benign.kind is VerdictKind.NO_SUSPICION
    assert benign.reason_code == REASON_UNHERALDED_PRE_FAULT
    gross = investigate(
        CurveKind.PROGRESSIVE_PRE_FAULT,
        CurveKind.PROGRESSIVE_PRE_FAULT,
        progressing_window,
        reference,
        GROSS,
        THRESHOLDS,
    )
    assert gross.kind is VerdictKind.SUSPICIOUS


def test_escalation_factor_boundary(setup):
    reference, _, progressing_window = setup
    at_double = DistancePair(euclidean=200.0, dtw=2000.0)   # exactly 2x: not gross
    verdict = investigate(
        CurveKind.PROGRESSIVE_PRE_FAULT,
        CurveKind.PROGRESSIVE_PRE_FAULT,
        progressing_window,
        reference,
        at_double,
        THRESHOLDS,
    )
    assert verdict.kind is VerdictKind.NO_SUSPICION
    over = DistancePair(euclidean=200.1, dtw=2000.0)
    verdict = investigate(
        CurveKind.PROGRESSIVE_PRE_FAULT,
        CurveKind.PROGRESSIVE_PRE_FAULT,
        progressing_window,
        reference,
        over,
        THRESHOLDS,
    )
    assert verdict.kind is VerdictKind.SUSPICIOUS


def test_minor_anomaly_raises_no_suspicion(setup):
    reference, early_window, progressing_window = setup
    for window in (early_window, progressing_window):
        verdict = investigate(
            CurveKind.MINOR_ANOMALY,
            CurveKind.EARLY_LIFE_NORMAL,
            window,
            reference,
            GROSS,
            THRESHOLDS,
        )
        assert verdict.kind is VerdictKind.NO_SUSPICION
        assert verdict.reason_code == REASON_MINOR_ANOMALY


def test_sudden_failure_escalates_and_flags_missing_precursor(setup):
    reference, early_window, progressing_window = setup
    verdict = investigate(
        CurveKind.SUDDEN_FAILURE,
        CurveKind.EARLY_LIFE_NORMAL,
        early_window,
        reference,
        GROSS,
        THRESHOLDS,
    )
    assert verdict.kind is VerdictKind.ESCALATE_TO_EXPERT
    assert verdict.reason_code == REASON_SUDDEN_FAILURE
    assert "preceded by a progressive evolution" in verdict.rationale
    # with an established progression the missing-precursor note disappears
    verdict = investigate(
        CurveKind.SUDDEN_FAILURE,
        CurveKind.PROGRESSIVE_PRE_FAULT,
        progressing_window,
        reference,
        GROSS,
        THRESHOLDS,
    )
    assert verdict.kind is VerdictKind.ESCALATE_TO_EXPERT
    assert "preceded" not in verdict.rationale


def test_aging_kinds_follow_the_prefault_branch(setup):
    reference, early_window, _ = setup
    for kind in (CurveKind.AGING, CurveKind.END_OF_LIFE):
        verdict = investigate(
            kind,
            CurveKind.EARLY_LIFE_NORMAL,
            early_window,
            reference,
            SMALL,
            THRESHOLDS,
        )
        assert verdict.reason_code == REASON_UNHERALDED_PRE_FAULT


def test_every_combination_yields_exactly_one_investigation_verdict(setup):
    reference, early_window, progressing_window = setup
    outcomes = {VerdictKind.SUSPICIOUS, VerdictKind.NO_SUSPICION, VerdictKind.ESCALATE_TO_EXPERT}
    for kind, window, distances in itertools.product(
        CurveKind, (early_window, progressing_window), (SMALL, GROSS)
    ):
        verdict = investigate(
            kind, CurveKind.EARLY_LIFE_NORMAL, window, reference, distances, THRESHOLDS
        )
        assert verdict.kind in outcomes
        again = investigate(
            kind, CurveKind.EARLY_LIFE_NORMAL, window, reference, distances, THRESHOLDS
        )
        assert again == verdict
    # only the sudden-failure branch may escalate
    for kind, window in itertools.product(CurveKind, (early_window, progressing_window)):
        verdict = investigate(
            kind, CurveKind.EARLY_LIFE_NORMAL, window, reference, GROSS, THRESHOLDS
        )
        if verdict.kind is VerdictKind.ESCALATE_TO_EXPERT:
            assert kind is CurveKind.SUDDEN_FAILURE


HEALTHY = ("field curve shows early-life behavior although the expected curve ({}) follows "
           "the sequence's evolution; an unexpected return to health suggests concealment")
SUDDEN = ("sudden failure cannot be assessed from the temporal sequence; additional expertise "
          "is required")


@pytest.mark.parametrize("field_kind, predicted_kind, progressing, distances, expected", [
    *[(CurveKind.EARLY_LIFE_NORMAL, predicted, True, SMALL,
       ("suspicious", "FIG4_1", HEALTHY.format(predicted.value)))
      for predicted in (CurveKind.EARLY_LIFE_NORMAL, CurveKind.PROGRESSIVE_PRE_FAULT,
                        CurveKind.MINOR_ANOMALY, CurveKind.SUDDEN_FAILURE)],
    (CurveKind.PROGRESSIVE_PRE_FAULT, CurveKind.EARLY_LIFE_NORMAL, False, SMALL,
     ("suspicious", "FIG4_2_1", "pre-fault anomaly arrived without any prior indication of "
      "progressive degradation in the recent sequence")),
    (CurveKind.PROGRESSIVE_PRE_FAULT, CurveKind.PROGRESSIVE_PRE_FAULT, True, GROSS,
     ("suspicious", "FIG4_2_1", "pre-fault curve matches the window's progression in kind but "
      "deviates grossly from the predicted evolution")),
    (CurveKind.PROGRESSIVE_PRE_FAULT, CurveKind.PROGRESSIVE_PRE_FAULT, True, SMALL,
     ("no_suspicion", "FIG4_2_1",
      "pre-fault curve continues the progression already established by the sequence")),
    (CurveKind.MINOR_ANOMALY, CurveKind.EARLY_LIFE_NORMAL, False, SMALL,
     ("no_suspicion", "FIG4_2_2",
      "isolated minor transient; resolves naturally without a maintenance intervention")),
    (CurveKind.SUDDEN_FAILURE, CurveKind.EARLY_LIFE_NORMAL, False, GROSS,
     ("escalate_to_expert", "FIG4_2_3", SUDDEN + " (a mechanical failure should have been "
      "preceded by a progressive evolution, which is absent)")),
    (CurveKind.SUDDEN_FAILURE, CurveKind.PROGRESSIVE_PRE_FAULT, True, GROSS,
     ("escalate_to_expert", "FIG4_2_3", SUDDEN)),
], ids=["fig4_1-early_life_normal", "fig4_1-progressive_pre_fault", "fig4_1-minor_anomaly",
        "fig4_1-sudden_failure", "fig4_2_1-unheralded", "fig4_2_1-gross", "fig4_2_1-continues",
        "fig4_2_2", "fig4_2_3-progression-absent", "fig4_2_3"])
def test_decision_table(setup, tmp_path, field_kind, predicted_kind, progressing, distances,
                        expected):
    """Each branch of investigate gives one verdict, text and all, shared by
    every op that takes the branch and by the reports read back from a file."""
    reference, early_window, progressing_window = setup
    window = progressing_window if progressing else early_window
    verdict = investigate(field_kind, predicted_kind, window, reference, distances, THRESHOLDS)
    assert (verdict.kind.value, verdict.reason_code, verdict.rationale) == expected
    assert investigate(field_kind, predicted_kind, window, reference, distances,
                       THRESHOLDS) is verdict
    sent = report(0, verdict.kind, verdict.reason_code, True)
    sent.verdict = verdict
    path = tmp_path / "reports.ndjson"
    write_reports(path, [sent])
    (back,) = read_reports(path)
    assert back == sent
    assert back.verdict is verdict


# ---------------------------------------------------------------------------
# scoring and report files
# ---------------------------------------------------------------------------

def report(op, kind, reason, tampered):
    return InvestigationReport(
        op_index=op,
        distances=SMALL,
        tau_euclidean=THRESHOLDS.tau_euclidean,
        tau_dtw=THRESHOLDS.tau_dtw,
        predicted_kind=CurveKind.EARLY_LIFE_NORMAL,
        field_kind=CurveKind.EARLY_LIFE_NORMAL,
        window_progressive=False,
        verdict=Verdict(kind, reason, "test"),
        tampered=tampered,
    )


def test_score_run_trivial_cases():
    clean = [report(k, VerdictKind.VALIDATED, "VALIDATED", False) for k in range(5)]
    scores = score_run(clean)
    assert scores["false_alarm_rate"] == 0.0
    assert scores["detection_rate"] is None
    all_hit = [
        report(k, VerdictKind.SUSPICIOUS, REASON_UNEXPECTED_HEALTHY, True) for k in range(4)
    ]
    assert score_run(all_hit)["detection_rate"] == 1.0


def test_score_run_matches_a_hand_recount():
    reports = [
        report(0, VerdictKind.VALIDATED, "VALIDATED", False),
        report(1, VerdictKind.SUSPICIOUS, REASON_UNEXPECTED_HEALTHY, True),
        report(2, VerdictKind.SUSPICIOUS, REASON_UNHERALDED_PRE_FAULT, False),
        report(3, VerdictKind.NO_SUSPICION, REASON_MINOR_ANOMALY, True),
        report(4, VerdictKind.ESCALATE_TO_EXPERT, REASON_SUDDEN_FAILURE, True),
        report(5, VerdictKind.VALIDATED, "VALIDATED", False),
        report(6, VerdictKind.SUSPICIOUS, REASON_UNEXPECTED_HEALTHY, True),
    ]
    # hand recount: tampered {1,3,4,6}, suspicious {1,2,6}
    scores = score_run(reports)
    assert scores["operations"] == 7
    assert scores["tampered"] == 4
    assert scores["detection_rate"] == pytest.approx(2 / 4)
    assert scores["false_alarm_rate"] == pytest.approx(1 / 3)
    assert scores["escalation_rate"] == pytest.approx(1 / 7)


def test_score_run_requires_ground_truth():
    r = report(0, VerdictKind.VALIDATED, "VALIDATED", None)
    with pytest.raises(ValueError, match="ground-truth"):
        score_run([r])


def test_report_ndjson_round_trip(tmp_path):
    reports = [
        report(0, VerdictKind.VALIDATED, "VALIDATED", False),
        report(3, VerdictKind.SUSPICIOUS, REASON_UNEXPECTED_HEALTHY, True),
    ]
    reports[1].alert = "2 consecutive non-validated operations"
    path = tmp_path / "reports.ndjson"
    write_reports(path, reports)
    back = read_reports(path)
    assert back == reports
    # a rationale that is not in the decision table loads as a verdict of its own
    assert back[0].verdict.rationale == "test" and back[0].verdict is not VALIDATED
