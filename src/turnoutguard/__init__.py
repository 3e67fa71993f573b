"""Turnout power-curve monitoring with tamper investigation.

Forecasts the next switch-operation power curve from the recent history,
compares field data against the forecast with dual distance criteria, and
investigates every mismatch for signs of data manipulation.
"""

from .classifier import ClassifierReference, CurveFeatures, build_reference, classify, extract_features
from .comparator import (
    DTW_BACKEND,
    DistancePair,
    Thresholds,
    ValidationResult,
    calibrate,
    dtw,
    euclidean,
    validate,
)
from .curvegen import (
    AttackKind,
    AttackScenario,
    BaseShape,
    CurveKind,
    CurveLabel,
    GeneratorConfig,
    LabeledCurve,
    Phase,
    PowerCurve,
    generate_lifecycle,
    inject_attack,
)
from .dataio import CurveWindow, SupervisedPair, make_dataset, read_corpus, split, write_corpus
from .forecaster import (
    AdamState,
    ForecastModel,
    ForecastSession,
    TrainConfig,
    TrainReport,
    forward,
    gradient_check,
    load_model,
    save_model,
    train,
)
from .investigator import (
    InvestigationReport,
    InvestigatorParams,
    Verdict,
    VerdictKind,
    investigate,
    read_reports,
    score_run,
    write_reports,
)
from .pipeline import Pipeline, PipelineConfig

__version__ = "0.1.0"
