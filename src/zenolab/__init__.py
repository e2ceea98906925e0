"""zenolab: numerical laboratory for zone invariance under unitary flows.

Builds periodic-grid and dense state spaces, spectral propagators, zone
projectors and selective-measurement protocols, then packages the headline
experiments (translation counterexample, measurement-invariant survival,
Rabi Zeno control, series-validity diagnostics) as reproducible scenarios
with machine-checkable verdict bundles.
"""

from .analytic import (
    AnalyticityReport,
    ConvergenceCurve,
    HnNorms,
    analyticity_report,
    compare_resolutions,
    hn_norms,
    series_vs_spectral_curve,
)
from .errors import DomainError, PreconditionError, SpaceMismatchError
from .operators import (
    Propagator,
    ShiftPropagator,
    SpectralOperator,
    dense_hermitian,
    evolve_spectral,
    momentum_operator,
)
from .scenarios import (
    SCENARIOS,
    CurveTable,
    FlagRecord,
    ScenarioSpec,
    VerdictBundle,
    run_scenario,
)
from .statespace import (
    DenseSpace,
    Grid,
    WaveFunction,
    make_bump,
    make_gaussian,
    make_plane_wave,
)
from .subspaces import (
    ConditionReport,
    ConditionSample,
    SubspaceProjector,
    check_condition_I,
    check_condition_IA,
    check_condition_II,
    core_zone_state,
    halfline_pair,
    leakage,
)
from .zeno import (
    MeasurementSchedule,
    SurvivalReport,
    deficit_ladder,
    deficit_slope,
    survival_report,
)

__all__ = [
    "AnalyticityReport",
    "ConditionReport",
    "ConditionSample",
    "ConvergenceCurve",
    "CurveTable",
    "DenseSpace",
    "DomainError",
    "FlagRecord",
    "Grid",
    "HnNorms",
    "MeasurementSchedule",
    "PreconditionError",
    "Propagator",
    "SCENARIOS",
    "ScenarioSpec",
    "ShiftPropagator",
    "SpaceMismatchError",
    "SpectralOperator",
    "SubspaceProjector",
    "SurvivalReport",
    "VerdictBundle",
    "WaveFunction",
    "analyticity_report",
    "check_condition_I",
    "check_condition_IA",
    "check_condition_II",
    "compare_resolutions",
    "core_zone_state",
    "deficit_ladder",
    "deficit_slope",
    "dense_hermitian",
    "evolve_spectral",
    "halfline_pair",
    "hn_norms",
    "leakage",
    "make_bump",
    "make_gaussian",
    "make_plane_wave",
    "momentum_operator",
    "run_scenario",
    "series_vs_spectral_curve",
    "survival_report",
]
