"""The package's public surface, pinned.

``rpopt.__all__`` is compared with an explicit list, so a name added to or
removed from the package shows in this file's diff.  Each concept has one
spelling: weights are float64 arrays, a bound is a series over steps of
one of ``bounds._RATES``'s settings, a loss spec is ``LossSpec(c, p)``,
the attack is ``pgd_batch``, and an eigen-solve returns the solver's
report.  The second spellings listed below stay gone.
"""

import dataclasses
from types import ModuleType

import pytest

import rpopt
from rpopt import attacks, bounds, curvature, data, experiments, losses, optimizer

PUBLIC = [
    "AttackConfig",
    "BoundInputs",
    "DataFormatError",
    "Dataset",
    "DivergenceError",
    "EpsilonReport",
    "ExperimentConfig",
    "ExperimentError",
    "InvalidRegimeError",
    "LossSpec",
    "OptimizerConfig",
    "PGDWorkspace",
    "PlotSpec",
    "RpoptError",
    "SigmaReport",
    "SingularityError",
    "SpectrumReport",
    "SweepCell",
    "SweepSettings",
    "SweepTable",
    "TrainTrace",
    "VerifyReport",
    "accountant_epsilon",
    "accountant_sigma",
    "adversarial_logistic_loss",
    "attacked_max_eigenvalue",
    "clipping_smoothness_curve",
    "curvature_budget",
    "evaluate_series",
    "exact_linear_robust_accuracy",
    "gap_curve",
    "generate_equal_margin",
    "generate_separable",
    "gradient",
    "hessian_operator",
    "hessian_vector_product",
    "load_csv",
    "load_experiment_config",
    "load_idx",
    "logistic_loss",
    "max_eigenvalue",
    "multiclass_gradient",
    "multiclass_loss",
    "noise_calibration",
    "optimum_curvature",
    "per_example_gradients",
    "pgd_batch",
    "power_iteration",
    "privacy_smoothness_curve",
    "regime_violations",
    "render_plot",
    "robust_accuracy",
    "run_experiment",
    "save_csv",
    "sensitivity_bound",
    "split",
    "step_terms_stack",
    "train",
    "train_stack",
    "validate_config",
    "verify_report",
    "write_idx",
]

_BOUNDS = ["bound_nominal", "bound_private", "bound_robust", "bound_robust_private",
           "bound_robust_under_standard"]
_EXCESS_RISK = ["ExcessRiskInputs", "excess_risk_bound"]
REMOVED = [
    *[(owner, "ModelParams") for owner in (rpopt, losses)],
    (losses, "model_weights"),
    *[(owner, "pgd") for owner in (rpopt, attacks)],
    *[(owner, name) for owner in (rpopt, bounds) for name in _BOUNDS],
    (bounds, "BOUND_FUNCTIONS"),
    (bounds, "SETTINGS"),
    (losses.LossSpec, "nominal"),
    (losses.LossSpec, "adversarial"),
    (curvature, "_top_eigenpair"),
    (experiments, "_float_or_none"),
    (optimizer.OptimizerConfig, "resolved_first_step_eta"),
    *[(owner, name) for owner in (rpopt, bounds) for name in _EXCESS_RISK],
]
REMOVED_FIELDS = [
    (bounds.BoundInputs, "t"),
    (curvature.SpectrumReport, "theta_norm"),
    (curvature.SpectrumReport, "predicted"),
    (optimizer.OptimizerConfig, "first_step_eta"),
    (optimizer.OptimizerConfig, "batch"),
    (data.Dataset, "name"),
]


def test_all_is_the_pinned_list():
    assert PUBLIC == sorted(PUBLIC)
    assert rpopt.__all__ == PUBLIC
    assert not [name for name in PUBLIC if isinstance(getattr(rpopt, name), ModuleType)]


@pytest.mark.parametrize(
    "owner, name", REMOVED, ids=[f"{owner.__name__}.{name}" for owner, name in REMOVED]
)
def test_second_spellings_are_gone(owner, name):
    assert not hasattr(owner, name)


@pytest.mark.parametrize(
    "cls, name", REMOVED_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in REMOVED_FIELDS]
)
def test_removed_fields_are_gone(cls, name):
    assert name not in [field.name for field in dataclasses.fields(cls)]
