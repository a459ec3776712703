"""The package's public surface, pinned.

``rpopt.__all__`` is compared with an explicit list, so a name added to or
removed from the package shows in this file's diff.  Each concept has one
spelling: weights are float64 arrays, a bound is a series over steps of
one of ``bounds._RATES``'s settings, a loss spec is ``LossSpec(c, p)``,
the attack is ``pgd_batch``, and an eigen-solve returns the solver's
report.  The second spellings listed below stay gone, no module imports a
name it never reads, and no private helper goes uncalled.
"""

import ast
import dataclasses
from collections import Counter
from pathlib import Path
from types import ModuleType

import pytest

import rpopt
from rpopt import attacks, bounds, curvature, data, experiments, jobs, losses, optimizer

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
    (data, "_unpickled_dataset"),
    (jobs, "_run_one"),
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
    (data.Dataset, "margin"),  # derived from the data, a property
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


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for path in sorted(Path(rpopt.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports are the re-exports that __all__ pins
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread += [f"{path.name}: {name}" for name in bound if name not in read]
    assert unread == []


def _names_read(tree) -> Counter:
    """How often each name is read in ``tree``, as a variable or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_no_private_helper_goes_uncalled():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(rpopt.__file__).parent.glob("*.py"))
    }
    read = sum((_names_read(tree) for tree in trees.values()), Counter())
    uncalled = [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        # a read inside its own body (a recursive call) does not count
        and read[node.name] == _names_read(node)[node.name]
    ]
    assert uncalled == []
