"""Training linear models to be robust to input perturbations and private,
with the matching convergence-rate bounds, privacy accounting, attacks, and
curvature analysis.
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from .attacks import (
    AttackConfig,
    PGDWorkspace,
    exact_linear_robust_accuracy,
    pgd_batch,
    robust_accuracy,
)
from .bounds import (
    BoundInputs,
    EpsilonReport,
    SigmaReport,
    accountant_epsilon,
    accountant_sigma,
    curvature_budget,
    evaluate_series,
    gap_curve,
    regime_violations,
    sensitivity_bound,
)
from .curvature import (
    SpectrumReport,
    SweepCell,
    SweepSettings,
    SweepTable,
    attacked_max_eigenvalue,
    clipping_smoothness_curve,
    max_eigenvalue,
    optimum_curvature,
    power_iteration,
    privacy_smoothness_curve,
)
from .data import (
    Dataset,
    generate_equal_margin,
    generate_separable,
    load_csv,
    load_idx,
    save_csv,
    split,
    write_idx,
)
from .errors import (
    DataFormatError,
    DivergenceError,
    ExperimentError,
    InvalidRegimeError,
    RpoptError,
    SingularityError,
)
from .experiments import ExperimentConfig, load_experiment_config, run_experiment
from .losses import (
    LossSpec,
    adversarial_logistic_loss,
    gradient,
    hessian_operator,
    hessian_vector_product,
    logistic_loss,
    multiclass_gradient,
    multiclass_loss,
    per_example_gradients,
    step_terms_stack,
)
from .optimizer import (
    OptimizerConfig,
    TrainTrace,
    noise_calibration,
    train,
    train_stack,
    validate_config,
)
from .plotting import PlotSpec, render_plot
from .report import VerifyReport, verify_report

# the re-exported names, not the submodules that importing them binds here
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
