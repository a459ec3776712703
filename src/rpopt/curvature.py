"""Hessian spectral analysis for trained models.

Dominant-eigenvalue estimation by power iteration on Hessian-vector
products, the closed-form curvature c/(2 ||theta*||) at a worst-case-trained
optimum, and hyperparameter sweeps relating the clipping threshold and the
privacy level to the curvature of the solution.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import losses as losses_mod
from .attacks import AttackConfig, _correct, pgd_batch
from .bounds import accountant_sigma
from .data import Dataset, split
from .errors import DivergenceError, SingularityError
from .losses import LossSpec, model_weights
from .optimizer import OptimizerConfig, train_stack

SWEEP_COLUMNS = (
    "c",
    "k_or_epsilon",
    "lambda_max",
    "test_accuracy",
    "theta_norm",
    "converged",
    "diverged",
)


@dataclass(frozen=True)
class SpectrumReport:
    """Dominant eigenpair estimate with its convergence evidence."""

    lambda_max: float
    iterations: int
    residual: float  # ||H v - lambda v|| at the reported eigenpair
    converged: bool
    theta_norm: float | None = None
    predicted: float | None = None  # c/(2 ||theta||) when applicable
    eigenvector: np.ndarray | None = None


def power_iteration(matvec, dim, tol=1e-8, max_iters=1000, seed=0) -> SpectrumReport:
    """Dominant eigenpair of a symmetric operator given as v -> H v.

    Convergence requires both a relative eigenvalue change below tol and a
    residual ||H v - lambda v|| <= tol * max(1, |lambda|); hitting max_iters
    first is reported with converged=False.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    residual = math.inf
    converged = False
    probes_left = 2
    iterations = 0
    while iterations < max_iters:
        iterations += 1
        w = np.asarray(matvec(v), dtype=np.float64)
        lam_new = float(v @ w)
        residual = float(np.linalg.norm(w - lam_new * v))
        scale = max(1.0, abs(lam_new))
        norm_w = float(np.linalg.norm(w))
        certified = norm_w == 0.0 or (
            abs(lam_new - lam) < tol * scale and residual <= tol * scale
        )
        lam = lam_new
        if certified:
            # (lam, v) is an eigenpair to within tol (annihilation is the
            # exact pair (0, v)).  A start vector aligned with a minor
            # eigendirection still certifies, so check fresh orthogonal
            # directions for a larger Rayleigh quotient before accepting
            # the pair as dominant.
            restart = None
            while probes_left > 0 and restart is None:
                probes_left -= 1
                probe = rng.standard_normal(dim)
                probe -= float(probe @ v) * v
                norm_p = float(np.linalg.norm(probe))
                if norm_p == 0.0:
                    continue
                probe /= norm_p
                rho = float(probe @ np.asarray(matvec(probe), dtype=np.float64))
                if rho > lam + tol * max(1.0, abs(lam), abs(rho)):
                    restart = probe
            if restart is None:
                converged = True
                break
            v = restart
            lam = math.inf  # forces a fresh convergence test after the restart
            continue
        v = w / norm_w
    return SpectrumReport(
        lambda_max=lam,
        iterations=iterations,
        residual=residual,
        converged=converged,
        eigenvector=v,
    )


def _top_eigenpair(theta, x, y, spec: LossSpec, tol, max_iters, seed) -> SpectrumReport:
    """Power iteration on the Hessian of the loss at theta over (x, y), with
    one operator built for the whole solve."""
    shape = theta.shape
    hessian = losses_mod.hessian_operator(theta, x, y, spec)
    return power_iteration(
        lambda v: hessian(v.reshape(shape)).ravel(),
        theta.size, tol=tol, max_iters=max_iters, seed=seed,
    )


def max_eigenvalue(
    model,
    dataset: Dataset,
    spec: LossSpec,
    tol: float = 1e-8,
    max_iters: int = 1000,
    seed: int = 0,
) -> SpectrumReport:
    """Top Hessian eigenvalue of the given loss at the model's parameters."""
    theta = model_weights(model)
    if not np.all(np.isfinite(theta)):
        raise ValueError("model parameters must be finite")
    report = _top_eigenpair(theta, dataset.features, dataset.labels, spec, tol, max_iters, seed)
    norm = float(np.linalg.norm(theta))
    predicted = None
    if spec.c > 0.0 and theta.ndim == 1 and norm > 0.0:
        predicted = optimum_curvature(spec.c, norm)
    return replace(report, theta_norm=norm, predicted=predicted)


def attacked_max_eigenvalue(
    model,
    x: np.ndarray,
    y: np.ndarray,
    attack: AttackConfig,
    box=None,
    tol: float = 1e-8,
    max_iters: int = 1000,
    seed: int = 0,
) -> SpectrumReport:
    """Top eigenvalue of the multi-class loss at inputs attacked once, then
    frozen.  This is the tractable stand-in for the worst-case curvature:
    the perturbations are recomputed at the given parameters and held fixed
    while the Hessian is probed."""
    theta = model_weights(model)
    x_adv = x + pgd_batch(theta, x, y, attack, box=box)
    report = _top_eigenpair(theta, x_adv, y, LossSpec.nominal(), tol, max_iters, seed)
    return replace(report, theta_norm=float(np.linalg.norm(theta)))


def optimum_curvature(c: float, theta_norm: float) -> float:
    """Curvature c/(2 ||theta*||) of the worst-case binary loss at a
    finite optimum; the rank-one gradient term vanishes there."""
    if not (math.isfinite(c) and c >= 0):
        raise ValueError("c must be finite and non-negative")
    if not theta_norm > 0:
        raise SingularityError("optimum curvature is undefined at theta = 0")
    return c / (2.0 * theta_norm)


def optimum_spectrum(c: float, theta: np.ndarray) -> tuple[float, np.ndarray]:
    """Full eigenstructure at the optimum: eigenvalue 0 along theta and
    optimum_curvature(c, ||theta||) on the orthogonal complement.  Returns
    (top eigenvalue, unit zero-eigenvalue direction)."""
    theta = np.asarray(theta, dtype=np.float64)
    norm = float(np.linalg.norm(theta))
    return optimum_curvature(c, norm), theta / norm


# ---------------------------------------------------------------------------
# Hyperparameter sweeps: one trained model per grid cell, each scored by its
# top Hessian eigenvalue and test accuracy.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    row: int  # index into the c grid
    col: int  # index into the k or epsilon grid
    c: float
    knob: float  # the clip threshold k, or the privacy level epsilon
    lambda_max: float
    test_accuracy: float
    theta_norm: float
    converged: bool
    diverged: bool


@dataclass(frozen=True)
class SweepTable:
    mode: str  # "clip" or "dp"
    c_grid: tuple
    knob_grid: tuple
    cells: tuple

    def matrix(self, field: str = "lambda_max") -> np.ndarray:
        out = np.full((len(self.c_grid), len(self.knob_grid)), np.nan)
        for cell in self.cells:
            out[cell.row, cell.col] = getattr(cell, field)
        return out

    def columns(self) -> dict:
        """The artifact table: SWEEP_COLUMNS, one row per cell in grid order."""
        rows = [
            (cell.c, cell.knob, cell.lambda_max, cell.test_accuracy, cell.theta_norm,
             int(cell.converged), int(cell.diverged))
            for cell in sorted(self.cells, key=lambda cc: (cc.row, cc.col))
        ]
        return dict(zip(SWEEP_COLUMNS, zip(*rows)))


def cell_seed(seed: int, row: int, col: int) -> int:
    """Stable per-cell RNG seed derived from the base seed and grid indices."""
    return int(np.random.SeedSequence([seed, row, col]).generate_state(1)[0])


def accuracy(model, dataset: Dataset) -> float:
    return float(np.mean(_correct(model_weights(model), dataset.features, dataset.labels)))


@dataclass(frozen=True)
class _SweepContext:
    train_dataset: Dataset
    test_dataset: Dataset
    base_config: OptimizerConfig
    p: float
    curvature_examples: int
    curvature_tol: float
    curvature_iters: int
    eval_attack_steps: int


def _evaluate_row(ctx: _SweepContext, job) -> list[SweepCell]:
    """Train one c-row of the grid as one stack, then score each cell.

    A row shares its loss spec, so its cells differ only in clip_k, sigma
    and seed and train together; divergence is recorded, not raised.
    """
    row, c, cells = job
    spec = LossSpec.for_budget(c, ctx.p)
    configs = [
        replace(
            ctx.base_config,
            spec=spec,
            clip_k=clip_k,
            sigma=sigma,
            seed=cell_seed(ctx.base_config.seed, row, col),
        )
        for col, _, clip_k, sigma in cells
    ]
    outcomes = train_stack(ctx.train_dataset, configs)
    return [
        _score_cell(ctx, row, col, c, knob, config, outcome)
        for (col, knob, _, _), config, outcome in zip(cells, configs, outcomes)
    ]


def _score_cell(ctx, row, col, c, knob, config, outcome) -> SweepCell:
    """Test accuracy and top Hessian eigenvalue of one trained cell."""
    if isinstance(outcome, DivergenceError):
        return SweepCell(row, col, c, knob, math.nan, math.nan, math.nan, False, True)
    theta = outcome.final_params.weights
    test_acc = accuracy(theta, ctx.test_dataset)
    limit = min(ctx.curvature_examples, ctx.train_dataset.n)
    xs = ctx.train_dataset.features[:limit]
    ys = ctx.train_dataset.labels[:limit]
    if theta.ndim == 2 and c > 0:
        report = attacked_max_eigenvalue(
            theta,
            xs,
            ys,
            AttackConfig(budget=c, p=ctx.p, steps=ctx.eval_attack_steps, seed=config.seed + 1),
            box=ctx.train_dataset.box,
            tol=ctx.curvature_tol,
            max_iters=ctx.curvature_iters,
            seed=config.seed + 2,
        )
    else:
        report = _top_eigenpair(
            theta, xs, ys, config.spec, ctx.curvature_tol, ctx.curvature_iters, config.seed + 2
        )
    return SweepCell(
        row=row,
        col=col,
        c=c,
        knob=knob,
        lambda_max=report.lambda_max,
        test_accuracy=test_acc,
        theta_norm=float(np.linalg.norm(theta)),
        converged=report.converged,
        diverged=False,
    )


def _run_sweep(ctx: _SweepContext, jobs, workers: int) -> list[SweepCell]:
    """Evaluate the row jobs (row, c, [(col, knob, clip_k, sigma), ...]), in
    a process pool when workers > 1; rows are independent, so the cells are
    the same either way."""
    if workers <= 1:
        rows = [_evaluate_row(ctx, job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(partial(_evaluate_row, ctx), jobs))
    return [cell for row in rows for cell in row]


def _resolve_split(dataset, test_dataset, seed):
    if test_dataset is not None:
        return dataset, test_dataset
    return split(dataset, test_fraction=1.0 / 6.0, seed=seed)


def _sweep(mode, dataset, c_grid, knob_grid, knob_terms, base_config, test_dataset, p,
           workers, curvature_examples, curvature_tol, curvature_iters,
           eval_attack_steps) -> SweepTable:
    """The body of both sweeps: one model per (c, knob) cell, whose column
    trains with the (clip_k, sigma) that ``knob_terms(knob_grid)`` gives it."""
    c_grid = [float(c) for c in c_grid]
    knob_grid = [float(v) for v in knob_grid]
    if not c_grid or not knob_grid:
        raise ValueError("grids must be nonempty")
    columns = [
        (j, knob, clip_k, sigma)
        for j, (knob, (clip_k, sigma)) in enumerate(zip(knob_grid, knob_terms(knob_grid)))
    ]
    train_ds, test_ds = _resolve_split(dataset, test_dataset, base_config.seed)
    ctx = _SweepContext(train_ds, test_ds, base_config, p, curvature_examples,
                        curvature_tol, curvature_iters, eval_attack_steps)
    jobs = [(i, c, columns) for i, c in enumerate(c_grid)]
    cells = _run_sweep(ctx, jobs, workers)
    return SweepTable(mode, tuple(c_grid), tuple(knob_grid), tuple(cells))


def clipping_smoothness_curve(
    dataset: Dataset,
    c_grid,
    k_grid,
    base_config: OptimizerConfig,
    test_dataset: Dataset | None = None,
    p: float = math.inf,
    workers: int = 1,
    curvature_examples: int = 512,
    curvature_tol: float = 1e-6,
    curvature_iters: int = 300,
    eval_attack_steps: int = 10,
) -> SweepTable:
    """One model per (c, k) cell, trained with per-example clipping and no
    noise, scored by top Hessian eigenvalue and test accuracy."""
    return _sweep("clip", dataset, c_grid, k_grid, lambda ks: [(k, 0.0) for k in ks],
                  base_config, test_dataset, p, workers, curvature_examples,
                  curvature_tol, curvature_iters, eval_attack_steps)


def privacy_smoothness_curve(
    dataset: Dataset,
    c_grid,
    epsilon_grid,
    base_config: OptimizerConfig,
    delta: float = 1e-5,
    test_dataset: Dataset | None = None,
    p: float = math.inf,
    workers: int = 1,
    curvature_examples: int = 512,
    curvature_tol: float = 1e-6,
    curvature_iters: int = 300,
    eval_attack_steps: int = 10,
) -> SweepTable:
    """One model per (c, epsilon) cell, trained privately: per-example clip
    to the base config's k, Gaussian noise calibrated so the whole run is
    (epsilon, delta) private."""
    k = base_config.clip_k

    def knob_terms(epsilon_grid):
        if not math.isfinite(k):
            raise ValueError("privacy sweep requires a finite clip_k in base_config")
        # one calibration per epsilon: noise on the gradient sum has std sigma*k,
        # so the config sigma is the calibrated absolute std divided by k
        sigma_by_eps = {
            eps: accountant_sigma(eps, delta, base_config.steps, lipschitz=k).sigma / k
            for eps in epsilon_grid
        }
        return [(k, sigma_by_eps[eps]) for eps in epsilon_grid]

    return _sweep("dp", dataset, c_grid, epsilon_grid, knob_terms, base_config,
                  test_dataset, p, workers, curvature_examples, curvature_tol,
                  curvature_iters, eval_attack_steps)
