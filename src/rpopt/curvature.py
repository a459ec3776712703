"""Hessian spectral analysis for trained models.

Dominant-eigenvalue estimation by power iteration on Hessian-vector
products, the closed-form curvature c/(2 ||theta*||) at a worst-case-trained
optimum, and hyperparameter sweeps relating the clipping threshold and the
privacy level to the curvature of the solution.

A sweep is a list of jobs: each cell of a multi-class sweep, and each row
of a binary sweep, whose cells train as one stack.  The jobs with c > 0
come first (in a multi-class sweep the PGD attacks of their training
steps dominate the sweep's time), so that the pool starts the longest
jobs first and the clean ones fill in after them.  The jobs run on the
process pool of :func:`rpopt.jobs.run_jobs`: one process per usable CPU,
at most one per job, and none with one CPU or one job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import losses as losses_mod
from .attacks import AttackConfig, _correct, pgd_batch
from .bounds import accountant_sigma
from .data import Dataset
from .errors import DivergenceError, SingularityError
from .jobs import run_jobs
from .losses import LossSpec
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


def max_eigenvalue(
    model,
    x: np.ndarray,
    y: np.ndarray,
    spec: LossSpec,
    tol: float = 1e-8,
    max_iters: int = 1000,
    seed: int = 0,
) -> SpectrumReport:
    """Top Hessian eigenvalue of the loss over (x, y) at the model's weights,
    by power iteration on one Hessian operator built for the whole solve;
    :func:`optimum_curvature` is its limit at a worst-case binary optimum."""
    theta = np.asarray(model, dtype=np.float64)
    if not np.all(np.isfinite(theta)):
        raise ValueError("model parameters must be finite")
    shape = theta.shape
    hessian = losses_mod.hessian_operator(theta, x, y, spec)
    return power_iteration(
        lambda v: hessian(v.reshape(shape)).ravel(),
        theta.size, tol=tol, max_iters=max_iters, seed=seed,
    )


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
    theta = np.asarray(model, dtype=np.float64)
    x_adv = x + pgd_batch(theta, x, y, attack, box=box)
    return max_eigenvalue(theta, x_adv, y, LossSpec(), tol, max_iters, seed)


def optimum_curvature(c: float, theta_norm: float) -> float:
    """Curvature c/(2 ||theta*||) of the worst-case binary loss at a
    finite optimum; the rank-one gradient term vanishes there."""
    if not (math.isfinite(c) and c >= 0):
        raise ValueError("c must be finite and non-negative")
    if not theta_norm > 0:
        raise SingularityError("optimum curvature is undefined at theta = 0")
    return c / (2.0 * theta_norm)


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
    cells: tuple  # in grid order: row by row, each row in column order

    def columns(self) -> dict:
        """The artifact table: SWEEP_COLUMNS, one row per cell."""
        rows = [
            (cell.c, cell.knob, cell.lambda_max, cell.test_accuracy, cell.theta_norm,
             int(cell.converged), int(cell.diverged))
            for cell in self.cells
        ]
        return dict(zip(SWEEP_COLUMNS, zip(*rows)))


@dataclass(frozen=True)
class SweepSettings:
    """How a sweep trains and scores its cells; each field is the [params]
    key of the fig8/fig9 kinds that it is read from."""

    p: float  # perturbation norm of the training loss and the evaluation attack
    curvature_examples: int  # training examples the Hessian is taken over
    curvature_tol: float
    curvature_iters: int
    eval_attack_steps: int  # PGD steps of the multi-class curvature attack


def cell_seed(seed: int, row: int, col: int) -> int:
    """Stable per-cell RNG seed derived from the base seed and grid indices."""
    return int(np.random.SeedSequence([seed, row, col]).generate_state(1)[0])


def accuracy(theta: np.ndarray, dataset: Dataset) -> float:
    return float(np.mean(_correct(theta, dataset.features, dataset.labels)))


def _evaluate_row(train_ds, test_ds, base_config, settings, columns, job) -> list[SweepCell]:
    """Train the cells of one job as one stack, then score each cell.

    A job (row, c, cols) is the cells of columns ``cols`` in c-row ``row``:
    a whole binary row, or one cell of a multi-class row.  The cells of
    a row share their loss spec, so they differ only in clip_k, sigma and
    seed and train together; divergence is recorded, not raised.
    """
    row, c, cols = job
    spec = LossSpec(c, settings.p)
    configs = [
        replace(
            base_config,
            spec=spec,
            clip_k=columns[col][1],
            sigma=columns[col][2],
            seed=cell_seed(base_config.seed, row, col),
        )
        for col in cols
    ]
    outcomes = train_stack(train_ds, configs)
    return [
        _score_cell(train_ds, test_ds, settings, row, col, c, columns[col][0], config, outcome)
        for col, config, outcome in zip(cols, configs, outcomes)
    ]


def _score_cell(train_ds, test_ds, settings, row, col, c, knob, config, outcome) -> SweepCell:
    """Test accuracy and top Hessian eigenvalue of one trained cell."""
    if isinstance(outcome, DivergenceError):
        return SweepCell(row, col, c, knob, math.nan, math.nan, math.nan, False, True)
    theta = outcome.final_params
    test_acc = accuracy(theta, test_ds)
    limit = min(settings.curvature_examples, train_ds.n)
    xs = train_ds.features[:limit]
    ys = train_ds.labels[:limit]
    if theta.ndim == 2 and c > 0:
        report = attacked_max_eigenvalue(
            theta,
            xs,
            ys,
            AttackConfig(budget=c, p=settings.p, steps=settings.eval_attack_steps,
                         seed=config.seed + 1),
            box=train_ds.box,
            tol=settings.curvature_tol,
            max_iters=settings.curvature_iters,
            seed=config.seed + 2,
        )
    else:
        report = max_eigenvalue(
            theta, xs, ys, config.spec, settings.curvature_tol, settings.curvature_iters,
            config.seed + 2,
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


def _sweep(train_ds, test_ds, c_grid, columns, base_config, settings) -> SweepTable:
    """The body of both sweeps: one model per (c, column) cell, where each
    column (knob, clip_k, sigma) is the value the cell is reported under and
    the clip and noise it trains with.  Each cell of a multi-class sweep is
    one job and each row of a binary sweep is one job; the jobs with c > 0
    go to :func:`rpopt.jobs.run_jobs` first, and the cells are put back in
    grid order.  Jobs are independent and a cell trains bit for bit as in
    any stack, so the cells, and their order, are the same on any number of
    processes.  An error in a job is raised here, and no process outlives
    the call."""
    c_grid = [float(c) for c in c_grid]
    if not c_grid or not columns:
        raise ValueError("grids must be nonempty")
    jobs = []
    for row, c in enumerate(c_grid):
        if train_ds.is_binary:
            jobs.append((row, c, range(len(columns))))
        else:  # multi-class: a job per cell
            jobs += [(row, c, (col,)) for col in range(len(columns))]
    jobs.sort(key=lambda job: job[1] == 0.0)  # c > 0 first; sort is stable
    evaluate = partial(_evaluate_row, train_ds, test_ds, base_config, settings, columns)
    cells = [cell for cells in run_jobs(evaluate, jobs) for cell in cells]
    return SweepTable(tuple(sorted(cells, key=lambda cell: (cell.row, cell.col))))


def clipping_smoothness_curve(
    train_ds: Dataset,
    test_ds: Dataset,
    c_grid,
    k_grid,
    base_config: OptimizerConfig,
    settings: SweepSettings,
) -> SweepTable:
    """One model per (c, k) cell, trained with per-example clipping and no
    noise, scored by top Hessian eigenvalue and test accuracy."""
    columns = [(float(k), float(k), 0.0) for k in k_grid]
    return _sweep(train_ds, test_ds, c_grid, columns, base_config, settings)


def privacy_smoothness_curve(
    train_ds: Dataset,
    test_ds: Dataset,
    c_grid,
    epsilon_grid,
    base_config: OptimizerConfig,
    settings: SweepSettings,
    delta: float,
) -> SweepTable:
    """One model per (c, epsilon) cell, trained privately: per-example clip
    to the base config's k, Gaussian noise calibrated so the whole run is
    (epsilon, delta) private."""
    k = base_config.clip_k
    if not math.isfinite(k):
        raise ValueError("privacy sweep requires a finite clip_k in base_config")
    # noise on the gradient sum has std sigma*k, so the config sigma is the
    # calibrated absolute std divided by k
    columns = [
        (eps, k, accountant_sigma(eps, delta, base_config.steps, lipschitz=k).sigma / k)
        for eps in map(float, epsilon_grid)
    ]
    return _sweep(train_ds, test_ds, c_grid, columns, base_config, settings)
