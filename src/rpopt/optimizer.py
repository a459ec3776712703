"""Gradient descent with optional worst-case losses, clipping, and noise.

Every step takes the whole training set (full-batch gradient descent).
Whether ``clip_k`` is finite decides the noise regime.  With clip_k = inf
(the analysed setting: the logistic losses here are already 1-Lipschitz)
Gaussian noise with per-coordinate std sigma is added to the mean
gradient.  With a finite clip_k (DP-SGD) every per-example gradient is
clipped to norm k and the clipped gradients are averaged; noise with std
sigma * k / n is added to that mean (std sigma * k on the sum of the n
training examples).  A linear model's per-example gradient is rank one,
so its norm and the clipped mean come from products of the inputs with
the residuals (softmax) or with the dual-norm subgradient (binary); see
:func:`rpopt.losses.step_terms_stack`.  No per-example gradient, and for the
binary loss no per-example residual, is built.

Independent runs on one dataset that differ only in clip_k, sigma and seed
(a sweep row, the seeds of a curve, cells of either regime) train as one
stack: :func:`train_stack` keeps their iterates as one (K, d) or (K, C, d)
array and takes each step with one call of
:func:`rpopt.losses.step_terms_stack`.  Each cell keeps its own random
streams and divergence, and its numbers are bit-identical to training it
alone; :func:`train` is the one-cell case.

A noisy cell draws its Gaussian noise for a block of steps in one call of
its Generator, and each step adds its row of the block to every noisy live
cell at once.  ``Generator.normal`` fills an array in order, so a block is
the same numbers as its steps' draws one by one.  A block is as many
steps as fit ``NOISE_BUFFER_BYTES`` (163 steps for fig1's 20 noisy seeds
at d = 10).  A cell that diverges mid-block leaves draws that nothing reads.

Multi-class worst-case training attacks every live cell of a step with
PGD, one cell after another, through one :class:`rpopt.attacks.PGDWorkspace`
per run.  The attack has already evaluated each example's loss at the
clean and at the attacked input and its softmax residual there, which the
workspace keeps, so the cell's two mean losses and its clipped mean
gradient (one product of the residuals with the attacked batch) come from
them, and no logit of the step is computed twice.  Training starts no
thread; the sweeps spread attacked cells over processes instead (see
:mod:`rpopt.curvature` and :mod:`rpopt.jobs`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import losses as losses_mod
from .attacks import AttackConfig, PGDWorkspace, pgd_batch
from .bounds import regime_violations
from .data import Dataset, write_table
from .errors import DivergenceError
from .losses import LossSpec


@dataclass(frozen=True)
class OptimizerConfig:
    """Training hyperparameters.

    A finite ``clip_k`` clips every per-example gradient to that norm and
    scales the noise with it (see :func:`noise_calibration`).  Every step
    takes the whole training set.  The first step takes rate eta for
    nominal training and 4 * eta for worst-case training (the two-phase
    rule, which keeps the iterate norm away from the origin where the
    worst-case loss is non-smooth).  ``attack_steps`` only matters for multi-class worst-case
    training, whose loss is defined through the projected-gradient attack.
    """

    eta: float
    steps: int
    spec: LossSpec = LossSpec()
    clip_k: float = math.inf
    sigma: float = 0.0
    seed: int = 0
    attack_steps: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError("eta must be positive and finite")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not self.clip_k > 0:
            raise ValueError("clip_k must be positive (inf disables clipping)")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and non-negative")
        if self.attack_steps < 1:
            raise ValueError("attack_steps must be >= 1")


@dataclass
class TrainTrace:
    """Per-iterate record of a training run.

    Row t describes iterate t (t = 0 is the zero initializer), so there are
    steps + 1 rows, each evaluated on the whole training set: losses and
    the gradient norm in row t < steps are those of the update out of
    iterate t.  ``grad_norm`` is the norm of the clipped, pre-noise mean
    gradient.
    """

    t: np.ndarray
    nominal_loss: np.ndarray
    adversarial_loss: np.ndarray
    theta_norm: np.ndarray
    grad_norm: np.ndarray
    final_params: np.ndarray  # the weights: (d,) binary, (C, d) multi-class
    config: OptimizerConfig

    COLUMNS = ("t", "nominal_loss", "adversarial_loss", "theta_norm", "grad_norm")

    def to_csv(self, path: str) -> None:
        columns = [getattr(self, name) for name in self.COLUMNS[1:]]
        write_table(path, self.COLUMNS, zip(map(int, self.t), *columns))


def validate_config(config: OptimizerConfig, gamma: float | None = None) -> list[str]:
    """Advisory warnings: the conditions of the analysed regime, from
    :func:`rpopt.bounds.regime_violations`, that the config violates.  The
    worst-case conditions apply to a budget c > 0 on data of margin gamma."""
    c = config.spec.c
    return regime_violations(config.eta, gamma if c > 0 else None, c)


def noise_calibration(config: OptimizerConfig, n: int) -> float:
    """Effective per-coordinate noise std on the mean gradient of n
    examples: sigma, or sigma * clip_k / n when clip_k is finite."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if math.isinf(config.clip_k):
        return config.sigma
    return config.sigma * config.clip_k / n


def clip_rows(grads: np.ndarray, k: float) -> np.ndarray:
    """Scale each per-example gradient to norm at most k."""
    if math.isinf(k):
        return grads
    flat = grads.reshape(grads.shape[0], -1)
    factors = losses_mod._clip_factors(np.linalg.norm(flat, axis=1), k)
    return grads * factors.reshape((-1,) + (1,) * (grads.ndim - 1))


def train(dataset: Dataset, config: OptimizerConfig) -> TrainTrace:
    """Run (noisy, clipped) gradient descent from the zero initializer.

    Raises DivergenceError (with the offending step) if an iterate or a
    recorded loss stops being finite.  Identical dataset, config, and seed
    give bit-identical traces.  This is the one-cell case of
    :func:`train_stack`.
    """
    (outcome,) = train_stack(dataset, [config])
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome


# the only fields in which the configs of one stack may differ
STACKED_FIELDS = ("clip_k", "sigma", "seed")

# the size of the noise a stack draws at a time
NOISE_BUFFER_BYTES = 256 * 1024


def train_stack(dataset: Dataset, configs) -> list:
    """Train one independent cell per config, as one stacked program.

    The configs may differ only in ``clip_k``, ``sigma`` and ``seed``, so
    one stack may mix clipped and unclipped cells.  The iterates are
    stacked as (K, d) or (K, C, d) and every step is one call of
    :func:`rpopt.losses.step_terms_stack`, or for multi-class cells with
    c > 0 one attack per cell whose kept losses and residuals give the
    cell's terms; each cell keeps its own Generator (its noise, drawn a
    block of steps at a time, see the module docstring) and its own PGD
    seeds.  Entry i of the result is what ``train(dataset, configs[i])``
    returns, bit for bit, or the DivergenceError it raises: a cell that
    diverges stops updating and never changes another cell's numbers.

    Multi-class cells with a budget c > 0 are attacked one after another
    (see the module docstring); an error raised by one cell's attack or
    terms is raised here.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("train_stack needs at least one config")
    first = configs[0]
    for config in configs[1:]:
        differ = [
            f.name
            for f in fields(OptimizerConfig)
            if f.name not in STACKED_FIELDS and getattr(config, f.name) != getattr(first, f.name)
        ]
        if differ:
            raise ValueError(
                f"stacked configs may differ only in {', '.join(STACKED_FIELDS)}, "
                f"not in {', '.join(differ)}"
            )
    multiclass = not dataset.is_binary
    spec, steps = first.spec, first.steps
    x = dataset.features
    if multiclass:
        y = dataset.labels
        shape = (dataset.num_classes, dataset.dim)
    else:
        y = dataset.labels.astype(np.float64)
        shape = (dataset.dim,)
    noise_std = [
        noise_calibration(config, dataset.n) if config.sigma > 0 else 0.0
        for config in configs
    ]
    noisy = np.array([config.sigma > 0 for config in configs])
    noisy_cells = int(noisy.sum())
    # steps of noise per draw
    block = max(1, NOISE_BUFFER_BYTES // (8 * max(1, noisy_cells) * math.prod(shape)))
    clip_k = np.array([config.clip_k for config in configs])
    rngs = [np.random.default_rng(config.seed) for config in configs]
    # per cell and iterate: nominal loss, worst-case loss, ||theta||, ||grad||
    rows = np.zeros((len(configs), steps + 1, 4))
    outcomes: list = [None] * len(configs)
    live = np.arange(len(configs))  # the cell of each row of the stack
    theta = np.zeros((len(configs),) + shape)
    noise = np.empty((0, noisy_cells) + shape)  # the current block's noise
    drawn = noisy  # per row of the stack: whether its cell draws noise
    attacked = multiclass and spec.c > 0
    workspace = PGDWorkspace()  # the attack buffers of every cell and step

    def eval_at(t):
        """Losses and mean clipped gradients of the live cells; an attacked
        cell's come from the terms its attack kept."""
        if not attacked:
            return losses_mod.step_terms_stack(theta, x, y, spec, clip_k)
        nominal, adversarial, grad = np.empty(len(live)), np.empty(len(live)), np.empty_like(theta)
        for i, k in enumerate(live):
            attack = AttackConfig(
                budget=spec.c,
                p=spec.p,
                steps=first.attack_steps,
                seed=configs[k].seed + 7919 * (t + 1),
            )
            # a new array: delta, then x + delta
            x_adv = pgd_batch(theta[i], x, y, attack, box=dataset.box, workspace=workspace)
            x_adv += x
            nominal[i] = workspace.clean_loss.mean()
            adversarial[i] = workspace.loss.mean()
            grad[i] = losses_mod._residual_gradient(workspace.residual, x_adv, clip_k[i])
        return nominal, adversarial, grad

    def record(t, terms):
        """Keep the cells whose losses are finite and write their row t."""
        nominal, adversarial, grad = terms
        keep = np.isfinite(nominal) & np.isfinite(adversarial)
        if not keep.all():
            drop(keep, t)
            nominal, adversarial, grad = nominal[keep], adversarial[keep], grad[keep]
        for column, values in enumerate(
            (nominal, adversarial, _cell_norms(theta), _cell_norms(grad))
        ):
            rows[live, t, column] = values
        return grad

    def drop(keep, step):
        nonlocal theta, live, clip_k, noise, drawn
        for k in live[~keep]:
            outcomes[k] = DivergenceError(step)
        noise = noise[:, keep[drawn]]  # the rest of the block of the kept cells
        theta, live, clip_k = theta[keep], live[keep], clip_k[keep]
        drawn = noisy[live]

    for t in range(steps + 1):
        if not len(live):
            break
        update = record(t, eval_at(t))
        if t == steps:
            break
        if noise.shape[1]:  # a live cell draws noise
            if t % block == 0:  # the next block: a row per step, a column per drawing cell
                size = (min(block, steps - t),) + shape
                noise = np.stack(
                    [rngs[k].normal(0.0, noise_std[k], size=size) for k in live[drawn]], axis=1
                )
            update[drawn] += noise[t % block]
        eta_t = 4.0 * first.eta if t == 0 and spec.c > 0 else first.eta  # the two-phase rule
        theta = theta - eta_t * update
        if not np.isfinite(theta).all():
            drop(np.isfinite(theta).reshape(len(live), math.prod(shape)).all(axis=1), t + 1)

    for i, k in enumerate(live):
        outcomes[k] = TrainTrace(
            t=np.arange(steps + 1),
            nominal_loss=rows[k, :, 0],
            adversarial_loss=rows[k, :, 1],
            theta_norm=rows[k, :, 2],
            grad_norm=rows[k, :, 3],
            final_params=theta[i].copy(),
            config=configs[k],
        )
    return outcomes


def _cell_norms(stack: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each cell's flattened entries, bit for bit."""
    return losses_mod.l2_norms(stack.reshape(len(stack), math.prod(stack.shape[1:])))
