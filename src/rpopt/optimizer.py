"""Gradient descent with optional worst-case losses, clipping, and noise.

Whether ``clip_k`` is finite decides the noise regime.  With clip_k = inf
(the analysed setting: the logistic losses here are already 1-Lipschitz)
Gaussian noise with per-coordinate std sigma is added to the mean batch
gradient.  With a finite clip_k (DP-SGD) every per-example gradient is
clipped to norm k and the clipped gradients are averaged; noise with std
sigma * k / n is added to that mean (std sigma * k on the sum, for batch
size n).  A linear model's per-example gradient is rank one, so its norm
and the clipped mean come from products of the inputs with the residuals
(softmax) or with the dual-norm subgradient (binary); see
:func:`rpopt.losses.step_terms_stack`.  No per-example gradient, and for the
binary loss no per-example residual, is built.

Independent runs on one dataset that differ only in clip_k, sigma and seed
(a sweep row, the seeds of a curve, cells of either regime) train as one
stack: :func:`train_stack` keeps their iterates as one (K, d) or (K, C, d)
array and takes each step with one call of
:func:`rpopt.losses.step_terms_stack` (multi-class worst-case cells take
theirs on the attack lanes below).  Each cell keeps its own random
streams and divergence, and its numbers are bit-identical to training it
alone; :func:`train` is the one-cell case.

Multi-class worst-case training attacks every live cell of a step with
PGD, and those attacks run concurrently on lanes.  A lane is one thread
with its own :class:`rpopt.attacks.PGDWorkspace`; lane j of L attacks live
cells j, j + L, ... and also finishes their step: the attack has already
evaluated each example's loss at the clean and at the attacked input and
its softmax residual there, which the workspace keeps, so the lane writes
the cell's two mean losses and its clipped mean gradient (one product of
the residuals with the attacked batch) into the cell's own rows, and no
logit of the step is computed twice.  The calling thread is lane 0, the
others share one thread pool per run, and numpy releases the interpreter
lock inside the array operations.  L is the number of attacked cells,
capped by the CPUs this process may run on; nothing sets it, and a binary
or unattacked run, or a process with one CPU, starts no thread.  The
numbers cannot depend on L: a cell's attack and terms read only its own
weights, batch, threshold and seed (its Generator is made inside the
call), the lanes write disjoint rows, and the Generators for batch choice
and noise are only drawn from on the calling thread, before and after the
attacks.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import losses as losses_mod
from .attacks import AttackConfig, PGDWorkspace, pgd_batch
from .bounds import regime_violations
from .data import Dataset, write_table
from .errors import DivergenceError
from .losses import LossSpec, ModelParams


@dataclass(frozen=True)
class OptimizerConfig:
    """Training hyperparameters.

    A finite ``clip_k`` clips every per-example gradient to that norm and
    scales the noise with it (see :func:`noise_calibration`); ``batch = 0``
    means full batch.  ``first_step_eta`` is the optional larger first-step
    rate; when left as None it defaults to eta for nominal training and
    4 * eta for worst-case training (the two-phase rule, which keeps the
    iterate norm away from the origin where the worst-case loss is
    non-smooth).  ``attack_steps`` only matters for multi-class worst-case
    training, whose loss is defined through the projected-gradient attack.
    """

    eta: float
    steps: int
    spec: LossSpec = LossSpec.nominal()
    clip_k: float = math.inf
    sigma: float = 0.0
    first_step_eta: float | None = None
    batch: int = 0
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
        first = self.first_step_eta
        if first is not None and not (math.isfinite(first) and first / 2 > self.eta):
            raise ValueError("first_step_eta must be finite and exceed 2 * eta")
        if self.batch < 0:
            raise ValueError("batch must be >= 0 (0: full batch)")
        if self.attack_steps < 1:
            raise ValueError("attack_steps must be >= 1")

    @property
    def resolved_first_step_eta(self) -> float:
        if self.first_step_eta is not None:
            return self.first_step_eta
        return 4.0 * self.eta if self.spec.c > 0 else self.eta


@dataclass
class TrainTrace:
    """Per-iterate record of a training run.

    Row t describes iterate t (t = 0 is the zero initializer), so there are
    steps + 1 rows.  Losses and the gradient norm in row t < steps are
    evaluated on the batch used for the update out of iterate t (the full
    training set under full-batch training); the final row is always
    evaluated on the full training set.  ``grad_norm`` is the norm of the
    clipped, pre-noise mean gradient.
    """

    t: np.ndarray
    nominal_loss: np.ndarray
    adversarial_loss: np.ndarray
    theta_norm: np.ndarray
    grad_norm: np.ndarray
    final_params: ModelParams
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


def train_stack(dataset: Dataset, configs) -> list:
    """Train one independent cell per config, as one stacked program.

    The configs may differ only in ``clip_k``, ``sigma`` and ``seed``, so
    one stack may mix clipped and unclipped cells.  The iterates are
    stacked as (K, d) or (K, C, d) and every step is one call of
    :func:`rpopt.losses.step_terms_stack`, or for multi-class cells with
    c > 0 one attack per cell whose kept losses and residuals give the
    cell's terms; each cell keeps its own Generator
    (batch choice and noise) and its own PGD seeds.  Entry i of
    the result is what ``train(dataset, configs[i])`` returns, bit for bit,
    or the DivergenceError it raises: a cell that diverges stops updating
    and never changes another cell's numbers.

    Multi-class cells with a budget c > 0 are attacked on up to
    min(K, usable CPUs) lanes at once (see the module docstring); the lane
    count is not a parameter and does not change a single bit of the
    result.  The lanes' pool is shut down before this returns or raises,
    and an error raised by one cell's attack or terms is raised here.
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
    spec, steps, batch = first.spec, first.steps, first.batch
    x_all = dataset.features
    if multiclass:
        y_all = dataset.labels
        shape = (dataset.num_classes, dataset.dim)
    else:
        y_all = dataset.labels.astype(np.float64)
        shape = (dataset.dim,)
    n_all = dataset.n
    if batch > n_all:
        raise ValueError("batch size exceeds dataset size")
    noise_std = [
        noise_calibration(config, batch or n_all) if config.sigma > 0 else 0.0
        for config in configs
    ]
    clip_k = np.array([config.clip_k for config in configs])
    rngs = [np.random.default_rng(config.seed) for config in configs]
    # per cell and iterate: nominal loss, worst-case loss, ||theta||, ||grad||
    rows = np.zeros((len(configs), steps + 1, 4))
    outcomes: list = [None] * len(configs)
    live = np.arange(len(configs))  # the cell of each row of the stack
    theta = np.zeros((len(configs),) + shape)
    attacked = multiclass and spec.c > 0
    lanes = _lane_count(len(configs)) if attacked else 1
    workspaces = [PGDWorkspace() for _ in range(lanes)]  # one lane's attack buffers each

    def attack_lane(lane, xb, yb, t, terms):
        """Attack live cells lane, lane + lanes, ...; write their step terms
        (nominal loss, worst-case loss, clipped mean gradient) to their rows."""
        nominal, adversarial, grad = terms
        ws = workspaces[lane]
        for i in range(lane, len(live), lanes):
            xk, yk = (xb, yb) if xb.ndim == 2 else (xb[i], yb[i])
            attack = AttackConfig(
                budget=spec.c,
                p=spec.p,
                steps=first.attack_steps,
                seed=configs[live[i]].seed + 7919 * (t + 1),
            )
            # a new array: delta, then x + delta
            x_adv = pgd_batch(theta[i], xk, yk, attack, box=dataset.box, workspace=ws)
            x_adv += xk
            nominal[i] = ws.clean_loss.mean()
            adversarial[i] = ws.loss.mean()
            grad[i] = losses_mod._residual_gradient(ws.residual, x_adv, clip_k[i])

    def eval_at(xb, yb, t, pool):
        """Losses and mean clipped gradients of the live cells."""
        if not attacked:
            return losses_mod.step_terms_stack(theta, xb, yb, spec, clip_k)
        terms = (np.empty(len(live)), np.empty(len(live)), np.empty_like(theta))
        # lanes 1, 2, ... run in the pool, under the caller's numpy error
        # state (a context variable, which a pool thread does not inherit)
        futures = [
            pool.submit(contextvars.copy_context().run, attack_lane, lane, xb, yb, t, terms)
            for lane in range(1, min(lanes, len(live)))
        ]
        attack_lane(0, xb, yb, t, terms)
        for future in futures:
            future.result()
        return terms

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
        nonlocal theta, live, clip_k
        for k in live[~keep]:
            outcomes[k] = DivergenceError(step)
        theta, live, clip_k = theta[keep], live[keep], clip_k[keep]

    with ThreadPoolExecutor(lanes - 1) if lanes > 1 else contextlib.nullcontext() as pool:
        for t in range(steps + 1):
            if not len(live):
                break
            if batch == 0 or t == steps:  # the final row is on the full set
                xb, yb = x_all, y_all
            else:
                idx = np.array([rngs[k].choice(n_all, size=batch, replace=False) for k in live])
                xb, yb = x_all[idx], y_all[idx]
            update = record(t, eval_at(xb, yb, t, pool))
            if t == steps:
                break
            for i, k in enumerate(live):
                if configs[k].sigma > 0:
                    update[i] += rngs[k].normal(0.0, noise_std[k], size=shape)
            eta_t = first.resolved_first_step_eta if t == 0 else first.eta
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
            final_params=ModelParams(theta[i].copy()),
            config=configs[k],
        )
    return outcomes


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, or the machine's
    CPU count where the platform has no mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _lane_count(cells: int) -> int:
    """Attack lanes for a stack of ``cells`` attacked cells: one per cell, at
    most one per CPU this process may run on."""
    return min(cells, usable_cpus())


def _cell_norms(stack: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each cell's flattened entries, bit for bit."""
    return losses_mod.l2_norms(stack.reshape(len(stack), math.prod(stack.shape[1:])))
