"""Projected gradient ascent attacks on linear models.

The attack keeps the best iterate seen (so it can never do worse than the
clean input), always evaluates the one-shot maximal step from the clean
input as an extra candidate, and projects every candidate back into the
budget ball.  For binary linear models that extra candidate is the exact
worst case, which is what ties the attack to the closed-form loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import Dataset
from .losses import LossSpec, _clip_factors, _softmax_terms, _softplus, model_weights


@dataclass(frozen=True)
class AttackConfig:
    """Budget, norm, and search schedule for projected gradient ascent."""

    budget: float  # perturbation radius c
    p: float = math.inf  # ball norm: 2 or inf
    steps: int = 100
    step_size: float | None = None  # None -> 2.5 * budget / steps
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.budget) and self.budget >= 0.0):
            raise ValueError("budget must be finite and non-negative")
        if self.p not in (2.0, math.inf):
            raise ValueError("attack norm p must be 2 or inf")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.step_size is not None and not self.step_size > 0:
            raise ValueError("step_size must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")

    @property
    def effective_step_size(self) -> float:
        if self.step_size is not None:
            return self.step_size
        if self.steps == 0:
            return 0.0
        return 2.5 * self.budget / self.steps


def _pointwise_objective(theta: np.ndarray, y: np.ndarray):
    """Build f(x) -> (per-example loss, per-example grad wrt x)."""
    if theta.ndim == 1:
        yf = y.astype(np.float64)

        def binary(x):
            z = -yf * (x @ theta)
            values = _softplus(z)
            grads = expit(z)[:, None] * (-yf[:, None] * theta[None, :])
            return values, grads

        return binary

    yi = y.astype(np.int64)

    def softmax_xent(x):
        log_p, residual = _softmax_terms(x @ theta.T, yi)
        return -log_p, residual @ theta

    return softmax_xent


def _project_l2(delta: np.ndarray, budget: float) -> np.ndarray:
    norms = np.linalg.norm(delta, axis=1, keepdims=True)
    return delta * _clip_factors(norms, budget)


def _ascent_direction(grads: np.ndarray, p: float) -> np.ndarray:
    if p == math.inf:
        return np.sign(grads)
    norms = np.linalg.norm(grads, axis=1, keepdims=True)
    return np.where(norms > 0, grads / np.maximum(norms, 1e-300), 0.0)


def _constraint(x, budget, p, box):
    """Map a perturbation into the budget ball and, if given, the input box.

    For l_inf both sets are coordinate intervals, so their intersection
    [max(-c, lo - x), min(c, hi - x)] is one clip.
    """
    if p == math.inf:
        lower, upper = -budget, budget
        if box is not None:
            lower, upper = np.maximum(lower, box[0] - x), np.minimum(upper, box[1] - x)
        return lambda delta: np.clip(delta, lower, upper)
    if box is None:
        return lambda delta: _project_l2(delta, budget)
    lo, hi = box
    return lambda delta: np.clip(x + _project_l2(delta, budget), lo, hi) - x


def _random_start(rng, n, d, budget, p):
    if p == math.inf:
        return rng.uniform(-budget, budget, size=(n, d))
    direction = rng.standard_normal((n, d))
    direction /= np.maximum(np.linalg.norm(direction, axis=1, keepdims=True), 1e-300)
    radius = budget * rng.uniform(size=(n, 1)) ** (1.0 / d)
    return direction * radius


def pgd_batch(
    model,
    x: np.ndarray,
    y: np.ndarray,
    attack: AttackConfig,
    box: tuple[float, float] | None = None,
) -> np.ndarray:
    """Per-example perturbations maximizing the loss, shape (n, d)."""
    theta = model_weights(model)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y))
    n, d = x.shape
    if attack.budget == 0.0 or attack.steps == 0:
        return np.zeros((n, d))
    objective = _pointwise_objective(theta, y)
    c, p = attack.budget, attack.p
    alpha = attack.effective_step_size

    constrain = _constraint(x, c, p, box)
    best_delta = np.zeros((n, d))
    best_values, clean_grads = objective(x)

    def consider(delta):
        """Keep delta where it beats the best loss so far; return its gradients."""
        nonlocal best_values
        values, grads = objective(x + delta)
        better = values > best_values
        best_values = np.where(better, values, best_values)
        best_delta[better] = delta[better]
        return grads

    # one-shot maximal step from the clean input: exact for linear logits
    consider(constrain(c * _ascent_direction(clean_grads, p)))

    for restart in range(attack.restarts):
        rng = np.random.default_rng([attack.seed, restart])
        delta = constrain(_random_start(rng, n, d, c, p))
        for _ in range(attack.steps):
            delta = constrain(delta + alpha * _ascent_direction(consider(delta), p))
        consider(delta)
    return best_delta


def pgd(
    model,
    x: np.ndarray,
    y,
    attack: AttackConfig,
    box: tuple[float, float] | None = None,
) -> np.ndarray:
    """Single-example convenience wrapper around :func:`pgd_batch`."""
    x = np.asarray(x, dtype=np.float64)
    deltas = pgd_batch(model, np.atleast_2d(x), np.atleast_1d(y), attack, box=box)
    return deltas[0] if x.ndim == 1 else deltas


def attack_dataset(model, dataset: Dataset, attack: AttackConfig) -> np.ndarray:
    """Attack every example; the dataset's box domain (if any) is respected."""
    return pgd_batch(model, dataset.features, dataset.labels, attack, box=dataset.box)


def _correct(theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if theta.ndim == 1:
        return y * (x @ theta) > 0
    return np.argmax(x @ theta.T, axis=1) == y


def robust_accuracy(model, dataset: Dataset, attack: AttackConfig) -> float:
    """Fraction of examples still classified correctly after the attack."""
    theta = model_weights(model)
    deltas = attack_dataset(model, dataset, attack)
    return float(np.mean(_correct(theta, dataset.features + deltas, dataset.labels)))


def exact_linear_robust_accuracy(model, dataset: Dataset, budget: float, p: float = math.inf) -> float:
    """Exact worst-case accuracy for binary linear models.

    An l_p attacker with radius c flips an example iff the margin
    y <x, theta> does not exceed c ||theta||_q, q the dual exponent.
    """
    theta = model_weights(model)
    if theta.ndim != 1:
        raise ValueError("exact robust accuracy is only defined for binary linear models")
    if not dataset.is_binary:
        raise ValueError("exact robust accuracy requires binary labels")
    spec = LossSpec.adversarial(budget, p) if budget > 0 else LossSpec.nominal()
    shift = budget * spec.weight_norm(theta) if budget > 0 else 0.0
    margins = dataset.labels * (dataset.features @ theta) - shift
    return float(np.mean(margins > 0))


def improvement_curve(
    model_nominal,
    model_robust,
    dataset: Dataset,
    budgets,
    attack_template: AttackConfig,
) -> list[tuple[float, float]]:
    """Accuracy advantage of the robust model at each attack budget."""
    rows = []
    for budget in budgets:
        attack = AttackConfig(
            budget=float(budget),
            p=attack_template.p,
            steps=attack_template.steps,
            step_size=attack_template.step_size,
            restarts=attack_template.restarts,
            seed=attack_template.seed,
        )
        acc_nominal = robust_accuracy(model_nominal, dataset, attack)
        acc_robust = robust_accuracy(model_robust, dataset, attack)
        rows.append((float(budget), acc_robust - acc_nominal))
    return rows
