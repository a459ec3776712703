"""Projected gradient ascent attacks on linear models.

The attack keeps the best iterate seen (so it can never do worse than the
clean input), always evaluates the one-shot maximal step from the clean
input as an extra candidate, and projects every candidate back into the
budget ball.  For binary linear models that extra candidate is the exact
worst case, which is what ties the attack to the closed-form loss.

:func:`pgd_batch` writes every intermediate into the arrays of a
:class:`PGDWorkspace`.  The workspace belongs to the caller: a training run
creates one and passes it to the attack of every step, so the (n, d)
arrays are allocated once per run instead of several times per call.  A
call without one uses a fresh workspace.  Results are always new arrays,
never views of the workspace, so a later call cannot change an earlier
result.
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


class PGDWorkspace:
    """Scratch arrays of :func:`pgd_batch`, owned by its caller.

    A caller that attacks many batches of one shape (a training run attacks
    its batch at every step) passes one workspace to every call, so the
    attack's (n, d), (n, C) and (n,) intermediates are allocated once, not
    once per call.  An array is reallocated when a call needs another shape.
    A call writes each array before reading it, so nothing carries over
    from one call to the next, and nothing a call returns is a view of the
    workspace.
    """

    def __init__(self):
        self._arrays: dict = {}

    def array(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """The uninitialised scratch array ``name`` of this shape and dtype."""
        array = self._arrays.get(name)
        if array is None or array.shape != shape or array.dtype != dtype:
            array = self._arrays[name] = np.empty(shape, dtype)
        return array


def _pointwise_objective(theta: np.ndarray, y: np.ndarray, grads: np.ndarray, ws: PGDWorkspace):
    """Build f(x) -> per-example loss, writing the per-example gradients
    wrt x to ``grads``.  x may be ``grads`` itself: it is read in full first."""
    if theta.ndim == 1:
        yf = y.astype(np.float64)
        y_theta = np.multiply(-yf[:, None], theta[None, :], out=ws.array("y_theta", grads.shape))

        def binary(x):
            z = -yf * (x @ theta)
            np.multiply(expit(z)[:, None], y_theta, out=grads)
            return _softplus(z)

        return binary

    yi = y.astype(np.int64)
    logits = ws.array("logits", (len(y), len(theta)))

    def softmax_xent(x):
        log_p, residual = _softmax_terms(np.matmul(x, theta.T, out=logits), yi)
        np.matmul(residual, theta, out=grads)
        return -log_p

    return softmax_xent


def _row_norms(a: np.ndarray, ws: PGDWorkspace) -> np.ndarray:
    """np.linalg.norm(a, axis=1, keepdims=True), bit for bit, with its
    squares written to the workspace."""
    squares = np.multiply(a, a, out=ws.array("squares", a.shape))
    return np.sqrt(np.add.reduce(squares, axis=1, keepdims=True))


def _row_elements(a: np.ndarray) -> np.ndarray:
    """The rows of a C-contiguous (n, d) array as n opaque elements, so that
    a masked copy moves whole rows, bytes unchanged, at a time."""
    return a.view(np.dtype((np.void, a.strides[0]))).reshape(len(a))


def _project_l2(delta: np.ndarray, budget: float, ws: PGDWorkspace) -> np.ndarray:
    """Scale each row of delta into the l2 ball of radius budget, in place."""
    return np.multiply(delta, _clip_factors(_row_norms(delta, ws), budget), out=delta)


def _ascent_direction(grads: np.ndarray, p: float, ws: PGDWorkspace) -> np.ndarray:
    """Overwrite grads with the steepest ascent direction of unit l_p length."""
    if p == math.inf:
        return np.sign(grads, out=grads)
    norms = _row_norms(grads, ws)
    np.divide(grads, np.maximum(norms, 1e-300), out=grads)
    np.copyto(grads, 0.0, where=~(norms > 0))
    return grads


def _constraint(x, budget, p, box, ws: PGDWorkspace):
    """Map a perturbation, in place, into the budget ball and, if given, the
    input box.

    For l_inf both sets are coordinate intervals, so their intersection
    [max(-c, lo - x), min(c, hi - x)] is one clip.
    """
    if p == math.inf:
        lower, upper = -budget, budget
        if box is not None:
            lower = np.subtract(box[0], x, out=ws.array("lower", x.shape))
            np.maximum(-budget, lower, out=lower)
            upper = np.subtract(box[1], x, out=ws.array("upper", x.shape))
            np.minimum(budget, upper, out=upper)
        return lambda delta: np.minimum(np.maximum(delta, lower, out=delta), upper, out=delta)
    if box is None:
        return lambda delta: _project_l2(delta, budget, ws)
    lo, hi = box

    def constrain(delta):
        np.add(x, _project_l2(delta, budget, ws), out=delta)
        return np.subtract(np.clip(delta, lo, hi, out=delta), x, out=delta)

    return constrain


def _random_start(rng, budget, p, out: np.ndarray, ws: PGDWorkspace) -> np.ndarray:
    """A random point of the budget ball per row, written to out; the same
    draws as ``rng.uniform(-budget, budget, size)`` for l_inf."""
    if p == math.inf:
        rng.random(out=out)
        np.multiply(budget - -budget, out, out=out)
        return np.add(-budget, out, out=out)
    n, d = out.shape
    rng.standard_normal(out=out)
    out /= np.maximum(_row_norms(out, ws), 1e-300)
    radius = budget * rng.uniform(size=(n, 1)) ** (1.0 / d)
    return np.multiply(out, radius, out=out)


def pgd_batch(
    model,
    x: np.ndarray,
    y: np.ndarray,
    attack: AttackConfig,
    box: tuple[float, float] | None = None,
    *,
    workspace: PGDWorkspace | None = None,
) -> np.ndarray:
    """Per-example perturbations maximizing the loss, shape (n, d).

    ``workspace`` holds the attack's scratch arrays.  Pass one caller-owned
    :class:`PGDWorkspace` to every call of a run to allocate them once; it
    may be reused with new weights, seeds, inputs and shapes.  None uses a
    fresh one for this call.  The result is a new array in either case,
    never a view of the workspace.
    """
    theta = model_weights(model)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y))
    n, d = x.shape
    if attack.budget == 0.0 or attack.steps == 0 or d == 0:  # nothing to perturb
        return np.zeros((n, d))
    ws = PGDWorkspace() if workspace is None else workspace
    c, p = attack.budget, attack.p
    alpha = attack.effective_step_size
    constrain = _constraint(x, c, p, box, ws)
    delta = ws.array("delta", (n, d))
    grads = ws.array("grads", (n, d))
    objective = _pointwise_objective(theta, y, grads, ws)
    better = ws.array("better", (n,), np.bool_)
    best_delta = ws.array("best_delta", (n, d))
    best_delta.fill(0.0)
    best_values = ws.array("best_values", (n,))
    np.copyto(best_values, objective(x))
    best_rows, delta_rows = _row_elements(best_delta), _row_elements(delta)

    def consider():
        """Keep delta where it beats the best loss so far; return its gradients."""
        # the attacked inputs are overwritten by their gradients
        values = objective(np.add(x, delta, out=grads))
        np.greater(values, best_values, out=better)
        np.copyto(best_values, values, where=better)
        np.copyto(best_rows, delta_rows, where=better)
        return grads

    # one-shot maximal step from the clean input, whose gradients grads
    # holds: exact for linear logits
    constrain(np.multiply(c, _ascent_direction(grads, p, ws), out=delta))
    consider()

    for restart in range(attack.restarts):
        rng = np.random.default_rng([attack.seed, restart])
        constrain(_random_start(rng, c, p, delta, ws))
        for _ in range(attack.steps):
            step = np.multiply(alpha, _ascent_direction(consider(), p, ws), out=grads)
            constrain(np.add(delta, step, out=delta))
        consider()
    return best_delta.copy()


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
    """Whether the linear model theta classifies each row of x as its label."""
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
    spec = LossSpec.for_budget(budget, p)
    shift = budget * spec.weight_norm(theta) if budget > 0 else 0.0
    margins = dataset.labels * (dataset.features @ theta) - shift
    return float(np.mean(margins > 0))
