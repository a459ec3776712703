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

The attack already evaluates the loss at the clean input and at every
candidate, so the workspace also keeps, until its next call, what a
training step needs of them: the per-example loss at the clean input
(``clean_loss``), the loss at the returned perturbation (``loss``) and,
for multi-class weights, the softmax residual p - e_y there
(``residual``).  A training step takes its terms from these and never
evaluates the attacked batch again.

A call builds the softmax label index once, and takes the input gradient
only where a step reads it: not at the one-shot candidate, the last
iterate of a restart, or the clean input of a call that returns at once.
The l_inf box bounds of a frozen input carry over (see :class:`PGDWorkspace`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .losses import (
    LossSpec,
    _clip_factors,
    _label_index,
    _softmax_terms,
    _softplus,
    sigmoid,
)


@dataclass(frozen=True)
class AttackConfig:
    """Budget, norm, and search schedule for projected gradient ascent."""

    budget: float  # perturbation radius c
    p: float = math.inf  # ball norm: 2 or inf
    steps: int = 100  # each of length 2.5 * budget / steps
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.budget) and self.budget >= 0.0):
            raise ValueError("budget must be finite and non-negative")
        if self.p not in (2.0, math.inf):
            raise ValueError("attack norm p must be 2 or inf")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


class PGDWorkspace:
    """Scratch arrays of :func:`pgd_batch`, owned by its caller.

    A caller that attacks many batches of one shape (a training run attacks
    its batch at every step) passes one workspace to every call, so the
    attack's (n, d), (n, C) and (n,) intermediates are allocated once, not
    once per call.  An array is reallocated when a call needs another shape.
    Nothing a call returns is a view of the workspace.

    One thing carries over between calls: the l_inf box bounds
    [max(-c, lo - x), min(c, hi - x)].  A call reuses them only for the
    same x object, budget and box, and only if x is frozen: it and every
    array it views are read-only, as a Dataset's features are.  So a
    full-batch training run builds them once; a writeable array or a new
    minibatch gets new ones.  Every other array is written before it is
    read in each call.

    After a call, ``clean_loss`` (n,) and ``loss`` (n,) hold the loss of
    each example at x and at x + delta for the returned delta, and
    ``residual`` (n, C) holds p - e_y at x + delta for multi-class weights
    (None for binary).  They are bit for bit what a fresh evaluation at
    those inputs gives, and the next call replaces them.
    """

    def __init__(self):
        self._arrays: dict = {}
        self._box_bounds = None  # (x, budget, box, lower, upper) for a frozen x
        self.clean_loss = self.loss = self.residual = None

    def array(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """The uninitialised scratch array ``name`` of this shape and dtype."""
        array = self._arrays.get(name)
        if array is None or array.shape != shape or array.dtype != dtype:
            array = self._arrays[name] = np.empty(shape, dtype)
        return array


def _pointwise_objective(theta: np.ndarray, y: np.ndarray, grads: np.ndarray, ws: PGDWorkspace):
    """Build f(x, gradient) -> (per-example loss, softmax residual or None),
    both new arrays, writing the per-example gradients wrt x to ``grads``
    only when ``gradient`` is true.  x may be ``grads`` itself: it is read
    in full first."""
    if theta.ndim == 1:
        yf = y.astype(np.float64)
        y_theta = np.multiply(-yf[:, None], theta[None, :], out=ws.array("y_theta", grads.shape))

        def binary(x, gradient):
            z = -yf * (x @ theta)
            if gradient:
                np.multiply(sigmoid(z)[:, None], y_theta, out=grads)
            return _softplus(z), None

        return binary

    yi = y.astype(np.int64)
    logits = ws.array("logits", (len(y), len(theta)))
    index = _label_index(yi, logits.shape)  # the same labels at every candidate

    def softmax_xent(x, gradient):
        log_p, residual = _softmax_terms(np.matmul(x, theta.T, out=logits), yi, index)
        if gradient:
            np.matmul(residual, theta, out=grads)
        return np.negative(log_p, out=log_p), residual

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
    """The steepest ascent direction of unit l_p length: grads overwritten
    (l2), or its signs in a workspace array (l_inf; numpy's in-place sign
    is several times slower than one into another array)."""
    if p == math.inf:
        return np.sign(grads, out=ws.array("signs", grads.shape))
    norms = _row_norms(grads, ws)
    np.divide(grads, np.maximum(norms, 1e-300), out=grads)
    if not (norms > 0).all():  # a zero or NaN row has no direction
        np.copyto(grads, 0.0, where=~(norms > 0))
    return grads


def _frozen(x: np.ndarray) -> bool:
    """Whether no write can reach x's values: x and every array it is a
    view of are read-only, down to one that owns its data."""
    while isinstance(x, np.ndarray) and not x.flags.writeable:
        if x.base is None:
            return True
        x = x.base
    return False


def _box_bounds(x, budget, box, ws: PGDWorkspace) -> tuple[np.ndarray, np.ndarray]:
    """The l_inf interval [max(-c, lo - x), min(c, hi - x)] of each
    coordinate, in workspace arrays, kept for the next call with the same
    frozen x, budget and box."""
    kept = ws._box_bounds
    if kept is not None and kept[0] is x and kept[1:3] == (budget, box) and _frozen(x):
        return kept[3:]
    lower = np.subtract(box[0], x, out=ws.array("lower", x.shape))
    np.maximum(-budget, lower, out=lower)
    upper = np.subtract(box[1], x, out=ws.array("upper", x.shape))
    np.minimum(budget, upper, out=upper)
    ws._box_bounds = (x, budget, box, lower, upper) if _frozen(x) else None
    return lower, upper


def _constraint(x, budget, p, box, ws: PGDWorkspace):
    """Map a perturbation, in place, into the budget ball and, if given, the
    input box.

    For l_inf both sets are coordinate intervals, so their intersection
    [max(-c, lo - x), min(c, hi - x)] is one clip.
    """
    if p == math.inf:
        lower, upper = (-budget, budget) if box is None else _box_bounds(x, budget, box, ws)
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
    never a view of the workspace.  The workspace keeps the losses (and
    residuals) at x and at x + delta until its next call; see
    :class:`PGDWorkspace`.
    """
    theta = np.asarray(model, dtype=np.float64)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y))
    n, d = x.shape
    ws = PGDWorkspace() if workspace is None else workspace
    grads = ws.array("grads", (n, d))
    objective = _pointwise_objective(theta, y, grads, ws)
    unperturbed = attack.budget == 0.0 or attack.steps == 0 or d == 0
    # the clean input is the first candidate: its rows stay where no
    # perturbation beats them
    ws.clean_loss, ws.residual = objective(x, not unperturbed)
    best_values = ws.loss = ws.array("best_values", (n,))
    np.copyto(best_values, ws.clean_loss)
    if unperturbed:  # nothing to perturb
        return np.zeros((n, d))
    c, p = attack.budget, attack.p
    alpha = 2.5 * c / attack.steps
    constrain = _constraint(x, c, p, box, ws)
    delta = ws.array("delta", (n, d))
    better = ws.array("better", (n,), np.bool_)
    best_delta = np.zeros((n, d))  # the result, so never a view of the workspace
    best_rows, delta_rows = _row_elements(best_delta), _row_elements(delta)
    best_residual_rows = None if ws.residual is None else _row_elements(ws.residual)

    def consider(gradient):
        """Keep delta, its loss and residual where it beats the best loss so
        far; write its gradients to grads if asked for."""
        # the attacked inputs, in grads, are overwritten by their gradients if asked for
        values, residual = objective(np.add(x, delta, out=grads), gradient)
        np.greater(values, best_values, out=better)
        np.copyto(best_values, values, where=better)
        np.copyto(best_rows, delta_rows, where=better)
        if residual is not None:
            np.copyto(best_residual_rows, _row_elements(residual), where=better)

    # one-shot maximal step from the clean input, whose gradients grads
    # holds: exact for linear logits.  Only the iterates of the loop step
    # along their gradients.
    constrain(np.multiply(c, _ascent_direction(grads, p, ws), out=delta))
    consider(gradient=False)

    for restart in range(attack.restarts):
        rng = np.random.default_rng([attack.seed, restart])
        constrain(_random_start(rng, c, p, delta, ws))
        for _ in range(attack.steps):
            consider(gradient=True)
            step = np.multiply(alpha, _ascent_direction(grads, p, ws), out=grads)
            constrain(np.add(delta, step, out=delta))
        consider(gradient=False)
    return best_delta


def _correct(theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Whether the linear model theta classifies each row of x as its label."""
    if theta.ndim == 1:
        return y * (x @ theta) > 0
    return np.argmax(x @ theta.T, axis=1) == y


def robust_accuracy(model, dataset: Dataset, attack: AttackConfig) -> float:
    """Fraction of examples still classified correctly after the attack."""
    theta = np.asarray(model, dtype=np.float64)
    deltas = pgd_batch(theta, dataset.features, dataset.labels, attack, box=dataset.box)
    return float(np.mean(_correct(theta, dataset.features + deltas, dataset.labels)))


def exact_linear_robust_accuracy(model, dataset: Dataset, budget: float, p: float = math.inf) -> float:
    """Exact worst-case accuracy for binary linear models.

    An l_p attacker with radius c flips an example iff the margin
    y <x, theta> does not exceed c ||theta||_q, q the dual exponent.
    """
    theta = np.asarray(model, dtype=np.float64)
    if theta.ndim != 1:
        raise ValueError("exact robust accuracy is only defined for binary linear models")
    if not dataset.is_binary:
        raise ValueError("exact robust accuracy requires binary labels")
    spec = LossSpec(budget, p)
    shift = budget * spec.weight_norm(theta) if budget > 0 else 0.0
    margins = dataset.labels * (dataset.features @ theta) - shift
    return float(np.mean(margins > 0))
