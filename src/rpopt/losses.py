"""Binary logistic losses (nominal and worst-case) and softmax losses.

For a linear binary classifier the worst-case loss under a norm-bounded
input perturbation has a closed form: an attacker with an l_p budget c
shifts the logit by c times the dual norm of the weights,

    loss(theta; x, y) = log(1 + exp(-y <x, theta> + c * ||theta||_q)),

with q = 2 for p = 2 and q = 1 for p = inf.  Gradients and Hessian-vector
products below are exact for that expression; the multi-class softmax loss
has no such closed form and only its nominal derivatives live here.  Its
Hessian-vector product is exact too: the softmax is taken once per theta
and each product costs one logit-sized pass (see :func:`hessian_operator`).

The clipped (DP-SGD) step never builds per-example gradients: they are
rank one.  A binary example's gradient is s_i r_i with r_i = -y_i x_i + c g
(g the dual-norm subgradient of theta), and the step takes its norms and
the weighted sum of the r_i from the identities

    ||r_i||^2 = ||x_i||^2 - 2c y_i <x_i, g> + c^2 ||g||^2,
    sum_i w_i r_i = -(w * y)^T X + c (sum_i w_i) g,

so its work is the squared input norms and one product X g per cell (see
:func:`step_terms_stack`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError


@dataclass(frozen=True)
class LossSpec:
    """Which loss to evaluate: worst-case with budget c under l_p when
    c > 0, else nominal (p is then unused)."""

    c: float = 0.0
    p: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise ValueError("budget c must be finite and non-negative")
        if self.p not in (2.0, math.inf):
            raise ValueError("perturbation norm p must be 2 or inf")

    @property
    def dual_q(self) -> float:
        """Exponent of the dual norm applied to the weights."""
        return 2.0 if self.p == 2.0 else 1.0

    def weight_norm(self, theta: np.ndarray):
        """Dual norm of the weights; per cell for a (K, d) stack."""
        if self.dual_q == 2.0:
            return l2_norms(theta)
        return np.abs(theta).sum(axis=-1)

    def weight_norm_subgradient(self, theta: np.ndarray) -> np.ndarray:
        """Subgradient of the dual weight norm (per cell for a (K, d) stack);
        0 at theta = 0 by convention."""
        if self.dual_q == 2.0:
            norms = l2_norms(theta)[..., None]
            return np.divide(theta, norms, out=np.zeros_like(theta), where=norms != 0.0)
        return np.sign(theta)


def l2_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, one BLAS dot per row.

    Each entry is bit-identical to np.linalg.norm of that row alone, which
    np.linalg.norm(a, axis=-1) is not (it sums the squares another way).
    """
    a = np.asarray(a, dtype=np.float64)
    return np.sqrt((a[..., None, :] @ a[..., :, None])[..., 0, 0])


def sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-z)), elementwise.

    exp(-z) overflows to inf for z below about -709.8 and underflows to 0
    above about 745, which give the exact limits 0 and 1; neither warns nor
    raises, whatever numpy error state the caller has set.
    """
    with np.errstate(over="ignore", under="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + exp(z)) without overflow on either tail
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _as_batch(x: np.ndarray, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if y.shape[0] != x.shape[0]:
        raise ValueError("feature/label count mismatch")
    return x, y


def _binary_margins(theta, x, y, spec: LossSpec) -> np.ndarray:
    """Softplus argument per example: -y <x, theta> + c ||theta||_q."""
    z = -y * (x @ theta)
    if spec.c > 0.0:
        z = z + spec.c * spec.weight_norm(theta)
    return z


def logistic_loss(theta, x, y, per_example: bool = False):
    """Mean (or per-example) log(1 + exp(-y <x, theta>)): the loss at c = 0."""
    return adversarial_logistic_loss(theta, x, y, LossSpec(), per_example)


def adversarial_logistic_loss(theta, x, y, spec: LossSpec, per_example: bool = False):
    """Closed-form worst-case logistic loss under the budget in ``spec``."""
    theta = np.asarray(theta, dtype=np.float64)
    x, y = _as_batch(x, y)
    values = _softplus(_binary_margins(theta, x, y, spec))
    return values if per_example else float(values.mean())


def per_example_gradients(theta, x, y, spec: LossSpec) -> np.ndarray:
    """Stack of single-example loss gradients, shape (n, d) or (n, C, d)."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim == 2:
        _require_nominal(spec)
        x, y = _class_batch(theta, x, y)
        r = _softmax_terms(x @ theta.T, y)[1]
        return r[:, :, None] * x[:, None, :]
    x, y = _as_batch(x, y)
    sig = sigmoid(_binary_margins(theta, x, y, spec))
    r = -y[:, None] * x
    if spec.c > 0.0:
        r = r + spec.c * spec.weight_norm_subgradient(theta)[None, :]
    return sig[:, None] * r


def gradient(theta, x, y, spec: LossSpec) -> np.ndarray:
    """Mean loss gradient over the batch."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim == 2:
        _require_nominal(spec)
        return multiclass_gradient(theta, x, y)
    x, y = _as_batch(x, y)
    sig = sigmoid(_binary_margins(theta, x, y, spec))
    return _binary_gradient(theta[None], x, y, spec, sig[None])[0]


def _binary_gradient(theta, x, y, spec: LossSpec, sig: np.ndarray) -> np.ndarray:
    """Mean gradient of each cell of a (K, d) stack, from its sigmoids (K, n)."""
    grad = (-(sig * y)[:, None, :] @ x)[:, 0] / x.shape[-2]
    if spec.c > 0.0:
        grad = grad + (spec.c * sig.mean(axis=-1))[:, None] * spec.weight_norm_subgradient(theta)
    return grad


def _row_norms(a: np.ndarray) -> np.ndarray:
    # a third of the cost of np.linalg.norm(a, axis=-1) on training batches
    return np.sqrt(np.einsum("...ij,...ij->...i", a, a))


def _clip_factors(norms: np.ndarray, k) -> np.ndarray:
    """Per-row scale that brings a row of norm ``norms[i]`` to at most k."""
    return np.minimum(1.0, k / np.maximum(norms, 1e-300))


def _residual_gradient(r, x, clip_k):
    """Mean softmax gradient r^T x / n of the per-example gradients r_i x_i^T,
    each first scaled to norm ||r_i|| ||x_i|| <= clip_k when clip_k is
    finite.  One cell, r (n, C) with a float clip_k, or a stack, r (K, n, C)
    with clip_k (K, 1), all finite or all inf; x (n, d).  r is not changed.
    """
    if not np.isinf(clip_k).all():
        r = r * _clip_factors(_row_norms(r) * _row_norms(x), clip_k)[..., None]
    return np.swapaxes(r, -1, -2) @ x / x.shape[-2]


def step_terms_stack(theta, x, y, spec: LossSpec, clip_k):
    """Nominal loss, worst-case loss and mean clipped gradient of one step,
    for each of a stack of K independent cells.

    ``theta`` is (K, d) or (K, C, d).  The cells share the batch, x (n, d)
    and y (n,); labels are float {-1, +1} for binary and integer classes
    for multi-class cells.
    ``clip_k`` holds each cell's threshold, shape (K,).  Returns the nominal
    and worst-case losses, shape (K,), and the mean gradients, shaped like
    theta.

    Each input batch costs one margin (binary) or logit (multi-class) pass.
    With a finite threshold, every per-example gradient is scaled to norm at
    most clip_k before averaging.  A linear model's per-example gradient is
    rank one, and no per-example tensor is built:

    - softmax: r_i x_i^T (r_i = p_i - e_{y_i}), of norm ||r_i|| ||x_i||; the
      clipped mean is one matrix product of the scaled residuals with X.
    - binary: s_i r_i (r_i = -y_i x_i + c g, g the dual-norm subgradient of
      theta, s_i the sigmoid of the margin), of norm s_i ||r_i||.  The r_i
      are not built either: ||r_i||^2 = ||x_i||^2 - 2c y_i <x_i, g>
      + c^2 ||g||^2 (floored at 0 against cancellation) and
      sum_i w_i r_i = -(w * y)^T X + c (sum_i w_i) g, so the step costs two
      products of X with a vector.  An example whose r_i nearly cancels adds
      rounding of the size of eps c ||g|| / n to the mean, not of its own
      (tiny) gradient.

    With clip_k = inf a cell's gradient is exactly :func:`gradient`.

    The multi-class worst-case loss has no closed form, and its terms are
    not taken here: the attack that finds the worst case has already
    evaluated the loss and residuals at the clean and at the attacked batch
    (see :class:`rpopt.attacks.PGDWorkspace`), and
    :func:`rpopt.optimizer.train_stack` takes a multi-class cell's terms
    with c > 0 from them.  Such a spec raises ValueError here.

    Every operation acts on one cell at a time: one BLAS call per cell
    (a stacked matmul) and reductions along a cell's own axes, never one
    product across cells.  Each cell's numbers are therefore bit-identical
    to a one-cell call, whatever the other cells hold.
    """
    clip_k = np.asarray(clip_k, dtype=np.float64)
    unclipped = np.isinf(clip_k)
    if unclipped.any() and not unclipped.all():
        # the unclipped gradient is another expression: split the stack
        nominal, adversarial = np.empty(len(clip_k)), np.empty(len(clip_k))
        grad = np.empty_like(theta)
        for cells in (unclipped, ~unclipped):
            nominal[cells], adversarial[cells], grad[cells] = step_terms_stack(
                theta[cells], x, y, spec, clip_k[cells]
            )
        return nominal, adversarial, grad
    n = x.shape[-2]
    if theta.ndim == 3:
        _require_nominal(spec)
        x, y = _class_batch(theta, x, y)
        log_p, r = _softmax_terms(x @ theta.transpose(0, 2, 1), y)
        nominal = -log_p.mean(axis=-1)
        return nominal, nominal, _residual_gradient(r, x, clip_k[:, None])
    z = -y * (x @ theta[:, :, None])[..., 0]
    nominal = adversarial = _softplus(z).mean(axis=-1)
    if spec.c > 0.0:
        z = z + (spec.c * spec.weight_norm(theta))[:, None]
        adversarial = _softplus(z).mean(axis=-1)
    sig = sigmoid(z)
    if unclipped.all():
        return nominal, adversarial, _binary_gradient(theta, x, y, spec, sig)
    # r_i = -y_i x_i + c g per cell, never built: its norms and weighted sum
    # follow from x_i's squared norms and one product per cell with g
    sq_norms = np.einsum("...ij,...ij->...i", x, x)
    if spec.c > 0.0:
        g = spec.weight_norm_subgradient(theta)
        xg = (x @ g[:, :, None])[..., 0]
        gg = (g[:, None, :] @ g[:, :, None])[:, 0]
        sq_norms = np.maximum(sq_norms - 2.0 * spec.c * y * xg + spec.c**2 * gg, 0.0)
    weights = sig * _clip_factors(sig * np.sqrt(sq_norms), clip_k[:, None])
    grad = (-(weights * y)[:, None, :] @ x)[:, 0]
    if spec.c > 0.0:
        grad += (spec.c * weights.sum(axis=-1))[:, None] * g
    return nominal, adversarial, grad / n


def hessian_operator(theta, x, y, spec: LossSpec):
    """The Hessian of the loss at theta over (x, y), as a matvec v -> H v.

    Everything that depends on theta alone is computed once, here: the
    softmax probabilities P (n, C) for multi-class weights; the sigmoid
    weights and, with c > 0, the rank-one residuals for the binary loss.
    Each product is then exact.  For softmax cross-entropy the per-example
    Hessian is (diag p_i - p_i p_i^T) kron x_i x_i^T, so with U = X V^T,
    H V = (P * (U - rowsum(P * U)))^T X / n (Pearlmutter's R-operator).
    For the l_inf (dual l_1) worst-case loss the weight-norm term is flat
    almost everywhere, so only the rank-one part contributes.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim == 2:
        _require_nominal(spec)
        x, y = _class_batch(theta, x, y)
        prob = _softmax(x @ theta.T)[2]
        n = x.shape[0]

        def multiclass_matvec(v):
            u = x @ np.asarray(v, dtype=np.float64).T
            pu = prob * u
            return (pu - prob * pu.sum(axis=-1, keepdims=True)).T @ x / n

        return multiclass_matvec
    x, y = _as_batch(x, y)
    n = x.shape[0]
    sig = sigmoid(_binary_margins(theta, x, y, spec))
    weights = sig * (1.0 - sig)
    if spec.c == 0.0:
        return lambda v: x.T @ (weights * (x @ np.asarray(v, dtype=np.float64))) / n
    if spec.dual_q == 2.0:
        norm = float(np.linalg.norm(theta))
        if norm == 0.0:
            raise SingularityError(
                "the worst-case loss is not twice differentiable at theta = 0"
            )
        unit = theta / norm
        r = -y[:, None] * x + spec.c * unit[None, :]
        sig_mean = float(sig.mean())

        def l2_matvec(v):
            v = np.asarray(v, dtype=np.float64)
            rank_one = weights * (r @ v) @ r / n
            return rank_one + spec.c / norm * (v - unit * (unit @ v)) * sig_mean

        return l2_matvec
    # dual l_1: sign(theta) is piecewise constant, no curvature from the norm
    r = -y[:, None] * x + spec.c * np.sign(theta)[None, :]
    return lambda v: weights * (r @ np.asarray(v, dtype=np.float64)) @ r / n


def hessian_vector_product(theta, v, x, y, spec: LossSpec) -> np.ndarray:
    """Exact H v: one product of :func:`hessian_operator`."""
    return hessian_operator(theta, x, y, spec)(v)


def _softmax(
    logits: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-shifted logits, their exp-sum and the probabilities, along the
    last axis; large logits do not overflow.  The shifted logits are
    written to ``out`` when given (it may be ``logits`` itself), and the
    probabilities over their exp."""
    # the class max one column at a time: a max is exact in any order, and
    # numpy's reduction over a short last axis is several times slower
    top = logits[..., :1]
    for j in range(1, logits.shape[-1]):
        top = np.maximum(top, logits[..., j : j + 1], out=None if j == 1 else top)
    shifted = np.subtract(logits, top, out=out)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    return shifted, total, np.divide(e, total, out=e)


def _label_index(y: np.ndarray, shape: tuple) -> np.ndarray:
    """The flat position of each (row, label) entry in logits of shape
    (..., n, C), for labels (n,) shared by the leading axes or (..., n)."""
    labels = np.broadcast_to(y, shape[:-1]).ravel()
    return np.arange(labels.shape[0]) * shape[-1] + labels


def _softmax_terms(
    logits: np.ndarray, y: np.ndarray, index: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Label log-probabilities and residuals softmax - e_y from one exp pass.

    ``logits`` may carry leading cell axes, (..., n, C), with labels (n,)
    shared or (..., n) per cell.  It is overwritten with its max-shifted
    values, and the residuals are written over their exp.  ``index`` is
    ``_label_index(y, logits.shape)``: a caller that evaluates logits of
    one shape and labels many times (the attack) builds it once.
    """
    if index is None:
        index = _label_index(y, logits.shape)
    shifted, total, r = _softmax(logits, out=logits)
    log_p = shifted.take(index) - np.log(total.reshape(-1))
    r.put(index, r.take(index) - 1.0)
    return log_p.reshape(logits.shape[:-1]), r


def _class_batch(theta, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Float inputs and integer labels, checked against the C rows of a
    (C, d) or (K, C, d) theta."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y)).astype(np.int64)
    if np.any(y < 0) or np.any(y >= theta.shape[-2]):
        raise ValueError("class labels must lie in [0, num_classes)")
    return x, y


def _require_nominal(spec: LossSpec) -> None:
    if spec.c > 0.0:
        raise ValueError(
            "the multi-class worst-case loss has no closed form; "
            "evaluate it at attacked inputs instead"
        )


def multiclass_loss(theta, x, y, per_example: bool = False):
    """Mean (or per-example) softmax cross-entropy for weights (C, d)."""
    theta = np.asarray(theta, dtype=np.float64)
    x, y = _class_batch(theta, x, y)
    values = -_softmax_terms(x @ theta.T, y)[0]
    return values if per_example else float(values.mean())


def multiclass_gradient(theta, x, y) -> np.ndarray:
    """Mean softmax cross-entropy gradient, shape (C, d)."""
    theta = np.asarray(theta, dtype=np.float64)
    x, y = _class_batch(theta, x, y)
    r = _softmax_terms(x @ theta.T, y)[1]
    return r.T @ x / x.shape[0]
