"""One implementation per numeric step, against the expressions it replaced.

The softmax losses, the ball scaling and the PGD keep-best update each had
several hand-written copies before they were routed through one helper
(``losses._softmax_terms``, ``losses._clip_factors``, ``losses._softplus``
and ``pgd_batch``'s ``consider``).  The old copies are kept here as
oracles: the max-shifted log-softmax and softmax, the l2 projection with
its own scale factor, the inline softplus, and the PGD restart loop with
its inline keep-best update.  Every comparison is bit for bit.

``pgd_batch`` now writes its intermediates into a reusable
``PGDWorkspace``; the reference loop allocates as it goes, so the same
comparisons guard the in-place rewrite, and the workspace tests below check
reuse across calls and what a warm call still allocates.  The one thing a
workspace carries from call to call, the l_inf box bounds of a frozen
input, is checked against fresh calls: kept for the same array, budget and
box, rebuilt for any other or for an array changed in place.

``losses._softmax`` takes the class max one column at a time, and the
l_inf ascent direction writes its signs into a workspace array; both are
checked bit for bit, edge values included, against the numpy expressions
they replaced (``max(axis=-1)`` and an in-place ``np.sign``).  The losses
and residuals a workspace keeps after an attack are checked against
``_softmax_terms`` written out at x and at x + delta.

``hessian_operator`` builds the Hessian once per theta.  Its binary
products are checked bit for bit against the per-call expressions it
replaced; its multi-class product, which replaced a central difference of
two gradients, is checked against the dense Kronecker-form Hessian.
"""

import math
import tracemalloc

import numpy as np
import pytest

from rpopt import attacks, losses
from rpopt.attacks import AttackConfig, PGDWorkspace, pgd_batch
from rpopt.curvature import max_eigenvalue
from rpopt.errors import SingularityError
from rpopt.losses import (
    LossSpec,
    hessian_operator,
    hessian_vector_product,
    multiclass_gradient,
    multiclass_loss,
    per_example_gradients,
    sigmoid,
)
from rpopt.optimizer import clip_rows


def _log_softmax(logits):
    m = logits.max(axis=1, keepdims=True)
    return logits - m - np.log(np.exp(logits - m).sum(axis=1, keepdims=True))


def _softmax(logits):
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_residuals(theta, x, y):
    probs = _softmax(x @ theta.T)
    probs[np.arange(x.shape[0]), y] -= 1.0
    return probs


def _softmax_case(seed, scale):
    rng = np.random.default_rng(seed)
    theta = scale * rng.standard_normal((4, 6))
    x = rng.uniform(-1.0, 1.0, size=(9, 6))
    y = rng.integers(0, 4, size=9)
    return theta, x, y


class TestSoftmaxOracles:
    # scale 300 puts logits near 1e3, where exp overflows without the max shift
    @pytest.mark.parametrize("scale", [0.5, 5.0, 300.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_loss(self, seed, scale):
        theta, x, y = _softmax_case(seed, scale)
        expected = -_log_softmax(x @ theta.T)[np.arange(len(y)), y]
        per_example = multiclass_loss(theta, x, y, per_example=True)
        assert np.all(np.isfinite(per_example))
        assert np.array_equal(per_example, expected)
        assert multiclass_loss(theta, x, y) == float(expected.mean())

    @pytest.mark.parametrize("scale", [0.5, 5.0, 300.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_gradient(self, seed, scale):
        theta, x, y = _softmax_case(seed, scale)
        expected = _softmax_residuals(theta, x, y).T @ x / x.shape[0]
        assert np.array_equal(multiclass_gradient(theta, x, y), expected)

    @pytest.mark.parametrize("scale", [0.5, 5.0, 300.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_per_example_gradients(self, seed, scale):
        theta, x, y = _softmax_case(seed, scale)
        probs = _softmax_residuals(theta, x, y)
        expected = probs[:, :, None] * x[:, None, :]
        assert np.array_equal(per_example_gradients(theta, x, y, LossSpec()), expected)


def _softmax_by_reduction(logits):
    """losses._softmax as it took the class max: one reduction over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    return shifted, total, e / total


def _edge_logits(num_classes, rng):
    """Rows of C logits: ordinary ones, ties, signed zeros, infinities and NaNs."""
    C = num_classes
    rows = [rng.standard_normal(C) * 5.0, np.full(C, 2.5), np.full(C, 1e308), np.full(C, -1e308)]
    top_tie = rng.standard_normal(C)
    top_tie[0] = top_tie[-1] = top_tie.max() + 1.0
    rows.append(top_tie)
    for zero in (0.0, -0.0):
        row = -np.abs(rng.standard_normal(C)) - 1.0
        row[0], row[-1] = zero, -zero
        rows.append(row)
    for value in (np.inf, -np.inf, np.nan):
        for where in (0, C - 1):
            row = rng.standard_normal(C)
            row[where] = value
            rows.append(row)
        rows.append(np.full(C, value))
    return np.array(rows)


class TestSoftmaxColumnMax:
    @pytest.mark.parametrize("num_classes", [1, 2, 4, 10])
    @pytest.mark.parametrize("stacked", [False, True], ids=["(n, C)", "(K, n, C)"])
    def test_matches_the_reduction_bit_for_bit(self, num_classes, stacked):
        rng = np.random.default_rng(num_classes)
        logits = _edge_logits(num_classes, rng)
        if stacked:
            logits = np.stack([logits, logits[::-1], rng.permutation(logits)])
        with np.errstate(invalid="ignore", over="ignore"):
            got = losses._softmax(logits)
            want = _softmax_by_reduction(logits)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


def test_linf_ascent_direction_is_numpy_sign():
    # signed zeros, NaNs of both signs, subnormals, infinities
    values = [0.0, -0.0, np.nan, -np.nan, 5e-324, -5e-324, 1e-310, -2.2e-308, 1.0, -3.5,
              np.inf, -np.inf]
    grads = np.array([values, values[::-1]])
    expected = np.sign(grads)
    got = attacks._ascent_direction(grads.copy(), math.inf, PGDWorkspace())
    assert got.tobytes() == expected.tobytes()


def test_l2_ascent_direction_is_the_written_out_one():
    # the zero, NaN and part-NaN rows have no direction and read 0
    grads = np.random.default_rng(5).standard_normal((6, 4))
    odd = np.array([[0.0] * 4, [np.nan] * 4, [1.0, np.nan, 0.0, -2.0]])
    for batch in (grads, np.concatenate([grads[:2], odd, grads[2:]])):
        got = attacks._ascent_direction(batch.copy(), 2.0, PGDWorkspace())
        assert got.tobytes() == _ascent_direction(batch, 2.0).tobytes()


def test_clip_rows_matches_its_own_scale_factor():
    grads = np.random.default_rng(3).standard_normal((7, 3, 5))
    grads[2] = 0.0
    norms = np.linalg.norm(grads.reshape(7, -1), axis=1)
    factors = np.minimum(1.0, 0.8 / np.maximum(norms, 1e-300))
    assert np.array_equal(clip_rows(grads, 0.8), grads * factors[:, None, None])


# ---------------------------------------------------------------------------
# pgd_batch as it stood with its restart loop written out
# ---------------------------------------------------------------------------


def _loss_and_grad(theta, y):
    if theta.ndim == 1:
        yf = y.astype(np.float64)

        def binary(x):
            z = -yf * (x @ theta)
            values = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
            return values, sigmoid(z)[:, None] * (-yf[:, None] * theta[None, :])

        return binary

    yi = y.astype(np.int64)

    def softmax_xent(x):
        logits = x @ theta.T
        values = -_log_softmax(logits)[np.arange(x.shape[0]), yi]
        probs = _softmax(logits)
        probs[np.arange(x.shape[0]), yi] -= 1.0
        return values, probs @ theta

    return softmax_xent


def _project_l2(delta, budget):
    norms = np.linalg.norm(delta, axis=1, keepdims=True)
    return delta * np.minimum(1.0, budget / np.maximum(norms, 1e-300))


def _ascent_direction(grads, p):
    if p == math.inf:
        return np.sign(grads)
    norms = np.linalg.norm(grads, axis=1, keepdims=True)
    return np.where(norms > 0, grads / np.maximum(norms, 1e-300), 0.0)


def _random_start(rng, n, d, budget, p):
    if p == math.inf:
        return rng.uniform(-budget, budget, size=(n, d))
    direction = rng.standard_normal((n, d))
    direction /= np.maximum(np.linalg.norm(direction, axis=1, keepdims=True), 1e-300)
    radius = budget * rng.uniform(size=(n, 1)) ** (1.0 / d)
    return direction * radius


def _constraint(x, budget, p, box):
    if p == math.inf:
        lower, upper = -budget, budget
        if box is not None:
            lower, upper = np.maximum(lower, box[0] - x), np.minimum(upper, box[1] - x)
        return lambda delta: np.clip(delta, lower, upper)
    if box is None:
        return lambda delta: _project_l2(delta, budget)
    lo, hi = box
    return lambda delta: np.clip(x + _project_l2(delta, budget), lo, hi) - x


def _pgd_reference(theta, x, y, attack, box):
    n, d = x.shape
    loss_and_grad = _loss_and_grad(theta, y)
    c, p = attack.budget, attack.p
    alpha = 2.5 * c / attack.steps
    constrain = _constraint(x, c, p, box)
    best_delta = np.zeros((n, d))
    best_values, clean_grads = loss_and_grad(x)
    best_values = best_values.copy()

    def consider(delta):
        nonlocal best_values
        values, grads = loss_and_grad(x + delta)
        better = values > best_values
        best_values = np.where(better, values, best_values)
        best_delta[better] = delta[better]
        return grads

    consider(constrain(c * _ascent_direction(clean_grads, p)))
    for restart in range(attack.restarts):
        rng = np.random.default_rng([attack.seed, restart])
        delta = constrain(_random_start(rng, n, d, c, p))
        for _ in range(attack.steps):
            values, grads = loss_and_grad(x + delta)
            better = values > best_values
            best_values = np.where(better, values, best_values)
            best_delta[better] = delta[better]
            delta = constrain(delta + alpha * _ascent_direction(grads, p))
        consider(delta)
    return best_delta


@pytest.mark.parametrize("restarts", [1, 3])
@pytest.mark.parametrize("box", [None, (0.0, 1.0)])
@pytest.mark.parametrize("p", [2.0, math.inf])
@pytest.mark.parametrize("multiclass", [False, True])
def test_pgd_batch_matches_the_written_out_loop(multiclass, p, box, restarts):
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 1.0, size=(12, 5))
    if multiclass:
        theta = rng.standard_normal((3, 5))
        y = rng.integers(0, 3, size=12)
    else:
        theta = rng.standard_normal(5)
        y = rng.choice([-1, 1], size=12)
    attack = AttackConfig(budget=0.3, p=p, steps=6, restarts=restarts, seed=4)
    got = pgd_batch(theta, x, y, attack, box=box)
    assert np.array_equal(got, _pgd_reference(theta, x, y, attack, box))
    assert np.any(got != 0.0)


# the attack inside digits-sized multi-class training: n = 1497 training
# examples of 8 x 8 pixels in the box (0, 1), 10 classes
DIGITS_N, DIGITS_D, DIGITS_C = 1497, 64, 10


def _digits_case(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(DIGITS_N, DIGITS_D))
    # pixels on the box edges, where the box bounds bind before the budget
    edges = rng.uniform(size=x.shape)
    x[edges < 0.2] = 0.0
    x[edges > 0.95] = 1.0
    theta = rng.standard_normal((DIGITS_C, DIGITS_D))
    y = rng.integers(0, DIGITS_C, size=DIGITS_N)
    return theta, x, y


def test_pgd_batch_matches_the_written_out_loop_at_digits_size():
    theta, x, y = _digits_case(5)
    attack = AttackConfig(budget=0.005, p=math.inf, steps=4, seed=9)
    got = pgd_batch(theta, x, y, attack, box=(0.0, 1.0))
    assert np.array_equal(got, _pgd_reference(theta, x, y, attack, (0.0, 1.0)))
    # the box binds: without it the attack moves pixels off the edges
    assert not np.array_equal(got, pgd_batch(theta, x, y, attack))


def _reuse_calls():
    """Attacks one workspace serves in turn, as a training run makes them."""
    rng = np.random.default_rng(21)
    x = rng.uniform(0.0, 1.0, size=(40, 6))
    x[:, 0] = 0.0
    x_next = rng.uniform(0.0, 1.0, size=(40, 6))  # the next minibatch
    x_full = rng.uniform(0.0, 1.0, size=(55, 6))  # the final full-set step
    theta = rng.standard_normal((4, 6))
    theta_next = rng.standard_normal((4, 6))
    y, y_next, y_full = (rng.integers(0, 4, size=len(a)) for a in (x, x_next, x_full))
    box = (0.0, 1.0)

    def attack(seed, p=math.inf):
        return AttackConfig(budget=0.2, p=p, steps=5, seed=seed)

    return [
        (theta, x, y, attack(1), box),
        (theta_next, x, y, attack(1), box),  # new weights
        (0.0 * theta, x, y, attack(1), box),  # zero weights: the clean input is best
        (theta_next, x, y, attack(2), box),  # new seed
        (theta_next, x_next, y_next, attack(2), box),  # new inputs, same shape
        (theta_next, x_full, y_full, attack(3), box),  # new shape
        (theta_next, x_full, y_full, attack(3, p=2.0), box),  # l2 ball
        (theta_next[0], x_full, 2 * (y_full % 2) - 1, attack(4), None),  # binary
        (theta, x, y, attack(1), box),  # back to the first call
    ]


def test_a_reused_workspace_matches_fresh_calls():
    workspace = PGDWorkspace()
    results = []
    for theta, x, y, attack, box in _reuse_calls():
        got = pgd_batch(theta, x, y, attack, box=box, workspace=workspace)
        assert np.array_equal(got, pgd_batch(theta, x, y, attack, box=box))
        results.append((got, got.copy()))
    # no result is a view of the workspace that a later call overwrote
    for got, copy in results:
        assert np.array_equal(got, copy)
    assert np.array_equal(results[0][0], results[-1][0])


def test_the_result_is_never_a_view_of_the_workspace():
    workspace = PGDWorkspace()
    for theta, x, y, attack, box in _reuse_calls():
        got = pgd_batch(theta, x, y, attack, box=box, workspace=workspace)
        kept = [workspace.clean_loss, workspace.loss, workspace.residual]
        for array in list(workspace._arrays.values()) + [a for a in kept if a is not None]:
            assert not np.shares_memory(got, array)


def _kept_terms(theta, x, y, delta):
    """The losses at x and at x + delta and the residual at x + delta, by
    _softmax_terms written out; the binary loss and None for binary weights."""
    if theta.ndim == 1:
        yf = y.astype(np.float64)
        return (losses._softplus(-yf * (x @ theta)), losses._softplus(-yf * ((x + delta) @ theta)),
                None)
    clean_log_p, _ = losses._softmax_terms(x @ theta.T, y)
    log_p, residual = losses._softmax_terms((x + delta) @ theta.T, y)
    return -clean_log_p, -log_p, residual


def _assert_kept(workspace, theta, x, y, delta):
    clean, chosen, residual = _kept_terms(theta, x, y, delta)
    assert workspace.clean_loss.tobytes() == clean.tobytes()
    assert workspace.loss.tobytes() == chosen.tobytes()
    if residual is None:
        assert workspace.residual is None
    else:
        assert workspace.residual.tobytes() == residual.tobytes()


def _stuck_case():
    """Two classes in two dimensions where only x_0 moves the logits.  In
    the box (0, 1) the rows of class 0 at x_0 = 0 and of class 1 at x_0 = 1
    are at their worst case already: no candidate beats the clean input."""
    rng = np.random.default_rng(13)
    theta = np.array([[2.0, 0.0], [0.0, 0.0]])
    x = rng.uniform(0.2, 0.8, size=(10, 2))
    y = np.arange(10) % 2
    x[[0, 2], 0] = 0.0
    x[[1, 3], 0] = 1.0
    return theta, x, y


@pytest.mark.parametrize("restarts", [1, 3])
@pytest.mark.parametrize("box", [None, (0.0, 1.0)])
@pytest.mark.parametrize("p", [2.0, math.inf])
@pytest.mark.parametrize("case", ["random", "zero weights", "stuck rows"])
def test_the_workspace_keeps_the_terms_of_the_clean_and_the_chosen_input(case, p, box, restarts):
    rng = np.random.default_rng(12)
    x = rng.uniform(0.0, 1.0, size=(12, 5))
    theta = rng.standard_normal((3, 5))
    y = rng.integers(0, 3, size=12)
    if case == "zero weights":  # flat loss: the clean input is every row's best
        theta = 0.0 * theta
    elif case == "stuck rows":
        theta, x, y = _stuck_case()
    attack = AttackConfig(budget=0.3, p=p, steps=6, restarts=restarts, seed=4)
    workspace = PGDWorkspace()
    delta = pgd_batch(theta, x, y, attack, box=box, workspace=workspace)
    _assert_kept(workspace, theta, x, y, delta)
    clean_rows = np.all(delta == 0.0, axis=1)
    if case == "zero weights":
        assert clean_rows.all()
    elif case == "stuck rows" and box is not None:
        assert clean_rows[:4].all() and not clean_rows[4:].any()
    else:
        assert not clean_rows.any()
    # where the clean input stays, so does its residual
    clean_residual = losses._softmax_terms(x @ theta.T, y)[1]
    assert workspace.residual[clean_rows].tobytes() == clean_residual[clean_rows].tobytes()


def test_a_reused_workspace_keeps_each_calls_terms():
    # new weights, seeds, inputs, batch shapes, norms and a binary call
    workspace = PGDWorkspace()
    for theta, x, y, attack, box in _reuse_calls():
        delta = pgd_batch(theta, x, y, attack, box=box, workspace=workspace)
        _assert_kept(workspace, theta, x, y, delta)


def _box_case(seed):
    """A small multi-class attack whose box bounds bind: many inputs sit on
    the edges of (0, 1)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(30, 6))
    x[rng.uniform(size=x.shape) < 0.3] = 0.0
    x[rng.uniform(size=x.shape) > 0.8] = 1.0
    return rng.standard_normal((4, 6)), x, rng.integers(0, 4, size=30)


def _read_only_copy(a):
    a = a.copy()
    a.flags.writeable = False
    return a


def _assert_fresh(theta, x, y, attack, box, workspace):
    got = pgd_batch(theta, x, y, attack, box=box, workspace=workspace)
    assert got.tobytes() == pgd_batch(theta, x, y, attack, box=box).tobytes()


def test_the_box_bounds_of_a_frozen_input_carry_over():
    theta, x, y = _box_case(31)
    x, box = _read_only_copy(x), (0.0, 1.0)
    workspace = PGDWorkspace()
    _assert_fresh(theta, x, y, AttackConfig(budget=0.3, steps=5, seed=0), box, workspace)
    kept = workspace._box_bounds
    assert kept[0] is x
    # new weights and seeds, and an l2 call, which has no interval bounds
    calls = [
        (2.0 * theta, math.inf),
        (-theta, 2.0),
        (0.5 * theta, math.inf),
        (0.0 * theta, math.inf),
    ]
    for seed, (weights, p) in enumerate(calls, start=1):
        _assert_fresh(weights, x, y, AttackConfig(budget=0.3, p=p, steps=5, seed=seed), box,
                      workspace)
        assert workspace._box_bounds is kept  # built once, then reused


@pytest.mark.parametrize(
    "case", ["writeable", "read-only view of a writeable array", "made writeable again"]
)
def test_an_input_changed_in_place_gets_new_box_bounds(case):
    theta, x, y = _box_case(32)
    if case == "writeable":
        base = inputs = x
    elif case == "read-only view of a writeable array":
        base = x.copy()
        inputs = base[:]
        inputs.flags.writeable = False
    else:
        base = inputs = _read_only_copy(x)
    workspace = PGDWorkspace()
    attack, box = AttackConfig(budget=0.3, steps=5, seed=1), (0.0, 1.0)
    _assert_fresh(theta, inputs, y, attack, box, workspace)
    base.flags.writeable = True
    np.subtract(1.0, base, out=base)  # the same array object, new values
    _assert_fresh(theta, inputs, y, attack, box, workspace)


def test_a_new_budget_box_or_array_gets_new_box_bounds():
    theta, x, y = _box_case(33)
    x, other = _read_only_copy(x), _read_only_copy(1.0 - x)
    minibatch = x[::-1].copy()  # writeable, of the same shape
    workspace = PGDWorkspace()
    calls = [
        (x, 0.3, (0.0, 1.0)),
        (x, 0.1, (0.0, 1.0)),  # new budget
        (x, 0.1, (0.0, 0.9)),  # new box
        (other, 0.1, (0.0, 0.9)),  # new array, same shape
        (minibatch, 0.1, (0.0, 0.9)),  # a writeable array in the same buffers
        (x, 0.1, (0.0, 0.9)),  # back to the first array
    ]
    previous = None
    for seed, (inputs, budget, box) in enumerate(calls):
        _assert_fresh(theta, inputs, y, AttackConfig(budget=budget, steps=5, seed=seed), box,
                      workspace)
        assert workspace._box_bounds is None or workspace._box_bounds is not previous
        previous = workspace._box_bounds


def test_a_warm_workspace_allocates_one_result():
    theta, x, y = _digits_case(6)
    workspace = PGDWorkspace()
    warm_up = AttackConfig(budget=0.005, steps=4, seed=0)
    pgd_batch(theta, x, y, warm_up, box=(0.0, 1.0), workspace=workspace)
    attack = AttackConfig(budget=0.005, steps=4, seed=1)
    tracemalloc.start()
    try:
        pgd_batch(0.5 * theta, x, y, attack, box=(0.0, 1.0), workspace=workspace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the fresh result plus (n, C) and (n,) temporaries; the loop allocating
    # as it goes peaks at about seven (n, d) arrays
    assert peak <= 2 * x.nbytes


# ---------------------------------------------------------------------------
# hessian_operator against the dense Hessian and the per-call binary HVP
# ---------------------------------------------------------------------------


def _dense_softmax_hessian(theta, x, y):
    """(1/n) sum_i (diag p_i - p_i p_i^T) kron x_i x_i^T, rows and columns
    indexed like theta.ravel()."""
    probs = _softmax(x @ theta.T)
    hess = np.zeros((theta.size, theta.size))
    for p_i, x_i in zip(probs, x):
        hess += np.kron(np.diag(p_i) - np.outer(p_i, p_i), np.outer(x_i, x_i))
    return hess / x.shape[0]


def _binary_hvp_per_call(theta, v, x, y, spec):
    """The binary Hessian-vector product as it was computed on every call."""
    n = x.shape[0]
    z = -y * (x @ theta)
    if spec.c > 0.0:
        z = z + spec.c * spec.weight_norm(theta)
    sig = sigmoid(z)
    weights = sig * (1.0 - sig)
    if spec.c == 0.0:
        return x.T @ (weights * (x @ v)) / n
    if spec.dual_q == 2.0:
        norm = float(np.linalg.norm(theta))
        unit = theta / norm
        r = -y[:, None] * x + spec.c * unit[None, :]
        coeff = weights * (r @ v)
        rank_one = coeff @ r / n
        curvature = spec.c / norm * (v - unit * (unit @ v)) * float(sig.mean())
        return rank_one + curvature
    r = -y[:, None] * x + spec.c * np.sign(theta)[None, :]
    coeff = weights * (r @ v)
    return coeff @ r / n


@pytest.mark.parametrize("scale", [0.5, 5.0, 300.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_multiclass_operator_matches_the_dense_hessian(seed, scale):
    theta, x, y = _softmax_case(seed, scale)
    dense = _dense_softmax_hessian(theta, x, y)
    hessian = hessian_operator(theta, x, y, LossSpec())
    v = np.random.default_rng(seed + 10).standard_normal(theta.shape)
    hv = hessian(v)
    assert hv.shape == theta.shape
    assert np.max(np.abs(hv.ravel() - dense @ v.ravel())) < 1e-12
    assert np.array_equal(hessian_vector_product(theta, v, x, y, LossSpec()), hv)


@pytest.mark.parametrize(
    "spec",
    [LossSpec(), LossSpec(0.3, p=2.0), LossSpec(0.3, p=math.inf)],
    ids=["c0", "c-l2", "c-linf"],
)
def test_binary_operator_matches_the_per_call_product(spec):
    rng = np.random.default_rng(4)
    theta = rng.standard_normal(6)
    x = rng.uniform(-1.0, 1.0, size=(40, 6))
    y = rng.choice([-1.0, 1.0], size=40)
    hessian = hessian_operator(theta, x, y, spec)
    for _ in range(3):
        v = rng.standard_normal(6)
        expected = _binary_hvp_per_call(theta, v, x, y, spec)
        assert np.array_equal(hessian(v), expected)
        assert np.array_equal(hessian_vector_product(theta, v, x, y, spec), expected)


def test_binary_operator_is_singular_at_the_origin_with_a_budget():
    x = np.eye(3) * 0.5
    y = np.array([1.0, -1.0, 1.0])
    with pytest.raises(SingularityError):
        hessian_operator(np.zeros(3), x, y, LossSpec(0.2, p=2.0))


def test_multiclass_max_eigenvalue_matches_the_dense_spectrum():
    rng = np.random.default_rng(0)
    theta = 0.5 * rng.standard_normal((3, 4))
    x = rng.uniform(-0.4, 0.4, size=(30, 4))
    y = rng.integers(0, 3, size=30)
    tol = 1e-9
    report = max_eigenvalue(theta, x, y, LossSpec(), tol=tol)
    top = float(np.linalg.eigvalsh(_dense_softmax_hessian(theta, x, y))[-1])
    assert report.converged
    assert abs(report.lambda_max - top) <= 2.0 * tol * max(1.0, top)
