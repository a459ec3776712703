"""The fused step kernel ``losses.step_terms_stack``, one cell at a time,
against the per-example path.

The reference for the clipped mean gradient is the tensor path it replaced:
``clip_rows(per_example_gradients(...), k).sum(0) / n``.

The kernel takes no attacked batch: training takes a multi-class cell's
worst-case terms from its attack.  The attacked cases here check the oracle
``attacked_terms``, the nominal kernel at the attacked batch x_adv, which
is what the kernel computed from x_adv before and what
``tests/test_train_stack.py`` holds training to.
"""

import math
import tracemalloc

import numpy as np
import pytest

from rpopt import losses, optimizer
from rpopt.attacks import AttackConfig, pgd_batch
from rpopt.data import Dataset
from rpopt.losses import LossSpec
from rpopt.optimizer import OptimizerConfig, TrainTrace, clip_rows, train

CLIP_KS = [1e-6, 0.3, 1e6, math.inf]  # tiny, moderate, large, none
BINARY_SPECS = [
    LossSpec(),
    LossSpec(0.2, 2.0),
    LossSpec(0.2, math.inf),
]


def step_terms(theta, x, y, spec, clip_k=math.inf):
    """The losses and gradient of the one-cell stack of theta."""
    nominal, adversarial, grad = losses.step_terms_stack(theta[None], x, y, spec, [clip_k])
    return nominal[0], adversarial[0], grad[0]


def attacked_terms(theta, x, y, clip_k, x_adv):
    """A multi-class cell's worst-case terms from its attacked batch: the
    nominal loss on x; the worst-case loss and clipped gradient as nominal
    terms at x_adv."""
    nominal = step_terms(theta, x, y, LossSpec())[0]
    adversarial, _, grad = step_terms(theta, x_adv, y, LossSpec(), clip_k)
    return nominal, adversarial, grad


def _reference_gradient(theta, x, y, spec, k):
    per = losses.per_example_gradients(theta, x, y, spec)
    return clip_rows(per, k).sum(axis=0) / x.shape[0]


def _clipped_gradient(*args):
    # the all-zero row must not divide by zero or produce 0 * inf
    with np.errstate(all="raise"):
        return step_terms(*args)[2]


def _assert_close(got, want, scale=0.0):
    # ``scale``: the size of terms that cancel in the kernel but not in want
    assert np.all(np.isfinite(got))
    assert np.linalg.norm(got - want) <= 1e-13 * (np.linalg.norm(want) + scale)


def _batch(rng, n, d):
    """Rows in the unit ball and the box (0, 1), the first one all zero."""
    x = rng.uniform(0.0, 1.0, size=(n, d)) / math.sqrt(d)
    x[0] = 0.0
    return x


@pytest.fixture()
def binary_case(rng):
    x = _batch(rng, 12, 5)
    y = rng.choice([-1.0, 1.0], size=12)
    return x, y


@pytest.fixture()
def multiclass_case(rng):
    x = _batch(rng, 15, 6)
    y = np.arange(15) % 4
    theta = rng.normal(size=(4, 6))
    attack = AttackConfig(budget=0.1, p=math.inf, steps=5, seed=3)
    x_adv = x + pgd_batch(theta, x, y, attack, box=(0.0, 1.0))
    return theta, x, y, x_adv


class TestBinary:
    @pytest.mark.parametrize("k", CLIP_KS)
    @pytest.mark.parametrize("spec", BINARY_SPECS)
    @pytest.mark.parametrize("origin", [False, True])
    def test_clipped_gradient_matches_tensor_path(self, rng, binary_case, spec, k, origin):
        x, y = binary_case
        theta = np.zeros(5) if origin else rng.normal(size=5)
        grad = _clipped_gradient(theta, x, y, spec, k)
        _assert_close(grad, _reference_gradient(theta, x, y, spec, k))

    @pytest.mark.parametrize("spec", BINARY_SPECS)
    def test_losses_and_unclipped_gradient_are_exact(self, rng, binary_case, spec):
        x, y = binary_case
        theta = rng.normal(size=5)
        nominal, adversarial, grad = step_terms(theta, x, y, spec)
        assert nominal == losses.logistic_loss(theta, x, y)
        if spec.c > 0:
            assert adversarial == losses.adversarial_logistic_loss(theta, x, y, spec)
        else:
            assert adversarial == nominal
        np.testing.assert_array_equal(grad, losses.gradient(theta, x, y, spec))

    def test_rejects_attacked_batch(self, binary_case):
        x, y = binary_case
        with pytest.raises(TypeError):
            losses.step_terms_stack(np.zeros((1, 5)), x, y, LossSpec(), [1.0], x[None])


class TestBinaryRankOne:
    """The binary clipped step takes ||r_i||^2 = ||x_i||^2 - 2c y_i <x_i, g>
    + c^2 ||g||^2 and sum_i w_i r_i = -(w y)^T X + c (sum_i w_i) g, for
    r_i = -y_i x_i + c g; it never builds the residuals.  (theta = 0 for
    both norms is covered by the ``origin`` cases of TestBinary.)"""

    @pytest.mark.parametrize("k", CLIP_KS)
    @pytest.mark.parametrize("c", [0.07, 0.2])
    def test_zero_residual_cancels_to_the_floor(self, rng, binary_case, c, k):
        # x_0 = c y_0 sign(theta) makes r_0 = 0 exactly; in 5 dimensions the
        # identity rounds to a tiny negative number for c = 0.07 (sqrt would
        # raise) and to a tiny positive one for c = 0.2.  Row 0 is never
        # clipped, and its two terms, each of norm at most c ||g|| / n,
        # cancel in the mean only to rounding: with k = 1e-6 that is more
        # than the clipped rows' own rounding
        x, y = binary_case
        theta = rng.normal(size=5)
        x = x.copy()
        x[0] = c * y[0] * np.sign(theta)
        spec = LossSpec(c, math.inf)
        grad = _clipped_gradient(theta, x, y, spec, k)
        cancelled = 2.0 * c * math.sqrt(5) / len(x)
        _assert_close(grad, _reference_gradient(theta, x, y, spec, k), cancelled)

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_per_cell_minibatches_with_mixed_clipping(self, rng, p):
        cells, n, d = 5, 12, 5
        x = np.stack([_batch(rng, n, d) for _ in range(cells)])
        y = rng.choice([-1.0, 1.0], size=(cells, n))
        theta = rng.normal(size=(cells, d))
        theta[2] = 0.0
        clip_k = np.array([0.3, math.inf, 1e-6, 1e6, math.inf])
        spec = LossSpec(0.2, p)
        with np.errstate(all="raise"):
            grad = losses.step_terms_stack(theta, x, y, spec, clip_k)[2]
        for i in range(cells):
            _assert_close(grad[i], _reference_gradient(theta[i], x[i], y[i], spec, clip_k[i]))

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_stacked_cells_match_one_cell_calls(self, rng, p):
        # every row is clipped, so the norms reach the gradient; <x_i, g> taken
        # as one product across cells rounds differently from one per cell
        cells, n, d = 6, 100, 20
        x = _batch(rng, n, d)
        y = rng.choice([-1.0, 1.0], size=n)
        theta = rng.normal(size=(cells, d))
        clip_k = np.full(cells, 1e-3)
        spec = LossSpec(0.2, p)
        stacked = losses.step_terms_stack(theta, x, y, spec, clip_k)[2]
        for i in range(cells):
            alone = losses.step_terms_stack(theta[i : i + 1], x, y, spec, clip_k[i : i + 1])[2]
            np.testing.assert_array_equal(stacked[i], alone[0])

    @pytest.mark.parametrize("spec", BINARY_SPECS)
    def test_step_peaks_below_one_residual_stack(self, spec):
        cells, n, d = 10, 500, 20
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, size=(n, d)) / math.sqrt(d)
        y = rng.choice([-1.0, 1.0], size=n)
        theta = rng.normal(size=(cells, d))
        clip_k = np.full(cells, 0.3)
        tracemalloc.start()
        try:
            losses.step_terms_stack(theta, x, y, spec, clip_k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cells * n * d * 8


class TestMulticlass:
    @pytest.mark.parametrize("k", CLIP_KS)
    def test_clean_clipped_gradient_matches_tensor_path(self, multiclass_case, k):
        theta, x, y, _ = multiclass_case
        grad = _clipped_gradient(theta, x, y, LossSpec(), k)
        _assert_close(grad, _reference_gradient(theta, x, y, LossSpec(), k))

    @pytest.mark.parametrize("k", CLIP_KS)
    def test_attacked_clipped_gradient_matches_tensor_path(self, multiclass_case, k):
        theta, x, y, x_adv = multiclass_case
        with np.errstate(all="raise"):
            grad = attacked_terms(theta, x, y, k, x_adv)[2]
        _assert_close(grad, _reference_gradient(theta, x_adv, y, LossSpec(), k))

    def test_losses_and_unclipped_gradient_are_exact(self, multiclass_case):
        theta, x, y, x_adv = multiclass_case
        nominal, adversarial, grad = step_terms(theta, x, y, LossSpec())
        assert nominal == adversarial == losses.multiclass_loss(theta, x, y)
        np.testing.assert_array_equal(grad, losses.gradient(theta, x, y, LossSpec()))

        nominal, adversarial, grad = attacked_terms(theta, x, y, math.inf, x_adv)
        assert nominal == losses.multiclass_loss(theta, x, y)
        assert adversarial == losses.multiclass_loss(theta, x_adv, y)
        np.testing.assert_array_equal(
            grad, losses.gradient(theta, x_adv, y, LossSpec())
        )

    def test_budget_and_attacked_batch_go_together(self, multiclass_case):
        # the worst-case terms come from the attack, never from the kernel
        theta, x, y, x_adv = multiclass_case
        with pytest.raises(ValueError, match="no closed form"):
            step_terms(theta, x, y, LossSpec(0.1, math.inf))
        with pytest.raises(TypeError):
            losses.step_terms_stack(theta[None], x, y, LossSpec(), [1.0], x_adv[None])

    def test_label_range_is_checked(self, multiclass_case):
        theta, x, y, _ = multiclass_case
        with pytest.raises(ValueError, match="class labels"):
            step_terms(theta, x, y + 4, LossSpec())


def _refuse(*args, **kwargs):
    raise AssertionError("training built a per-example gradient tensor")


def test_multiclass_dpsgd_training_builds_no_per_example_tensor(monkeypatch):
    rng = np.random.default_rng(4)
    centers = np.eye(3, 8) * 0.3 + 0.05
    labels = np.repeat(np.arange(3), 20)
    features = np.clip(centers[labels] + 0.05 * rng.standard_normal((60, 8)), 0.0, 1.0)
    dataset = Dataset(features=features, labels=labels, box=(0.0, 1.0))
    monkeypatch.setattr(losses, "per_example_gradients", _refuse)
    monkeypatch.setattr(optimizer, "clip_rows", _refuse)
    k = 0.05
    cfg = OptimizerConfig(
        eta=1.0,
        steps=12,
        spec=LossSpec(0.05, math.inf),
        clip_k=k,
        sigma=0.5,
        batch=24,
        seed=7,
        attack_steps=3,
    )
    first = train(dataset, cfg)
    again = train(dataset, cfg)
    for name in TrainTrace.COLUMNS:
        column = getattr(first, name)
        assert np.all(np.isfinite(column))
        np.testing.assert_array_equal(column, getattr(again, name))
    np.testing.assert_array_equal(first.final_params, again.final_params)
    assert np.all(first.grad_norm <= k)
    assert np.all(first.adversarial_loss >= first.nominal_loss - 1e-15)
