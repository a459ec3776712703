"""The fused step kernel ``losses.step_terms`` against the per-example path.

The reference for the clipped mean gradient is the tensor path it replaced:
``clip_rows(per_example_gradients(...), k).sum(0) / n``.
"""

import math

import numpy as np
import pytest

from rpopt import losses, optimizer
from rpopt.attacks import AttackConfig, pgd_batch
from rpopt.data import Dataset
from rpopt.losses import LossSpec, step_terms
from rpopt.optimizer import OptimizerConfig, TrainTrace, clip_rows, train

CLIP_KS = [1e-6, 0.3, 1e6, math.inf]  # tiny, moderate, large, none
BINARY_SPECS = [
    LossSpec.nominal(),
    LossSpec.adversarial(0.2, 2.0),
    LossSpec.adversarial(0.2, math.inf),
]


def _reference_gradient(theta, x, y, spec, k):
    per = losses.per_example_gradients(theta, x, y, spec)
    return clip_rows(per, k).sum(axis=0) / x.shape[0]


def _clipped_gradient(*args):
    # the all-zero row must not divide by zero or produce 0 * inf
    with np.errstate(all="raise"):
        return step_terms(*args)[2]


def _assert_close(got, want):
    assert np.all(np.isfinite(got))
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


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
        with pytest.raises(ValueError, match="closed-form"):
            step_terms(np.zeros(5), x, y, LossSpec.nominal(), x_adv=x)


class TestMulticlass:
    @pytest.mark.parametrize("k", CLIP_KS)
    def test_clean_clipped_gradient_matches_tensor_path(self, multiclass_case, k):
        theta, x, y, _ = multiclass_case
        grad = _clipped_gradient(theta, x, y, LossSpec.nominal(), k)
        _assert_close(grad, _reference_gradient(theta, x, y, LossSpec.nominal(), k))

    @pytest.mark.parametrize("k", CLIP_KS)
    def test_attacked_clipped_gradient_matches_tensor_path(self, multiclass_case, k):
        theta, x, y, x_adv = multiclass_case
        spec = LossSpec.adversarial(0.1, math.inf)
        grad = _clipped_gradient(theta, x, y, spec, k, x_adv)
        _assert_close(grad, _reference_gradient(theta, x_adv, y, LossSpec.nominal(), k))

    def test_losses_and_unclipped_gradient_are_exact(self, multiclass_case):
        theta, x, y, x_adv = multiclass_case
        nominal, adversarial, grad = step_terms(theta, x, y, LossSpec.nominal())
        assert nominal == adversarial == losses.multiclass_loss(theta, x, y)
        np.testing.assert_array_equal(grad, losses.gradient(theta, x, y, LossSpec.nominal()))

        spec = LossSpec.adversarial(0.1, math.inf)
        nominal, adversarial, grad = step_terms(theta, x, y, spec, x_adv=x_adv)
        assert nominal == losses.multiclass_loss(theta, x, y)
        assert adversarial == losses.multiclass_loss(theta, x_adv, y)
        np.testing.assert_array_equal(
            grad, losses.gradient(theta, x_adv, y, LossSpec.nominal())
        )

    def test_budget_and_attacked_batch_go_together(self, multiclass_case):
        theta, x, y, x_adv = multiclass_case
        with pytest.raises(ValueError, match="x_adv"):
            step_terms(theta, x, y, LossSpec.adversarial(0.1, math.inf))
        with pytest.raises(ValueError, match="x_adv"):
            step_terms(theta, x, y, LossSpec.nominal(), x_adv=x_adv)

    def test_label_range_is_checked(self, multiclass_case):
        theta, x, y, _ = multiclass_case
        with pytest.raises(ValueError, match="class labels"):
            step_terms(theta, x, y + 4, LossSpec.nominal())


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
        spec=LossSpec.adversarial(0.05, math.inf),
        clip_k=k,
        sigma=0.5,
        noise_mode="dpsgd",
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
    np.testing.assert_array_equal(first.final_params.weights, again.final_params.weights)
    assert np.all(first.grad_norm <= k)
    assert np.all(first.adversarial_loss >= first.nominal_loss - 1e-15)
