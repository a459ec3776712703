import math

import numpy as np
import pytest

from rpopt.attacks import (
    AttackConfig,
    exact_linear_robust_accuracy,
    pgd_batch,
    robust_accuracy,
)
from rpopt.data import Dataset, generate_separable
from rpopt.losses import LossSpec, adversarial_logistic_loss, logistic_loss
from rpopt.optimizer import OptimizerConfig, train


class TestAttackConfig:
    def test_zero_budget_allowed(self):
        cfg = AttackConfig(budget=0.0, steps=0)
        assert cfg.budget == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(budget=-0.1),
            dict(budget=math.inf),
            dict(budget=0.1, p=3.0),
            dict(budget=0.1, steps=-1),
            dict(budget=0.1, restarts=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AttackConfig(**kwargs)


class TestPgdAgainstClosedForm:
    @pytest.mark.parametrize("p", [2.0, math.inf], ids=["l2", "linf"])
    def test_linear_binary_attack_is_exact(self, p):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(40):
            d = int(rng.integers(2, 8))
            theta = rng.normal(size=d)
            x = rng.uniform(-0.5, 0.5, size=d)
            y = float(rng.choice([-1.0, 1.0]))
            c = float(rng.uniform(0.02, 0.4))
            spec = LossSpec(c, p)
            closed = adversarial_logistic_loss(theta, x, np.array([y]), spec)
            attack = AttackConfig(budget=c, p=p, steps=100, seed=3)
            delta = pgd_batch(theta, x[None], np.array([y]), attack)[0]
            achieved = logistic_loss(theta, x + delta, np.array([y]))
            assert achieved <= closed + 1e-12
            worst = max(worst, closed - achieved)
        assert worst < 1e-5, f"worst shortfall vs closed form {worst:.2e}"

    def test_batch_matches_per_example(self):
        rng = np.random.default_rng(4)
        theta = rng.normal(size=3)
        x = rng.uniform(-0.5, 0.5, size=(6, 3))
        y = rng.choice([-1.0, 1.0], size=6)
        cfg = AttackConfig(budget=0.2, p=math.inf, steps=20, seed=9)
        batch = pgd_batch(theta, x, y, cfg)
        assert batch.shape == x.shape
        for i in range(6):
            loss_b = logistic_loss(theta, x[i] + batch[i], np.array([y[i]]))
            alone = pgd_batch(theta, x[i : i + 1], y[i : i + 1], cfg)[0]
            loss_s = logistic_loss(theta, x[i] + alone, np.array([y[i]]))
            assert loss_b == pytest.approx(loss_s, abs=1e-12)


class TestPgdMechanics:
    def test_never_worse_than_clean(self, rng):
        theta = rng.normal(size=4)
        x = rng.uniform(-0.5, 0.5, size=(12, 4))
        y = rng.choice([-1.0, 1.0], size=12)
        cfg = AttackConfig(budget=0.15, p=2.0, steps=5, seed=0)
        deltas = pgd_batch(theta, x, y, cfg)
        clean = logistic_loss(theta, x, y, per_example=True)
        attacked = logistic_loss(theta, x + deltas, y, per_example=True)
        assert np.all(attacked >= clean - 1e-15)

    def test_more_restarts_never_hurt(self, rng):
        theta = rng.normal(size=5)
        x = rng.uniform(-0.5, 0.5, size=(8, 5))
        y = rng.choice([-1.0, 1.0], size=8)
        one = pgd_batch(theta, x, y, AttackConfig(budget=0.3, p=2.0, steps=3, restarts=1, seed=5))
        many = pgd_batch(theta, x, y, AttackConfig(budget=0.3, p=2.0, steps=3, restarts=4, seed=5))
        loss_one = logistic_loss(theta, x + one, y, per_example=True)
        loss_many = logistic_loss(theta, x + many, y, per_example=True)
        assert np.all(loss_many >= loss_one - 1e-15)

    def test_budget_respected(self, rng):
        theta = rng.normal(size=4)
        x = rng.uniform(-0.5, 0.5, size=(10, 4))
        y = rng.choice([-1.0, 1.0], size=10)
        d2 = pgd_batch(theta, x, y, AttackConfig(budget=0.2, p=2.0, steps=15, seed=1))
        assert np.linalg.norm(d2, axis=1).max() <= 0.2 + 1e-12
        di = pgd_batch(theta, x, y, AttackConfig(budget=0.2, p=math.inf, steps=15, seed=1))
        assert np.abs(di).max() <= 0.2 + 1e-12

    def test_box_constraint_respected(self, rng):
        theta = rng.normal(size=3)
        x = rng.uniform(0.0, 1.0, size=(10, 3))
        y = rng.choice([-1.0, 1.0], size=10)
        cfg = AttackConfig(budget=0.5, p=math.inf, steps=10, seed=2)
        deltas = pgd_batch(theta, x, y, cfg, box=(0.0, 1.0))
        adv = x + deltas
        assert adv.min() >= -1e-12 and adv.max() <= 1.0 + 1e-12

    def test_zero_budget_returns_zero_deltas(self, rng):
        theta = rng.normal(size=3)
        x = rng.uniform(-0.5, 0.5, size=(4, 3))
        y = rng.choice([-1.0, 1.0], size=4)
        deltas = pgd_batch(theta, x, y, AttackConfig(budget=0.0, steps=0))
        np.testing.assert_array_equal(deltas, np.zeros_like(x))

    def test_deterministic_per_seed(self, rng):
        theta = rng.normal(size=4)
        x = rng.uniform(-0.5, 0.5, size=(6, 4))
        y = rng.choice([-1.0, 1.0], size=6)
        cfg = AttackConfig(budget=0.25, p=2.0, steps=8, restarts=2, seed=11)
        np.testing.assert_array_equal(pgd_batch(theta, x, y, cfg), pgd_batch(theta, x, y, cfg))

    def test_multiclass_attack_runs_and_raises_loss(self, rng):
        theta = rng.normal(size=(3, 5))
        x = rng.uniform(0.0, 0.4, size=(9, 5))
        y = rng.integers(0, 3, size=9)
        from rpopt.losses import multiclass_loss

        cfg = AttackConfig(budget=0.1, p=math.inf, steps=10, seed=0)
        deltas = pgd_batch(theta, x, y, cfg)
        assert multiclass_loss(theta, x + deltas, y) >= multiclass_loss(theta, x, y) - 1e-15


@pytest.fixture(scope="module")
def trained():
    ds = generate_separable(d=5, n=150, gamma=0.35, seed=13)
    trace = train(ds, OptimizerConfig(eta=1.0, steps=300, seed=0))
    return ds, trace.final_params


class TestAccuracies:

    def test_attacked_accuracy_matches_exact_form(self, trained):
        ds, model = trained
        for p in (2.0, math.inf):
            for budget in (0.05, 0.15, 0.3):
                attack = AttackConfig(budget=budget, p=p, steps=60, seed=7)
                empirical = robust_accuracy(model, ds, attack)
                exact = exact_linear_robust_accuracy(model, ds, budget, p)
                assert empirical == pytest.approx(exact, abs=1e-12), (p, budget)

    def test_exact_form_decreases_with_budget(self, trained):
        ds, model = trained
        accs = [exact_linear_robust_accuracy(model, ds, b, 2.0) for b in (0.0, 0.1, 0.2, 0.4)]
        assert all(a >= b for a, b in zip(accs, accs[1:]))
        assert accs[0] == pytest.approx(1.0)

    def test_exact_form_rejects_multiclass(self, rng):
        ds = Dataset(features=np.eye(3) * 0.5, labels=np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            exact_linear_robust_accuracy(np.zeros((3, 3)), ds, 0.1)

    def test_robust_accuracy_respects_dataset_box(self):
        # the box keeps x0 >= 0, which leaves the attacked margin positive
        x, y = np.array([[0.05, 0.3]]), np.array([1])
        theta, attack = np.array([1.0, 1.0]), AttackConfig(budget=0.2, steps=5)
        assert robust_accuracy(theta, Dataset(x, y, box=(0.0, 1.0)), attack) == 1.0
        assert robust_accuracy(theta, Dataset(x, y), attack) == 0.0


class TestTwoClassAttackOracle:
    """A two-class softmax model theta is the binary model w = theta_1 - theta_0
    with labels +-1: its input gradient is a multiple of w, so PGD's one-shot
    candidate is the exact worst case, and the attacked accuracy must equal
    the closed form's."""

    @pytest.mark.parametrize("p", [2.0, math.inf], ids=["l2", "linf"])
    def test_robust_accuracy_equals_the_binary_closed_form(self, p):
        rng = np.random.default_rng(8)
        n, d = 300, 6
        x = rng.standard_normal((n, d))
        x *= rng.uniform(0.0, 1.0, size=(n, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
        theta = 2.0 * rng.standard_normal((2, d))
        w = theta[1] - theta[0]
        labels = rng.integers(0, 2, size=n)
        signs = 2 * labels - 1
        two_class, binary = Dataset(x, labels), Dataset(x, signs)
        assert two_class.num_classes == 2 and binary.is_binary
        dual_norm = np.linalg.norm(w, 1.0 if p == math.inf else 2.0)
        accuracies = []
        for budget in (0.0, 0.05, 0.1, 0.2, 0.4):
            # no example on the attacked boundary, where the two argmaxes
            # break ties differently
            assert np.abs(signs * (x @ w) - budget * dual_norm).min() > 1e-9
            attack = AttackConfig(budget=budget, p=p, steps=10, seed=3)
            exact = exact_linear_robust_accuracy(w, binary, budget, p)
            assert robust_accuracy(theta, two_class, attack) == exact, budget
            accuracies.append(exact)
        assert len(set(accuracies)) == len(accuracies)  # each budget flips examples
