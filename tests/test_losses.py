import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from rpopt.errors import SingularityError
from rpopt.losses import (
    LossSpec,
    adversarial_logistic_loss,
    gradient,
    hessian_vector_product,
    logistic_loss,
    multiclass_gradient,
    multiclass_loss,
    per_example_gradients,
    sigmoid,
)

# Direct-arithmetic oracles for one fixed input, frozen from an independent
# evaluation of the defining formulas (plain log/exp, no stable softplus).
THETA = np.array([0.3, -0.2])
X = np.array([[0.5, 0.8]])
Y = np.array([1.0])
PLAIN_ORACLE = 0.6981596805078625
ADV_Q2_ORACLE = 0.716440052289607  # c = 0.1, perturbation norm p = 2
ADV_Q1_ORACLE = 0.7235971130761409  # c = 0.1, perturbation norm p = inf


def _loss_fn(spec):
    if spec is None:
        return lambda theta, x, y: logistic_loss(theta, x, y)
    return lambda theta, x, y: adversarial_logistic_loss(theta, x, y, spec)


def _random_case(rng, d, spec):
    """Model/batch pair kept away from the weight-norm kinks."""
    theta = rng.uniform(0.1, 1.0, size=d) * rng.choice([-1.0, 1.0], size=d)
    n = int(rng.integers(1, 6))
    x = rng.uniform(-1.0, 1.0, size=(n, d))
    x /= np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1.0)
    y = rng.choice([-1.0, 1.0], size=n)
    return theta, x, y


class TestLossSpec:
    def test_dual_exponent(self):
        assert LossSpec(0.1, p=2.0).dual_q == 2.0
        assert LossSpec(0.1, p=math.inf).dual_q == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LossSpec(-0.1)
        with pytest.raises(ValueError):
            LossSpec(0.1, p=3.0)
        with pytest.raises(ValueError):
            LossSpec(math.inf)

    def test_the_budget_alone_selects_the_worst_case(self):
        assert [f.name for f in dataclasses.fields(LossSpec)] == ["c", "p"]
        assert LossSpec(0.0) == LossSpec() == LossSpec(0.0, 2.0)

    def test_weight_norm_subgradient_zero_at_origin(self):
        spec = LossSpec(0.2, p=2.0)
        np.testing.assert_array_equal(
            spec.weight_norm_subgradient(np.zeros(3)), np.zeros(3)
        )


class TestSigmoid:
    EDGES = np.array([0.0, -0.0, np.inf, -np.inf, 710.0, -710.0, 746.0, -746.0, np.nan])

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 10.0, 100.0, 800.0])
    def test_matches_scipy_expit_within_four_ulp(self, scale):
        # numpy's exp and libm's differ by a few ulp on a few percent of inputs
        z = scale * np.random.default_rng(0).standard_normal(200_000)
        np.testing.assert_array_max_ulp(sigmoid(z), expit(z), maxulp=4)

    def test_exact_values_at_the_edges(self):
        # exp(-z) overflows beyond z = -709.78 and underflows beyond 745.13
        expected = np.array([0.5, 0.5, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, np.nan])
        np.testing.assert_array_equal(sigmoid(self.EDGES), expected)

    def test_silent_under_the_strictest_error_state(self):
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            sigmoid(self.EDGES)
            sigmoid(np.linspace(-800.0, 800.0, 10_001))
            assert np.geterr()["over"] == "raise"


class TestLossValues:
    def test_plain_oracle(self):
        assert logistic_loss(THETA, X, Y) == pytest.approx(PLAIN_ORACLE, rel=1e-15)

    def test_worst_case_oracles(self):
        spec2 = LossSpec(0.1, p=2.0)
        spec1 = LossSpec(0.1, p=math.inf)
        assert adversarial_logistic_loss(THETA, X, Y, spec2) == pytest.approx(
            ADV_Q2_ORACLE, rel=1e-15
        )
        assert adversarial_logistic_loss(THETA, X, Y, spec1) == pytest.approx(
            ADV_Q1_ORACLE, rel=1e-15
        )

    def test_zero_budget_collapses_exactly(self, rng):
        theta, x, y = _random_case(rng, 5, None)
        spec = LossSpec(0.0, 2.0)
        assert adversarial_logistic_loss(theta, x, y, spec) == logistic_loss(theta, x, y)

    def test_worst_case_dominates_and_grows_with_budget(self, rng):
        theta, x, y = _random_case(rng, 4, None)
        plain = logistic_loss(theta, x, y)
        last = plain
        for c in (0.05, 0.1, 0.2, 0.4):
            value = adversarial_logistic_loss(theta, x, y, LossSpec(c, 2.0))
            assert value >= last
            last = value
        assert last > plain

    def test_value_at_origin_is_log_two_for_any_budget(self):
        x = np.array([[0.4, 0.1], [0.0, -0.6]])
        y = np.array([1.0, -1.0])
        for spec in (LossSpec(), LossSpec(0.7, 2.0), LossSpec(0.7, math.inf)):
            value = adversarial_logistic_loss(np.zeros(2), x, y, spec)
            assert value == pytest.approx(0.6931471805599453, rel=1e-15)

    def test_extreme_margins_do_not_overflow(self):
        theta = np.array([1.0])
        x = np.array([[1.0]])
        big = logistic_loss(1000.0 * theta, x, np.array([-1.0]))
        assert big == pytest.approx(1000.0, rel=1e-12)
        tiny = logistic_loss(1000.0 * theta, x, np.array([1.0]))
        assert tiny == 0.0  # exp(-1000) underflows to an exact zero

    def test_per_example_flag(self, rng):
        theta, x, y = _random_case(rng, 3, None)
        values = logistic_loss(theta, x, y, per_example=True)
        assert values.shape == (x.shape[0],)
        assert values.mean() == pytest.approx(logistic_loss(theta, x, y))

    def test_multiclass_oracle(self):
        theta = np.array([[0.2, -0.1], [0.0, 0.3]])
        assert multiclass_loss(theta, np.array([[0.5, 0.5]]), np.array([1])) == pytest.approx(
            0.644396660073571, rel=1e-15
        )

    def test_multiclass_label_range_checked(self):
        theta = np.zeros((3, 2))
        with pytest.raises(ValueError, match="class labels"):
            multiclass_loss(theta, np.array([[0.1, 0.1]]), np.array([3]))


def _central_difference(fn, theta, eps):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = eps
        grad[i] = (fn(theta + step) - fn(theta - step)) / (2 * eps)
    return grad


class TestGradients:
    @pytest.mark.parametrize(
        "spec",
        [None, LossSpec(0.2, p=2.0), LossSpec(0.2, p=math.inf)],
        ids=["plain", "worst-case-l2", "worst-case-linf"],
    )
    def test_matches_central_differences(self, spec):
        rng = np.random.default_rng(77)
        fn = _loss_fn(spec)
        grad_spec = spec if spec is not None else LossSpec()
        worst = 0.0
        for _ in range(120):
            d = int(rng.integers(2, 7))
            theta, x, y = _random_case(rng, d, spec)
            analytic = gradient(theta, x, y, grad_spec)
            numeric = _central_difference(lambda t: fn(t, x, y), theta, 1e-6)
            scale = max(1.0, float(np.linalg.norm(analytic)))
            worst = max(worst, float(np.linalg.norm(analytic - numeric)) / scale)
        assert worst < 1e-5, f"worst gradient mismatch {worst:.2e}"

    def test_multiclass_matches_central_differences(self):
        rng = np.random.default_rng(78)
        worst = 0.0
        for _ in range(60):
            classes, d = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            theta = rng.normal(size=(classes, d))
            x = rng.uniform(-0.5, 0.5, size=(4, d))
            y = rng.integers(0, classes, size=4)
            analytic = multiclass_gradient(theta, x, y)
            numeric = np.zeros_like(theta)
            for i in range(classes):
                for j in range(d):
                    step = np.zeros_like(theta)
                    step[i, j] = 1e-6
                    numeric[i, j] = (
                        multiclass_loss(theta + step, x, y)
                        - multiclass_loss(theta - step, x, y)
                    ) / 2e-6
            scale = max(1.0, float(np.linalg.norm(analytic)))
            worst = max(worst, float(np.linalg.norm(analytic - numeric)) / scale)
        assert worst < 1e-5, f"worst softmax gradient mismatch {worst:.2e}"

    def test_per_example_gradients_average_to_gradient(self, rng):
        spec = LossSpec(0.15, p=2.0)
        theta, x, y = _random_case(rng, 5, spec)
        per = per_example_gradients(theta, x, y, spec)
        assert per.shape == (x.shape[0], 5)
        np.testing.assert_allclose(per.mean(axis=0), gradient(theta, x, y, spec), atol=1e-14)

    def test_origin_uses_zero_subgradient(self):
        x = np.array([[0.2, -0.4], [0.5, 0.1]])
        y = np.array([1.0, -1.0])
        spec = LossSpec(0.3, p=2.0)
        expected = 0.5 * (-(y[:, None] * x)).mean(axis=0)
        np.testing.assert_allclose(gradient(np.zeros(2), x, y, spec), expected, atol=1e-16)

    def test_multiclass_with_budget_is_rejected(self):
        theta = np.zeros((3, 2))
        spec = LossSpec(0.1, p=math.inf)
        with pytest.raises(ValueError, match="attacked inputs"):
            gradient(theta, np.array([[0.1, 0.1]]), np.array([0]), spec)
        with pytest.raises(ValueError, match="attacked inputs"):
            per_example_gradients(theta, np.array([[0.1, 0.1]]), np.array([0]), spec)
        with pytest.raises(ValueError, match="attacked inputs"):
            hessian_vector_product(
                theta, np.ones((3, 2)), np.array([[0.1, 0.1]]), np.array([0]), spec
            )


def _dense_hessian_from_gradient(theta, x, y, spec, eps=1e-6):
    d = theta.size
    hess = np.zeros((d, d))
    for i in range(d):
        step = np.zeros(d)
        step[i] = eps
        gp = gradient(theta + step, x, y, spec)
        gm = gradient(theta - step, x, y, spec)
        hess[:, i] = (gp - gm) / (2 * eps)
    return 0.5 * (hess + hess.T)


class TestHessianVectorProduct:
    @pytest.mark.parametrize(
        "spec",
        [LossSpec(), LossSpec(0.2, p=2.0), LossSpec(0.2, p=math.inf)],
        ids=["plain", "worst-case-l2", "worst-case-linf"],
    )
    def test_matches_dense_finite_difference_hessian(self, spec):
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(25):
            d = int(rng.integers(2, 6))
            theta, x, y = _random_case(rng, d, spec)
            dense = _dense_hessian_from_gradient(theta, x, y, spec)
            v = rng.normal(size=d)
            hv = hessian_vector_product(theta, v, x, y, spec)
            worst = max(worst, float(np.max(np.abs(hv - dense @ v))))
        assert worst < 1e-6, f"worst deviation {worst:.2e}"

    def test_quadratic_form_nonnegative(self, rng):
        # both closed-form losses are convex, so v' H v >= 0
        for spec in (LossSpec(), LossSpec(0.3, 2.0)):
            for _ in range(40):
                theta, x, y = _random_case(rng, 4, spec)
                v = rng.normal(size=4)
                hv = hessian_vector_product(theta, v, x, y, spec)
                assert v @ hv >= -1e-12

    def test_singular_at_origin_with_budget(self):
        spec = LossSpec(0.2, p=2.0)
        with pytest.raises(SingularityError):
            hessian_vector_product(
                np.zeros(3), np.ones(3), np.eye(3) * 0.5, np.array([1.0, -1.0, 1.0]), spec
            )

    def test_multiclass_flattening(self):
        rng = np.random.default_rng(5)
        theta = rng.normal(size=(3, 4))
        x = rng.uniform(-0.4, 0.4, size=(6, 4))
        y = rng.integers(0, 3, size=6)
        v = rng.normal(size=(3, 4))
        hv = hessian_vector_product(theta, v, x, y, LossSpec())
        assert hv.shape == (3, 4)
        # symmetric operator: <u, H v> == <v, H u>
        u = rng.normal(size=(3, 4))
        hu = hessian_vector_product(theta, u, x, y, LossSpec())
        assert float((u * hv).sum()) == pytest.approx(float((v * hu).sum()), rel=1e-12)


class TestBruteForceWorstCase:
    """The closed form equals an exhaustive search over the perturbation set.

    The worst-case loss maximizes a convex function of the perturbation, so
    the maximum sits on the boundary of the ball; the grids therefore cover
    the boundary (circle, or square outline including its corners).
    """

    def test_matches_boundary_grid_in_2d(self):
        rng = np.random.default_rng(31)
        angles = np.linspace(0.0, 2 * np.pi, 10_000, endpoint=False)
        circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        side = np.linspace(-1.0, 1.0, 2500)
        square = np.concatenate(
            [
                np.stack([side, np.ones_like(side)], axis=1),
                np.stack([side, -np.ones_like(side)], axis=1),
                np.stack([np.ones_like(side), side], axis=1),
                np.stack([-np.ones_like(side), side], axis=1),
            ]
        )
        for _ in range(25):
            theta = rng.normal(size=2)
            x = rng.uniform(-0.6, 0.6, size=2)
            y = float(rng.choice([-1.0, 1.0]))
            c = float(rng.uniform(0.05, 0.5))
            for p, boundary in ((2.0, circle), (math.inf, square)):
                spec = LossSpec(c, p)
                closed = adversarial_logistic_loss(theta, x, np.array([y]), spec)
                z = -y * ((x[None, :] + c * boundary) @ theta)
                brute = float(np.max(np.maximum(z, 0) + np.log1p(np.exp(-np.abs(z)))))
                assert brute <= closed + 1e-9
                assert closed - brute <= 1e-4
