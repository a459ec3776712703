import math
import pickle

import numpy as np
import pytest

from rpopt.bounds import BoundInputs, evaluate_series
from rpopt.data import Dataset, generate_separable, read_table
from rpopt.errors import DivergenceError, InvalidRegimeError
from rpopt.losses import LossSpec, adversarial_logistic_loss, gradient, logistic_loss
from rpopt.optimizer import (
    OptimizerConfig,
    TrainTrace,
    clip_rows,
    noise_calibration,
    train,
    validate_config,
)


class TestOptimizerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eta=0.0, steps=10),
            dict(eta=math.inf, steps=10),
            dict(eta=0.1, steps=0),
            dict(eta=0.1, steps=10, clip_k=0.0),
            dict(eta=0.1, steps=10, sigma=-1.0),
            dict(eta=0.1, steps=10, sigma=math.inf),
            dict(eta=0.1, steps=10, batch=-1),
            dict(eta=0.1, steps=10, attack_steps=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)


class TestFirstStep:
    def test_first_iterate_is_scaled_label_weighted_mean(self, small_binary):
        # from the zero initializer every sigmoid is 1/2, so the first update
        # is eta_0 * mean(y_i x_i) / 2 regardless of the budget
        expected_dir = 0.5 * np.mean(
            small_binary.labels[:, None] * small_binary.features, axis=0
        )
        for spec, eta0 in [(LossSpec(), 0.7), (LossSpec(0.1, 2.0), 2.8)]:
            trace = train(small_binary, OptimizerConfig(eta=0.7, steps=1, spec=spec))
            np.testing.assert_allclose(trace.final_params, eta0 * expected_dir, rtol=1e-15)

    def test_first_robust_step_clears_the_margin_floor(self):
        ds = generate_separable(d=6, n=120, gamma=0.4, seed=3)
        eta = 0.8
        trace = train(
            ds, OptimizerConfig(eta=eta, steps=40, spec=LossSpec(0.05, 2.0))
        )
        # ||theta_1|| = 2 eta ||mean(y x)|| >= 2 eta gamma for gamma-separated data
        assert trace.theta_norm[1] >= 2.0 * eta * ds.margin - 1e-12
        assert trace.theta_norm[1:].min() > 0.0


class TestTraceContract:
    def test_trace_shape_and_endpoints(self, small_binary):
        cfg = OptimizerConfig(eta=0.5, steps=25)
        trace = train(small_binary, cfg)
        for name in TrainTrace.COLUMNS:
            assert getattr(trace, name).shape == (26,)
        np.testing.assert_array_equal(trace.t, np.arange(26))
        assert trace.theta_norm[0] == 0.0
        assert trace.nominal_loss[0] == pytest.approx(math.log(2.0), rel=1e-15)
        assert trace.theta_norm[-1] == pytest.approx(
            float(np.linalg.norm(trace.final_params)), rel=1e-15
        )
        assert trace.config is cfg

    def test_final_row_losses_are_full_dataset(self, small_binary):
        trace = train(small_binary, OptimizerConfig(eta=0.5, steps=10, batch=8, seed=2))
        theta = trace.final_params
        assert trace.nominal_loss[-1] == pytest.approx(
            logistic_loss(theta, small_binary.features, small_binary.labels), rel=1e-15
        )

    def test_adversarial_column_tracks_closed_form(self, small_binary):
        spec = LossSpec(0.1, math.inf)
        trace = train(small_binary, OptimizerConfig(eta=0.5, steps=8, spec=spec))
        theta = trace.final_params
        assert trace.adversarial_loss[-1] == pytest.approx(
            adversarial_logistic_loss(theta, small_binary.features, small_binary.labels, spec),
            rel=1e-15,
        )
        assert np.all(trace.adversarial_loss >= trace.nominal_loss - 1e-15)

    def test_nominal_training_reports_equal_loss_columns(self, small_binary):
        trace = train(small_binary, OptimizerConfig(eta=0.5, steps=5))
        np.testing.assert_array_equal(trace.nominal_loss, trace.adversarial_loss)


class TestDeterminismAndDescent:
    def test_bitwise_deterministic_with_noise(self, small_binary):
        cfg = OptimizerConfig(
            eta=0.3, steps=30, sigma=0.5, batch=16, clip_k=1.0, seed=99
        )
        a = train(small_binary, cfg)
        b = train(small_binary, cfg)
        np.testing.assert_array_equal(a.final_params, b.final_params)
        for name in TrainTrace.COLUMNS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_seed_changes_noisy_run(self, small_binary):
        base = dict(eta=0.3, steps=10, sigma=0.5)
        a = train(small_binary, OptimizerConfig(**base, seed=0))
        b = train(small_binary, OptimizerConfig(**base, seed=1))
        assert not np.array_equal(a.final_params, b.final_params)

    def test_noiseless_full_batch_descends(self, small_binary):
        trace = train(small_binary, OptimizerConfig(eta=1.0, steps=60))
        diffs = np.diff(trace.nominal_loss)
        assert np.all(diffs <= 1e-15)
        assert trace.nominal_loss[-1] < math.log(2.0) / 2

    def test_robust_loss_descends_after_first_step(self, small_binary):
        spec = LossSpec(0.1, 2.0)
        trace = train(small_binary, OptimizerConfig(eta=0.5, steps=60, spec=spec))
        diffs = np.diff(trace.adversarial_loss[1:])
        assert np.all(diffs <= 1e-12)


class TestClippingAndNoise:
    def test_clip_rows(self, rng):
        grads = rng.normal(size=(7, 4)) * 5.0
        clipped = clip_rows(grads, 0.5)
        norms = np.linalg.norm(clipped, axis=1)
        assert norms.max() <= 0.5 + 1e-12
        small = grads * 1e-3
        np.testing.assert_array_equal(clip_rows(small, 0.5), small)
        np.testing.assert_array_equal(clip_rows(grads, math.inf), grads)

    def test_clip_rows_multiclass_shape(self, rng):
        grads = rng.normal(size=(5, 3, 4)) * 3.0
        clipped = clip_rows(grads, 1.0)
        assert clipped.shape == grads.shape
        assert np.linalg.norm(clipped.reshape(5, -1), axis=1).max() <= 1.0 + 1e-12

    def test_first_step_respects_clip(self, small_binary):
        k = 0.05
        cfg = OptimizerConfig(eta=1.0, steps=1, clip_k=k)
        trace = train(small_binary, cfg)
        assert trace.theta_norm[1] <= 1.0 * k + 1e-12

    def test_noise_calibration(self):
        # clip_k decides the regime: sigma unclipped, sigma * k / n clipped
        unclipped = OptimizerConfig(eta=0.1, steps=1, sigma=3.0)
        assert noise_calibration(unclipped, 50) == 3.0
        clipped = OptimizerConfig(eta=0.1, steps=1, sigma=3.0, clip_k=2.0)
        assert noise_calibration(clipped, 50) == 3.0 * 2.0 / 50
        with pytest.raises(ValueError, match="n"):
            noise_calibration(unclipped, 0)

    def test_divergence_error_reports_step(self, small_binary):
        cfg = OptimizerConfig(eta=2.0, steps=5, sigma=1e308, seed=0)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as info:
            train(small_binary, cfg)
        assert info.value.step >= 1

    @pytest.mark.parametrize("message", [None, "custom message"])
    def test_divergence_error_round_trips_through_pickle(self, message):
        # a job process sends its error back pickled
        error = pickle.loads(pickle.dumps(DivergenceError(7, message)))
        assert isinstance(error, DivergenceError)
        assert error.step == 7
        assert str(error) == (message or "training diverged at step 7")


@pytest.fixture(scope="module")
def three_class():
    rng = np.random.default_rng(17)
    centers = np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]])
    labels = np.repeat(np.arange(3), 30)
    features = centers[labels] + 0.08 * rng.standard_normal((90, 3))
    features /= max(1.0, np.linalg.norm(features, axis=1).max())
    return Dataset(features=features, labels=labels)


class TestBatchingAndMulticlass:
    def test_batch_must_fit(self, small_binary):
        with pytest.raises(ValueError, match="batch"):
            train(small_binary, OptimizerConfig(eta=0.1, steps=1, batch=small_binary.n + 1))

    def test_batch_zero_trains_on_the_whole_set(self, small_binary):
        eta, steps = 0.5, 6
        trace = train(small_binary, OptimizerConfig(eta=eta, steps=steps, batch=0))
        x, y = small_binary.features, small_binary.labels.astype(np.float64)
        theta = np.zeros(small_binary.dim)
        for t in range(steps):
            grad = gradient(theta, x, y, LossSpec())
            assert trace.grad_norm[t] == pytest.approx(np.linalg.norm(grad), rel=1e-12)
            theta = theta - eta * grad
        np.testing.assert_allclose(trace.final_params, theta, rtol=1e-12)

    def test_minibatch_differs_from_full_batch(self, small_binary):
        full = train(small_binary, OptimizerConfig(eta=0.5, steps=20, seed=0))
        mini = train(small_binary, OptimizerConfig(eta=0.5, steps=20, batch=8, seed=0))
        assert not np.array_equal(full.final_params, mini.final_params)

    def test_multiclass_nominal_training(self, three_class):
        trace = train(three_class, OptimizerConfig(eta=1.0, steps=40, seed=0))
        assert trace.final_params.shape == (3, 3)
        assert trace.nominal_loss[-1] < trace.nominal_loss[0]

    def test_multiclass_robust_training_uses_attack(self, three_class):
        spec = LossSpec(0.05, math.inf)
        cfg = OptimizerConfig(eta=1.0, steps=15, spec=spec, attack_steps=5, seed=0)
        trace = train(three_class, cfg)
        assert np.all(np.isfinite(trace.adversarial_loss))
        assert np.all(trace.adversarial_loss[1:] >= trace.nominal_loss[1:] - 1e-15)
        assert trace.adversarial_loss[-1] < math.log(3.0)
        again = train(three_class, cfg)
        np.testing.assert_array_equal(trace.final_params, again.final_params)


class TestTraceCsv:
    def test_roundtrip_exact(self, small_binary, tmp_path):
        trace = train(small_binary, OptimizerConfig(eta=0.4, steps=12, sigma=0.2, seed=5))
        path = str(tmp_path / "trace.csv")
        trace.to_csv(path)
        back = read_table(path)
        assert tuple(back) == TrainTrace.COLUMNS
        for name in TrainTrace.COLUMNS:
            np.testing.assert_array_equal(back[name], np.asarray(getattr(trace, name), dtype=float))


class TestValidateConfig:
    def test_quiet_in_good_regime(self):
        cfg = OptimizerConfig(eta=0.1, steps=10, spec=LossSpec(0.1, 2.0))
        assert validate_config(cfg, gamma=1.0) == []

    def test_flags_large_eta(self):
        warnings = validate_config(OptimizerConfig(eta=4.0, steps=1))
        assert any("eta" in w for w in warnings)

    def test_flags_budget_outside_regime(self):
        cfg = OptimizerConfig(eta=0.01, steps=1, spec=LossSpec(0.5, 2.0))
        warnings = validate_config(cfg, gamma=1.0)
        assert any("gamma/2" in w for w in warnings)

    def test_flags_eta_above_robust_threshold(self):
        cfg = OptimizerConfig(eta=3.9, steps=1, spec=LossSpec(0.1, 2.0))
        warnings = validate_config(cfg, gamma=1.0)
        assert any("s * eta < 1" in w for w in warnings)

    @pytest.mark.parametrize(
        "eta, c, gamma", [(4.0, 0.0, 1.0), (0.01, 0.5, 1.0), (3.9, 0.1, 1.0), (0.1, 0.1, 1.0)]
    )
    def test_warns_exactly_where_the_bound_refuses(self, eta, c, gamma):
        setting = "robust" if c > 0 else "nominal"
        cfg = OptimizerConfig(eta=eta, steps=1, spec=LossSpec(c, 2.0))
        warnings = validate_config(cfg, gamma=gamma)
        try:
            evaluate_series(setting, BoundInputs(eta=eta, gamma=gamma, c=c), [1])
        except InvalidRegimeError as exc:
            assert warnings[0] == str(exc)
        else:
            assert warnings == []
