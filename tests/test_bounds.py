import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpopt import bounds
from rpopt.bounds import (
    FORMS,
    BoundInputs,
    EpsilonReport,
    ExcessRiskInputs,
    accountant_epsilon,
    accountant_sigma,
    curvature_budget,
    evaluate_series,
    excess_risk_bound,
    gap_curve,
    log_spaced_steps,
    sensitivity_bound,
)
from rpopt.errors import InvalidRegimeError

# frozen against the closed form (8-eta)/(8 t eta) (1 + (log t/gamma)^2)
# + (8-eta)/4 log(1 + 1/t) at t=1, eta=0.1, gamma=1
NOMINAL_T1_ORACLE = 11.243965681605893

SETTINGS = sorted(bounds._RATES)


def _at(setting, inputs, t):
    """The bound ``setting`` at the one step t."""
    return evaluate_series(setting, inputs, [t])[0, 1]


class TestBoundInputs:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eta=0.0, gamma=1.0),
            dict(eta=math.inf, gamma=1.0),
            dict(eta=0.1, gamma=0.0),
            dict(eta=0.1, gamma=1.5),
            dict(eta=0.1, gamma=1.0, c=-0.1),
            dict(eta=0.1, gamma=1.0, d=-1),
            dict(eta=0.1, gamma=1.0, sigma=-0.5),
            dict(eta=0.1, gamma=1.0, form="figure"),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BoundInputs(**kwargs)

    def test_inputs_carry_no_step(self):
        with pytest.raises(TypeError):
            BoundInputs(t=1, eta=0.1, gamma=1.0)

    def test_gamma_one_is_legal(self):
        assert _at("nominal", BoundInputs(eta=0.1, gamma=1.0), 10) > 0


class TestNominalAndPrivate:
    def test_frozen_value(self):
        value = _at("nominal", BoundInputs(eta=0.1, gamma=1.0), 1)
        assert value == pytest.approx(NOMINAL_T1_ORACLE, rel=1e-14)
        analytic = (8 - 0.1) / (8 * 0.1) + (8 - 0.1) / 4 * math.log(2.0)
        assert value == pytest.approx(analytic, rel=1e-14)

    def test_eta_regime_guard(self):
        with pytest.raises(InvalidRegimeError, match="eta < 4"):
            _at("nominal", BoundInputs(eta=4.0, gamma=1.0), 1)
        with pytest.raises(InvalidRegimeError, match="eta < 4"):
            _at("private", BoundInputs(eta=5.0, gamma=1.0, d=1, sigma=1.0), 1)

    def test_private_reduces_exactly_without_noise(self):
        for t in (1, 10, 1234):
            nom = _at("nominal", BoundInputs(eta=0.3, gamma=0.5), t)
            assert _at("private", BoundInputs(eta=0.3, gamma=0.5, d=0, sigma=9.0), t) == nom
            assert _at("private", BoundInputs(eta=0.3, gamma=0.5, d=64, sigma=0.0), t) == nom

    def test_private_exceeds_nominal_with_noise(self):
        inputs = BoundInputs(eta=0.2, gamma=0.8, d=10, sigma=0.5)
        noisy = _at("private", inputs, 50)
        plain = _at("nominal", inputs, 50)
        assert noisy > plain
        # the noise floor eta d sigma^2 persists at large t
        assert _at("private", inputs, 10**7) > 0.2 * 10 * 0.25

    def test_decays_roughly_like_log_squared_over_t(self):
        a, b = evaluate_series("nominal", BoundInputs(eta=0.1, gamma=1.0), [100, 10000])[:, 1]
        assert b < a / 20


class TestRobustBounds:
    def test_curvature_budget_oracle(self):
        assert curvature_budget(0.1, 1.0, 0.1) == pytest.approx(2.3025, rel=1e-15)
        assert curvature_budget(0.0, 0.5, 1.0) == 0.25

    def test_regime_guards(self):
        with pytest.raises(InvalidRegimeError, match="c < gamma/2"):
            _at("robust", BoundInputs(eta=0.1, gamma=0.4, c=0.2), 1)
        with pytest.raises(InvalidRegimeError, match=r"s \* eta < 1"):
            _at("robust", BoundInputs(eta=1.0, gamma=1.0, c=0.4), 1)

    @pytest.mark.parametrize("form", ["appendix", "table"])
    def test_reduces_exactly_at_zero_budget(self, form):
        for eta in (0.05, 0.9, 3.9):
            inputs = BoundInputs(eta=eta, gamma=0.6, c=0.0, form=form)
            np.testing.assert_array_equal(
                evaluate_series("robust", inputs, [1, 7, 500]),
                evaluate_series("nominal", inputs, [1, 7, 500]),
            )

    def test_forms_differ_at_positive_budget(self):
        app = BoundInputs(eta=0.1, gamma=1.0, c=0.2, form="appendix")
        tab = replace(app, form="table")
        assert _at("robust", app, 100) != _at("robust", tab, 100)

    def test_private_variant_reduces_exactly_without_noise(self):
        inputs = BoundInputs(eta=0.2, gamma=1.0, c=0.1, d=12, sigma=0.0)
        assert _at("robust-private", inputs, 40) == _at("robust", inputs, 40)
        noisy = replace(inputs, sigma=0.3)
        assert _at("robust-private", noisy, 40) > _at("robust", inputs, 40)

    def test_under_standard_training_grows_linearly(self):
        inputs = BoundInputs(eta=0.1, gamma=1.0, c=0.05)
        for t in (1, 10, 200):
            expected = _at("nominal", inputs, t) + 0.05 * (1.0 + 0.1 * (t - 1))
            assert _at("robust-under-standard", inputs, t) == pytest.approx(expected, rel=1e-15)
        zero_c = BoundInputs(eta=0.1, gamma=1.0, c=0.0)
        assert _at("robust-under-standard", zero_c, 33) == _at("nominal", zero_c, 33)


class TestSeriesAndGaps:
    def test_evaluate_series_matches_pointwise(self):
        inputs = BoundInputs(eta=0.1, gamma=1.0, c=0.1, d=5, sigma=0.2)
        ts = [1, 10, 100]
        rows = evaluate_series("robust-private", inputs, ts)
        assert rows.shape == (3, 2)
        for (t, value) in rows:
            assert value == _at("robust-private", inputs, int(t))
        with pytest.raises(ValueError, match="setting"):
            evaluate_series("fancy", inputs, ts)
        assert SETTINGS == [
            "nominal",
            "private",
            "robust",
            "robust-private",
            "robust-under-standard",
        ]

    # the kinds' default inputs and steps: fig1's 1..steps, fig2's log grid
    # with its decades (at its largest d), bounds-only's log grid
    GRIDS = {
        "fig1": (dict(d=10, sigma=0.25), np.arange(1, 1001)),
        "fig2": (
            dict(d=1000, sigma=0.25),
            np.unique(np.concatenate([log_spaced_steps(100000, 200), [10**k for k in range(6)]])),
        ),
        "bounds-only": (dict(d=10, sigma=0.25), log_spaced_steps(10000, 200)),
    }

    @pytest.mark.parametrize("grid", GRIDS, ids=GRIDS.keys())
    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("setting", SETTINGS)
    def test_series_is_each_steps_bound_bit_for_bit(self, setting, form, grid):
        fields, ts = self.GRIDS[grid]
        inputs = BoundInputs(eta=0.1, gamma=1.0, c=0.1, form=form, **fields)
        rows = evaluate_series(setting, inputs, ts)
        expected = [(int(t), _at(setting, inputs, int(t))) for t in ts]
        assert rows.tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_series_checks_its_regime_once(self, setting, monkeypatch):
        checks = []
        real = bounds.regime_violations

        def counted(*args):
            checks.append(args)
            return real(*args)

        monkeypatch.setattr(bounds, "regime_violations", counted)
        inputs = BoundInputs(eta=0.1, gamma=1.0, c=0.1, d=10, sigma=0.25)
        assert evaluate_series(setting, inputs, np.arange(1, 50)).shape == (49, 2)
        assert len(checks) == 1

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_series_checks_its_regime_before_any_step(self, setting, monkeypatch):
        def no_value(*args):
            raise AssertionError("a step was evaluated")

        monkeypatch.setattr(math, "log", no_value)
        monkeypatch.setattr(math, "log1p", no_value)
        inputs = BoundInputs(eta=4.0, gamma=1.0, c=0.1)
        with pytest.raises(InvalidRegimeError, match="eta < 4"):
            evaluate_series(setting, inputs, np.arange(1, 50))
        with pytest.raises(ValueError, match="t must be"):
            evaluate_series(setting, replace(inputs, eta=0.1), [3, 0, 5])

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize(
        "setting, robust", [("nonprivate", "robust"), ("private", "robust-private")]
    )
    def test_gap_curve_subtracts_plain_baseline(self, setting, robust, form):
        inputs = BoundInputs(eta=0.1, gamma=1.0, c=0.1, d=10, sigma=0.4, form=form)
        rows = gap_curve(inputs, setting, [1, 10, 100])
        for (t, gap) in rows:
            t = int(t)
            expected = _at(robust, inputs, t) - _at("nominal", BoundInputs(eta=0.1, gamma=1.0), t)
            assert gap == expected

    def test_nonprivate_gap_ignores_noise_fields(self):
        noisy = BoundInputs(eta=0.1, gamma=1.0, c=0.1, d=10, sigma=0.4)
        quiet = BoundInputs(eta=0.1, gamma=1.0, c=0.1)
        np.testing.assert_array_equal(
            gap_curve(noisy, "nonprivate", [5, 50]), gap_curve(quiet, "nonprivate", [5, 50])
        )

    def test_gap_curve_at_a_single_step(self):
        inputs = BoundInputs(eta=0.1, gamma=1.0, c=0.1)
        rows = gap_curve(inputs, "nonprivate", [25])
        assert rows.shape == (1, 2) and rows[0, 0] == 25
        with pytest.raises(TypeError):
            gap_curve(inputs, "nonprivate")  # the steps are required

    def test_gap_curve_rejects_unknown_setting(self):
        with pytest.raises(ValueError, match="setting"):
            gap_curve(BoundInputs(eta=0.1, gamma=1.0, c=0.1), "noisy", [1])

    def test_private_gap_grows_with_dimension(self):
        gaps = [
            gap_curve(BoundInputs(eta=0.1, gamma=1.0, c=0.1, d=d, sigma=0.1), "private", [100])
            for d in (10, 100, 1000)
        ]
        assert gaps[0][0, 1] < gaps[1][0, 1] < gaps[2][0, 1]

    def test_log_spaced_steps(self):
        grid = log_spaced_steps(1000, points=50)
        assert grid[0] == 1 and grid[-1] == 1000
        assert np.all(np.diff(grid) > 0)
        assert grid.dtype == np.int64
        np.testing.assert_array_equal(log_spaced_steps(1), [1])
        with pytest.raises(ValueError, match="t_max"):
            log_spaced_steps(0)
        with pytest.raises(ValueError, match="points"):
            log_spaced_steps(10, points=0)


class TestAccountant:
    def test_sensitivity_bound(self):
        assert sensitivity_bound(3.0) == 6.0
        assert sensitivity_bound(3.0, radius=0.0, dimension=100) == 6.0
        assert sensitivity_bound(1.0, radius=0.5, dimension=16) == 12.0
        for kwargs in [
            dict(lipschitz=0.0),
            dict(lipschitz=math.inf),
            dict(lipschitz=1.0, radius=-1.0),
            dict(lipschitz=1.0, dimension=0),
        ]:
            with pytest.raises(ValueError):
                sensitivity_bound(**kwargs)

    def test_epsilon_validation(self):
        for kwargs in [
            dict(sigma=0.0, steps=1, lipschitz=1.0, delta=1e-5),
            dict(sigma=1.0, steps=0, lipschitz=1.0, delta=1e-5),
            dict(sigma=1.0, steps=1, lipschitz=1.0, delta=0.0),
            dict(sigma=1.0, steps=1, lipschitz=1.0, delta=1.0),
            dict(sigma=1.0, steps=1, lipschitz=1.0, delta=1e-5, lambda_max=0),
        ]:
            with pytest.raises(ValueError):
                accountant_epsilon(**kwargs)

    def test_epsilon_monotone_in_sigma(self):
        sigmas = np.linspace(5.0, 200.0, 20)
        eps = [accountant_epsilon(s, 100, 1.0, 1e-5).epsilon for s in sigmas]
        assert all(a > b for a, b in zip(eps, eps[1:]))

    def test_epsilon_report_contents(self):
        report = accountant_epsilon(50.0, 100, 1.0, 1e-5)
        assert isinstance(report, EpsilonReport)
        assert 1 <= report.order <= 512
        assert report.sensitivity == 2.0
        assert report.epsilon > 0

    def test_frozen_calibration(self):
        report = accountant_sigma(2.0, 1e-5, 100, 1.0)
        assert report.sigma == pytest.approx(49.98583984375, rel=1e-9)
        assert report.order == 12
        assert report.implied_constant == pytest.approx(8.680970592530405, rel=1e-9)

    def test_roundtrip_recovers_target(self):
        for eps_target in (0.5, 2.0, 8.0):
            report = accountant_sigma(eps_target, 1e-5, 200, 1.0)
            achieved = accountant_epsilon(report.sigma, 200, 1.0, 1e-5).epsilon
            assert achieved == report.epsilon
            assert achieved <= eps_target
            assert achieved >= eps_target * (1.0 - 1e-4)

    def test_implied_constant_identity(self):
        report = accountant_sigma(3.0, 1e-6, 50, 2.0)
        implied = report.sigma**2 * 3.0**2 / (2.0**2 * 50 * math.log(1e6))
        assert report.implied_constant == pytest.approx(implied, rel=1e-12)

    def test_robust_release_needs_more_noise(self):
        plain = accountant_sigma(2.0, 1e-5, 100, 1.0)
        robust = accountant_sigma(2.0, 1e-5, 100, 1.0, radius=0.1, dimension=20)
        assert robust.sigma > plain.sigma * 2

    def test_unreachable_epsilon_names_the_floor(self):
        with pytest.raises(ValueError, match="raise lambda_max"):
            accountant_sigma(0.01, 1e-5, 100, 1.0, lambda_max=512)
        # the same target becomes reachable with more orders
        report = accountant_sigma(0.01, 1e-5, 100, 1.0, lambda_max=8192)
        assert report.epsilon <= 0.01

    def test_doubling_steps_at_most_doubles_variance(self):
        base = accountant_sigma(2.0, 1e-5, 100, 1.0)
        doubled = accountant_sigma(2.0, 1e-5, 200, 1.0)
        ratio = doubled.sigma**2 / base.sigma**2
        assert ratio <= 2.0 * (1.0 + 1e-4)
        assert ratio > 1.5


class TestExcessRisk:
    def test_validation(self):
        for kwargs in [
            dict(strong_convexity=0.0, lipschitz=1.0, dimension=1, sigma=0.0, horizon=1),
            dict(strong_convexity=1.0, lipschitz=0.0, dimension=1, sigma=0.0, horizon=1),
            dict(strong_convexity=1.0, lipschitz=1.0, dimension=-1, sigma=0.0, horizon=1),
            dict(strong_convexity=1.0, lipschitz=1.0, dimension=1, sigma=-1.0, horizon=1),
            dict(strong_convexity=1.0, lipschitz=1.0, dimension=1, sigma=0.0, horizon=0),
        ]:
            with pytest.raises(ValueError):
                ExcessRiskInputs(**kwargs)

    def test_noiseless_reduction(self):
        inputs = ExcessRiskInputs(
            strong_convexity=0.5, lipschitz=3.0, dimension=10, sigma=0.0, horizon=1000
        )
        expected = 17.0 * 9.0 * (1.0 + math.log(1000)) / (0.5 * 1000)
        assert excess_risk_bound(inputs) == pytest.approx(expected, rel=1e-15)

    def test_noise_enters_through_dimension(self):
        base = ExcessRiskInputs(
            strong_convexity=0.5, lipschitz=3.0, dimension=10, sigma=0.2, horizon=1000
        )
        wide = replace(base, dimension=1000)
        assert excess_risk_bound(wide) > excess_risk_bound(base)
        assert excess_risk_bound(replace(base, sigma=0.0)) < excess_risk_bound(base)

    def test_decreases_in_horizon(self):
        values = [
            excess_risk_bound(
                ExcessRiskInputs(
                    strong_convexity=1.0, lipschitz=1.0, dimension=5, sigma=0.1, horizon=T
                )
            )
            for T in (10, 100, 1000, 10000)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


STEPS = st.integers(min_value=1, max_value=10**6)


@st.composite
def nominal_inputs(draw):
    return BoundInputs(
        eta=draw(st.floats(min_value=0.01, max_value=3.99, exclude_max=True)),
        gamma=draw(st.floats(min_value=0.05, max_value=1.0)),
        d=draw(st.integers(min_value=0, max_value=1000)),
        sigma=draw(st.floats(min_value=0.0, max_value=5.0)),
    )


class TestBoundProperties:
    @given(nominal_inputs(), STEPS)
    @settings(max_examples=60, deadline=None)
    def test_bounds_positive_and_noise_never_helps(self, inputs, t):
        plain = _at("nominal", inputs, t)
        noisy = _at("private", inputs, t)
        assert plain > 0
        assert noisy >= plain
        # strict increase is only observable once the noise term clears
        # float rounding against the nominal value's magnitude
        if inputs.d * inputs.sigma**2 > 1e-12 * plain:
            assert noisy > plain

    @given(
        nominal_inputs(),
        STEPS,
        st.floats(min_value=0.001, max_value=0.49),
    )
    @settings(max_examples=60, deadline=None)
    def test_robust_regime_is_consistent(self, inputs, t, c_frac):
        c = c_frac * inputs.gamma / 1.0
        trial = replace(inputs, c=c)
        s = curvature_budget(c, trial.eta, trial.gamma)
        if s * trial.eta < 1.0:
            value = _at("robust-private", trial, t)
            assert math.isfinite(value)
            assert value >= _at("robust", replace(trial, sigma=0.0, d=0), t)
        else:
            with pytest.raises(InvalidRegimeError):
                _at("robust", trial, t)

    @given(st.integers(min_value=1, max_value=10**7), st.integers(min_value=2, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_log_grid_properties(self, t_max, points):
        grid = log_spaced_steps(t_max, points)
        assert grid[0] == 1 and grid[-1] == t_max
        assert np.all(np.diff(grid) > 0)
        assert grid.shape[0] <= points
