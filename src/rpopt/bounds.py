"""Closed-form convergence-rate bounds and differential-privacy accounting.

All rates bound the empirical risk of (noisy) gradient descent on linearly
separable data with margin gamma, learning rate eta, horizon t (1-indexed),
worst-case input budget c, noise std sigma, and dimension d.  Natural
logarithms throughout.

Two printed variants of the worst-case rates are kept: the ``appendix`` form
(the one the derivation actually yields, the default) and the ``table`` form
(as summarized elsewhere, with the cross terms -c/(t gamma) and -2c/gamma
folded into the leading coefficients).  They differ numerically; reduction
identities (c = 0, sigma = 0) hold for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import check_margin
from .errors import InvalidRegimeError

FORMS = ("appendix", "table")


@dataclass(frozen=True)
class BoundInputs:
    """Arguments shared by the rate bounds, all but the step t."""

    eta: float
    gamma: float
    c: float = 0.0
    d: int = 0
    sigma: float = 0.0
    form: str = "appendix"

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError("eta must be positive and finite")
        check_margin(self.gamma)
        if not (math.isfinite(self.c) and self.c >= 0):
            raise ValueError("c must be finite and non-negative")
        if self.d < 0:
            raise ValueError("d must be non-negative")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and non-negative")
        if self.form not in FORMS:
            raise ValueError(f"form must be one of {FORMS}")


def curvature_budget(c: float, eta: float, gamma: float) -> float:
    """Smoothness constant s = (1+c)^2/4 + 2c/(eta gamma) of the worst-case loss
    along the descent trajectory."""
    return (1.0 + c) ** 2 / 4.0 + 2.0 * c / (eta * gamma)


def regime_violations(eta: float, gamma: float | None = None, c: float = 0.0) -> list[str]:
    """The conditions of the analysed regime that the arguments violate:
    eta < 4 for every rate and, given a margin gamma, the worst-case rates'
    c < gamma/2 and s * eta < 1, i.e. eta < 4(gamma - 2c)/(gamma (1+c)^2)."""
    violated = []
    if not eta < 4.0:
        violated.append(f"eta < 4 violated (eta = {eta:g})")
    if gamma is None:
        return violated
    if not c < gamma / 2.0:
        violated.append(f"c < gamma/2 violated (c = {c:g}, gamma = {gamma:g})")
    else:
        s = curvature_budget(c, eta, gamma)
        if not s * eta < 1.0:
            violated.append(
                f"s * eta < 1 violated (s = {s:g}, eta = {eta:g}); "
                "requires eta < 4(gamma - 2c)/(gamma (1+c)^2)"
            )
    return violated


def _require_regime(inputs: BoundInputs, robust: bool = False) -> None:
    """Raise InvalidRegimeError on the first violated condition of the
    plain (or, when ``robust``, the worst-case) rates."""
    violated = regime_violations(inputs.eta, inputs.gamma if robust else None, inputs.c)
    if violated:
        raise InvalidRegimeError(violated[0])


# Each rate is built from its inputs but t, once the regime is checked, as a
# function of t alone; a series checks once and calls it at every step.


def _plain_rate(inputs: BoundInputs, noise_energy: float):
    """Plain-descent rate with noise energy d sigma^2:
    (8-eta)/(8 t eta) (1 + d sigma^2 + (log t / gamma)^2)
    + (8-eta)/4 * log((t+1)/t) + eta d sigma^2."""
    _require_regime(inputs)
    eta, gamma = inputs.eta, inputs.gamma

    def rate(t):
        lead = (8.0 - eta) / (8.0 * t * eta)
        bracket = (1.0 + noise_energy) + (math.log(t) / gamma) ** 2
        tail = (8.0 - eta) / 4.0 * math.log1p(1.0 / t)
        return lead * bracket + tail + eta * noise_energy

    return rate


def _robust_rate(inputs: BoundInputs, noise_energy: float):
    """Worst-case-loss descent rate with budget c and noise energy
    d sigma^2, in the inputs' form."""
    _require_regime(inputs, robust=True)
    eta, gamma, c = inputs.eta, inputs.gamma, inputs.c
    appendix = inputs.form == "appendix"
    s = curvature_budget(c, eta, gamma)

    def rate(t):
        if appendix:
            lead = (2.0 - s * eta) / (2.0 * t * eta)
            tail = 2.0 - s * eta
        else:
            lead = (8.0 - eta * (1.0 + c) ** 2) / (8.0 * t * eta) - c / (t * gamma)
            tail = (8.0 - eta * (1.0 + c) ** 2) / 4.0 - 2.0 * c / gamma
        bracket = ((1.0 + c) ** 2 + noise_energy) + (math.log(t) / (gamma - c)) ** 2
        return lead * bracket + tail * math.log1p(1.0 / t) + eta * noise_energy

    return rate


def _robust_under_standard_rate(inputs: BoundInputs):
    """Worst-case loss of a plainly trained model: the plain rate plus
    c * (1 + eta (t - 1)), since the iterate norm grows at most linearly."""
    base = _plain_rate(inputs, 0.0)
    c, eta = inputs.c, inputs.eta
    return lambda t: base(t) + c * (1.0 + eta * (t - 1))


# The one registry of the settings: plain descent, noisy descent (the
# bracket gains d sigma^2 and the rate the floor eta d sigma^2), their
# worst-case-loss counterparts, and the worst case of plain training.
_RATES = {
    "nominal": lambda inputs: _plain_rate(inputs, 0.0),
    "private": lambda inputs: _plain_rate(inputs, inputs.d * inputs.sigma**2),
    "robust": lambda inputs: _robust_rate(inputs, 0.0),
    "robust-private": lambda inputs: _robust_rate(inputs, inputs.d * inputs.sigma**2),
    "robust-under-standard": _robust_under_standard_rate,
}


def evaluate_series(setting: str, inputs: BoundInputs, ts) -> np.ndarray:
    """Evaluate one bound of ``_RATES`` over a grid of 1-indexed steps; rows
    are (t, value).  The steps and the regime are checked once, before any
    value."""
    if setting not in _RATES:
        raise ValueError(f"setting must be one of {sorted(_RATES)}")
    steps = [int(t) for t in ts]
    if steps and min(steps) < 1:
        raise ValueError("t must be an integer >= 1")
    rate = _RATES[setting](inputs)
    return np.asarray([(t, rate(t)) for t in steps])


def gap_curve(inputs: BoundInputs, setting: str, ts) -> np.ndarray:
    """Excess of the worst-case-trained rate over the plain-descent rate.

    ``nonprivate`` compares the noiseless worst-case bound against the plain
    bound; ``private`` compares the noisy worst-case bound against the same
    plain baseline.  Rows are (t, gap) at the steps ``ts``.
    """
    robust = {"nonprivate": "robust", "private": "robust-private"}.get(setting)
    if robust is None:
        raise ValueError("setting must be 'nonprivate' or 'private'")
    rows = evaluate_series(robust, inputs, ts)
    rows[:, 1] -= evaluate_series("nominal", inputs, ts)[:, 1]
    return rows


def log_spaced_steps(t_max: int, points: int = 200) -> np.ndarray:
    """Unique integer steps, log-spaced from 1 to t_max inclusive."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    if points < 1:
        raise ValueError("points must be >= 1")
    grid = np.unique(
        np.round(np.logspace(0.0, math.log10(t_max), num=points)).astype(np.int64)
    )
    return grid[(grid >= 1) & (grid <= t_max)]


# ---------------------------------------------------------------------------
# Differential-privacy accounting for the noisy release of gradient sums.
# Per step, releasing a sum with l2 sensitivity  Delta  under Gaussian noise
# of std sigma is Renyi-(lambda) private with  alpha(lambda) = lambda
# (lambda + 1) Delta^2 / (2 sigma^2); orders compose additively over steps
# and convert to (epsilon, delta)-DP via
# epsilon = min_lambda (alpha_total(lambda) + log(1/delta)) / lambda.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpsilonReport:
    epsilon: float
    order: int  # the minimizing Renyi order lambda
    sensitivity: float


@dataclass(frozen=True)
class SigmaReport:
    sigma: float
    epsilon: float  # epsilon actually achieved at the returned sigma
    order: int
    implied_constant: float  # c' in sigma^2 = c' L^2 T log(1/delta) / eps^2


def sensitivity_bound(lipschitz: float, radius: float = 0.0, dimension: int = 1) -> float:
    """L2 sensitivity of a summed-gradient release over neighboring datasets.

    Plain training: swapping one example moves the sum by at most 2L.  When
    gradients are taken at worst-case inputs within radius r, the input may
    move coordinate-wise and the bound becomes 2 sqrt(d) (1 + r) L; r = 0
    recovers the plain formula exactly.
    """
    if not (math.isfinite(lipschitz) and lipschitz > 0):
        raise ValueError("lipschitz must be positive and finite")
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError("radius must be finite and non-negative")
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if radius == 0.0:
        return 2.0 * lipschitz
    return 2.0 * math.sqrt(dimension) * (1.0 + radius) * lipschitz


def _validate_accounting(sigma, steps, delta, lambda_max):
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be positive and finite")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if lambda_max < 1:
        raise ValueError("lambda_max must be >= 1")


def accountant_epsilon(
    sigma: float,
    steps: int,
    lipschitz: float,
    delta: float,
    radius: float = 0.0,
    dimension: int = 1,
    lambda_max: int = 512,
) -> EpsilonReport:
    """(epsilon, delta) guarantee of ``steps`` noisy sum releases at std sigma.

    Minimizes over integer Renyi orders 1..lambda_max.
    """
    _validate_accounting(sigma, steps, delta, lambda_max)
    sens = sensitivity_bound(lipschitz, radius, dimension)
    orders = np.arange(1, lambda_max + 1, dtype=np.float64)
    alpha = steps * orders * (orders + 1.0) * sens**2 / (2.0 * sigma**2)
    eps = (alpha + math.log(1.0 / delta)) / orders
    best = int(np.argmin(eps))
    return EpsilonReport(epsilon=float(eps[best]), order=best + 1, sensitivity=sens)


def accountant_sigma(
    epsilon: float,
    delta: float,
    steps: int,
    lipschitz: float,
    radius: float = 0.0,
    dimension: int = 1,
    lambda_max: int = 512,
) -> SigmaReport:
    """Smallest noise std achieving the target epsilon, by bisection.

    Also reports the constant c' that the calibrated sigma implies in the
    closed-form recipe sigma^2 = c' L^2 T log(1/delta) / epsilon^2.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be positive and finite")
    _validate_accounting(1.0, steps, delta, lambda_max)
    floor = math.log(1.0 / delta) / lambda_max
    if epsilon <= floor:
        raise ValueError(
            f"epsilon = {epsilon:g} is unreachable: even infinite noise leaves "
            f"epsilon > log(1/delta)/lambda_max = {floor:g}; raise lambda_max"
        )

    def eps_at(sigma):
        return accountant_epsilon(
            sigma, steps, lipschitz, delta, radius, dimension, lambda_max
        ).epsilon

    hi = 1.0
    for _ in range(400):
        if eps_at(hi) <= epsilon:
            break
        hi *= 2.0
    else:
        raise RuntimeError("failed to bracket the target epsilon from above")
    lo = hi
    while lo > 1e-300 and eps_at(lo / 2.0) <= epsilon:
        lo /= 2.0
    lo = lo / 2.0  # eps_at(lo) > epsilon unless lo hit the floor
    while (hi - lo) > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if eps_at(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    report = accountant_epsilon(hi, steps, lipschitz, delta, radius, dimension, lambda_max)
    implied = hi**2 * epsilon**2 / (lipschitz**2 * steps * math.log(1.0 / delta))
    return SigmaReport(
        sigma=hi, epsilon=report.epsilon, order=report.order, implied_constant=implied
    )


@dataclass(frozen=True)
class ExcessRiskInputs:
    """Arguments of the strongly convex noisy-SGD excess-risk bound."""

    strong_convexity: float
    lipschitz: float
    dimension: int
    sigma: float
    horizon: int

    def __post_init__(self):
        if not self.strong_convexity > 0:
            raise ValueError("strong_convexity must be positive")
        if not self.lipschitz > 0:
            raise ValueError("lipschitz must be positive")
        if self.dimension < 0:
            raise ValueError("dimension must be non-negative")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


def excess_risk_bound(inputs: ExcessRiskInputs) -> float:
    """Last-iterate excess risk of noisy SGD with step sizes 1/(lambda t):
    17 (L^2 + d sigma^2) (1 + log T) / (lambda T)."""
    noisy_sq = inputs.lipschitz**2 + inputs.dimension * inputs.sigma**2
    return 17.0 * noisy_sq * (1.0 + math.log(inputs.horizon)) / (
        inputs.strong_convexity * inputs.horizon
    )
