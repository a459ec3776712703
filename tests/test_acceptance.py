"""Acceptance suite: one test per shipped claim, in claim order.

These tests exercise the package end to end (experiments included) and pin
the numeric tolerances the library promises.  They are slower than the unit
tests; the sweep test dominates the runtime.
"""

import importlib.util
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

import rpopt
from rpopt.attacks import AttackConfig, pgd_batch
from rpopt.bounds import (
    BoundInputs,
    accountant_epsilon,
    accountant_sigma,
    evaluate_series,
)
from rpopt.curvature import max_eigenvalue, optimum_curvature
from rpopt.data import generate_equal_margin, read_table, write_idx
from rpopt.experiments import KINDS, ExperimentConfig, run_experiment
from rpopt.losses import (
    LossSpec,
    adversarial_logistic_loss,
    gradient,
    hessian_vector_product,
    logistic_loss,
    multiclass_loss,
)
from rpopt.optimizer import OptimizerConfig, train
from rpopt.report import verify_report


def test_bound_dominance_at_figure_parameters(tmp_path):
    # d=10, sigma=0.25, gamma=1, c=0.1, eta=0.1, n=100, T=1000, 20 seeds:
    # every seed-averaged loss curve must sit below its rate bound (noisy
    # curves get a 2-standard-error allowance), in under a minute
    out = tmp_path / "fig1"
    start = time.monotonic()
    run_experiment(
        ExperimentConfig(
            kind="fig1-convergence", output_dir=str(out), seeds=tuple(range(20)), params={}
        )
    )
    elapsed = time.monotonic() - start
    report = verify_report(str(out))
    assert report.passed, "\n".join(report.lines())
    assert len(report.checks) == 4
    assert elapsed < 60.0, f"figure run took {elapsed:.1f}s"


def test_reduction_identities_exact():
    ts = [1, 3, 10, 32, 100, 316, 1000, 3162, 10000, 31623]
    etas = [0.05, 0.3, 0.9, 2.0, 3.9]
    gammas = [0.2, 1.0]
    checked = 0
    worst = 0.0
    for eta in etas:
        for gamma in gammas:
            nominal = evaluate_series("nominal", BoundInputs(eta, gamma), ts)[:, 1]
            no_noise = evaluate_series("private", BoundInputs(eta, gamma, d=50, sigma=0.0), ts)
            no_budget = evaluate_series("robust", BoundInputs(eta, gamma, c=0.0), ts)
            neither = evaluate_series(
                "robust-private", BoundInputs(eta, gamma, c=0.0, d=50, sigma=0.0), ts
            )
            for rows in (no_noise, no_budget, neither):
                worst = max(worst, float(np.max(np.abs(rows[:, 1] - nominal) / nominal)))
            checked += len(ts)
    assert checked == 100
    assert worst <= 1e-12, f"worst relative deviation {worst:.3e}"


def test_gap_curves_decay_and_grow_with_dimension(tmp_path):
    out = tmp_path / "fig2"
    run_experiment(
        ExperimentConfig(kind="fig2-gap", output_dir=str(out), seeds=(0,), params={})
    )
    report = verify_report(str(out))
    assert report.passed, "\n".join(report.lines())

    table = read_table(str(out / "fig2-gap.csv"))
    ts = table["t"]
    at_10 = int(np.nonzero(ts == 10)[0][0])
    at_100 = int(np.nonzero(ts == 100)[0][0])
    last = int(np.argmax(ts))
    assert ts[last] == 100000
    # the figure's own curves tend to zero: both are below 10% of their
    # t=10 value by t=1e5 (at much larger d the noise floor takes over,
    # which is the dimension claim below, not the decay claim)
    for name in ("gap_nonprivate", "gap_private_d10"):
        ratio = table[name][last] / table[name][at_10]
        assert ratio < 0.10, f"{name} ratio {ratio:.4f}"
    gaps_at_100 = [table[f"gap_private_d{d}"][at_100] for d in (10, 100, 1000)]
    assert gaps_at_100[0] < gaps_at_100[1] < gaps_at_100[2]
    assert all(g > 0 for g in gaps_at_100)


def test_crossover_then_linear_divergence():
    # same parameters as the convergence figure; pure bound evaluation
    eta, gamma, c = 0.1, 1.0, 0.1
    ts = np.arange(1, 10001)
    robust = evaluate_series("robust", BoundInputs(eta, gamma, c), ts)[:, 1]
    rus = evaluate_series("robust-under-standard", BoundInputs(eta, gamma, c), ts)[:, 1]
    above = np.nonzero(robust >= rus)[0]
    assert above.size > 0, "the worst-case-training bound should start higher"
    crossover = int(ts[above[-1]]) + 1
    assert crossover < 100
    after = ts >= crossover
    assert np.all(robust[after] < rus[after])
    # beyond the crossover the gap only widens
    gap = rus[after] - robust[after]
    assert np.all(np.diff(gap) > 0)
    # linear divergence at rate c * eta
    slope = (rus[-1] - rus[4999]) / float(ts[-1] - ts[4999])
    assert slope / (c * eta) == pytest.approx(1.0, abs=0.05)
    assert robust[-1] < 1.0


def _boundary_grid(p: float) -> np.ndarray:
    if p == 2.0:
        angles = np.linspace(0.0, 2.0 * np.pi, 10000, endpoint=False)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    side = np.linspace(-1.0, 1.0, 2500)
    ones = np.ones_like(side)
    return np.concatenate(
        [
            np.stack([side, ones], axis=1),
            np.stack([side, -ones], axis=1),
            np.stack([ones, side], axis=1),
            np.stack([-ones, side], axis=1),
        ]
    )


def test_worst_case_loss_matches_brute_force_and_pgd():
    rng = np.random.default_rng(2024)
    grids = {p: _boundary_grid(p) for p in (2.0, math.inf)}

    # brute force on d=2: the loss is convex in the perturbation, so the
    # worst case lies on the budget-ball boundary the grids trace
    for case in range(100):
        p = 2.0 if case % 2 == 0 else math.inf
        theta = rng.normal(size=2)
        x = rng.uniform(-0.5, 0.5, size=2)
        y = float(rng.choice([-1.0, 1.0]))
        c = float(rng.uniform(0.02, 0.5))
        closed = adversarial_logistic_loss(theta, x, np.array([y]), LossSpec(c, p))
        z = -y * ((x[None, :] + c * grids[p]) @ theta)
        brute = float(np.max(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))))
        assert brute <= closed + 1e-9
        assert closed - brute <= 1e-4

    # PGD with 100 steps matches the closed form on binary linear models
    for case in range(100):
        p = 2.0 if case % 2 == 0 else math.inf
        d = int(rng.integers(2, 8))
        theta = rng.normal(size=d)
        x = rng.uniform(-0.5, 0.5, size=d)
        y = float(rng.choice([-1.0, 1.0]))
        c = float(rng.uniform(0.02, 0.5))
        closed = adversarial_logistic_loss(theta, x, np.array([y]), LossSpec(c, p))
        attack = AttackConfig(budget=c, p=p, steps=100, seed=case)
        delta = pgd_batch(theta, x[None], np.array([y]), attack)[0]
        achieved = logistic_loss(theta, x + delta, np.array([y]))
        assert achieved <= closed + 1e-12
        assert closed - achieved <= 1e-5


def _fd_gradient(fn, theta: np.ndarray, h: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(theta)
    for idx in np.ndindex(theta.shape):
        up = theta.copy()
        up[idx] += h
        down = theta.copy()
        down[idx] -= h
        grad[idx] = (fn(up) - fn(down)) / (2.0 * h)
    return grad


def _binary_case(rng):
    d = int(rng.integers(2, 7))
    n = int(rng.integers(1, 9))
    # keep every coordinate away from 0 so the l1 dual norm stays smooth
    theta = rng.uniform(0.1, 1.0, size=d) * rng.choice([-1.0, 1.0], size=d)
    x = rng.uniform(-0.5, 0.5, size=(n, d))
    y = rng.choice([-1.0, 1.0], size=n)
    return theta, x, y


def test_gradients_and_curvature_match_finite_differences():
    rng = np.random.default_rng(7)
    specs = [LossSpec(), LossSpec(0.2, 2.0), LossSpec(0.2, math.inf)]

    for spec in specs:
        worst = 0.0
        for _ in range(500):
            theta, x, y = _binary_case(rng)
            if spec.c > 0:
                fn = lambda th: adversarial_logistic_loss(th, x, y, spec)
            else:
                fn = lambda th: logistic_loss(th, x, y)
            analytic = gradient(theta, x, y, spec)
            fd = _fd_gradient(fn, theta)
            worst = max(worst, float(np.linalg.norm(analytic - fd)) / max(1.0, float(np.linalg.norm(fd))))
        assert worst < 1e-5, f"{spec}: worst gradient deviation {worst:.2e}"

    worst = 0.0
    for _ in range(500):
        classes = int(rng.integers(2, 5))
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 9))
        theta = rng.normal(size=(classes, d)) * 0.5
        x = rng.uniform(-0.5, 0.5, size=(n, d))
        y = rng.integers(0, classes, size=n)
        analytic = gradient(theta, x, y, LossSpec())
        fd = _fd_gradient(lambda th: multiclass_loss(th, x, y), theta)
        worst = max(worst, float(np.linalg.norm(analytic - fd)) / max(1.0, float(np.linalg.norm(fd))))
    assert worst < 1e-5, f"multiclass: worst gradient deviation {worst:.2e}"

    # Hessian-vector products against dense central-difference Hessians
    worst = 0.0
    for case in range(60):
        spec = specs[case % 3]
        theta, x, y = _binary_case(rng)
        theta = theta[:5]
        x = x[:, : theta.shape[0]]
        d = theta.shape[0]
        dense_fd = np.zeros((d, d))
        h = 1e-6
        for j in range(d):
            up = theta.copy()
            up[j] += h
            down = theta.copy()
            down[j] -= h
            dense_fd[:, j] = (gradient(up, x, y, spec) - gradient(down, x, y, spec)) / (2 * h)
        dense_fd = 0.5 * (dense_fd + dense_fd.T)
        dense_hvp = np.stack(
            [hessian_vector_product(theta, e, x, y, spec) for e in np.eye(d)], axis=1
        )
        worst = max(worst, float(np.abs(dense_hvp - dense_fd).max()))
    assert worst < 1e-6, f"worst HVP deviation {worst:.2e}"


def test_optimum_curvature_formula():
    # equal-margin data makes the worst-case optimum land in closed form
    # after the large first step, so training reaches gradient norm ~ 0
    # and the top Hessian eigenvalue must match c / (2 ||theta||)
    spec = LossSpec(0.2, 2.0)
    worst = 0.0
    for seed in range(10):
        ds = generate_equal_margin(d=8, n=200, margin=0.2, jitter=0.25, seed=seed)
        trace = train(ds, OptimizerConfig(eta=1.0, steps=400, spec=spec))
        assert trace.grad_norm[-1] < 1e-6
        report = max_eigenvalue(trace.final_params, ds.features, ds.labels, spec, seed=seed)
        predicted = optimum_curvature(spec.c, float(np.linalg.norm(trace.final_params)))
        rel = abs(report.lambda_max - predicted) / predicted
        worst = max(worst, rel)
    assert worst <= 0.05, f"worst relative curvature error {worst:.4f}"


@pytest.mark.slow
def test_sweep_trend_signs(tmp_path, digits_idx):
    # trends only (the full 2500-model sweeps are not desk-reproducible):
    # 10x10 grids on a small handwritten-digit set, scored by Spearman sign
    images, labels = digits_idx
    start = time.monotonic()
    fig8 = tmp_path / "fig8"
    run_experiment(
        ExperimentConfig(
            kind="fig8-sweep",
            output_dir=str(fig8),
            seeds=(0,),
            params={"images": images, "labels": labels},
        )
    )
    fig9 = tmp_path / "fig9"
    run_experiment(
        ExperimentConfig(
            kind="fig9-sweep",
            output_dir=str(fig9),
            seeds=(0,),
            params={"images": images, "labels": labels},
        )
    )
    elapsed = time.monotonic() - start

    for out in (fig8, fig9):
        report = verify_report(str(out))
        assert report.passed, "\n".join(report.lines())

    clip = read_table(str(fig8 / "fig8-sweep.csv"))
    dp = read_table(str(fig9 / "fig9-sweep.csv"))
    assert clip["lambda_max"].shape == (100,)
    assert dp["lambda_max"].shape == (100,)
    assert not np.any(clip["diverged"]) and not np.any(dp["diverged"])

    assert spearmanr(clip["lambda_max"], clip["c"]).statistic > 0
    assert spearmanr(clip["lambda_max"], clip["k_or_epsilon"]).statistic < 0
    assert spearmanr(dp["lambda_max"], dp["k_or_epsilon"]).statistic < 0
    pooled_acc = np.concatenate([clip["test_accuracy"], dp["test_accuracy"]])
    pooled_lam = np.concatenate([clip["lambda_max"], dp["lambda_max"]])
    assert spearmanr(pooled_acc, pooled_lam).statistic < 0

    assert elapsed < 900.0, f"sweeps took {elapsed:.0f}s"


@pytest.mark.slow
def test_sweep_trend_signs_offline(tmp_path):
    # the sweeps and claims of test_sweep_trend_signs, on the benchmark's
    # offline digits-like set (seed 0), so that they run without sklearn
    path = Path(__file__).resolve().parent.parent / "perfbench" / "digits.py"
    spec = importlib.util.spec_from_file_location("perfbench_digits", path)
    digits = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digits)
    images, labels = str(tmp_path / "images.idx"), str(tmp_path / "labels.idx")
    digits.write_digits(write_idx, images, labels, seed=0)

    start = time.monotonic()
    tables = {}
    for kind in ("fig8-sweep", "fig9-sweep"):
        out = tmp_path / kind
        run_experiment(
            ExperimentConfig(
                kind=kind,
                output_dir=str(out),
                seeds=(0,),
                params={"images": images, "labels": labels},
            )
        )
        tables[kind] = read_table(str(out / f"{kind}.csv"))
    elapsed = time.monotonic() - start

    for kind in tables:
        report = verify_report(str(tmp_path / kind))
        assert report.passed, "\n".join(report.lines())

    clip, dp = tables["fig8-sweep"], tables["fig9-sweep"]
    assert clip["lambda_max"].shape == (100,)
    assert dp["lambda_max"].shape == (100,)
    assert not np.any(clip["diverged"]) and not np.any(dp["diverged"])

    assert spearmanr(clip["lambda_max"], clip["c"]).statistic > 0
    assert spearmanr(clip["lambda_max"], clip["k_or_epsilon"]).statistic < 0
    assert spearmanr(dp["lambda_max"], dp["k_or_epsilon"]).statistic < 0
    pooled_acc = np.concatenate([clip["test_accuracy"], dp["test_accuracy"]])
    pooled_lam = np.concatenate([clip["lambda_max"], dp["lambda_max"]])
    assert spearmanr(pooled_acc, pooled_lam).statistic < 0

    assert elapsed < 900.0, f"sweeps took {elapsed:.0f}s"


def test_accountant_properties():
    sigmas = np.linspace(5.0, 300.0, 20)
    eps = [accountant_epsilon(s, 100, 1.0, 1e-5).epsilon for s in sigmas]
    assert all(a > b for a, b in zip(eps, eps[1:]))

    for target in (0.5, 2.0, 10.0):
        report = accountant_sigma(target, 1e-5, 100, 1.0)
        achieved = accountant_epsilon(report.sigma, 100, 1.0, 1e-5).epsilon
        assert achieved <= target
        assert abs(achieved - target) / target <= 1e-4

    sigma = 50.0
    nominal = accountant_epsilon(sigma, 100, 1.0, 1e-5).epsilon
    robust = accountant_epsilon(sigma, 100, 1.0, 1e-5, radius=0.1, dimension=20).epsilon
    assert robust > nominal


def test_deep_models_not_in_scope():
    package_dir = Path(rpopt.__file__).parent
    for path in sorted(package_dir.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "import torch" not in text and "import tensorflow" not in text, path
    assert not any("cnn" in kind or "deep" in kind or "network" in kind for kind in KINDS)
