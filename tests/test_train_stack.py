"""The stacked trainer ``optimizer.train_stack`` against one-cell training.

The reference is the one-cell training loop, kept here as it stood before
training was stacked: one call of ``losses.step_terms_stack`` on a stack of
this one cell per step, with the cell's own Generator for batch choice and
noise and its own PGD seeds.  An attacked multi-class step takes its terms
as the kernel once took them from the attacked batch x_adv (the oracle
``_attacked_terms``); ``train_stack`` takes them from the attack instead.
Every comparison is bit for bit.

Multi-class attacks run on lanes (threads); the lane tests fix the lane
count and require the same bits from every count.
"""

import math
import os
import threading
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from rpopt import losses, optimizer
from rpopt.attacks import AttackConfig, pgd_batch
from rpopt.curvature import clipping_smoothness_curve
from rpopt.data import Dataset, generate_separable, split
from rpopt.errors import DivergenceError
from rpopt.losses import LossSpec, step_terms_stack
from rpopt.optimizer import (
    STACKED_FIELDS,
    OptimizerConfig,
    TrainTrace,
    train,
    train_stack,
)


def _attacked_terms(theta, x, y, clip_k, x_adv):
    """A multi-class cell's terms from its attacked batch: the nominal loss
    on x; the worst-case loss and clipped gradient as nominal terms at x_adv."""
    nominal = step_terms_stack(theta[None], x, y, LossSpec.nominal(), [clip_k])[0][0]
    adversarial, _, grad = step_terms_stack(theta[None], x_adv, y, LossSpec.nominal(), [clip_k])
    return nominal, adversarial[0], grad[0]


def _train_one(dataset, config):
    """One cell, one step at a time: (rows, final weights), or the
    DivergenceError the run stops with."""
    multiclass = not dataset.is_binary
    spec = config.spec
    x_all = dataset.features
    if multiclass:
        y_all = dataset.labels
        theta = np.zeros((dataset.num_classes, dataset.dim))
    else:
        y_all = dataset.labels.astype(np.float64)
        theta = np.zeros(dataset.dim)
    # the noise std on the mean gradient: sigma unclipped, sigma * k / batch clipped
    noise_std = config.sigma
    if math.isfinite(config.clip_k):
        noise_std = config.sigma * config.clip_k / (config.batch or dataset.n)
    rng = np.random.default_rng(config.seed)
    rows = np.zeros((config.steps + 1, 5))

    def eval_at(xb, yb, t):
        if multiclass and spec.c > 0:
            attack = AttackConfig(
                budget=spec.c, p=spec.p, steps=config.attack_steps, seed=config.seed + 7919 * (t + 1)
            )
            x_adv = xb + pgd_batch(theta, xb, yb, attack, box=dataset.box)
            return _attacked_terms(theta, xb, yb, config.clip_k, x_adv)
        nominal, adversarial, grad = step_terms_stack(theta[None], xb, yb, spec, [config.clip_k])
        return nominal[0], adversarial[0], grad[0]

    for t in range(config.steps + 1):
        if config.batch == 0 or t == config.steps:
            xb, yb = x_all, y_all
        else:
            idx = rng.choice(dataset.n, size=config.batch, replace=False)
            xb, yb = x_all[idx], y_all[idx]
        nominal, adversarial, grad = eval_at(xb, yb, t)
        if not (math.isfinite(nominal) and math.isfinite(adversarial)):
            return DivergenceError(t)
        rows[t] = (t, nominal, adversarial, np.linalg.norm(theta), np.linalg.norm(grad))
        if t == config.steps:
            return rows, theta
        if config.sigma > 0:
            grad = grad + rng.normal(0.0, noise_std, size=theta.shape)
        eta_t = config.resolved_first_step_eta if t == 0 else config.eta
        theta = theta - eta_t * grad
        if not np.all(np.isfinite(theta)):
            return DivergenceError(t + 1)


def _assert_same(outcome, reference):
    if isinstance(reference, DivergenceError):
        assert isinstance(outcome, DivergenceError)
        assert outcome.step == reference.step
        return
    rows, theta = reference
    assert isinstance(outcome, TrainTrace)
    for i, name in enumerate(TrainTrace.COLUMNS):
        np.testing.assert_array_equal(getattr(outcome, name), rows[:, i])
    np.testing.assert_array_equal(outcome.final_params.weights, theta)


def _check_stack(dataset, configs):
    outcomes = train_stack(dataset, configs)
    assert len(outcomes) == len(configs)
    for config, outcome in zip(configs, outcomes):
        _assert_same(outcome, _train_one(dataset, config))
        if isinstance(outcome, DivergenceError):
            with pytest.raises(DivergenceError, match=f"step {outcome.step}$"):
                train(dataset, config)
            continue
        assert outcome.config == config
        solo = train(dataset, config)
        for name in TrainTrace.COLUMNS:
            np.testing.assert_array_equal(getattr(outcome, name), getattr(solo, name))
    return outcomes


def _cells(base, knobs):
    """One config per (clip_k, sigma, seed) triple."""
    return [replace(base, clip_k=k, sigma=s, seed=seed) for k, s, seed in knobs]


@pytest.fixture(scope="module")
def binary_data():
    return generate_separable(d=5, n=60, gamma=0.2, seed=2)


@pytest.fixture(scope="module")
def box_data():
    rng = np.random.default_rng(4)
    centers = np.eye(3, 8) * 0.3 + 0.05
    labels = np.repeat(np.arange(3), 20)
    features = np.clip(centers[labels] + 0.05 * rng.standard_normal((60, 8)), 0.0, 1.0)
    return Dataset(features=features, labels=labels, box=(0.0, 1.0))


BINARY_SPECS = {
    "c=0": LossSpec.nominal(),
    "c>0,p=2": LossSpec.adversarial(0.05, 2.0),
    "c>0,p=inf": LossSpec.adversarial(0.05, math.inf),
}


class TestBinary:
    @pytest.mark.parametrize("spec", BINARY_SPECS.values(), ids=BINARY_SPECS.keys())
    @pytest.mark.parametrize("batch", [0, 17], ids=["full", "minibatch"])
    def test_dpsgd_cells_match_one_cell_training(self, binary_data, spec, batch):
        base = OptimizerConfig(eta=0.5, steps=15, spec=spec, batch=batch)
        # finite and infinite thresholds, with and without noise, in one stack
        configs = _cells(
            base,
            [(0.1, 0.0, 1), (2.0, 0.0, 2), (math.inf, 0.0, 3), (0.5, 0.7, 4), (0.1, 3.0, 5)],
        )
        _check_stack(binary_data, configs)

    @pytest.mark.parametrize("spec", BINARY_SPECS.values(), ids=BINARY_SPECS.keys())
    def test_theory_cells_match_one_cell_training(self, binary_data, spec):
        base = OptimizerConfig(eta=0.1, steps=20, spec=spec)
        configs = [replace(base, sigma=0.25, seed=seed) for seed in range(4)]
        _check_stack(binary_data, configs + [replace(base, seed=9)])

    @pytest.mark.parametrize("batch", [0, 17], ids=["full", "minibatch"])
    def test_noisy_cells_of_both_regimes_mix(self, binary_data, batch):
        # unclipped cells (noise std sigma) beside clipped ones (sigma * k / batch)
        base = OptimizerConfig(eta=0.5, steps=15, spec=BINARY_SPECS["c>0,p=2"], batch=batch)
        configs = _cells(
            base, [(math.inf, 0.3, 1), (0.5, 0.7, 2), (math.inf, 0.1, 3), (2.0, 3.0, 4)]
        )
        _check_stack(binary_data, configs)

    def test_single_cell_stack_is_train(self, binary_data):
        config = OptimizerConfig(eta=0.2, steps=5, sigma=0.3, seed=11)
        _check_stack(binary_data, [config])


class TestMulticlass:
    @pytest.mark.parametrize("c", [0.0, 0.05], ids=["clean", "attacked"])
    @pytest.mark.parametrize("batch", [0, 24], ids=["full", "minibatch"])
    def test_cells_match_one_cell_training(self, box_data, c, batch):
        spec = LossSpec.adversarial(c, math.inf) if c > 0 else LossSpec.nominal()
        base = OptimizerConfig(eta=1.0, steps=8, spec=spec, batch=batch, attack_steps=3)
        configs = _cells(base, [(0.05, 0.5, 7), (math.inf, 0.0, 8), (0.5, 0.0, 9)])
        _check_stack(box_data, configs)

    @pytest.mark.parametrize("batch", [0, 24], ids=["full", "minibatch"])
    def test_noisy_cells_of_both_regimes_mix(self, box_data, batch):
        base = OptimizerConfig(
            eta=1.0, steps=8, spec=LossSpec.adversarial(0.05), batch=batch, attack_steps=3
        )
        configs = _cells(base, [(math.inf, 0.4, 7), (0.05, 0.5, 8), (math.inf, 0.1, 9)])
        _check_stack(box_data, configs)


def _train_on_lanes(monkeypatch, lanes, dataset, configs):
    """train_stack with the lane count fixed, and the threads that attacked."""
    threads = set()

    def recording_pgd_batch(*args, **kwargs):
        threads.add(threading.get_ident())
        return pgd_batch(*args, **kwargs)

    monkeypatch.setattr(optimizer, "_lane_count", lambda cells: lanes)
    monkeypatch.setattr(optimizer, "pgd_batch", recording_pgd_batch)
    return train_stack(dataset, configs), threads


class LaneFault(Exception):
    pass


class TestAttackLanes:
    @pytest.mark.parametrize("p", [2.0, math.inf], ids=["l2", "linf"])
    @pytest.mark.parametrize("batch", [0, 24], ids=["full", "minibatch"])
    def test_the_lane_count_changes_no_bit(self, box_data, monkeypatch, batch, p):
        base = OptimizerConfig(
            eta=1.0, steps=10, spec=LossSpec.adversarial(0.05, p), batch=batch,
            attack_steps=3,
        )
        # finite and infinite thresholds; a finite iterate so large that its
        # l2 attack overflows; three cells that overflow at different steps,
        # so the live cells fall to 2, below 3 lanes
        configs = _cells(
            base,
            [(math.inf, 0.0, 8), (0.5, 1e200, 7), (15.0, 5e306, 4), (15.0, 1e307, 0),
             (1e3, 1e305, 6)],
        )
        # every lane keeps the caller's numpy error state: no warning escapes
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            runs = {lanes: _train_on_lanes(monkeypatch, lanes, box_data, configs)
                    for lanes in (1, 2, 3)}
            _check_stack(box_data, configs)  # 3 lanes against one-cell training
        reference = runs[1][0]
        steps = [outcome.step for outcome in reference if isinstance(outcome, DivergenceError)]
        assert len(steps) == 3 and max(steps) > 1
        assert all(isinstance(outcome, TrainTrace) for outcome in reference[:2])
        for lanes, (outcomes, threads) in runs.items():
            assert len(threads) == lanes and threading.get_ident() in threads
            for outcome, expected in zip(outcomes, reference):
                if isinstance(expected, DivergenceError):
                    assert isinstance(outcome, DivergenceError)
                    assert outcome.step == expected.step
                    continue
                for name in TrainTrace.COLUMNS:
                    assert np.array_equal(getattr(outcome, name), getattr(expected, name))
                assert np.array_equal(outcome.final_params.weights, expected.final_params.weights)

    @pytest.mark.parametrize("failing_seed", [9, 8], ids=["lane 0", "lane 1"])
    def test_an_attack_error_is_raised_and_no_thread_is_left(
        self, box_data, monkeypatch, failing_seed
    ):
        base = OptimizerConfig(
            eta=1.0, steps=5, spec=LossSpec.adversarial(0.05), attack_steps=3,
        )
        configs = _cells(base, [(0.5, 0.0, 7), (0.5, 0.0, 8), (0.5, 0.0, 9)])

        def failing_pgd_batch(model, x, y, attack, **kwargs):
            if attack.seed == failing_seed + 7919 * 3:  # the attack of step 2
                raise LaneFault(f"seed {failing_seed}")
            return pgd_batch(model, x, y, attack, **kwargs)

        # two lanes: the cells with seeds 7 and 9 on lane 0, seed 8 on lane 1
        monkeypatch.setattr(optimizer, "_lane_count", lambda cells: 2)
        monkeypatch.setattr(optimizer, "pgd_batch", failing_pgd_batch)
        before = threading.active_count()
        with pytest.raises(LaneFault, match=f"seed {failing_seed}$"):
            train_stack(box_data, configs)
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing_k", [0.7, 0.6], ids=["lane 0", "lane 1"])
    def test_an_error_in_a_cells_terms_is_raised_and_no_thread_is_left(
        self, box_data, monkeypatch, failing_k
    ):
        base = OptimizerConfig(
            eta=1.0, steps=5, spec=LossSpec.adversarial(0.05), attack_steps=3,
        )
        configs = _cells(base, [(0.5, 0.0, 7), (0.6, 0.0, 8), (0.7, 0.0, 9)])
        real = losses._residual_gradient
        calls = {}

        def failing_terms(r, x, clip_k):
            calls[clip_k] = calls.get(clip_k, 0) + 1
            if clip_k == failing_k and calls[clip_k] == 3:  # the terms of step 2
                raise LaneFault(f"k {failing_k}")
            return real(r, x, clip_k)

        # two lanes: the cells with k 0.5 and 0.7 on lane 0, k 0.6 on lane 1
        monkeypatch.setattr(optimizer, "_lane_count", lambda cells: 2)
        monkeypatch.setattr(losses, "_residual_gradient", failing_terms)
        before = threading.active_count()
        with pytest.raises(LaneFault, match=f"k {failing_k}$"):
            train_stack(box_data, configs)
        assert threading.active_count() == before
        assert calls[failing_k] == 3

    @pytest.mark.parametrize(
        "data, c, cpus",
        [("box", 0.05, 1), ("box", 0.0, 4), ("binary", 0.05, 4)],
        ids=["attacked, one cpu", "clean multiclass", "binary"],
    )
    def test_one_lane_starts_no_thread(
        self, box_data, binary_data, monkeypatch, data, c, cpus
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)

        def no_thread(thread):
            raise AssertionError("train_stack started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        spec = LossSpec.adversarial(c) if c > 0 else LossSpec.nominal()
        base = OptimizerConfig(eta=1.0, steps=3, spec=spec, attack_steps=2)
        dataset = box_data if data == "box" else binary_data
        outcomes = train_stack(dataset, [replace(base, seed=seed) for seed in range(3)])
        assert all(isinstance(outcome, TrainTrace) for outcome in outcomes)

    def test_lane_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        # the CPUs this process may run on, not the machine's
        assert [optimizer._lane_count(cells) for cells in (1, 2, 3, 10)] == [1, 2, 3, 3]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert [optimizer._lane_count(cells) for cells in (1, 5, 10)] == [1, 5, 8]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert optimizer._lane_count(10) == 1


class TestDivergence:
    @pytest.mark.parametrize("clipped", [True, False], ids=["clipped", "unclipped"])
    @pytest.mark.parametrize("batch", [0, 17], ids=["full", "minibatch"])
    def test_diverging_cells_leave_their_stack_mates_alone(self, binary_data, batch, clipped):
        base = OptimizerConfig(eta=0.5, steps=30, batch=batch)
        mates = [replace(base, clip_k=0.1, sigma=0.2, seed=1), replace(base, clip_k=2.0, seed=3)]
        # the first overflows at once, the second only after several steps
        diverging = [
            replace(base, clip_k=1e3, sigma=1e308, seed=2),
            replace(base, clip_k=15.0, sigma=1e307, seed=0),
        ]
        if not clipped:
            # the same cells unclipped: noise std sigma
            mates = [replace(cell, clip_k=math.inf) for cell in mates]
            diverging = [replace(cell, clip_k=math.inf) for cell in diverging]
        configs = [diverging[0], mates[0], diverging[1], mates[1]]
        with np.errstate(over="ignore", invalid="ignore"):
            solo_steps = []
            for config in diverging:
                with pytest.raises(DivergenceError) as solo:
                    train(binary_data, config)
                solo_steps.append(solo.value.step)
            alone = _check_stack(binary_data, mates)
            stacked = _check_stack(binary_data, configs)
        assert max(solo_steps) > 1
        assert [stacked[0].step, stacked[2].step] == solo_steps
        for outcome, mate in zip((stacked[1], stacked[3]), alone):
            for name in TrainTrace.COLUMNS:
                np.testing.assert_array_equal(getattr(outcome, name), getattr(mate, name))
            np.testing.assert_array_equal(
                outcome.final_params.weights, mate.final_params.weights
            )

    def test_every_cell_may_diverge(self, binary_data):
        base = OptimizerConfig(eta=0.5, steps=10, sigma=1e308)
        configs = [replace(base, seed=seed) for seed in range(3)]
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes = _check_stack(binary_data, configs)
        assert all(isinstance(outcome, DivergenceError) for outcome in outcomes)


class TestValidation:
    def test_stacked_fields(self):
        shared = {f.name for f in fields(OptimizerConfig)} - set(STACKED_FIELDS)
        assert set(STACKED_FIELDS) == {"clip_k", "sigma", "seed"}
        assert shared == {
            "eta", "steps", "first_step_eta", "batch", "spec", "attack_steps"
        }

    @pytest.mark.parametrize(
        "change",
        [
            {"eta": 0.2},
            {"steps": 4},
            {"first_step_eta": 1.0},
            {"batch": 10},
            {"spec": LossSpec.adversarial(0.05)},
            {"attack_steps": 3},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_mismatched_configs_are_rejected(self, binary_data, change):
        base = OptimizerConfig(eta=0.1, steps=3, clip_k=1.0)
        other = replace(base, seed=1, **change)
        with pytest.raises(ValueError, match=next(iter(change))):
            train_stack(binary_data, [base, other])

    def test_empty_stack_is_rejected(self, binary_data):
        with pytest.raises(ValueError, match="at least one"):
            train_stack(binary_data, [])


def test_parallel_rows_match_serial_grid(sweep_settings, monkeypatch):
    train_ds, test_ds = split(generate_separable(d=4, n=90, gamma=0.3, seed=6), 1.0 / 6.0, seed=3)
    base = OptimizerConfig(eta=1.0, steps=10, seed=3)
    settings = replace(sweep_settings, curvature_examples=32, curvature_iters=100)
    tables = []
    for cpus in (1, 2):  # one CPU runs the rows here, two on two processes
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        tables.append(
            clipping_smoothness_curve(train_ds, test_ds, [0.0, 0.05], [0.5, 2.0], base, settings)
        )
    serial, parallel = tables
    assert [(cell.row, cell.col) for cell in serial.cells] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert serial.cells == parallel.cells
