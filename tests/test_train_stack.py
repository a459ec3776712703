"""The stacked trainer ``optimizer.train_stack`` against one-cell training.

The reference is the one-cell training loop, kept here as it stood before
training was stacked: one call of ``losses.step_terms_stack`` on a stack of
this one cell per step on the whole training set, with the cell's own
Generator for noise and its own PGD seeds.  An attacked multi-class step takes its terms
as the kernel once took them from the attacked batch x_adv (the oracle
``_attacked_terms``); ``train_stack`` takes them from the attack instead.
Every comparison is bit for bit.

An attacked stack attacks its cells one after another in the calling
thread.  ``TestAttackedCells`` checks such a stack against one-cell
training while cells diverge mid-run, that an error in one cell is raised,
and that no thread starts; ``TestTwoClassOracle`` checks attacked
two-class training against the binary closed form.
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
from rpopt.data import Dataset, generate_separable, load_csv, save_csv, split
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
    nominal = step_terms_stack(theta[None], x, y, LossSpec(), [clip_k])[0][0]
    adversarial, _, grad = step_terms_stack(theta[None], x_adv, y, LossSpec(), [clip_k])
    return nominal, adversarial[0], grad[0]


def _train_one(dataset, config):
    """One cell, one step at a time: (rows, final weights), or the
    DivergenceError the run stops with."""
    multiclass = not dataset.is_binary
    spec = config.spec
    x = dataset.features
    if multiclass:
        y = dataset.labels
        theta = np.zeros((dataset.num_classes, dataset.dim))
    else:
        y = dataset.labels.astype(np.float64)
        theta = np.zeros(dataset.dim)
    # the noise std on the mean gradient: sigma unclipped, sigma * k / n clipped
    noise_std = config.sigma
    if math.isfinite(config.clip_k):
        noise_std = config.sigma * config.clip_k / dataset.n
    rng = np.random.default_rng(config.seed)
    rows = np.zeros((config.steps + 1, 5))

    def eval_at(t):
        if multiclass and spec.c > 0:
            attack = AttackConfig(
                budget=spec.c, p=spec.p, steps=config.attack_steps, seed=config.seed + 7919 * (t + 1)
            )
            x_adv = x + pgd_batch(theta, x, y, attack, box=dataset.box)
            return _attacked_terms(theta, x, y, config.clip_k, x_adv)
        nominal, adversarial, grad = step_terms_stack(theta[None], x, y, spec, [config.clip_k])
        return nominal[0], adversarial[0], grad[0]

    for t in range(config.steps + 1):
        nominal, adversarial, grad = eval_at(t)
        if not (math.isfinite(nominal) and math.isfinite(adversarial)):
            return DivergenceError(t)
        rows[t] = (t, nominal, adversarial, np.linalg.norm(theta), np.linalg.norm(grad))
        if t == config.steps:
            return rows, theta
        if config.sigma > 0:
            grad = grad + rng.normal(0.0, noise_std, size=theta.shape)
        eta_t = 4.0 * config.eta if t == 0 and config.spec.c > 0 else config.eta
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
    np.testing.assert_array_equal(outcome.final_params, theta)


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
    "c=0": LossSpec(),
    "c>0,p=2": LossSpec(0.05, 2.0),
    "c>0,p=inf": LossSpec(0.05, math.inf),
}


class TestBinary:
    @pytest.mark.parametrize("spec", BINARY_SPECS.values(), ids=BINARY_SPECS.keys())
    def test_dpsgd_cells_match_one_cell_training(self, binary_data, spec):
        base = OptimizerConfig(eta=0.5, steps=15, spec=spec)
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

    def test_noisy_cells_of_both_regimes_mix(self, binary_data):
        # unclipped cells (noise std sigma) beside clipped ones (sigma * k / n)
        base = OptimizerConfig(eta=0.5, steps=15, spec=BINARY_SPECS["c>0,p=2"])
        configs = _cells(
            base, [(math.inf, 0.3, 1), (0.5, 0.7, 2), (math.inf, 0.1, 3), (2.0, 3.0, 4)]
        )
        _check_stack(binary_data, configs)

    def test_single_cell_stack_is_train(self, binary_data):
        config = OptimizerConfig(eta=0.2, steps=5, sigma=0.3, seed=11)
        _check_stack(binary_data, [config])


class TestMulticlass:
    @pytest.mark.parametrize("c", [0.0, 0.05], ids=["clean", "attacked"])
    def test_cells_match_one_cell_training(self, box_data, c):
        spec = LossSpec(c, math.inf) if c > 0 else LossSpec()
        base = OptimizerConfig(eta=1.0, steps=8, spec=spec, attack_steps=3)
        configs = _cells(base, [(0.05, 0.5, 7), (math.inf, 0.0, 8), (0.5, 0.0, 9)])
        _check_stack(box_data, configs)

    def test_noisy_cells_of_both_regimes_mix(self, box_data):
        base = OptimizerConfig(eta=1.0, steps=8, spec=LossSpec(0.05), attack_steps=3)
        configs = _cells(base, [(math.inf, 0.4, 7), (0.05, 0.5, 8), (math.inf, 0.1, 9)])
        _check_stack(box_data, configs)


class CellFault(Exception):
    pass


class TestAttackedCells:
    @pytest.mark.parametrize("p", [2.0, math.inf], ids=["l2", "linf"])
    def test_diverging_cells_keep_the_one_cell_bits_and_the_callers_errstate(self, box_data, p):
        base = OptimizerConfig(eta=1.0, steps=10, spec=LossSpec(0.05, p), attack_steps=3)
        # finite and infinite thresholds; a finite iterate so large that its
        # l2 attack overflows; three cells that overflow, not all at one step,
        # so the live cells shrink in stages
        configs = _cells(
            base,
            [(math.inf, 0.0, 8), (0.5, 1e200, 7), (15.0, 5e306, 4), (15.0, 1e307, 0),
             (1e3, 1e305, 6)],
        )
        # the attacks run under the caller's numpy error state: no warning escapes
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            outcomes = _check_stack(box_data, configs)
        steps = [outcome.step for outcome in outcomes if isinstance(outcome, DivergenceError)]
        assert len(steps) == 3 and len(set(steps)) > 1
        assert all(isinstance(outcome, TrainTrace) for outcome in outcomes[:2])

    @pytest.mark.parametrize("failing_seed", [7, 8, 9])
    @pytest.mark.parametrize("where", ["attack", "terms"])
    def test_an_error_in_one_cell_is_raised(self, box_data, monkeypatch, where, failing_seed):
        base = OptimizerConfig(
            eta=1.0, steps=5, spec=LossSpec(0.05), attack_steps=3,
        )
        # seeds 7, 8 and 9 at thresholds 0.5, 0.6 and 0.7
        configs = _cells(base, [(0.5, 0.0, 7), (0.6, 0.0, 8), (0.7, 0.0, 9)])
        failing_k = configs[failing_seed - 7].clip_k
        real_terms = losses._residual_gradient
        calls = []

        def failing_pgd_batch(model, x, y, attack, **kwargs):
            if attack.seed == failing_seed + 7919 * 3:  # the attack of step 2
                raise CellFault(f"seed {failing_seed}")
            return pgd_batch(model, x, y, attack, **kwargs)

        def failing_terms(r, x, clip_k):
            calls.append(clip_k)
            if clip_k == failing_k and calls.count(clip_k) == 3:  # the terms of step 2
                raise CellFault(f"seed {failing_seed}")
            return real_terms(r, x, clip_k)

        if where == "attack":
            monkeypatch.setattr(optimizer, "pgd_batch", failing_pgd_batch)
        else:
            monkeypatch.setattr(losses, "_residual_gradient", failing_terms)
        with pytest.raises(CellFault, match=f"seed {failing_seed}$"):
            train_stack(box_data, configs)

    @pytest.mark.parametrize(
        "data, c",
        [("box", 0.05), ("box", 0.0), ("binary", 0.05)],
        ids=["attacked", "clean multiclass", "binary"],
    )
    def test_no_thread_starts_on_four_cpus(self, box_data, binary_data, monkeypatch, data, c):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

        def no_thread(thread):
            raise AssertionError("train_stack started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        spec = LossSpec(c) if c > 0 else LossSpec()
        base = OptimizerConfig(eta=1.0, steps=3, spec=spec, attack_steps=2)
        dataset = box_data if data == "box" else binary_data
        outcomes = train_stack(dataset, [replace(base, seed=seed) for seed in range(3)])
        assert all(isinstance(outcome, TrainTrace) for outcome in outcomes)


class TestTwoClassOracle:
    """A two-class softmax model is the binary model w = theta_1 - theta_0:
    its loss is the logistic loss of w, a step at eta moves w as a binary
    step at 2 eta, and with no box PGD's one-shot step is the exact worst
    case.  So attacked two-class training must follow the binary closed
    form.

    The two runs reach the same numbers through different expressions (a
    softmax over two logits against a sigmoid of the margin; w formed from
    two rows), so they agree to rounding, about 1e-15 relative here.  The
    tolerance of 1e-12 leaves room for that rounding to grow over the run;
    a wrong attack, step factor or residual moves the numbers far more (a
    gradient taken at the clean inputs in place of the attacked ones fails
    here)."""

    RTOL = 1e-12

    @pytest.mark.parametrize("p", [2.0, math.inf], ids=["l2", "linf"])
    @pytest.mark.parametrize("eta, c", [(0.1, 0.05), (0.5, 0.1)])
    def test_two_class_training_follows_the_binary_run_at_twice_eta(self, tmp_path, p, eta, c):
        separable = generate_separable(d=8, n=60, gamma=0.2, seed=5)
        signs, classes = str(tmp_path / "signs.csv"), str(tmp_path / "classes.csv")
        save_csv(separable, signs)
        save_csv(Dataset(separable.features, (separable.labels + 1) // 2), classes)
        binary, two_class = load_csv(signs), load_csv(classes)
        assert binary.is_binary and two_class.num_classes == 2 and two_class.box is None
        spec = LossSpec(c, p)
        for steps in (1, 5, 40):
            two = train(two_class, OptimizerConfig(eta=eta, steps=steps, spec=spec))
            reference = train(binary, OptimizerConfig(eta=2 * eta, steps=steps, spec=spec))
            theta = two.final_params
            np.testing.assert_allclose(
                theta[1] - theta[0], reference.final_params, rtol=self.RTOL, atol=0
            )
            for name in ("adversarial_loss", "nominal_loss"):
                np.testing.assert_allclose(
                    getattr(two, name), getattr(reference, name), rtol=self.RTOL, atol=0
                )
        # the worst case is harder than the clean loss once w is not zero
        assert np.all(reference.adversarial_loss[1:] > reference.nominal_loss[1:])


class TestDivergence:
    @pytest.mark.parametrize("clipped", [True, False], ids=["clipped", "unclipped"])
    def test_diverging_cells_leave_their_stack_mates_alone(self, binary_data, clipped):
        base = OptimizerConfig(eta=0.5, steps=30)
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
                outcome.final_params, mate.final_params
            )

    def test_every_cell_may_diverge(self, binary_data):
        base = OptimizerConfig(eta=0.5, steps=10, sigma=1e308)
        configs = [replace(base, seed=seed) for seed in range(3)]
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes = _check_stack(binary_data, configs)
        assert all(isinstance(outcome, DivergenceError) for outcome in outcomes)


class _RecordingRng:
    """A Generator that records the size of each of its normal draws."""

    def __init__(self, seed, sizes):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.sizes = sizes

    def normal(self, loc, scale, size):
        self.sizes.append(size)
        return self.rng.normal(loc, scale, size=size)


def _noise_draws(monkeypatch, dataset, configs):
    """The size of every normal draw of ``train_stack(dataset, configs)``,
    per cell in draw order, and its outcomes."""
    sizes = {}
    with monkeypatch.context() as patch:
        patch.setattr(
            np.random, "default_rng", lambda seed: _RecordingRng(seed, sizes.setdefault(seed, []))
        )
        outcomes = train_stack(dataset, configs)
    return [sizes.get(config.seed, []) for config in configs], outcomes


class TestNoiseBlocks:
    """A noisy cell draws its noise for a block of steps at once, as many
    steps as fit ``optimizer.NOISE_BUFFER_BYTES``.  The reference loop
    draws per step; the streams must agree bit for bit."""

    @staticmethod
    def _block(monkeypatch, steps_per_block, noisy_cells, shape):
        """Shrink the buffer so that a block holds ``steps_per_block`` steps."""
        step_bytes = 8 * noisy_cells * math.prod(shape)
        monkeypatch.setattr(optimizer, "NOISE_BUFFER_BYTES", steps_per_block * step_bytes + 7)

    @pytest.mark.parametrize("shape", [(5,), (3, 8)], ids=["d", "C, d"])
    @pytest.mark.parametrize("size", [(), (1,), (4,), (163,)])
    def test_one_block_draw_is_successive_step_draws(self, shape, size):
        # the numpy property the blocks rest on: Generator.normal fills in order
        for std in (0.25, 3e-3, 1e300):
            whole = np.random.default_rng(5).normal(0.0, std, size=size + shape)
            rng = np.random.default_rng(5)
            steps = [rng.normal(0.0, std, size=shape) for _ in range(math.prod(size))]
            assert whole.tobytes() == np.stack(steps).reshape(whole.shape).tobytes()

    def test_fig1_stack_draws_163_steps_at_a_time(self, monkeypatch):
        # fig1's shape: a noise-free solo cell beside 20 noisy seeds, d = 10
        dataset = generate_separable(d=10, n=100, gamma=1.0, seed=0)
        solo = OptimizerConfig(eta=0.1, steps=400, seed=100)
        configs = [solo] + [replace(solo, sigma=0.25, seed=seed) for seed in range(20)]
        draws, outcomes = _noise_draws(monkeypatch, dataset, configs)
        assert draws[0] == []
        assert all(sizes == [(163, 10), (163, 10), (74, 10)] for sizes in draws[1:])
        for config, outcome in zip(configs[::7], outcomes[::7]):
            _assert_same(outcome, _train_one(dataset, config))

    @pytest.mark.parametrize("solo_at", [0, 2], ids=["solo first", "solo between"])
    def test_full_batch_steps_not_a_multiple_of_the_block(
        self, binary_data, monkeypatch, solo_at
    ):
        base = OptimizerConfig(eta=0.5, steps=22, spec=BINARY_SPECS["c>0,p=2"])
        configs = _cells(base, [(math.inf, 0.3, 1), (0.5, 0.7, 2), (math.inf, 0.1, 3),
                                (2.0, 3.0, 4)])
        # a noise-free cell among the noisy ones, first as in fig1 or between them
        configs.insert(solo_at, replace(base, seed=9))
        self._block(monkeypatch, 4, 4, (binary_data.dim,))
        draws, _ = _noise_draws(monkeypatch, binary_data, configs)
        assert draws[solo_at] == []
        noisy = draws[:solo_at] + draws[solo_at + 1:]
        assert all(sizes == [(4, 5)] * 5 + [(2, 5)] for sizes in noisy)
        _check_stack(binary_data, configs)

    def test_a_cell_diverging_mid_block_leaves_the_rest_of_the_block(
        self, binary_data, monkeypatch
    ):
        base = OptimizerConfig(eta=0.5, steps=30, clip_k=15.0)
        # the two diverging cells stop at steps 17 and 10, inside blocks of 4
        configs = [replace(base, sigma=0.2, seed=5), replace(base, sigma=1e307, seed=1),
                   replace(base, seed=3), replace(base, sigma=1e307, seed=2),
                   replace(base, sigma=0.5, seed=4)]
        self._block(monkeypatch, 4, 4, (binary_data.dim,))
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes = _check_stack(binary_data, configs)
        assert [outcomes[1].step, outcomes[3].step] == [17, 10]
        assert all(isinstance(outcomes[i], TrainTrace) for i in (0, 2, 4))

    def test_multiclass_cells_draw_blocks_of_matrices(self, box_data, monkeypatch):
        base = OptimizerConfig(eta=1.0, steps=10)
        configs = _cells(base, [(math.inf, 0.4, 7), (0.05, 0.5, 8), (0.5, 0.0, 9),
                                (math.inf, 0.1, 10)])
        self._block(monkeypatch, 3, 3, (3, 8))
        draws, _ = _noise_draws(monkeypatch, box_data, configs)
        assert all(sizes == [(3, 3, 8)] * 3 + [(1, 3, 8)] for sizes in draws[:2] + draws[3:])
        _check_stack(box_data, configs)


    @pytest.mark.parametrize("steps_per_block", [1, 2, 5, 11, 40])
    @pytest.mark.parametrize("data", ["binary_data", "box_data"], ids=["binary", "multiclass"])
    def test_every_block_length_gives_the_per_step_draws(
        self, request, monkeypatch, data, steps_per_block
    ):
        # from one step per block to one block longer than the whole run
        dataset = request.getfixturevalue(data)
        steps = 11
        spec = LossSpec() if data == "box_data" else BINARY_SPECS["c>0,p=inf"]
        base = OptimizerConfig(eta=0.5, steps=steps, spec=spec)
        configs = _cells(base, [(math.inf, 0.3, 1), (0.5, 0.0, 2), (0.5, 0.7, 3), (2.0, 3.0, 4)])
        shape = (dataset.num_classes, dataset.dim) if data == "box_data" else (dataset.dim,)
        self._block(monkeypatch, steps_per_block, 3, shape)
        draws, _ = _noise_draws(monkeypatch, dataset, configs)
        blocks = [(min(steps_per_block, steps - t),) + shape for t in range(0, steps, steps_per_block)]
        assert draws[1] == []
        assert all(sizes == blocks for sizes in draws[:1] + draws[2:])
        _check_stack(dataset, configs)


def _twice_over(dataset):
    """The dataset's examples twice over: the same mean gradients from 2n examples."""
    return Dataset(
        features=np.concatenate([dataset.features] * 2),
        labels=np.concatenate([dataset.labels] * 2),
        box=dataset.box,
        num_classes=dataset.num_classes,
    )


class TestNoiseScale:
    """Every step takes the whole training set, so a clipped cell's noise std
    is sigma * k / n with n the training examples, and an unclipped cell's
    is sigma.  On the examples twice over a clipped cell therefore trains as
    with half its sigma on the examples once, and an unclipped cell as with
    its own."""

    @pytest.mark.parametrize("clip_k", [0.5, math.inf], ids=["clipped", "unclipped"])
    @pytest.mark.parametrize(
        "data, spec",
        [
            ("binary_data", BINARY_SPECS["c=0"]),
            ("binary_data", BINARY_SPECS["c>0,p=2"]),
            ("binary_data", BINARY_SPECS["c>0,p=inf"]),
            ("box_data", LossSpec()),
        ],
        ids=["binary-c=0", "binary-c>0,p=2", "binary-c>0,p=inf", "multiclass"],
    )
    def test_the_noise_std_divides_by_the_training_set_size(self, request, data, spec, clip_k):
        dataset = request.getfixturevalue(data)
        config = OptimizerConfig(eta=0.5, steps=12, spec=spec, clip_k=clip_k, sigma=0.8, seed=3)
        twice = train(_twice_over(dataset), config)
        scale = 0.5 if math.isfinite(clip_k) else 1.0
        once = train(dataset, replace(config, sigma=scale * config.sigma))
        for name in TrainTrace.COLUMNS:
            np.testing.assert_allclose(getattr(twice, name), getattr(once, name), rtol=1e-9)
        np.testing.assert_allclose(twice.final_params, once.final_params, rtol=1e-9, atol=1e-12)
        if math.isfinite(clip_k):  # the noise is large enough to tell n from 2n
            unscaled = train(dataset, config).final_params
            assert not np.allclose(twice.final_params, unscaled, rtol=1e-3)


# one change of each field that the configs of one stack share
MISMATCHES = [
    {"eta": 0.2},
    {"steps": 4},
    {"spec": LossSpec(0.05)},
    {"attack_steps": 3},
]


class TestValidation:
    def test_stacked_fields(self):
        shared = {f.name for f in fields(OptimizerConfig)} - set(STACKED_FIELDS)
        assert set(STACKED_FIELDS) == {"clip_k", "sigma", "seed"}
        assert shared == {"eta", "steps", "spec", "attack_steps"}
        assert {next(iter(change)) for change in MISMATCHES} == shared  # one case each

    @pytest.mark.parametrize("change", MISMATCHES, ids=lambda change: next(iter(change)))
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
