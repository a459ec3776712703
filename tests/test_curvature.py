import dataclasses
import inspect
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from rpopt import curvature, experiments, jobs
from rpopt.attacks import AttackConfig
from rpopt.curvature import (
    SWEEP_COLUMNS,
    SweepCell,
    SweepSettings,
    SweepTable,
    accuracy,
    attacked_max_eigenvalue,
    cell_seed,
    clipping_smoothness_curve,
    max_eigenvalue,
    optimum_curvature,
    power_iteration,
    privacy_smoothness_curve,
)
from rpopt.data import (
    Dataset,
    generate_equal_margin,
    generate_separable,
    read_table,
    split,
    write_idx,
    write_table,
)
from rpopt.errors import SingularityError
from rpopt.losses import LossSpec, hessian_operator
from rpopt.experiments import ExperimentConfig, artifact_name, run_experiment
from rpopt.optimizer import OptimizerConfig, train
from scipy.special import expit


class TestPowerIteration:
    def test_diagonal_operator(self):
        diag = np.array([1.0, 2.0, 3.0])
        report = power_iteration(lambda v: diag * v, 3, tol=1e-10, seed=1)
        assert report.converged
        assert report.lambda_max == pytest.approx(3.0, abs=1e-8)
        assert report.residual <= 1e-10 * max(1.0, report.lambda_max)
        assert report.eigenvector.shape == (3,)
        assert abs(report.eigenvector[2]) == pytest.approx(1.0, abs=1e-6)

    def test_zero_operator_certifies_immediately(self):
        report = power_iteration(lambda v: np.zeros_like(v), 4, seed=0)
        assert report.converged
        assert report.lambda_max == 0.0
        assert report.iterations == 1
        assert report.residual == 0.0

    def test_dense_matrix_matches_eigvalsh(self, rng):
        basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        matrix = basis @ np.diag([5.0, 2.0, 1.0, 0.5, 0.1, -1.0]) @ basis.T
        matrix = 0.5 * (matrix + matrix.T)
        report = power_iteration(lambda v: matrix @ v, 6, tol=1e-10, seed=3)
        assert report.converged
        top = float(np.linalg.eigvalsh(matrix)[-1])
        assert report.lambda_max == pytest.approx(top, rel=1e-7)

    def test_max_iters_exhaustion_reported(self):
        diag = np.array([1.0, 2.0, 3.0])
        report = power_iteration(lambda v: diag * v, 3, tol=1e-14, max_iters=2, seed=1)
        assert not report.converged
        assert report.iterations == 2

    def test_restart_escapes_minor_eigenpair_start(self):
        # start the iteration exactly on a non-dominant eigenvector: the
        # certificate fires, the orthogonal probe must reject it
        seed = 4
        v0 = np.random.default_rng(seed).standard_normal(2)
        v0 /= np.linalg.norm(v0)
        u = np.array([-v0[1], v0[0]])

        def matvec(v):
            return 0.5 * (v0 @ v) * v0 + 2.0 * (u @ v) * u

        report = power_iteration(matvec, 2, tol=1e-10, seed=seed)
        assert report.converged
        assert report.lambda_max == pytest.approx(2.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            power_iteration(lambda v: v, 0)
        with pytest.raises(ValueError):
            power_iteration(lambda v: v, 2, tol=0.0)


class TestMaxEigenvalue:
    def test_matches_dense_nominal_hessian(self, small_binary):
        trace = train(small_binary, OptimizerConfig(eta=1.0, steps=50))
        theta = trace.final_params
        x, y = small_binary.features, small_binary.labels.astype(float)
        weights = expit(x @ theta) * expit(-(x @ theta))
        dense = (x.T * weights) @ x / x.shape[0]
        report = max_eigenvalue(
            trace.final_params, small_binary.features, small_binary.labels, LossSpec(), tol=1e-10
        )
        assert report.converged
        top = float(np.linalg.eigvalsh(dense)[-1])
        assert report.lambda_max == pytest.approx(top, rel=1e-7)

    def test_returns_the_solvers_report(self, small_binary):
        spec = LossSpec(0.1, 2.0)
        theta = train(small_binary, OptimizerConfig(eta=0.5, steps=30, spec=spec)).final_params
        report = max_eigenvalue(theta, small_binary.features, small_binary.labels, spec, seed=4)
        hessian = hessian_operator(theta, small_binary.features, small_binary.labels, spec)
        solver = power_iteration(hessian, theta.size, seed=4)
        assert [f.name for f in dataclasses.fields(report)] == [
            "lambda_max", "iterations", "residual", "converged", "eigenvector"
        ]
        assert (report.lambda_max, report.iterations, report.residual, report.converged) == (
            solver.lambda_max, solver.iterations, solver.residual, solver.converged
        )
        np.testing.assert_array_equal(report.eigenvector, solver.eigenvector)

    def test_rejects_nonfinite_parameters(self, small_binary):
        with pytest.raises(ValueError, match="finite"):
            max_eigenvalue(np.array([np.inf, 0.0, 0.0, 0.0, 0.0, 0.0]),
                           small_binary.features, small_binary.labels, LossSpec())

    def test_equal_margin_seed_collision_recovers_dominant_eigenvalue(self):
        # the dataset's separator is drawn from default_rng(seed) exactly like
        # the power-iteration start vector; at the robust optimum that shared
        # direction spans the Hessian kernel, so without the dominance probe
        # the iteration used to certify (0, separator) and report lambda = 0
        seed = 5
        ds = generate_equal_margin(d=8, n=200, margin=0.2, jitter=0.25, seed=seed)
        spec = LossSpec(0.2, 2.0)
        trace = train(ds, OptimizerConfig(eta=1.0, steps=400, spec=spec))
        assert trace.grad_norm[-1] < 1e-6  # genuinely at the optimum
        report = max_eigenvalue(trace.final_params, ds.features, ds.labels, spec, seed=seed)
        predicted = optimum_curvature(0.2, float(np.linalg.norm(trace.final_params)))
        assert report.lambda_max == pytest.approx(predicted, rel=5e-2)
        assert report.lambda_max > 0.2

    def test_multiclass_nominal_spectrum(self, rng):
        theta = rng.normal(size=(3, 4)) * 0.5
        features = rng.uniform(-0.4, 0.4, size=(30, 4))
        labels = rng.integers(0, 3, size=30)
        report = max_eigenvalue(theta, features, labels, LossSpec(), tol=1e-9)
        assert report.converged
        assert report.lambda_max > 0


class TestAttackedEigenvalue:
    def test_runs_on_multiclass_and_is_deterministic(self, rng):
        theta = rng.normal(size=(3, 4)) * 0.5
        x = rng.uniform(0.0, 0.4, size=(25, 4))
        y = rng.integers(0, 3, size=25)
        attack = AttackConfig(budget=0.05, p=math.inf, steps=5, seed=2)
        a = attacked_max_eigenvalue(theta, x, y, attack, tol=1e-8, seed=3)
        b = attacked_max_eigenvalue(theta, x, y, attack, tol=1e-8, seed=3)
        assert a.lambda_max == b.lambda_max
        assert a.lambda_max > 0


class TestTwoClassCurvatureOracle:
    """A two-class softmax model theta is the binary model w = theta_1 - theta_0
    with labels +-1, and its Hessian is [[H, -H], [-H, H]] for the binary
    Hessian H in w, so its top eigenvalue is twice H's.  At p = inf the
    attack's one-shot candidate is the exact worst case and the dual l1 norm
    is flat off its kinks, so the frozen-attack lambda_max is twice the
    closed form's."""

    @pytest.mark.parametrize("c", [0.05, 0.2])
    def test_attacked_lambda_max_is_twice_the_closed_form(self, c):
        rng = np.random.default_rng(8)
        n, d = 60, 5
        x = rng.standard_normal((n, d))
        x *= rng.uniform(0.0, 1.0, size=(n, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
        theta = rng.standard_normal((2, d))
        labels = rng.integers(0, 2, size=n)
        binary = Dataset(x, 2 * labels - 1)
        assert binary.is_binary
        attack = AttackConfig(budget=c, p=math.inf, steps=10, seed=3)
        two_class = attacked_max_eigenvalue(theta, x, labels, attack, tol=1e-12, seed=1)
        closed = max_eigenvalue(
            theta[1] - theta[0], binary.features, binary.labels, LossSpec(c, math.inf),
            tol=1e-12, seed=1,
        )
        assert two_class.converged and closed.converged
        assert two_class.lambda_max == pytest.approx(2.0 * closed.lambda_max, rel=1e-10)


class TestOptimumCurvature:
    def test_formula_and_errors(self):
        assert optimum_curvature(0.2, 0.4) == pytest.approx(0.25)
        assert optimum_curvature(0.0, 1.0) == 0.0
        with pytest.raises(SingularityError):
            optimum_curvature(0.1, 0.0)
        with pytest.raises(ValueError):
            optimum_curvature(-0.1, 1.0)
        with pytest.raises(ValueError):
            optimum_curvature(math.inf, 1.0)


class TestSweepPlumbing:
    def test_cell_seed_is_stable_and_distinct(self):
        assert cell_seed(7, 1, 2) == cell_seed(7, 1, 2)
        assert cell_seed(7, 1, 2) == int(
            np.random.SeedSequence([7, 1, 2]).generate_state(1)[0]
        )
        seeds = {cell_seed(7, i, j) for i in range(5) for j in range(5)}
        assert len(seeds) == 25

    def test_accuracy_binary_and_multiclass(self):
        ds = Dataset(features=np.array([[0.5, 0.0], [-0.5, 0.0]]), labels=np.array([1, -1]))
        assert accuracy(np.array([1.0, 0.0]), ds) == 1.0
        assert accuracy(np.array([-1.0, 0.0]), ds) == 0.0
        ds3 = Dataset(features=np.eye(3) * 0.5, labels=np.array([0, 1, 2]))
        assert accuracy(np.eye(3), ds3) == 1.0

    def _table(self):
        cells = (
            SweepCell(0, 0, 0.0, 1.0, 0.5, 0.9, 2.0, True, False),
            SweepCell(0, 1, 0.0, 2.0, 0.25, 0.95, 2.5, True, False),
            SweepCell(1, 0, 0.1, 1.0, 0.75, 0.8, 1.0, False, False),
            SweepCell(1, 1, 0.1, 2.0, math.nan, math.nan, math.nan, False, True),
        )
        return SweepTable(cells)

    def test_csv_roundtrip(self, tmp_path):
        table = self._table()
        columns = table.columns()
        assert tuple(columns) == SWEEP_COLUMNS
        path = str(tmp_path / "sweep.csv")
        write_table(path, list(columns), zip(*columns.values()))
        back = read_table(path)
        assert tuple(back) == SWEEP_COLUMNS
        cells = table.cells  # already in grid order, which columns() keeps
        fields = ("c", "knob", "lambda_max", "test_accuracy", "theta_norm", "converged",
                  "diverged")
        for name, field in zip(SWEEP_COLUMNS, fields):
            expected = np.array([float(getattr(cell, field)) for cell in cells])
            np.testing.assert_array_equal(back[name], expected)
        assert all(type(v) is int for v in columns["converged"] + columns["diverged"])


@pytest.fixture(scope="module")
def sweep_split():
    """A (train, test) pair, split as the sweep kinds split with seed 3."""
    return split(generate_separable(d=4, n=90, gamma=0.3, seed=6), 1.0 / 6.0, seed=3)


@pytest.fixture(scope="module")
def box_split():
    """A boxed 3-class (train, test) pair: c > 0 makes PGD part of training."""
    rng = np.random.default_rng(4)
    centers = np.eye(3, 8) * 0.3 + 0.05
    labels = np.repeat(np.arange(3), 24)
    features = np.clip(centers[labels] + 0.05 * rng.standard_normal((72, 8)), 0.0, 1.0)
    return split(Dataset(features=features, labels=labels, box=(0.0, 1.0)), 1.0 / 6.0, seed=3)


class TestSweeps:
    def test_clipping_sweep_shape_and_determinism(self, sweep_split, sweep_settings):
        base = OptimizerConfig(eta=1.0, steps=20, seed=3)
        args = (
            *sweep_split,
            [0.0, 0.05],
            [0.5, 2.0],
            base,
            replace(sweep_settings, curvature_examples=64, curvature_iters=150),
        )
        table = clipping_smoothness_curve(*args)
        columns = table.columns()
        assert columns["c"] == (0.0, 0.0, 0.05, 0.05)
        assert columns["k_or_epsilon"] == (0.5, 2.0, 0.5, 2.0)
        assert len(table.cells) == 4
        assert not any(cell.diverged for cell in table.cells)
        assert all(0.0 <= cell.test_accuracy <= 1.0 for cell in table.cells)
        assert all(np.isfinite(cell.lambda_max) for cell in table.cells)
        again = clipping_smoothness_curve(*args)
        assert again.columns() == table.columns()

    @pytest.mark.parametrize(
        "data, expected_jobs",
        [
            # the c > 0 row first
            ("binary", [(1, [0, 1]), (0, [0, 1])]),
            # each cell is a job of its own, the attacked cells first
            ("attacked multiclass", [(1, [0]), (1, [1]), (0, [0]), (0, [1])]),
        ],
        ids=["binary", "attacked multiclass"],
    )
    def test_parallel_matches_serial(self, sweep_split, box_split, sweep_settings, monkeypatch,
                                     data, expected_jobs):
        base = OptimizerConfig(eta=1.0, steps=10, seed=3, attack_steps=2)
        settings = replace(sweep_settings, curvature_examples=32, curvature_iters=100,
                           eval_attack_steps=2)
        pools, sent = [], []

        class CountedPool(ProcessPoolExecutor):
            def __init__(self, processes, **kwargs):
                pools.append(processes)
                super().__init__(processes, **kwargs)

            def map(self, fn, items):
                items = list(items)
                sent.append([(row, list(cols)) for row, _, cols in items])
                return super().map(fn, items)

        monkeypatch.setattr(jobs, "ProcessPoolExecutor", CountedPool)
        split_data = sweep_split if data == "binary" else box_split
        tables = []
        for cpus in (1, 2):  # one CPU runs the jobs here, two on two processes
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            tables.append(
                clipping_smoothness_curve(*split_data, [0.0, 0.05], [0.5, 2.0], base, settings)
            )
        serial, parallel = tables
        assert pools == [2]
        assert sent == [expected_jobs]
        assert [(cell.row, cell.col) for cell in serial.cells] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert not any(cell.diverged for cell in serial.cells)
        assert serial.cells == parallel.cells
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "cpus, c_grid, data",
        [(1, [0.0, 0.05], "binary"), (4, [0.05], "binary"), (1, [0.0, 0.05], "attacked")],
        ids=["one cpu", "one row", "one cpu, attacked"],
    )
    def test_one_process_starts_none(self, sweep_split, box_split, sweep_settings, monkeypatch,
                                     cpus, c_grid, data):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)

        def no_pool(*args, **kwargs):
            raise AssertionError("the sweep started a process pool")

        monkeypatch.setattr(jobs, "ProcessPoolExecutor", no_pool)
        base = OptimizerConfig(eta=1.0, steps=5, seed=3, attack_steps=2)
        settings = replace(sweep_settings, curvature_examples=16, curvature_iters=20,
                           eval_attack_steps=2)
        split_data = sweep_split if data == "binary" else box_split
        table = clipping_smoothness_curve(*split_data, c_grid, [0.5, 2.0], base, settings)
        assert len(table.cells) == 2 * len(c_grid)

    def test_privacy_sweep_calibrates_noise(self, sweep_split, sweep_settings):
        base = OptimizerConfig(eta=0.5, steps=10, clip_k=1.0, seed=3)
        table = privacy_smoothness_curve(
            *sweep_split,
            [0.0],
            [2.0, 20.0],
            base,
            replace(sweep_settings, curvature_examples=32, curvature_iters=100),
            1e-5,
        )
        assert [cell.knob for cell in table.cells] == [2.0, 20.0]
        by_eps = {cell.knob: cell for cell in table.cells}
        # more budget, less noise: the low-epsilon model is farther from the
        # noiseless solution in norm than the high-epsilon one on average;
        # just require both cells scored and distinct
        assert by_eps[2.0].lambda_max != by_eps[20.0].lambda_max

    def test_privacy_sweep_requires_finite_clip(self, sweep_split, sweep_settings):
        base = OptimizerConfig(eta=0.5, steps=10, seed=3)
        with pytest.raises(ValueError, match="clip_k"):
            privacy_smoothness_curve(*sweep_split, [0.0], [2.0], base, sweep_settings, 1e-5)

    def test_empty_grids_rejected(self, sweep_split, sweep_settings):
        base = OptimizerConfig(eta=0.5, steps=10, seed=3)
        with pytest.raises(ValueError, match="grids"):
            clipping_smoothness_curve(*sweep_split, [], [1.0], base, sweep_settings)
        with pytest.raises(ValueError, match="grids"):
            privacy_smoothness_curve(
                *sweep_split, [0.0], [], OptimizerConfig(eta=0.5, steps=10, clip_k=1.0),
                sweep_settings, 1e-5,
            )


_BLAS = jobs._openblas_threads()


@pytest.fixture()
def blas_threads():
    """Sets the loaded OpenBLAS's thread count; gives the old count back
    after the test."""
    if _BLAS is None:
        pytest.skip("no OpenBLAS thread control is loaded (another BLAS, or no /proc/self/maps)")
    get, set_ = _BLAS
    before = get()

    def set_threads(count):
        set_(count)
        if get() != count:
            pytest.skip(f"OpenBLAS does not run {count} threads here")

    yield set_threads
    set_(before)


class RowFault(Exception):
    pass


class TestBlasThreads:
    def test_a_row_runs_one_thread_and_gives_the_count_back(
        self, sweep_split, sweep_settings, monkeypatch, blas_threads
    ):
        get = _BLAS[0]
        # one CPU: the rows run in this process, where the count can be read
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        seen = []
        real = curvature.train_stack

        def spy(dataset, configs):
            seen.append(get())
            return real(dataset, configs)

        def fault(dataset, configs):
            raise RowFault()

        base = OptimizerConfig(eta=1.0, steps=5, seed=3)
        settings = replace(sweep_settings, curvature_examples=16, curvature_iters=20)
        blas_threads(2)
        monkeypatch.setattr(curvature, "train_stack", spy)
        clipping_smoothness_curve(*sweep_split, [0.0, 0.05], [0.5], base, settings)
        assert seen == [1, 1]
        assert get() == 2
        monkeypatch.setattr(curvature, "train_stack", fault)
        with pytest.raises(RowFault):
            clipping_smoothness_curve(*sweep_split, [0.0, 0.05], [0.5], base, settings)
        assert get() == 2

    def test_attacked_sweep_csv_does_not_depend_on_the_blas_threads(self, tmp_path, blas_threads):
        rng = np.random.default_rng(4)
        images, labels = str(tmp_path / "images.idx"), str(tmp_path / "labels.idx")
        write_idx(rng.uniform(0.0, 1.0, size=(48, 3, 3)), rng.integers(0, 3, size=48),
                  images, labels)
        params = {"images": images, "labels": labels, "c_grid": "0,0.05", "k_grid": "0.5,2",
                  "steps": "4", "attack_steps": "2", "eval_attack_steps": "2",
                  "curvature_examples": "16", "curvature_iters": "30"}
        outputs = []
        for threads in (1, 2):
            blas_threads(threads)
            out = tmp_path / f"blas{threads}"
            run_experiment(ExperimentConfig("fig8-sweep", str(out), (0,), params))
            outputs.append((out / artifact_name("fig8-sweep")).read_bytes())
        assert outputs[0] == outputs[1]
        assert b"0.05" in outputs[0]  # the attacked row was swept


def test_sweep_settings_are_said_once():
    """The sweep entries take every setting from their caller, and each
    SweepSettings field is the [params] key of the sweep kinds that it is
    read from, so the kinds' table holds the only defaults."""
    for entry in (clipping_smoothness_curve, privacy_smoothness_curve):
        for parameter in inspect.signature(entry).parameters.values():
            assert parameter.default is inspect.Parameter.empty, (entry.__name__, parameter)
    settings = dataclasses.fields(SweepSettings)
    for field in settings:
        assert field.default is dataclasses.MISSING, field.name
        assert field.default_factory is dataclasses.MISSING, field.name
    assert {field.name for field in settings} <= set(experiments._COMMON_SWEEP)
