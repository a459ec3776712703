"""The benchmark tracer (``perfbench/tracer.py``) still sees the package.

The tracer resolves each target by module and name, reads some arguments
by position, and wraps module attributes, so it only sees calls made
through module globals.  A rename, a reordered parameter or a call through
a local alias would silently zero its counters.
"""

import importlib
import importlib.util
import inspect
import os
from dataclasses import replace

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def tracer_module():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_callable(tracer_module):
    for module_name, attr, _, _ in tracer_module.TARGETS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"


@pytest.mark.parametrize(
    "module_name, attr, index, name",
    [("rpopt.attacks", "pgd_batch", 3, "attack"), ("rpopt.optimizer", "clip_rows", 0, "grads")],
)
def test_positional_parameters_the_counters_read(module_name, attr, index, name):
    function = getattr(importlib.import_module(module_name), attr)
    assert list(inspect.signature(function).parameters)[index] == name


def test_traced_sweep_reaches_every_numeric_layer(tracer_module, sweep_settings, monkeypatch):
    from rpopt import curvature
    from rpopt.data import Dataset, split
    from rpopt.optimizer import OptimizerConfig

    # the tracer sees only its own process: one CPU keeps both rows in it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, size=(30, 4)) / 2.0
    dataset = Dataset(x, rng.integers(0, 3, size=30), box=(0.0, 1.0), num_classes=3)
    config = OptimizerConfig(eta=0.5, steps=3, attack_steps=2)
    settings = replace(sweep_settings, curvature_iters=5, eval_attack_steps=2)
    with tracer_module.Tracer() as tracer:
        curvature.clipping_smoothness_curve(
            *split(dataset, 1.0 / 6.0, seed=0), [0.0, 0.05], [1.0], config, settings
        )
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    assert calls["curvature.sweep"] == 1
    assert calls["attacks.pgd_batch"] > 0
    assert calls["curvature.attacked_max_eigenvalue"] == 1
    assert calls["curvature.power_iteration"] == 2
    # each eigen-solve builds one exact Hessian operator: no gradient passes
    assert calls["losses.multiclass_gradient"] == 0
    assert tracer.counters["attacks.pgd_evals"] > 0
    assert tracer.counters["curvature.power_iteration.iterations"] > 0


def test_traced_sweep_kind_is_seen_through_the_experiment(tracer_module, tmp_path):
    import rpopt.cli  # noqa: F401  (the tracer needs every target module imported)
    from rpopt import experiments

    params = {"n": "40", "steps": "2", "c_grid": "0", "k_grid": "1", "curvature_iters": "5"}
    config = experiments.ExperimentConfig("fig8-sweep", str(tmp_path / "fig8"), (0,), params)
    with tracer_module.Tracer() as tracer:
        experiments.run_experiment(config)
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    assert calls["experiments.run_experiment"] == 1
    assert calls["curvature.sweep"] == 1
    assert tracer.counters["curvature.cells"] == 1
