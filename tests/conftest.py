import dataclasses

import numpy as np
import pytest

from rpopt import experiments
from rpopt.curvature import SweepSettings
from rpopt.data import generate_separable, write_idx


@pytest.fixture(scope="session")
def digits_idx(tmp_path_factory):
    """The bundled 8x8 digit images written out as an IDX pair.

    Serves as the multi-class image dataset for sweep tests; going through
    write_idx/load_idx keeps the binary-format path exercised.
    """
    datasets = pytest.importorskip("sklearn.datasets")
    bunch = datasets.load_digits()
    images = bunch.images / 16.0  # integer pixel range 0..16
    root = tmp_path_factory.mktemp("digits")
    images_path = str(root / "images.idx")
    labels_path = str(root / "labels.idx")
    write_idx(images, bunch.target, images_path, labels_path)
    return images_path, labels_path


@pytest.fixture(scope="session")
def small_binary():
    return generate_separable(d=6, n=80, gamma=0.3, seed=1)


@pytest.fixture(scope="session")
def sweep_settings():
    """The fig8/fig9 kinds' default scoring settings, for calling the sweep
    entries directly."""
    defaults = experiments._COMMON_SWEEP
    return SweepSettings(**{
        **{field.name: defaults[field.name] for field in dataclasses.fields(SweepSettings)},
        "p": experiments.parse_p(defaults["p"]),
    })


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
