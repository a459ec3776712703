"""Dataset container, synthetic generators, CSV / IDX file loading, and
the table format every artifact CSV is written and read in.

All features live in the unit ball: every row of ``features`` has Euclidean
norm at most 1.  Binary labels are stored as {-1, +1}; multi-class labels as
class indices in [0, num_classes).
"""

from __future__ import annotations

import csv
import logging
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError

logger = logging.getLogger(__name__)

_NORM_TOL = 1e-9  # slack on the unit-ball check, covers accumulated rounding
_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Immutable feature/label container.

    Attributes:
        features: (n, d) float64 array, every row norm <= 1.
        labels: (n,) int64 array; {-1, +1} for binary, {0..C-1} otherwise.
        separator: optional unit vector certifying linear separability.
        margin: optional minimum of y_i * <x_i, separator> over the data.
        box: optional (lo, hi) coordinate-wise domain, e.g. (0, 1) for images.
        num_classes: the class count C, fixed at construction; None for
            binary data.  Left as None it is inferred from the labels:
            {-1, +1} labels are binary, others give max + 1.  Subsets pass
            their parent's count, so a part that lacks the top class, or
            whose labels are all 1, keeps the parent's C classes.
    """

    features: np.ndarray
    labels: np.ndarray
    separator: np.ndarray | None = None
    margin: float | None = None
    box: tuple[float, float] | None = None
    num_classes: int | None = None

    def __post_init__(self):
        features = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.asarray(self.labels)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ValueError("labels must be 1-D with one entry per feature row")
        if features.shape[0] == 0:
            raise ValueError("dataset must contain at least one example")
        if not np.all(np.isfinite(features)):
            raise ValueError("features must be finite")
        norms = np.linalg.norm(features, axis=1)
        worst = float(norms.max())
        if worst > 1.0 + _NORM_TOL:
            raise ValueError(f"feature row norm {worst} exceeds 1")
        if np.any(labels != np.floor(labels)):
            raise ValueError("labels must be integers")
        labels = labels.astype(np.int64)
        values = set(np.unique(labels).tolist())
        if not (values <= {-1, 1} or all(v >= 0 for v in values)):
            raise ValueError(
                "labels must be {-1,+1} (binary) or non-negative class indices"
            )
        if self.num_classes is None:
            if not values <= {-1, 1}:
                object.__setattr__(self, "num_classes", max(values) + 1)
        elif min(values) < 0 or max(values) >= self.num_classes:
            raise ValueError(f"multi-class labels must lie in [0, {self.num_classes})")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        if self.separator is not None:
            separator = np.asarray(self.separator, dtype=np.float64).reshape(-1)
            if separator.shape[0] != features.shape[1]:
                raise ValueError("separator dimension mismatch")
            if abs(np.linalg.norm(separator) - 1.0) > 1e-12:
                raise ValueError("separator must be a unit vector")
            object.__setattr__(self, "separator", separator)
            if self.margin is not None:
                if not self.is_binary:
                    raise ValueError("margin certificates require binary labels")
                achieved = float(np.min(labels * (features @ separator)))
                if achieved < self.margin - 1e-12:
                    raise ValueError(
                        f"stated margin {self.margin} not achieved (min {achieved})"
                    )
        elif self.margin is not None:
            raise ValueError("margin requires a separator")
        # freeze the arrays: every cell trained on this dataset reads the same ones
        self.features.flags.writeable = False
        self.labels.flags.writeable = False

    def __reduce__(self):
        # the dataclass default would restore the fields as they unpickle,
        # writeable; this rebuilds the copy through the constructor instead
        return (_unpickled_dataset, (self.features, self.labels, self.separator,
                                     self.margin, self.box, self.num_classes))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def is_binary(self) -> bool:
        return self.num_classes is None


def _unpickled_dataset(features, labels, *rest) -> Dataset:
    """A pickled Dataset, checked and frozen again by its constructor.  An
    unpickled array may view the pickle's bytes, so the features are copied
    into an array of their own, as the constructor's int64 cast copies the
    labels, and ``attacks._frozen`` holds for both."""
    return Dataset(features.astype(np.float64), labels, *rest)


def _unit_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(d)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def _balanced_labels(rng: np.random.Generator, n: int) -> np.ndarray:
    # ceil(n/2) positives, floor(n/2) negatives, order shuffled
    labels = np.concatenate([np.ones((n + 1) // 2), -np.ones(n // 2)])
    return labels[rng.permutation(n)].astype(np.int64)


def check_margin(gamma: float) -> float:
    """Return the margin gamma if it lies in (0, 1]: no unit-ball point
    attains a larger one."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    return gamma


def generate_separable(d: int, n: int, gamma: float, seed: int) -> Dataset:
    """Sample n unit-ball points linearly separable with margin gamma.

    A random unit direction u is drawn, labels are balanced, and points are
    rejection-sampled uniformly from the unit ball until |<x, u>| >= gamma,
    then reflected onto the side matching their label.  gamma = 1 is the
    degenerate boundary case where the only admissible points are +/- u.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    check_margin(gamma)
    rng = np.random.default_rng(seed)
    u = _unit_vector(rng, d)
    labels = _balanced_labels(rng, n)
    if gamma == 1.0:
        features = labels[:, None] * u[None, :]
    else:
        rows = []
        attempts = 0
        batch = max(4 * n, 1024)
        while len(rows) < n:
            attempts += batch
            if attempts > 20_000_000:
                raise ValueError(
                    f"rejection sampling at gamma={gamma}, d={d} accepts too rarely; "
                    "use gamma=1.0 for the degenerate case"
                )
            z = rng.standard_normal((batch, d))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            z *= rng.uniform(size=(batch, 1)) ** (1.0 / d)
            dots = z @ u
            keep = np.abs(dots) >= gamma
            for point, dot in zip(z[keep], dots[keep]):
                rows.append(point * np.sign(dot))
                if len(rows) == n:
                    break
        features = labels[:, None] * np.asarray(rows)
    achieved = float(np.min(labels * (features @ u)))
    return Dataset(
        features=features,
        labels=labels,
        separator=u,
        margin=achieved,
    )


def generate_equal_margin(
    d: int, n: int, margin: float, jitter: float, seed: int
) -> Dataset:
    """Separable data where every example sits exactly at the stated margin.

    Points take the form x_i = y_i * (margin * u + jitter * xi_i) with the
    jitter vectors orthogonal to u and arranged in exact +/- pairs so they
    cancel in any mean.  Useful for curvature studies: the whole ray along u
    is stationary for the robust loss with budget c = margin.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be an even number >= 2")
    if margin <= 0:
        raise ValueError("margin must be positive")
    if jitter < 0:
        raise ValueError("jitter must be non-negative")
    if margin**2 + jitter**2 > 1.0:
        raise ValueError("margin and jitter place points outside the unit ball")
    rng = np.random.default_rng(seed)
    u = _unit_vector(rng, d)
    xis = np.empty((n, d))
    for j in range(n // 2):
        v = rng.standard_normal(d)
        v -= (v @ u) * u
        norm = np.linalg.norm(v)
        if norm < 1e-12:  # essentially impossible for d >= 2, retry cheaply
            v = _unit_vector(rng, d)
            v -= (v @ u) * u
            norm = np.linalg.norm(v)
        v /= norm
        xis[2 * j] = v
        xis[2 * j + 1] = -v
    labels = _balanced_labels(rng, n)
    features = labels[:, None] * (margin * u[None, :] + jitter * xis)
    achieved = float(np.min(labels * (features @ u)))
    return Dataset(
        features=features,
        labels=labels,
        separator=u,
        margin=achieved,
    )


def split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic train/test split; both parts must be nonempty."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    n_test = int(round(dataset.n * test_fraction))
    if n_test == 0 or n_test == dataset.n:
        raise ValueError("split leaves an empty part")
    perm = np.random.default_rng(seed).permutation(dataset.n)
    test_idx, train_idx = perm[:n_test], perm[n_test:]

    def take(idx):
        feats = dataset.features[idx]
        labs = dataset.labels[idx]
        margin = None
        if dataset.separator is not None and dataset.is_binary:
            margin = float(np.min(labs * (feats @ dataset.separator)))
        return Dataset(
            features=feats,
            labels=labs,
            separator=dataset.separator,
            margin=margin,
            box=dataset.box,
            num_classes=dataset.num_classes,
        )

    return take(train_idx), take(test_idx)


def load_csv(path: str, limit: int = 0) -> Dataset:
    """Load a dataset from CSV (header row, a ``label`` column as written by
    :func:`save_csv`, float features), read by :func:`read_table`.

    ``limit`` keeps the first that many data rows, and 0 keeps every one;
    every row is still parsed, and the result is that of loading a file of
    only the kept rows.  If any kept row norm exceeds 1, all kept rows are
    rescaled by their maximum row norm; the factor is reported through the
    module logger.
    """
    if limit < 0:
        raise DataFormatError("limit must be >= 0 (0: every example)")
    table = read_table(path)
    if "label" not in table:
        raise DataFormatError(f"{path}: header has no 'label' column")
    if limit:
        table = {name: column[:limit] for name, column in table.items()}
    labels = table.pop("label")
    if not table:
        raise DataFormatError(f"{path}: no feature columns")
    if not labels.size:
        raise DataFormatError(f"{path}: no data rows")
    fractional = np.flatnonzero(~(np.isfinite(labels) & (labels == np.floor(labels))))
    if fractional.size:
        row = fractional[0]
        raise DataFormatError(f"{path}:{row + 2}: label {labels[row]:g} is not an integer")
    features = np.column_stack(list(table.values()))
    max_norm = float(np.linalg.norm(features, axis=1).max())
    if max_norm > 1.0 + 1e-12:
        features = features / max_norm
        logger.warning("%s: rescaled all rows by 1/%.17g to fit the unit ball", path, max_norm)
    return Dataset(
        features=features,
        labels=labels.astype(np.int64),
    )


def save_csv(dataset: Dataset, path: str) -> None:
    """Write ``label,f0,...,f{d-1}`` rows; inverse of load_csv for valid data."""
    header = ["label"] + [f"f{i}" for i in range(dataset.dim)]
    write_table(path, header, ([int(y), *x] for y, x in zip(dataset.labels, dataset.features)))


def write_table(path, header, rows) -> None:
    """Write a header row, then one CSV row per entry of ``rows``.

    Integers are written as integers and every other value as a float with
    17 significant digits, which read_table parses back bit for bit.  This
    is the one format of every artifact CSV.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [
                    (
                        str(v)
                        if isinstance(v, (int, np.integer))
                        else f"{float(v):.17g}"
                    )
                    for v in row
                ]
            )


def read_table(path) -> dict:
    """CSV as a dict of named float64 columns (header row required, names
    stripped).  A bad row raises DataFormatError naming "path:line"."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [name.strip() for name in next(reader)]
        except StopIteration:
            raise DataFormatError(f"{path}: empty CSV") from None
        rows = list(reader)
    if len(set(header)) != len(header):
        raise DataFormatError(f"{path}: repeated column name in header {header}")
    columns = {}
    for idx, name in enumerate(header):
        values = []
        for line_no, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                values.append(float(row[idx]))
            except ValueError:
                raise DataFormatError(
                    f"{path}:{line_no}: non-numeric value {row[idx]!r} "
                    f"in column {name!r}"
                ) from None
        columns[name] = np.asarray(values, dtype=np.float64)
    return columns


def _read_idx_header(handle, path, expected_magic, expected_dims):
    raw = handle.read(4 * (1 + expected_dims))
    if len(raw) != 4 * (1 + expected_dims):
        raise DataFormatError(f"{path}: truncated IDX header")
    values = struct.unpack(f">{1 + expected_dims}i", raw)
    if values[0] != expected_magic:
        raise DataFormatError(
            f"{path}: bad magic number {values[0]:#010x}, expected {expected_magic:#010x}"
        )
    return values[1:]


def load_idx(images_path: str, labels_path: str, limit: int = 0) -> Dataset:
    """Load an IDX image/label pair (big-endian, magic 0x803 / 0x801).

    Pixels are scaled to [0, 1]; any flattened image with norm above 1 is
    divided by its own norm.  ``limit`` keeps at most that many examples,
    and 0 keeps every one.  IDX labels are class indices, so the dataset is
    multi-class whatever labels the kept examples carry, with the class
    count of the whole label file.
    """
    if limit < 0:
        raise DataFormatError("limit must be >= 0 (0: every example)")
    with open(images_path, "rb") as handle:
        n, rows, cols = _read_idx_header(handle, images_path, _IDX_IMAGES_MAGIC, 3)
        pixel_data = handle.read(n * rows * cols)
        if len(pixel_data) != n * rows * cols:
            raise DataFormatError(f"{images_path}: truncated pixel data")
    with open(labels_path, "rb") as handle:
        (n_labels,) = _read_idx_header(handle, labels_path, _IDX_LABELS_MAGIC, 1)
        label_data = handle.read(n_labels)
        if len(label_data) != n_labels:
            raise DataFormatError(f"{labels_path}: truncated label data")
    if n != n_labels:
        raise DataFormatError(
            f"image count {n} ({images_path}) != label count {n_labels} ({labels_path})"
        )
    keep = min(limit, n) if limit else n
    images = np.frombuffer(pixel_data, dtype=np.uint8).reshape(n, rows * cols)
    features = images[:keep].astype(np.float64) / 255.0
    norms = np.linalg.norm(features, axis=1)
    large = norms > 1.0
    features[large] /= norms[large, None]
    labels = np.frombuffer(label_data, dtype=np.uint8).astype(np.int64)
    return Dataset(
        features=features,
        labels=labels[:keep],
        box=(0.0, 1.0),
        num_classes=int(labels.max(initial=0)) + 1,
    )


def load_dataset(images, labels, csv_path, limit: int, names: tuple) -> Dataset | None:
    """The dataset of an IDX pair or of a CSV, at most ``limit`` examples
    (0: all), or None when no path is given.  Half a pair, or a pair and a CSV,
    raises ValueError naming the inputs by ``names`` (flags or config keys).
    """
    images_name, labels_name, csv_name = names
    if bool(images) != bool(labels):
        given, missing = (images_name, labels_name) if images else (labels_name, images_name)
        raise ValueError(f"{given} needs {missing}: an IDX pair is read together")
    if images and csv_path:
        raise ValueError(f"{images_name} and {csv_name} both name a dataset; give one")
    if images:
        return load_idx(images, labels, limit=limit)
    return load_csv(csv_path, limit=limit) if csv_path else None


def write_idx(images: np.ndarray, labels: np.ndarray, images_path: str, labels_path: str) -> None:
    """Write images (n, rows, cols) and labels (n,) in IDX format.

    Integer images must fit in a byte; float images are taken as intensities
    in [0, 1] and scaled to 0..255 (the format stores unsigned bytes).
    """
    images = np.asarray(images)
    if np.issubdtype(images.dtype, np.floating):
        if images.size and (images.min() < 0.0 or images.max() > 1.0):
            raise ValueError("float images must lie in [0, 1]")
        images = np.rint(images * 255.0).astype(np.uint8)
    else:
        if images.size and (images.min() < 0 or images.max() > 255):
            raise ValueError("integer images must lie in [0, 255]")
        images = images.astype(np.uint8)
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() > 255):
        raise ValueError("labels must lie in [0, 255]")
    labels = labels.astype(np.uint8)
    if images.ndim != 3 or labels.ndim != 1 or images.shape[0] != labels.shape[0]:
        raise ValueError("expected images (n, rows, cols) and labels (n,)")
    n, rows, cols = images.shape
    with open(images_path, "wb") as handle:
        handle.write(struct.pack(">4i", _IDX_IMAGES_MAGIC, n, rows, cols))
        handle.write(images.tobytes())
    with open(labels_path, "wb") as handle:
        handle.write(struct.pack(">2i", _IDX_LABELS_MAGIC, n))
        handle.write(labels.tobytes())
