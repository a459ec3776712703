"""Offline stand-in for the 8x8 handwritten-digits set.

Ten class prototypes plus pixel noise on an 8x8 grid, every pixel in the box
(0, 1).  The pair is written through ``rpopt.data.write_idx`` so the program
reads it back with ``load_idx`` exactly as it would read real IDX files.
"""

from __future__ import annotations

import numpy as np

N_IMAGES = 1797  # the size of scikit-learn's digits set
N_CLASSES = 10
SIDE = 8

# Pixel noise std.  At 0.4 a plain softmax model (300 full-batch steps at
# eta 2) reaches 0.96-0.97 test accuracy across seeds, about what a linear
# model gets on the real digits; at 0.2 it saturates at 1.0, and at 0.5 it
# falls to 0.87-0.90.
NOISE_STD = 0.4


def _prototypes(rng: np.random.Generator) -> np.ndarray:
    """Smooth random blobs, one per class, stretched to span [0, 1]."""
    raw = rng.uniform(size=(N_CLASSES, SIDE + 2, SIDE + 2))
    # 3x3 box filter: neighbouring pixels share strokes, as in real digits
    smooth = sum(
        raw[:, i : i + SIDE, j : j + SIDE] for i in range(3) for j in range(3)
    ) / 9.0
    lo = smooth.min(axis=(1, 2), keepdims=True)
    hi = smooth.max(axis=(1, 2), keepdims=True)
    return (smooth - lo) / (hi - lo)


def digits_like(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Images (N_IMAGES, 8, 8) in [0, 1] and labels (N_IMAGES,) in 0..9."""
    rng = np.random.default_rng([seed, 8])
    prototypes = _prototypes(rng)
    labels = rng.permutation(np.arange(N_IMAGES) % N_CLASSES)
    noise = NOISE_STD * rng.standard_normal((N_IMAGES, SIDE, SIDE))
    images = np.clip(prototypes[labels] + noise, 0.0, 1.0)
    return images, labels


def write_digits(write_idx, images_path: str, labels_path: str, seed: int) -> None:
    """Generate the set for ``seed`` and write it with the given IDX writer."""
    images, labels = digits_like(seed)
    write_idx(images, labels, images_path, labels_path)
