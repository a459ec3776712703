"""Output checks: artifact fingerprints and the recorded reference values.

A pass's artifacts must be byte-identical to the first pass of the same
run (the package promises determinism).  For seeds with a recorded
reference, CSV values must also match it within a per-column tolerance
derived from how the column is computed; byte-equality with the reference
is only counted.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
SAMPLED_ROWS = 25  # rows kept per CSV in the reference, evenly spaced

# Fixed-step training has no solver tolerance; its columns may move only by
# summation-order rounding accumulated over the steps.
TRAINED_RTOL = 1e-8
# Closed-form bound columns and anything else computed directly.
ROUNDING_RTOL = 1e-12
TRAINED_COLUMNS = {
    "theta_norm",
    "loss_nominal", "loss_private", "se_private", "loss_robust",
    "loss_robust_private", "se_robust_private",
    "adv_loss_adversarial_training", "adv_loss_standard_training",
}


def fingerprints(out_root: str) -> dict:
    """sha256 of every file under ``out_root``, keyed by relative path."""
    prints = {}
    for folder, _, files in os.walk(out_root):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                prints[os.path.relpath(path, out_root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(prints.items()))


def _read_csv(path: str) -> tuple[list, list]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _sample(count: int) -> list:
    if count <= SAMPLED_ROWS:
        return list(range(count))
    step = (count - 1) / (SAMPLED_ROWS - 1)
    return sorted({round(i * step) for i in range(SAMPLED_ROWS)})


def reference_entry(out_root: str, relpath: str, digest: str) -> dict:
    """What the reference keeps for one artifact: its digest and, for a CSV,
    the values of every column at the sampled rows."""
    entry = {"sha256": digest}
    if relpath.endswith(".csv"):
        header, rows = _read_csv(os.path.join(out_root, relpath))
        picked = _sample(len(rows))
        entry["rows"] = picked
        entry["row_count"] = len(rows)
        entry["columns"] = {
            name: [_encode(rows[r][j]) for r in picked] for j, name in enumerate(header)
        }
    return entry


def _encode(value: float):
    return value if math.isfinite(value) else repr(value)


def _tolerance(column: str, params: dict) -> float:
    """Relative tolerance (scaled by max(1, |reference|)) for a column."""
    if column == "lambda_max":
        # power iteration certifies |lambda - lambda*| <= tol * max(1, |lambda|);
        # two certified estimates differ by at most twice that
        return 2.0 * float(params["curvature_tol"])
    if column in TRAINED_COLUMNS:
        return TRAINED_RTOL
    if column.startswith(("bound_", "gap_")):
        return ROUNDING_RTOL
    return 0.0  # grid values, counts, flags and accuracies are exact


def compare(out_root: str, relpath: str, entry: dict) -> list:
    """Differences between an artifact and its reference entry, as text."""
    if not relpath.endswith(".csv"):
        return []
    header, rows = _read_csv(os.path.join(out_root, relpath))
    if len(rows) != entry["row_count"] or set(header) != set(entry["columns"]):
        return [f"{relpath}: shape {len(rows)} rows x {header} differs from the reference"]
    manifest_path = os.path.join(out_root, os.path.dirname(relpath), "manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        params = json.load(fh)["params"]
    converged = entry["columns"].get("converged")
    problems = []
    for j, name in enumerate(header):
        rtol = _tolerance(name, params)
        for k, r in enumerate(entry["rows"]):
            want, got = float(entry["columns"][name][k]), rows[r][j]
            if name == "lambda_max" and converged is not None and not converged[k]:
                continue  # an unconverged estimate carries no tolerance to hold
            if math.isnan(want) and math.isnan(got):
                continue
            if not abs(got - want) <= rtol * max(1.0, abs(want)):
                problems.append(f"{relpath}: {name}[row {r}] = {got!r}, reference {want!r}")
    return problems


def load_reference(workload: str, seed: int) -> dict | None:
    """Reference entries for (workload, seed), or None if none is recorded."""
    if not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)
    if reference.get("seed") != seed:
        return None
    return reference["workloads"].get(workload)
