"""Verification of experiment artifacts.

Every check is computed purely from the files an experiment wrote (its one
CSV artifact plus the manifest); nothing is retrained.  Failures are report
content, not exceptions.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .data import read_table
from .errors import DataFormatError
from .experiments import MANIFEST_NAME, artifact_name


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str  # the observed quantity, for the human reading the report


@dataclass(frozen=True)
class VerifyReport:
    kind: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def lines(self) -> list:
        out = [f"kind: {self.kind}"]
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            out.append(f"{status} {check.name}: {check.measured}")
        verdict = "all checks passed" if self.passed else "violations found"
        out.append(f"result: {verdict}")
        return out


class _Read(dict):
    """The values read from one file; a missing key raises DataFormatError."""

    def __init__(self, source, values):
        super().__init__(values)
        self.source = source

    def __missing__(self, key):
        raise DataFormatError(f"{self.source} has no {key!r}")


def _check(name, passed, measured) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), measured=measured)


def _below_bound(table, loss_col, bound_col, se_col=None):
    loss = table[loss_col]
    allowance = table[bound_col] + 1e-9
    if se_col is not None:
        allowance = allowance + 2.0 * table[se_col]
    excess = loss - allowance
    worst = float(excess.max())
    t_worst = int(table["t"][int(excess.argmax())])
    return _check(
        f"{loss_col} <= {bound_col} (+2 se)",
        worst <= 0.0,
        f"max excess {worst:.3e} at t={t_worst}",
    )


def _verify_fig1(table, params):
    return [
        _below_bound(table, "loss_nominal", "bound_nominal"),
        _below_bound(table, "loss_private", "bound_private", "se_private"),
        _below_bound(table, "loss_robust", "bound_robust"),
        _below_bound(
            table, "loss_robust_private", "bound_robust_private", "se_robust_private"
        ),
    ]


def _verify_fig2(table, params):
    ts = table["t"]
    checks = []
    anchor = int(np.argmin(np.abs(ts - 10.0)))
    last = int(np.argmax(ts))
    private_cols = [name for name in table if name.startswith("gap_private_")]
    # the tends-to-zero claim is checked on the curves the figure shows: the
    # noiseless gap and the private gap at its own dimension (first column);
    # at much larger d the constant noise floor eta*d*sigma^2 dominates
    decay_cols = ["gap_nonprivate"] + private_cols[:1]
    for name in decay_cols:
        ratio = table[name][last] / table[name][anchor]
        checks.append(
            _check(
                f"{name} decays (t={int(ts[last])} vs t={int(ts[anchor])})",
                ratio < 0.10,
                f"ratio {ratio:.4f}",
            )
        )
    for name in private_cols:
        deficit = float((table[name] - table["gap_nonprivate"]).min())
        checks.append(
            _check(
                f"{name} >= gap_nonprivate pointwise",
                deficit >= -1e-9,
                f"min difference {deficit:.3e}",
            )
        )
    if len(private_cols) >= 2:
        t100 = int(np.argmin(np.abs(ts - 100.0)))
        values = [float(table[name][t100]) for name in private_cols]
        increasing = all(b > a for a, b in zip(values, values[1:]))
        checks.append(
            _check(
                f"private gap increases with d at t={int(ts[t100])}",
                increasing,
                "values " + ", ".join(f"{v:.4f}" for v in values),
            )
        )
    return checks


def _verify_fig3(table, params):
    ts = table["t"]
    robust = table["bound_robust"]
    rus = table["bound_robust_under_standard"]
    above = np.nonzero(robust >= rus)[0]
    crossover = int(ts[above[-1]] + 1) if above.size else int(ts[0])
    crossed = bool(robust[-1] < rus[-1]) and (above.size == 0 or above[-1] < len(ts) - 1)
    checks = [
        _check(
            "worst-case-training bound ends below the plain-training bound",
            crossed,
            f"crossover at t={crossover}",
        )
    ]
    if len(ts) >= 4:
        mid = len(ts) // 2
        slope = (rus[-1] - rus[mid]) / (ts[-1] - ts[mid])
        ratio = slope / (params["c"] * params["eta"])
        checks.append(
            _check(
                "plain-training bound grows linearly at rate c*eta",
                0.8 <= ratio <= 1.2,
                f"tail slope / (c*eta) = {ratio:.4f}",
            )
        )
    checks.append(
        _check(
            "trained worst-case loss ends below the plainly trained one",
            table["adv_loss_adversarial_training"][-1]
            < table["adv_loss_standard_training"][-1],
            f"{table['adv_loss_adversarial_training'][-1]:.4f} vs "
            f"{table['adv_loss_standard_training'][-1]:.4f}",
        )
    )
    return checks


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n of values, each tie sharing the mean of its ranks (the
    'average' method of SciPy's rankdata)."""
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]
    starts = np.r_[True, sorted_values[1:] != sorted_values[:-1]]
    group = np.empty(len(values), dtype=np.intp)
    group[order] = np.cumsum(starts)
    bounds = np.r_[np.flatnonzero(starts), len(values)]
    return 0.5 * (bounds[group] + bounds[group - 1] + 1)


def _spearman_check(table, a, b, want_positive, name):
    """Sign of the rank correlation of columns a and b.  Undefined (and not
    passed) when fewer than 2 rows are left, a column holds a NaN or a
    column is constant."""
    title = f"spearman({name}) {'>' if want_positive else '<'} 0"
    rows = len(table[a])
    if rows < 2:
        return _check(title, False, f"coefficient undefined: {rows} row(s) left, need 2")
    with_nan = " and ".join(col for col in (a, b) if np.isnan(table[col]).any())
    if with_nan:
        return _check(title, False, f"coefficient undefined: NaN in column {with_nan}")
    constant = [col for col in (a, b) if np.all(table[col] == table[col][0])]
    if constant:
        columns = " and ".join(f"{col} (all {table[col][0]:g})" for col in constant)
        return _check(title, False, f"coefficient undefined: constant column {columns}")
    # Pearson's coefficient of the ranks, as SciPy's spearmanr computes it
    coeff = float(np.corrcoef(_average_ranks(table[a]), _average_ranks(table[b]))[1, 0])
    passed = coeff > 0 if want_positive else coeff < 0
    return _check(title, passed, f"coefficient {coeff:.4f}")


def _trained_rows(table):
    """The sweep's rows without the diverged cells."""
    keep = table["diverged"] == 0
    return _Read(table.source, {name: column[keep] for name, column in table.items()})


def _verify_fig8(table, params):
    table = _trained_rows(table)
    return [
        _spearman_check(table, "lambda_max", "c", True, "lambda_max, c"),
        _spearman_check(table, "lambda_max", "k_or_epsilon", False, "lambda_max, clip k"),
        _spearman_check(
            table, "test_accuracy", "lambda_max", False, "test accuracy, lambda_max"
        ),
    ]


def _verify_fig9(table, params):
    # No lambda-vs-c check here: DP noise dominates curvature in this sweep,
    # so the budget effect is only claimed for the noiseless clipping sweep.
    table = _trained_rows(table)
    return [
        _spearman_check(table, "lambda_max", "k_or_epsilon", False, "lambda_max, epsilon"),
        _spearman_check(
            table, "test_accuracy", "lambda_max", False, "test accuracy, lambda_max"
        ),
    ]


def _verify_bounds_only(table, params):
    checks = []
    finite = all(np.all(np.isfinite(col)) for col in table.values())
    checks.append(_check("all bound values finite", finite, f"finite={finite}"))
    positive = all(
        float(col.min()) > 0 for name, col in table.items() if name.startswith("bound_")
    )
    checks.append(_check("all bound values positive", positive, f"positive={positive}"))
    pairs = [
        ("bound_private", "bound_nominal"),
        ("bound_robust_private", "bound_robust"),
    ]
    for upper, lower in pairs:
        deficit = float((table[upper] - table[lower]).min())
        checks.append(
            _check(
                f"{upper} >= {lower} pointwise",
                deficit >= -1e-12,
                f"min difference {deficit:.3e}",
            )
        )
    return checks


def _verify_attack_eval(table, params):
    checks = []
    in_range = all(
        0.0 <= float(table[col].min()) and float(table[col].max()) <= 1.0
        for col in ("acc_standard", "acc_adversarial")
    )
    checks.append(_check("accuracies lie in [0, 1]", in_range, f"in_range={in_range}"))
    slack = 1.5 / float(params["n"])
    for measured, exact in (
        ("acc_standard", "exact_acc_standard"),
        ("acc_adversarial", "exact_acc_adversarial"),
    ):
        diff = float(np.abs(table[measured] - table[exact]).max())
        checks.append(
            _check(
                f"{measured} matches the closed form",
                diff <= slack,
                f"max |difference| {diff:.4f}",
            )
        )
    idx = int(np.argmin(np.abs(table["budget"] - float(params["c_train"]))))
    improvement = float(table["improvement"][idx])
    checks.append(
        _check(
            "worst-case training does not hurt at its own budget",
            improvement >= -slack,
            f"improvement {improvement:.4f} at budget {table['budget'][idx]:g}",
        )
    )
    return checks


_VERIFIERS = {
    "fig1-convergence": _verify_fig1,
    "fig2-gap": _verify_fig2,
    "fig3-robust-compare": _verify_fig3,
    "fig8-sweep": _verify_fig8,
    "fig9-sweep": _verify_fig9,
    "bounds-only": _verify_bounds_only,
    "attack-eval": _verify_attack_eval,
}


def verify_report(run_dir) -> VerifyReport:
    """Check an experiment output directory against the claims its kind is
    supposed to exhibit.  A column of the artifact or a key of the manifest
    that a check reads and the files lack raises DataFormatError."""
    manifest_path = os.path.join(run_dir, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {run_dir}")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    kind = manifest.get("kind", "")
    verifier = _VERIFIERS.get(kind)
    if verifier is None:
        raise ValueError(f"manifest names unknown experiment kind {kind!r}")
    csv_path = os.path.join(run_dir, artifact_name(kind))
    params = _Read(f"{manifest_path} [params]", manifest.get("params", {}))
    checks = verifier(_Read(csv_path, read_table(csv_path)), params)
    return VerifyReport(kind=kind, checks=tuple(checks))
