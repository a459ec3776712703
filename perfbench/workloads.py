"""The benchmark's workloads: the input files each one writes and the
sequence of ``rpopt`` CLI calls that makes one pass over them.

Every input derives from the workload seed, which seeds the generated data
and the experiments' own seeds.  The program sees only the files and INI
configs written here.

Why each workload exists, and which layers it loads:

mc-sweep
    fig8 and fig9 curvature sweeps on a digits-sized multiclass IDX pair
    (1797 images of 8x8 pixels, 10 classes, box (0, 1)).  This is the
    workload that matters: PGD inside training, the (n, C, d) per-example
    gradient tensor with ``clip_rows`` and the finite-difference softmax
    Hessian-vector product do most of the work.  The grid is the corner of
    each default grid (c in {0, 0.005}, k in {0.1, 3}, epsilon in
    {0.5, 50}) and ``steps`` is a fifth of each kind's default (60 and 30):
    at full defaults one 2x2 pass takes about 53 s on a 2-core Xeon, more
    than a run's budget allows, and fewer steps keep every per-step array
    shape of the full sweep.  The full 100-cell sweep (1615 s for fig8 plus
    fig9 on the same machine, under cProfile) is outside the benchmark;
    this workload is its reduced stand-in.
binary
    fig8 and fig9 at their binary defaults (separable d=20, n=600, 100
    cells each), then the training-curve kinds: fig1 (seeds start:20),
    fig3, attack-eval, fig2 and bounds-only, each verified, plus a plot of
    the fig1 CSV.  The sweeps share the sweep, optimizer and curvature code
    with mc-sweep, but train on the closed-form worst-case loss: no PGD,
    tiny per-example tensors, an exact rank-one HVP, and many cheap cells
    whose per-step and per-cell overhead dominates.  The curve kinds train
    full batch in theory mode with no per-example gradients or clipping,
    run binary PGD at p=2 with no box, and load the bounds, report and
    plotting code.  They were a workload of their own, but their pass is
    3-4 s of small-array Python whose run medians spread by 15-26% on a
    shared 2-core machine, beyond any bound the benchmark may set; behind
    the sweeps they are measured in this workload's ``other_calls_s``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import digits

NAMES = ("mc-sweep", "binary")


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a pass.

    ``label`` names the call in reports; ``outputs`` are the paths (relative
    to the pass's output root) of the artifacts it writes; ``main`` marks
    the call the workload is built around.
    """

    label: str
    argv: tuple
    outputs: tuple = ()
    main: bool = False


def _write_ini(path: str, kind: str, output_dir: str, seeds: str, params: dict) -> None:
    lines = [
        "[experiment]",
        f"kind = {kind}",
        f"output_dir = {output_dir}",
        f"seeds = {seeds}",
        "",
        "[params]",
    ]
    lines += [f"{key} = {value}" for key, value in params.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _experiment(label, config_path, main=False) -> Call:
    return Call(label, ("experiment", "--config", config_path), (label,), main)


def _verify(label, out_root) -> Call:
    return Call(f"verify-{label}", ("verify", "--run", os.path.join(out_root, label)))


def _sweep_params(workload: str, seed: int, input_dir: str) -> tuple[dict, dict]:
    if workload == "binary":
        return {"data_seed": seed}, {"data_seed": seed}
    common = {
        "images": os.path.join(input_dir, "images.idx"),
        "labels": os.path.join(input_dir, "labels.idx"),
        "c_grid": "0,0.005",
    }
    fig8 = dict(common, k_grid="0.1,3", steps=60)
    fig9 = dict(common, eps_grid="0.5,50", steps=30)
    return fig8, fig9


def _sweep_calls(workload, seed, input_dir, out_root, config, write_idx) -> list:
    if workload == "mc-sweep":
        digits.write_digits(
            write_idx,
            os.path.join(input_dir, "images.idx"),
            os.path.join(input_dir, "labels.idx"),
            seed,
        )
    fig8, fig9 = _sweep_params(workload, seed, input_dir)
    return [
        _experiment("fig8", config("fig8", "fig8-sweep", str(seed), fig8), main=True),
        _experiment("fig9", config("fig9", "fig9-sweep", str(seed), fig9)),
        _verify("fig8", out_root),
        _verify("fig9", out_root),
    ]


def _curve_calls(seed, out_root, config) -> list:
    data = {"data_seed": seed}
    plot = Call(
        "plot-fig1",
        ("plot", "--csv", os.path.join(out_root, "fig1", "fig1-convergence.csv"),
         "--x", "t", "--log-x", "--title", "fig1", "--out", os.path.join(out_root, "fig1.svg")),
        ("fig1.svg",),
    )
    calls = [
        _experiment("fig1", config("fig1", "fig1-convergence", f"{seed}:20", data)),
        _verify("fig1", out_root),
        plot,
    ]
    for label, kind, params in (
        ("fig3", "fig3-robust-compare", data),
        ("attack", "attack-eval", data),
        ("fig2", "fig2-gap", {}),
        ("bounds", "bounds-only", {}),
    ):
        calls.append(_experiment(label, config(label, kind, str(seed), params)))
        calls.append(_verify(label, out_root))
    return calls


def write_inputs(workload: str, seed: int, input_dir: str, out_root: str, write_idx) -> list:
    """Write every input file of ``workload`` and return its pass's calls.

    ``write_idx`` is the program's IDX writer, passed in so that the caller
    decides which import of the package it comes from.
    """
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")
    os.makedirs(input_dir, exist_ok=True)

    def config(label, kind, seeds, params):
        path = os.path.join(input_dir, f"{label}.ini")
        _write_ini(path, kind, os.path.join(out_root, label), seeds, params)
        return path

    calls = _sweep_calls(workload, seed, input_dir, out_root, config, write_idx)
    if workload == "binary":
        calls += _curve_calls(seed, out_root, config)
    return calls
