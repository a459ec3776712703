"""rpopt benchmark.

    python3 perfbench/run.py --workload mc-sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  Drives ``rpopt.cli.main`` in this
one process, the entry point the console script uses, with BLAS pinned to
one thread.  Each pass sets up (imports the package, writes the inputs) and
then makes every CLI call of the workload.  Passes repeat while the next one
is expected to end within ``--seconds``, at least two, so that determinism
is checked within the run.  Each pass's artifacts are checked; the last
stdout line is the JSON result.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the traced ones; spans are written to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

# BLAS reads these once, when numpy loads, so they are set before anything
# that imports numpy
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("RPOPT_SEED", None)  # the program must see only our configs

import numpy  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench_work"  # relative to ROOT
MIN_PASSES = 2
SETUP_REPEATS = 3  # per pass

# name -> unit, for the --trace 0 result
END_TO_END = {
    "wall_s": "s",
    "main_call_s": "s",
    "other_calls_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class PassResult:
    wall_s: float
    seconds: dict  # call label -> seconds
    stdout: dict  # call label -> captured stdout
    prints: dict  # artifact -> sha256
    peak_rss_mb: float  # of the process so far
    failed: set  # labels of failed calls
    tracer: Tracer | None = None


def _purge_package() -> None:
    for name in [m for m in sys.modules if m == "rpopt" or m.startswith("rpopt.")]:
        del sys.modules[name]


def setup(workload: str, seed: int, run_dir: str, samples: list) -> list:
    """Import the package and write every input, SETUP_REPEATS times.

    Appends each repeat's seconds to ``samples`` and returns the pass's
    calls.  A run sets up before every pass, so its median set-up time
    samples the whole run.
    """
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(run_dir, ignore_errors=True)
        start = time.perf_counter()
        _purge_package()
        importlib.import_module("rpopt.cli")
        data = sys.modules["rpopt.data"]
        calls = workloads.write_inputs(
            workload, seed, os.path.join(run_dir, "inputs"), os.path.join(run_dir, "out"),
            data.write_idx,
        )
        samples.append(time.perf_counter() - start)
    module = sys.modules["rpopt"]
    if os.path.dirname(os.path.abspath(module.__file__)) != os.path.join(SRC, "rpopt"):
        raise RuntimeError(f"imported rpopt from {module.__file__}, not from {SRC}")
    return calls


def run_pass(calls: list, out_root: str, traced: bool) -> PassResult:
    cli = sys.modules["rpopt.cli"]
    tracer = Tracer() if traced else None
    seconds, codes, stdout = {}, {}, {}
    with tracer if traced else contextlib.nullcontext():
        start = time.perf_counter()
        for call in calls:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    codes[call.label] = cli.main(list(call.argv))
            except Exception as exc:  # a crash is a failed call, not a failed run
                codes[call.label] = None
                err.write(f"{type(exc).__name__}: {exc}\n")
            seconds[call.label] = time.perf_counter() - t0
            stdout[call.label] = out.getvalue()
            if codes[call.label] not in (0, 3):
                print(f"call {call.label} exited {codes[call.label]}: {err.getvalue().strip()}")
        wall = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # exit 3 is verify reporting violations: program output, not a failure
    failed = {label for label, code in codes.items() if code not in (0, 3)}
    return PassResult(wall, seconds, stdout, checks.fingerprints(out_root), rss, failed, tracer)


def _owner(calls: list, relpath: str) -> str:
    for call in calls:
        for output in call.outputs:
            if relpath == output or relpath.startswith(output + os.sep):
                return call.label
    raise RuntimeError(f"artifact {relpath} has no producing call")


def check_against_first(calls, first: PassResult, later: PassResult) -> None:
    """Mark calls whose artifacts differ from the run's first pass."""
    for relpath in set(first.prints) | set(later.prints):
        if first.prints.get(relpath) != later.prints.get(relpath):
            print(f"artifact {relpath} differs from the first pass")
            later.failed.add(_owner(calls, relpath))


def check_reference(calls, first: PassResult, out_root: str, reference: dict) -> int:
    """Mark calls whose artifacts miss the reference; return the number of
    artifacts byte-equal to it."""
    equal = 0
    for relpath in set(first.prints) | set(reference):
        entry = reference.get(relpath)
        if relpath not in first.prints or entry is None:
            print(f"artifact {relpath} is missing from the run or from the reference")
            first.failed.add(_owner(calls, relpath))
            continue
        equal += entry["sha256"] == first.prints[relpath]
        problems = checks.compare(out_root, relpath, entry)
        for line in problems[:5]:
            print(line)
        if problems:
            first.failed.add(_owner(calls, relpath))
    return equal


def verify_counts(calls, result: PassResult) -> tuple[int, int]:
    """(FAIL lines, checks) over the pass's verify calls."""
    fails = checks_run = 0
    for call in calls:
        if call.label.startswith("verify"):
            lines = result.stdout[call.label].splitlines()
            fails += sum(line.startswith("FAIL ") for line in lines)
            checks_run += sum(line.startswith(("PASS ", "FAIL ")) for line in lines)
    return fails, checks_run


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(calls, passes: list, setup_s: float) -> dict:
    main = next(c.label for c in calls if c.main)
    values = {
        "wall_s": _median(p.wall_s for p in passes),
        "main_call_s": _median(p.seconds[main] for p in passes),
        "other_calls_s": _median(sum(p.seconds.values()) - p.seconds[main] for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": passes[0].peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _share(part: float, base: float) -> float:
    return part / base if base > 0 else 0.0


def layer_metrics(calls, result: PassResult) -> dict:
    """Per-layer numbers of one traced pass, as name -> (value, unit)."""
    tracer = result.tracer
    spans = tracer.summary()
    counters = tracer.counters

    def span(name, key):
        return spans[name][key]

    fails, checks_run = verify_counts(calls, result)
    steps = counters["optimizer.steps"]
    power_calls = span("curvature.power_iteration", "calls")
    cells = counters["curvature.cells"]
    out = {
        "optimizer.train.self_s": (span("optimizer.train", "self_s"), "s"),
        "optimizer.train.calls": (span("optimizer.train", "calls"), "count"),
        "optimizer.steps": (steps, "count"),
        "optimizer.step_us": (_share(span("optimizer.train", "s"), steps) * 1e6, "us"),
        "optimizer.clip_rows.s": (span("optimizer.clip_rows", "s"), "s"),
        "optimizer.clip_rows.calls": (span("optimizer.clip_rows", "calls"), "count"),
        "optimizer.clip_rows.bytes": (counters["optimizer.clip_rows.bytes"], "computed_bytes"),
        "losses.per_example_gradients.s": (span("losses.per_example_gradients", "s"), "s"),
        "losses.per_example_gradients.bytes": (
            counters["losses.per_example_gradients.bytes"], "computed_bytes"),
        "losses.gradient.s": (span("losses.gradient", "s"), "s"),
        "losses.margin_passes": (
            sum(span(f"losses.{name}", "calls") for name in (
                "logistic_loss", "adversarial_logistic_loss", "gradient",
                "per_example_gradients")),
            "count",
        ),
        "losses.multiclass_loss.s": (span("losses.multiclass_loss", "s"), "s"),
        "losses.hessian_vector_product.s": (span("losses.hessian_vector_product", "s"), "s"),
        "losses.hessian_vector_product.calls": (
            span("losses.hessian_vector_product", "calls"), "count"),
        "losses.multiclass_gradient.calls": (span("losses.multiclass_gradient", "calls"), "count"),
        "attacks.pgd_batch.s": (span("attacks.pgd_batch", "s"), "s"),
        "attacks.pgd_batch.calls": (span("attacks.pgd_batch", "calls"), "count"),
        "attacks.pgd_evals": (counters["attacks.pgd_evals"], "count"),
        "attacks.robust_accuracy.s": (span("attacks.robust_accuracy", "s"), "s"),
        "curvature.power_iteration.self_s": (span("curvature.power_iteration", "self_s"), "s"),
        "curvature.power_iteration.iterations": (
            counters["curvature.power_iteration.iterations"], "count"),
        "curvature.converged_share": (
            _share(counters["curvature.converged"], power_calls), "ratio"),
        "curvature.attacked_max_eigenvalue.self_s": (
            span("curvature.attacked_max_eigenvalue", "self_s"), "s"),
        "curvature.sweep.self_s": (span("curvature.sweep", "self_s"), "s"),
        "curvature.cells": (cells, "count"),
        "curvature.diverged_share": (_share(counters["curvature.diverged"], cells), "ratio"),
        "bounds.accountant_sigma.s": (span("bounds.accountant_sigma", "s"), "s"),
        "bounds.accountant_sigma.calls": (span("bounds.accountant_sigma", "calls"), "count"),
        "bounds.evaluate_series.s": (span("bounds.evaluate_series", "s"), "s"),
        "data.load_idx.s": (span("data.load_idx", "s"), "s"),
        "data.split.s": (span("data.split", "s"), "s"),
        "data.generate_separable.s": (span("data.generate_separable", "s"), "s"),
        "experiments.run_experiment.self_s": (span("experiments.run_experiment", "self_s"), "s"),
        "cli.main.self_s": (span("cli.main", "self_s"), "s"),
        "report.verify_report.s": (span("report.verify_report", "s"), "s"),
        "plotting.render_plot.s": (span("plotting.render_plot", "s"), "s"),
        "report.verify_checks": (checks_run, "count"),
        "report.verify_failed": (_share(fails, checks_run), "ratio"),
    }
    # share of the traced fig8 call spent in the three dpsgd-step layers
    roots = dict(zip([c.label for c in calls], tracer.top_level()))
    fig8 = roots.get("fig8")
    base = tracer.end[fig8] - tracer.start[fig8] if fig8 is not None else 0.0
    out["fig8.base_s"] = (base, "s")
    for layer in ("attacks.pgd_batch", "optimizer.clip_rows", "losses.per_example_gradients"):
        part = tracer.subtree_seconds(fig8, layer) if fig8 is not None else 0.0
        out[f"fig8.{layer.split('.')[1]}_share"] = (_share(part, base), "ratio")
    return out


def per_layer(calls, traced: list, untraced: list) -> dict:
    rows = [layer_metrics(calls, p) for p in traced]
    metrics = {
        name: {"value": _median(r[name][0] for r in rows), "unit": unit}
        for name, (_, unit) in rows[0].items()
    }
    overhead = _median(p.wall_s for p in traced) - _median(p.wall_s for p in untraced)
    metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:  # not Linux: the architecture is all we report
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _per_kind_seconds(calls, passes: list) -> dict:
    """The timings under the per-kind names (medians, seconds): the fig1
    call, and as ``short_kinds_s`` every call after it."""
    labels = [c.label for c in calls]
    named = {
        f"{label}_s": _median(p.seconds[label] for p in passes)
        for label in ("fig8", "fig9", "fig1") if label in labels
    }
    if "fig1" in labels:
        after = labels[labels.index("fig1") + 1:]
        named["short_kinds_s"] = _median(sum(p.seconds[k] for k in after) for p in passes)
    return named


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rpopt", "__init__.py")):
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # relative paths keep the manifests, which echo them, the same in every checkout
    os.chdir(ROOT)
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
    out_root = os.path.join(run_dir, "out")
    try:
        setup_samples = []
        reference = checks.load_reference(args.workload, args.seed)
        byte_equal = None
        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            trace_now = args.trace == 1 and len(traced) < len(untraced)
            calls = setup(args.workload, args.seed, run_dir, setup_samples)
            result = run_pass(calls, out_root, trace_now)
            if untraced:
                check_against_first(calls, untraced[0], result)
            elif reference is not None:
                byte_equal = check_reference(calls, result, out_root, reference)
            (traced if trace_now else untraced).append(result)
            shutil.rmtree(out_root, ignore_errors=True)
            # stop before a pass that would end after --seconds
            walls = [p.wall_s for p in untraced + traced]
            elapsed = time.perf_counter() - start
            if len(walls) >= MIN_PASSES and elapsed + _median(walls) > args.seconds:
                break
        if traced:
            os.makedirs(WORK, exist_ok=True)
            spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.csv")
            with open(spans_path, "w", encoding="utf-8") as fh:
                fh.write("pass,span,name,parent,start_s,end_s\n")
                for index, result in enumerate(traced):
                    result.tracer.write(fh, str(index))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = untraced + traced
    attempted = len(calls) * len(passes)
    failed = sum(len(p.failed) for p in passes)
    fails, checks_run = verify_counts(calls, untraced[0])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "setup_samples": len(setup_samples),
        "pass_wall_s": [round(p.wall_s, 4) for p in passes],
        "environment": environment(),
        "call_s": {label: _median(p.seconds[label] for p in untraced) for label in untraced[0].seconds},
        "per_kind_s": _per_kind_seconds(calls, untraced),
        "failed_share": failed / attempted,
        "verify": {"fail": fails, "checks": checks_run},
        "artifacts": len(untraced[0].prints),
        "reference": None if reference is None else {
            "artifacts": len(reference), "byte_equal": byte_equal},
        "note": "computed_bytes come from array shapes, not from measurement; timings "
                "are medians over the untraced passes (traced ones for per-layer numbers)",
    }
    if args.trace:
        metrics = per_layer(calls, traced, untraced)
    else:
        metrics = end_to_end(calls, untraced, _median(setup_samples))
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
