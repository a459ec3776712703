"""Outside-in tracer: times calls into the package's public functions
without changing the package.

``Tracer.install`` wraps each target function and puts the wrapper on every
module attribute through which a caller can look the function up (for
example ``rpopt.attacks.pgd_batch``, ``rpopt.optimizer.pgd_batch`` and
``rpopt.curvature.pgd_batch`` all name one function), so calls made inside
the package are timed too.  Each call records a span: name, start, end and
the enclosing span.  Spans stay in memory until ``write`` saves them.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_train(counters, args, kwargs, result, error):
    if result is not None:
        counters["optimizer.steps"] += len(result.t) - 1
    else:  # a diverged run stops at the step its DivergenceError names
        counters["optimizer.steps"] += getattr(error, "step", 0)


def _count_clip_rows(counters, args, kwargs, result, error):
    grads = _arg(args, kwargs, 0, "grads")
    if result is not None and result is not grads:
        counters["optimizer.clip_rows.bytes"] += grads.nbytes + result.nbytes


def _count_per_example(counters, args, kwargs, result, error):
    if result is not None:
        counters["losses.per_example_gradients.bytes"] += result.nbytes


def _count_pgd(counters, args, kwargs, result, error):
    attack = _arg(args, kwargs, 3, "attack")
    if attack.budget > 0 and attack.steps > 0:
        # clean start, one-shot step, then steps + 1 per restart
        counters["attacks.pgd_evals"] += 2 + attack.restarts * (attack.steps + 1)


def _count_power(counters, args, kwargs, result, error):
    if result is not None:
        counters["curvature.power_iteration.iterations"] += result.iterations
        counters["curvature.converged"] += int(result.converged)


def _count_sweep(counters, args, kwargs, result, error):
    if result is not None:
        counters["curvature.cells"] += len(result.cells)
        counters["curvature.diverged"] += sum(int(c.diverged) for c in result.cells)


# (defining module, function, span name, counter)
TARGETS = (
    ("rpopt.cli", "main", "cli.main", None),
    ("rpopt.experiments", "run_experiment", "experiments.run_experiment", None),
    ("rpopt.report", "verify_report", "report.verify_report", None),
    ("rpopt.plotting", "render_plot", "plotting.render_plot", None),
    ("rpopt.optimizer", "train", "optimizer.train", _count_train),
    ("rpopt.optimizer", "clip_rows", "optimizer.clip_rows", _count_clip_rows),
    ("rpopt.losses", "logistic_loss", "losses.logistic_loss", None),
    ("rpopt.losses", "adversarial_logistic_loss", "losses.adversarial_logistic_loss", None),
    ("rpopt.losses", "gradient", "losses.gradient", None),
    ("rpopt.losses", "per_example_gradients", "losses.per_example_gradients", _count_per_example),
    ("rpopt.losses", "multiclass_loss", "losses.multiclass_loss", None),
    ("rpopt.losses", "multiclass_gradient", "losses.multiclass_gradient", None),
    ("rpopt.losses", "hessian_vector_product", "losses.hessian_vector_product", None),
    ("rpopt.attacks", "pgd_batch", "attacks.pgd_batch", _count_pgd),
    ("rpopt.attacks", "robust_accuracy", "attacks.robust_accuracy", None),
    ("rpopt.curvature", "power_iteration", "curvature.power_iteration", _count_power),
    ("rpopt.curvature", "attacked_max_eigenvalue", "curvature.attacked_max_eigenvalue", None),
    ("rpopt.curvature", "clipping_smoothness_curve", "curvature.sweep", _count_sweep),
    ("rpopt.curvature", "privacy_smoothness_curve", "curvature.sweep", _count_sweep),
    ("rpopt.bounds", "accountant_sigma", "bounds.accountant_sigma", None),
    ("rpopt.bounds", "evaluate_series", "bounds.evaluate_series", None),
    ("rpopt.data", "load_idx", "data.load_idx", None),
    ("rpopt.data", "split", "data.split", None),
    ("rpopt.data", "generate_separable", "data.generate_separable", None),
)


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, span_name, count):
        ident = self._name_id(span_name)
        stack, counters = self._stack, self.counters
        name, parent, start, end = self.name, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name.append(ident)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(span)
            result = error = None
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end[span] = clock()
                stack.pop()
                if count is not None:
                    count(counters, args, kwargs, result, error)

        return traced

    def install(self) -> None:
        """Wrap every target on every package module that exposes it."""
        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if module is not None and (key == "rpopt" or key.startswith("rpopt."))
        ]
        for module_name, attr, span_name, count in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, span_name, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self) -> dict:
        """Per span name: calls, total seconds ``s`` and ``self_s``, the
        duration minus the time covered by direct child spans."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i, ident in enumerate(self.name):
            duration = self.end[i] - self.start[i]
            row = out[self.names[ident]]
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration - child[i]
        return out

    def top_level(self) -> list[int]:
        """Ids of spans with no parent, in call order."""
        return [i for i, p in enumerate(self.parent) if p < 0]

    def subtree_seconds(self, root: int, span_name: str) -> float:
        """Seconds spent in spans named ``span_name`` within span ``root``.

        Spans are recorded in start order, so a span's descendants are the
        ids after it that start before it ends.
        """
        ident = self._name_ids.get(span_name)
        total = 0.0
        i = root + 1
        while i < len(self.start) and self.start[i] < self.end[root]:
            if self.name[i] == ident:
                total += self.end[i] - self.start[i]
            i += 1
        return total

    def write(self, fh, label: str) -> None:
        """Append the spans as CSV rows ``label,id,name,parent,start,end``."""
        for i in range(len(self.start)):
            fh.write(
                f"{label},{i},{self.names[self.name[i]]},{self.parent[i]},"
                f"{self.start[i]:.9f},{self.end[i]:.9f}\n"
            )
