"""Experiment orchestration: parameterized runs that each emit one CSV
artifact, ``<kind>.csv``, plus a JSON manifest echoing every parameter
(defaults included) so a run can be reproduced exactly from its output
directory.

Config files are INI ("key = value" sections)::

    [experiment]
    kind = fig1-convergence
    output_dir = out/fig1
    seeds = 0:20          ; "start:count", or a comma list "0,1,2", or one int

    [params]
    d = 10
    sigma = 0.25

Every section, and the [train] section of ``rpopt train``, is read by
:func:`read_section` from its own table of keys and defaults.  An empty
value means the default; an unknown key or section is rejected, so a typo
cannot silently fall back to a default.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, fields, replace
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import bounds as bounds_mod
from ._version import __version__
from .attacks import AttackConfig, exact_linear_robust_accuracy, robust_accuracy
from .bounds import BoundInputs, log_spaced_steps
from .curvature import SweepSettings, clipping_smoothness_curve, privacy_smoothness_curve
from .data import Dataset, check_margin, generate_separable, load_dataset, split, write_table
from .errors import DivergenceError, ExperimentError, InvalidRegimeError
from .jobs import run_jobs
from .losses import LossSpec, adversarial_logistic_loss, gradient
from .optimizer import OptimizerConfig, train, train_stack, validate_config

MANIFEST_NAME = "manifest.json"

# every knob each kind accepts, with the default used when the config omits it
_COMMON_DATA = {
    "d": 10,
    "n": 100,
    "gamma": 1.0,
    "data_seed": 0,
}
_COMMON_SWEEP = {
    "images": "",
    "labels": "",
    "data_csv": "",
    "limit": 2000,
    "d": 20,
    "n": 600,
    "gamma": 0.3,
    "data_seed": 0,
    "test_fraction": 1.0 / 6.0,
    "attack_steps": 4,
    "p": "inf",
    "c_grid": "0,0.005:0.05:9",
    "curvature_examples": 512,
    "curvature_tol": 1e-6,
    "curvature_iters": 300,
    "eval_attack_steps": 10,
}
_DEFAULTS = {
    "fig1-convergence": {
        **_COMMON_DATA,
        "eta": 0.1,
        "c": 0.1,
        "sigma": 0.25,
        "steps": 1000,
    },
    "fig2-gap": {
        "eta": 0.1,
        "gamma": 1.0,
        "c": 0.1,
        "sigma": 0.25,
        "d_list": "10,100,1000",
        "t_max": 100000,
        "points": 200,
    },
    "fig3-robust-compare": {
        **_COMMON_DATA,
        "eta": 0.1,
        "c": 0.1,
        "steps": 1000,
    },
    "fig8-sweep": {**_COMMON_SWEEP, "eta": 2.0, "steps": 300, "k_grid": "0.1:3:10"},
    "fig9-sweep": {
        **_COMMON_SWEEP,
        "eta": 0.5,
        "steps": 150,
        "eps_grid": "0.5:50:10",
        "clip_k": 1.0,
        "delta": 1e-5,
    },
    "bounds-only": {
        "eta": 0.1,
        "gamma": 1.0,
        "c": 0.1,
        "d": 10,
        "sigma": 0.25,
        "form": "appendix",
        "t_max": 10000,
        "points": 200,
    },
    "attack-eval": {
        "d": 20,
        "n": 600,
        "gamma": 0.3,
        "data_seed": 0,
        "test_fraction": 0.25,
        "eta": 0.5,
        "steps": 400,
        "c_train": 0.2,
        "p": "2",
        "budgets": "0,0.05,0.1,0.15,0.2,0.3",
        "attack_steps": 50,
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    output_dir: str
    seeds: tuple
    params: dict

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; choose from {KINDS}")
        if not self.seeds:
            raise ValueError("seeds list must be nonempty")
        # fig1 averages its curves over the seeds; every other kind runs one
        if self.kind != "fig1-convergence" and len(self.seeds) > 1:
            raise ValueError(f"[experiment] seeds: {self.kind} takes one seed, got {self.seeds}")
        resolve_params(self)


def non_negative_int(value) -> int:
    """A seed, an example limit (0: every example) or a count of attack
    steps."""
    number = int(value)
    if number < 0:
        raise ValueError(f"must be >= 0, got {number}")
    return number


def _positive_int(value) -> int:
    number = int(value)
    if number < 1:
        raise ValueError(f"must be >= 1, got {number}")
    return number


def parse_seeds(text) -> tuple:
    """Seeds in one of three forms: "7", "0,1,2", or "start:count"."""
    text = str(text).strip()
    if ":" in text:
        start_s, count_s = text.split(":", 1)
        start, count = non_negative_int(start_s), int(count_s)
        if count < 1:
            raise ValueError("seed count must be >= 1")
        return tuple(range(start, start + count))
    return tuple(non_negative_int(part) for part in text.split(",") if part.strip())


def parse_grid(text: str, check=float) -> list:
    """Comma-separated values, each converted by ``check``, which may also
    range-check it; an element "a:b:n" expands to n >= 2 log-spaced points
    from a to b inclusive."""
    values = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lo_s, hi_s, n_s = part.split(":")
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
            if not (0 < lo < math.inf and 0 < hi < math.inf):
                raise ValueError("log-spaced grid endpoints must be finite and positive")
            if n < 2:
                raise ValueError(f"a log-spaced range takes n >= 2 points, got {part!r}")
            values.extend(check(v) for v in np.geomspace(lo, hi, n))
        else:
            values.append(check(part))
    if not values:
        raise ValueError(f"empty grid: {text!r}")
    return values


def parse_p(value) -> float:
    """A perturbation norm, 2 or inf, in any spelling ``float`` takes."""
    p = float(value)
    if p not in (2.0, math.inf):
        raise ValueError(f"a perturbation norm must be 2 or inf, got {value!r}")
    return p


def _parse_dims(text) -> list:
    """A grid of dimensions: positive integers."""
    values = parse_grid(text)
    if not all(v >= 1 and float(v).is_integer() for v in values):
        raise ValueError(f"dimensions must be positive integers, got {text!r}")
    return [int(v) for v in values]


def _float_in(accept, words):
    """A float parser that requires ``accept(value)``, which ``words`` describe."""

    def parse(value):
        number = float(value)
        if not accept(number):
            raise ValueError(f"must {words}, got {number}")
        return number

    return parse


_finite_positive = _float_in(lambda x: 0 < x < math.inf, "be finite and positive")
_finite_non_negative = _float_in(lambda x: 0 <= x < math.inf, "be finite and non-negative")
_open_unit = _float_in(lambda x: 0 < x < 1, "lie strictly between 0 and 1")
_positive = _float_in(lambda x: x > 0, "be positive")


def _parse_form(value) -> str:
    """The printed form of the worst-case rates: one of bounds.FORMS."""
    if value not in bounds_mod.FORMS:
        raise ValueError(f"must be one of {', '.join(bounds_mod.FORMS)}, got {value!r}")
    return value


def _kept_as_text(parse):
    """A parser that checks a value with ``parse`` and keeps its text, as the
    manifest echoes it."""

    def check(value):
        parse(value)
        return str(value)

    return check


# [experiment]: kind and output_dir are required
_EXPERIMENT = {"kind": "", "output_dir": "", "seeds": (0,)}
_EXPERIMENT_PARSERS = {"seeds": parse_seeds}

# [params]: each kind's table is _DEFAULTS[kind]
_PARAMS_PARSERS = {
    **dict.fromkeys(
        ("steps", "attack_steps", "points", "t_max", "curvature_iters",
         "curvature_examples"),
        _positive_int,
    ),
    **dict.fromkeys(("eval_attack_steps", "limit", "data_seed"), non_negative_int),
    **dict.fromkeys(("delta", "test_fraction"), _open_unit),
    "p": _kept_as_text(parse_p),
    "c_grid": _kept_as_text(partial(parse_grid, check=_finite_non_negative)),
    "k_grid": _kept_as_text(partial(parse_grid, check=_positive)),  # inf: no clipping
    "eps_grid": _kept_as_text(partial(parse_grid, check=_finite_positive)),
    "budgets": _kept_as_text(partial(parse_grid, check=_finite_non_negative)),
    "d_list": _kept_as_text(_parse_dims),
    "form": _parse_form,
    "clip_k": _finite_positive,  # fig9 only: the privacy sweep needs a finite clip
    "eta": _finite_positive,
    "curvature_tol": _finite_positive,
    "c": _finite_non_negative,
    "c_train": _finite_non_negative,
    "sigma": _finite_non_negative,
    "gamma": lambda value: check_margin(float(value)),
}

# [train] of `rpopt train`: the OptimizerConfig fields, with c and p for its loss
_TRAIN = {
    "eta": 0.1,
    "steps": 100,
    "c": 0.0,
    "p": 2.0,
    "clip_k": math.inf,
    "sigma": 0.0,
    "seed": 0,
    "attack_steps": 10,
}
_TRAIN_PARSERS = {
    "c": _finite_non_negative,
    "p": parse_p,
    "seed": non_negative_int,
}


def parse_named(name: str, parse, value):
    """``parse(value)``, with ``name``, where the value came from, put in
    front of the message of a ValueError it raises."""
    try:
        return parse(value)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def read_section(name: str, values: dict, defaults: dict, parsers: dict) -> dict:
    """The INI section [name]: ``defaults`` overlaid with ``values``.

    Each value is converted by its key's entry in ``parsers``, else by its
    default's type; an empty value means the default.  An unknown key, or
    a value that does not parse, raises ValueError naming "[name] key".
    """
    unknown = sorted(set(values) - set(defaults))
    if unknown:
        raise ValueError(
            f"[{name}]: unknown parameters {unknown}; known: {', '.join(defaults)}"
        )
    resolved = dict(defaults)
    for key, raw in values.items():
        if str(raw).strip():
            parse = parsers.get(key) or type(defaults[key])  # int, float or str
            resolved[key] = parse_named(f"[{name}] {key}", parse, raw)
    return resolved


def read_ini(path, sections: tuple) -> dict:
    """Each of ``sections`` of the INI file ``path`` as a dict of raw values,
    with inline ";" and "#" comments removed.  The first section is required,
    the others read as empty when absent, and any other section is rejected,
    so nothing in the file goes unread."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if not parser.read(path):
        raise ValueError(f"cannot read config file {path}")
    unknown = [name for name in parser.sections() if name not in sections]
    if unknown:
        taken = ", ".join(f"[{name}]" for name in sections)
        raise ValueError(f"{path}: unknown section [{unknown[0]}]; this config takes {taken}")
    if sections[0] not in parser:
        raise ValueError(f"config {path} has no [{sections[0]}] section")
    return {name: dict(parser[name]) if name in parser else {} for name in sections}


def load_experiment_config(path) -> ExperimentConfig:
    sections = read_ini(path, ("experiment", "params"))
    head = read_section("experiment", sections["experiment"], _EXPERIMENT, _EXPERIMENT_PARSERS)
    if not head["output_dir"]:
        raise ValueError("[experiment] output_dir is required")
    return ExperimentConfig(params=sections["params"], **head)


def load_train_config(path) -> OptimizerConfig:
    """OptimizerConfig from the [train] section of an INI file."""
    values = read_section("train", read_ini(path, ("train",))["train"], _TRAIN, _TRAIN_PARSERS)
    c, p = values.pop("c"), values.pop("p")
    values["spec"] = LossSpec(c, p)
    return parse_named("[train]", lambda fields: OptimizerConfig(**fields), values)


def resolve_params(config: ExperimentConfig) -> dict:
    """The kind's defaults overlaid with the config's [params], typed."""
    return read_section("params", config.params, _DEFAULTS[config.kind], _PARAMS_PARSERS)


# a failure in these stages is a fault of the run's inputs (a data file or a
# value that only fits once the data is known), raised as ValueError, as is
# a bound's regime violation in any stage
_INPUT_STAGES = ("generate-data", "load-data")


def artifact_name(kind: str) -> str:
    """The one CSV an experiment of ``kind`` writes."""
    return f"{kind}.csv"


def run_experiment(config: ExperimentConfig) -> list:
    """Run one experiment; returns the paths of its artifact and manifest.

    The kind's runner returns ``(columns, notes)``: the artifact table, as
    an ordered mapping of column name to values, and the manifest's notes.

    Everything is written to a temporary directory beside ``output_dir``
    and moved in only when the run succeeds: the old manifest is removed
    first and the new one moved in last, so a manifest never names files of
    another run, and a failed run leaves ``output_dir`` as it was (absent,
    if it was).  A failure while the inputs are read, or a bound's regime
    violation, raises ValueError, any other one ExperimentError; both name
    the stage.
    """
    params = resolve_params(config)
    parent, name = os.path.split(os.path.abspath(config.output_dir))
    os.makedirs(parent, exist_ok=True)
    staging_dir = tempfile.mkdtemp(prefix=f".{name}-", dir=parent)
    artifact = artifact_name(config.kind)
    try:
        stage = SimpleNamespace(name="setup")  # advanced by the runner so failures name it
        try:
            columns, notes = _RUNNERS[config.kind](config, params, stage)
            stage.name = "write-csv"
            rows = zip(*columns.values(), strict=True)
            write_table(os.path.join(staging_dir, artifact), list(columns), rows)
        except Exception as exc:
            message = f"stage {stage.name!r} failed: {exc}"
            if isinstance(exc, InvalidRegimeError) or (
                stage.name in _INPUT_STAGES
                and isinstance(exc, (ValueError, FileNotFoundError))
            ):
                raise ValueError(message) from exc
            raise ExperimentError(message) from exc
        manifest = {
            "kind": config.kind,
            "version": __version__,
            "seeds": list(config.seeds),
            "params": params,
            "artifacts": [artifact],
            "notes": notes,
        }
        with open(os.path.join(staging_dir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        manifest_path = os.path.join(config.output_dir, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            os.unlink(manifest_path)
        os.makedirs(config.output_dir, exist_ok=True)
        paths = []
        for name in (artifact, MANIFEST_NAME):
            paths.append(os.path.join(config.output_dir, name))
            os.replace(os.path.join(staging_dir, name), paths[-1])
        return paths
    finally:
        shutil.rmtree(staging_dir)


def _separable(params) -> Dataset:
    """The kind's generated separable data, from its d, n, gamma and data_seed."""
    return generate_separable(
        d=params["d"], n=params["n"], gamma=params["gamma"], seed=params["data_seed"]
    )


# ---------------------------------------------------------------------------
# fig1: four training curves against their four rate bounds
# ---------------------------------------------------------------------------


def _mean_and_se(stack: np.ndarray) -> tuple:
    mean = stack.mean(axis=0)
    if stack.shape[0] < 2:
        return mean, np.zeros_like(mean)
    se = stack.std(axis=0, ddof=1) / math.sqrt(stack.shape[0])
    return mean, se


def _bound_columns(base: BoundInputs, ts, names) -> dict:
    """Each named rate bound at the steps ts, as the column bound_<name>."""
    return {
        f"bound_{name.replace('-', '_')}": bounds_mod.evaluate_series(name, base, ts)[:, 1]
        for name in names
    }


def _solo_and_averaged_losses(dataset, seeds, job):
    """For the job (solo, base, column): the solo run's curve, and the mean
    and standard error of the curves of ``base`` over the seeds, trained as
    one stack (the configs may differ only in sigma and seed)."""
    solo, base, column = job
    configs = [solo] + [replace(base, seed=seed) for seed in seeds]
    traces = train_stack(dataset, configs)
    for trace in traces:
        if isinstance(trace, DivergenceError):
            raise trace
    curves = np.stack([getattr(trace, column) for trace in traces])
    return (curves[0], *_mean_and_se(curves[1:]))


def _run_fig1(config, params, stage):
    stage.name = "generate-data"
    dataset = _separable(params)
    eta, c, sigma, steps = params["eta"], params["c"], params["sigma"], params["steps"]
    gamma = params["gamma"]

    def cfg(spec_c, noise):
        return OptimizerConfig(
            eta=eta,
            steps=steps,
            spec=LossSpec(spec_c),
            sigma=noise,
            seed=config.seeds[0],
        )

    notes = {"warnings": validate_config(cfg(c, sigma), gamma=gamma)}

    stage.name = "train"
    # two independent seed stacks, as two jobs
    (nominal, private, private_se), (robust, robust_private, robust_private_se) = run_jobs(
        partial(_solo_and_averaged_losses, dataset, config.seeds),
        [(cfg(0.0, 0.0), cfg(0.0, sigma), "nominal_loss"),
         (cfg(c, 0.0), cfg(c, sigma), "adversarial_loss")],
    )

    stage.name = "evaluate-bounds"
    ts = np.arange(1, steps + 1)
    base = BoundInputs(eta=eta, gamma=gamma, c=c, d=params["d"], sigma=sigma)
    return {
        "t": ts,
        "loss_nominal": nominal[1:],
        "loss_private": private[1:],
        "se_private": private_se[1:],
        "loss_robust": robust[1:],
        "loss_robust_private": robust_private[1:],
        "se_robust_private": robust_private_se[1:],
        **_bound_columns(base, ts, ("nominal", "private", "robust", "robust-private")),
    }, notes


# ---------------------------------------------------------------------------
# fig2: worst-case-vs-plain bound gaps over time, several dimensions
# ---------------------------------------------------------------------------


def _run_fig2(config, params, stage):
    stage.name = "evaluate-gaps"
    d_list = _parse_dims(params["d_list"])
    ts = log_spaced_steps(params["t_max"], params["points"])
    decades = [10**k for k in range(0, int(math.log10(params["t_max"])) + 1)]
    ts = np.unique(np.concatenate([ts, decades]))
    base = BoundInputs(
        eta=params["eta"], gamma=params["gamma"], c=params["c"], sigma=params["sigma"]
    )
    columns = {"t": ts, "gap_nonprivate": bounds_mod.gap_curve(base, "nonprivate", ts)[:, 1]}
    for d in d_list:
        curve = bounds_mod.gap_curve(replace(base, d=d), "private", ts)
        columns[f"gap_private_d{d}"] = curve[:, 1]
    return columns, {}


# ---------------------------------------------------------------------------
# fig3: worst-case loss under plain vs worst-case training, with bounds
# ---------------------------------------------------------------------------


def _run_fig3(config, params, stage):
    stage.name = "generate-data"
    dataset = _separable(params)
    eta, c, steps = params["eta"], params["c"], params["steps"]
    spec = LossSpec(c)

    stage.name = "train-adversarial"
    robust_cfg = OptimizerConfig(
        eta=eta,
        steps=steps,
        spec=spec,
        seed=config.seeds[0],
    )
    robust = train(dataset, robust_cfg)

    stage.name = "evaluate-adversarial-loss-of-standard"
    # plain GD is deterministic; walk the iterates directly and score each
    # one with the worst-case loss the trace would not otherwise record
    x, y = dataset.features, dataset.labels.astype(np.float64)
    theta = np.zeros(dataset.dim)
    plain_adv = np.zeros(steps + 1)
    plain_adv[0] = adversarial_logistic_loss(theta, x, y, spec)
    for t in range(steps):
        theta = theta - eta * gradient(theta, x, y, LossSpec())
        plain_adv[t + 1] = adversarial_logistic_loss(theta, x, y, spec)

    stage.name = "evaluate-bounds"
    ts = np.arange(1, steps + 1)
    base = BoundInputs(eta=eta, gamma=params["gamma"], c=c)
    return {
        "t": ts,
        "adv_loss_adversarial_training": robust.adversarial_loss[1:],
        "adv_loss_standard_training": plain_adv[1:],
        **_bound_columns(base, ts, ("robust", "robust-under-standard")),
    }, {}


# ---------------------------------------------------------------------------
# fig8 / fig9: curvature sweeps
# ---------------------------------------------------------------------------


def _run_sweep_kind(mode, config, params, stage):
    """fig8 (mode "clip") or fig9 (mode "dp"): one curvature sweep."""
    stage.name = "load-data"
    dataset = load_dataset(
        params["images"], params["labels"], params["data_csv"], params["limit"],
        ("[params] images", "[params] labels", "[params] data_csv"),
    )
    if dataset is None:
        dataset = _separable(params)
    train_ds, test_ds = split(dataset, params["test_fraction"], seed=config.seeds[0])
    base = OptimizerConfig(
        eta=params["eta"],
        steps=params["steps"],
        attack_steps=params["attack_steps"],
        seed=config.seeds[0],
    )
    p, c_grid = parse_p(params["p"]), parse_grid(params["c_grid"])
    if p == 2.0 and not train_ds.is_binary and any(c > 0 for c in c_grid):
        # the frozen-attack lambda_max has no term for the l2 maximiser's
        # dependence on theta, so it reads below the worst case's curvature
        raise ValueError(
            "[params] p = 2 is not supported for a multi-class sweep with c > 0; use p = inf"
        )
    stage.name = "sweep"
    settings = SweepSettings(**{
        **{field.name: params[field.name] for field in fields(SweepSettings)},
        "p": p,
    })
    if mode == "clip":
        table = clipping_smoothness_curve(
            train_ds, test_ds, c_grid, parse_grid(params["k_grid"]), base, settings
        )
        summary = {"mode": "clip"}
    else:
        table = privacy_smoothness_curve(
            train_ds,
            test_ds,
            c_grid,
            parse_grid(params["eps_grid"]),
            replace(base, clip_k=params["clip_k"]),
            settings,
            params["delta"],
        )
        summary = {"mode": "dp", "delta": params["delta"]}
    return table.columns(), summary


# ---------------------------------------------------------------------------
# bounds-only: tabulate the rate bounds on a log grid of steps
# ---------------------------------------------------------------------------


def _run_bounds_only(config, params, stage):
    stage.name = "evaluate-bounds"
    ts = log_spaced_steps(params["t_max"], params["points"])
    base = BoundInputs(
        eta=params["eta"],
        gamma=params["gamma"],
        c=params["c"],
        d=params["d"],
        sigma=params["sigma"],
        form=params["form"],
    )
    names = ("nominal", "private", "robust", "robust-private", "robust-under-standard")
    return {"t": ts, **_bound_columns(base, ts, names)}, {}


# ---------------------------------------------------------------------------
# attack-eval: accuracy under attack, plain vs worst-case training
# ---------------------------------------------------------------------------


def _run_attack_eval(config, params, stage):
    stage.name = "generate-data"
    dataset = _separable(params)
    train_ds, test_ds = split(dataset, params["test_fraction"], seed=config.seeds[0])
    p = parse_p(params["p"])
    eta, steps, c_train = params["eta"], params["steps"], params["c_train"]

    stage.name = "train-standard"
    plain = train(
        train_ds,
        OptimizerConfig(eta=eta, steps=steps, spec=LossSpec(), seed=config.seeds[0]),
    ).final_params
    stage.name = "train-adversarial"
    robust = train(
        train_ds,
        OptimizerConfig(eta=eta, steps=steps, spec=LossSpec(c_train, p), seed=config.seeds[0]),
    ).final_params

    stage.name = "attack-eval"
    budgets = parse_grid(params["budgets"])
    standard, adversarial = [], []
    for index, budget in enumerate(budgets):
        attack = AttackConfig(
            budget=budget,
            p=p,
            steps=params["attack_steps"] if budget > 0 else 0,
            seed=config.seeds[0] + index,
        )
        standard.append(robust_accuracy(plain, test_ds, attack))
        adversarial.append(robust_accuracy(robust, test_ds, attack))

    def exact(model):
        return [exact_linear_robust_accuracy(model, test_ds, budget, p) for budget in budgets]

    return {
        "budget": budgets,
        "acc_standard": standard,
        "acc_adversarial": adversarial,
        "improvement": np.subtract(adversarial, standard),
        "exact_acc_standard": exact(plain),
        "exact_acc_adversarial": exact(robust),
    }, {}


_RUNNERS = {
    "fig1-convergence": _run_fig1,
    "fig2-gap": _run_fig2,
    "fig3-robust-compare": _run_fig3,
    "fig8-sweep": partial(_run_sweep_kind, "clip"),
    "fig9-sweep": partial(_run_sweep_kind, "dp"),
    "bounds-only": _run_bounds_only,
    "attack-eval": _run_attack_eval,
}
KINDS = tuple(_RUNNERS)
