"""Command-line interface.

Exit codes: 0 success, 1 invalid arguments, config or input data, 2 runtime
failure, 3 verification found violations.  The environment variable
RPOPT_SEED, when set, overrides the seed from flags and config files (for
experiments with a seed list, the list is rebased to start at that value).
It is read once, before a verb that takes a seed runs, and a negative or
non-integer value exits 1.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import replace

from . import bounds as bounds_mod
from ._version import __version__
from .data import (
    generate_equal_margin, generate_separable, load_dataset, save_csv, write_table
)
from .errors import RpoptError
from .experiments import (
    ExperimentConfig,
    load_experiment_config,
    load_train_config,
    non_negative_int,
    parse_named,
    parse_seeds,
    run_experiment,
)
from .optimizer import train, validate_config
from .plotting import PlotSpec, render_plot
from .report import verify_report

_GAP_SETTINGS = {"gap-nonprivate": "nonprivate", "gap-private": "private"}
_SWEEP_KINDS = {"clip": "fig8-sweep", "dp": "fig9-sweep"}
_SEEDED_VERBS = ("gen-data", "train", "attack-eval", "sweep", "experiment")


def _env_seed() -> int | None:
    raw = os.environ.get("RPOPT_SEED", "")
    return parse_named("RPOPT_SEED", non_negative_int, raw) if raw.strip() else None


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def _cmd_gen_data(args) -> int:
    seed = args.seed if args.env_seed is None else args.env_seed
    other = ("--margin", "--jitter") if args.kind == "separable" else ("--gamma",)
    given = [flag for flag in other if getattr(args, flag[2:]) is not None]
    if given:
        raise ValueError(f"{' and '.join(given)} cannot go with --kind {args.kind}")
    if args.kind == "separable":
        dataset = generate_separable(
            d=args.d, n=args.n, gamma=0.3 if args.gamma is None else args.gamma, seed=seed
        )
    else:
        dataset = generate_equal_margin(
            d=args.d,
            n=args.n,
            margin=0.3 if args.margin is None else args.margin,
            jitter=0.01 if args.jitter is None else args.jitter,
            seed=seed,
        )
    save_csv(dataset, args.out)
    print(
        f"wrote {args.out}: {dataset.n} examples, d={dataset.dim}, "
        f"margin={dataset.margin:.6g}"
    )
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _cmd_train(args) -> int:
    config = load_train_config(args.config)
    if args.env_seed is not None:
        config = replace(config, seed=args.env_seed)
    dataset = load_dataset(
        args.images, args.labels, args.data, args.limit, ("--images", "--labels", "--data")
    )
    if dataset is None:
        raise ValueError("provide --data CSV or --images/--labels IDX files")
    warnings = validate_config(config)
    if dataset.is_binary and config.spec.c > 0:
        # a CSV stores no separator, so the margin these checks need is unknown
        warnings.append(
            f"c < gamma/2 and s * eta < 1 not checked: the CSV {args.data} carries no margin"
        )
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    trace = train(dataset, config)
    trace.to_csv(args.out)
    print(
        f"wrote {args.out}: {config.steps} steps, final nominal loss "
        f"{trace.nominal_loss[-1]:.6g}, final ||theta|| {trace.theta_norm[-1]:.6g}"
    )
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _cmd_bounds(args) -> int:
    inputs = bounds_mod.BoundInputs(
        eta=args.eta, gamma=args.gamma, c=args.c, d=args.d, sigma=args.sigma, form=args.form
    )
    if args.t is not None:
        given = [flag for flag, value in (("--t-max", args.t_max), ("--points", args.points))
                 if value is not None]
        if given:
            raise ValueError(f"{' and '.join(given)} cannot go with --t, only with --out")
        ts = [args.t]
    else:
        ts = bounds_mod.log_spaced_steps(
            10000 if args.t_max is None else args.t_max, 200 if args.points is None else args.points
        )
    gap_setting = _GAP_SETTINGS.get(args.setting)
    if gap_setting is not None:
        rows = bounds_mod.gap_curve(inputs, gap_setting, ts)
        header = ["t", f"gap_{gap_setting}"]
    else:
        rows = bounds_mod.evaluate_series(args.setting, inputs, ts)
        header = ["t", f"bound_{args.setting.replace('-', '_')}"]
    if args.t is not None:
        print(f"{rows[0, 1]:.17g}")
        return 0
    write_table(args.out, header, ((int(t), value) for t, value in rows))
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


# ---------------------------------------------------------------------------
# experiment / attack-eval / sweep
# ---------------------------------------------------------------------------


def _parse_param_overrides(pairs) -> dict:
    params = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        params[key.strip()] = value.strip()
    return params


def _run(config: ExperimentConfig, env_seed: int | None) -> int:
    if env_seed is not None:
        config = replace(config, seeds=tuple(env_seed + i for i in range(len(config.seeds))))
    for path in run_experiment(config):
        print(f"wrote {path}")
    return 0


def _cmd_experiment(args) -> int:
    return _run(load_experiment_config(args.config), args.env_seed)


def _cmd_kind(args) -> int:
    """attack-eval, and sweep (the fig8/fig9 kinds), run from flags."""
    kind = _SWEEP_KINDS[args.mode] if args.verb == "sweep" else args.verb
    return _run(
        ExperimentConfig(
            kind=kind,
            output_dir=args.out_dir,
            seeds=parse_named("--seeds", parse_seeds, args.seeds),
            params=_parse_param_overrides(args.param),
        ),
        args.env_seed,
    )


# ---------------------------------------------------------------------------
# plot / verify / dp
# ---------------------------------------------------------------------------


def _cmd_plot(args) -> int:
    spec = PlotSpec(
        x_column=args.x,
        y_columns=tuple(args.y.split(",")) if args.y else None,
        title=args.title,
        x_label=args.x_label,
        y_label=args.y_label,
        log_x=args.log_x,
        log_y=not args.linear_y,
    )
    render_plot(args.csv, spec, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    report = verify_report(args.run)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 3


def _cmd_dp(args) -> int:
    if args.sigma is not None:
        result = bounds_mod.accountant_epsilon(
            sigma=args.sigma,
            steps=args.steps,
            lipschitz=args.lipschitz,
            delta=args.delta,
            radius=args.radius,
            dimension=args.dimension,
            lambda_max=args.lambda_max,
        )
        print(f"epsilon = {result.epsilon:.12g}")
        print(f"order = {result.order}")
        print(f"sensitivity = {result.sensitivity:.12g}")
    else:
        result = bounds_mod.accountant_sigma(
            epsilon=args.epsilon,
            delta=args.delta,
            steps=args.steps,
            lipschitz=args.lipschitz,
            radius=args.radius,
            dimension=args.dimension,
            lambda_max=args.lambda_max,
        )
        print(f"sigma = {result.sigma:.12g}")
        print(f"epsilon_achieved = {result.epsilon:.12g}")
        print(f"order = {result.order}")
        print(f"implied_constant = {result.implied_constant:.12g}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpopt",
        description="Worst-case and private training for linear models: "
        "data, optimization, rate bounds, attacks, curvature, experiments.",
    )
    parser.add_argument("--version", action="version", version=f"rpopt {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    gen.add_argument("--kind", choices=("separable", "equal-margin"), default="separable")
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--gamma", type=float, help="margin of the separable kind (default 0.3)")
    gen.add_argument("--margin", type=float, help="margin of the equal-margin kind (default 0.3)")
    gen.add_argument("--jitter", type=float, help="jitter of the equal-margin kind (default 0.01)")
    gen.add_argument("--seed", type=non_negative_int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen_data)

    tr = sub.add_parser("train", help="train a model and write its trace CSV")
    tr.add_argument("--config", required=True, help="INI file with a [train] section")
    tr.add_argument("--data", help="dataset CSV")
    tr.add_argument("--images", help="IDX image file (with --labels)")
    tr.add_argument("--labels", help="IDX label file (with --images)")
    tr.add_argument("--limit", type=non_negative_int, default=0, help="0: every example")
    tr.add_argument("--out", required=True)
    tr.set_defaults(func=_cmd_train)

    bo = sub.add_parser("bounds", help="evaluate a rate bound or gap curve")
    bo.add_argument(
        "--setting",
        required=True,
        choices=tuple(bounds_mod._RATES) + tuple(_GAP_SETTINGS),
    )
    bo.add_argument("--eta", type=float, required=True)
    bo.add_argument("--gamma", type=float, required=True)
    bo.add_argument("--c", type=float, default=0.0)
    bo.add_argument("--d", type=int, default=0)
    bo.add_argument("--sigma", type=float, default=0.0)
    bo.add_argument("--form", choices=bounds_mod.FORMS, default="appendix")
    step_or_series = bo.add_mutually_exclusive_group(required=True)
    step_or_series.add_argument("--t", type=int, help="single step (prints the value)")
    step_or_series.add_argument("--out", help="series CSV output path")
    bo.add_argument("--t-max", type=int, help="last step of the --out series (default 10000)")
    bo.add_argument("--points", type=int, help="points of the --out series (default 200)")
    bo.set_defaults(func=_cmd_bounds)

    ae = sub.add_parser("attack-eval", help="accuracy-under-attack experiment")
    sw = sub.add_parser(
        "sweep", help="curvature sweep over (c, k) or (c, epsilon): the fig8/fig9 kinds"
    )
    sw.add_argument(
        "--mode", choices=tuple(_SWEEP_KINDS), required=True,
        help="clip: fig8-sweep; dp: fig9-sweep",
    )
    for verb in (ae, sw):
        verb.add_argument("--out-dir", required=True)
        verb.add_argument("--seeds", default="0")
        verb.add_argument(
            "--param",
            action="append",
            metavar="KEY=VALUE",
            help="override a [params] key of the kind (repeatable)",
        )
        verb.set_defaults(func=_cmd_kind)

    ex = sub.add_parser("experiment", help="run an experiment config end to end")
    ex.add_argument("--config", required=True)
    ex.set_defaults(func=_cmd_experiment)

    pl = sub.add_parser("plot", help="render a CSV as a deterministic SVG")
    pl.add_argument("--csv", required=True)
    pl.add_argument("--out", required=True)
    pl.add_argument("--x", required=True, help="x column name")
    pl.add_argument("--y", help="comma-separated series columns (default: all)")
    pl.add_argument("--title", default="")
    pl.add_argument("--x-label", default="")
    pl.add_argument("--y-label", default="")
    pl.add_argument("--log-x", action="store_true")
    pl.add_argument("--linear-y", action="store_true", help="disable the default log y axis")
    pl.set_defaults(func=_cmd_plot)

    ve = sub.add_parser("verify", help="check experiment artifacts; exit 3 on violations")
    ve.add_argument("--run", required=True, help="experiment output directory")
    ve.set_defaults(func=_cmd_verify)

    dp = sub.add_parser("dp", help="privacy accountant: epsilon from sigma or vice versa")
    solve = dp.add_mutually_exclusive_group(required=True)
    solve.add_argument("--sigma", type=float, help="noise multiplier (solves epsilon)")
    solve.add_argument("--epsilon", type=float, help="privacy budget (solves sigma)")
    dp.add_argument("--delta", type=float, default=1e-5)
    dp.add_argument("--steps", type=int, required=True)
    dp.add_argument("--lipschitz", type=float, default=1.0)
    dp.add_argument("--radius", type=float, default=0.0)
    dp.add_argument("--dimension", type=int, default=1)
    dp.add_argument("--lambda-max", type=int, default=512)
    dp.set_defaults(func=_cmd_dp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.verb in _SEEDED_VERBS:
            args.env_seed = _env_seed()
        return args.func(args)
    except (ValueError, KeyError, configparser.Error, FileNotFoundError) as exc:
        # includes DataFormatError / InvalidRegimeError (ValueError subclasses)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RpoptError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
