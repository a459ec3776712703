import hashlib
import json
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rpopt.cli import load_train_config, main
from rpopt.data import Dataset, load_csv, read_table, save_csv, write_idx, write_table
from rpopt import curvature, experiments, report
from rpopt.errors import DataFormatError, ExperimentError
from rpopt.experiments import (
    KINDS,
    MANIFEST_NAME,
    ExperimentConfig,
    artifact_name,
    load_experiment_config,
    parse_grid,
    parse_p,
    parse_seeds,
    resolve_params,
    run_experiment,
)
from rpopt.plotting import PlotSpec, render_plot
from rpopt.report import _average_ranks, verify_report


class TestParsers:
    def test_parse_seeds(self):
        assert parse_seeds("7") == (7,)
        assert parse_seeds("0,1,2") == (0, 1, 2)
        assert parse_seeds("5:3") == (5, 6, 7)
        assert parse_seeds(" 4 ") == (4,)
        with pytest.raises(ValueError):
            parse_seeds("5:0")
        with pytest.raises(ValueError):
            parse_seeds("a,b")

    def test_parse_grid_plain_and_log(self):
        assert parse_grid("0,0.5,1") == [0.0, 0.5, 1.0]
        log = parse_grid("1:100:3")
        assert log == pytest.approx([1.0, 10.0, 100.0])
        assert parse_grid("inf") == [math.inf]
        mixed = parse_grid("0,0.1:10:5")
        assert mixed[0] == 0.0 and len(mixed) == 6
        assert parse_grid("0.1:3:10")[0] == pytest.approx(0.1)
        assert parse_grid("0.1:3:10")[-1] == pytest.approx(3.0)

    def test_parse_p_takes_two_or_inf(self):
        assert parse_p("2") == 2.0 and parse_p(" inf ") == math.inf
        assert parse_p(2) == 2.0 and parse_p("Infinity") == math.inf
        for bad in ("1", "3", "nan", "-inf", "two", "oo"):
            with pytest.raises(ValueError):
                parse_p(bad)

    def test_parse_grid_rejects_bad_input(self):
        with pytest.raises(ValueError, match="positive"):
            parse_grid("0:10:5")
        with pytest.raises(ValueError, match="empty"):
            parse_grid(" , ")

    def test_grid_ranges_are_checked_on_read(self):
        config = ExperimentConfig(
            kind="fig8-sweep", output_dir="x", seeds=(0,),
            params={"c_grid": "0,0.01:0.1:2", "k_grid": "0.5,inf"},  # inf: an unclipped column
        )
        params = experiments.resolve_params(config)
        assert (params["c_grid"], params["k_grid"]) == ("0,0.01:0.1:2", "0.5,inf")
        with pytest.raises(ValueError, match=r"\[params\] c_grid: must be finite"):
            ExperimentConfig(kind="fig8-sweep", output_dir="x", seeds=(0,),
                             params={"c_grid": "0,-0.05"})


class TestExperimentConfig:
    def test_unknown_kind_and_params(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            ExperimentConfig(kind="fig7", output_dir="x", seeds=(0,), params={})
        with pytest.raises(ValueError, match="unknown parameters"):
            ExperimentConfig(
                kind="fig1-convergence", output_dir="x", seeds=(0,), params={"stps": "10"}
            )
        with pytest.raises(ValueError, match="seeds"):
            ExperimentConfig(kind="fig1-convergence", output_dir="x", seeds=(), params={})
        assert len(KINDS) == 7

    def test_every_table_of_kinds_has_the_same_keys(self):
        assert KINDS == tuple(experiments._RUNNERS)
        for table in (experiments._DEFAULTS, experiments._RUNNERS, report._VERIFIERS):
            assert table.keys() == set(KINDS)

    def test_resolve_params_typing(self):
        config = ExperimentConfig(
            kind="fig1-convergence",
            output_dir="x",
            seeds=(0,),
            params={"d": "5", "sigma": "0.5"},
        )
        params = resolve_params(config)
        assert params["d"] == 5 and isinstance(params["d"], int)
        assert params["sigma"] == 0.5 and isinstance(params["sigma"], float)
        assert params["eta"] == 0.1  # untouched default

    def test_load_experiment_config(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\n"
            "kind = fig1-convergence\n"
            "output_dir = out/run  ; trailing comment\n"
            "seeds = 0:3\n"
            "\n"
            "[params]\n"
            "steps = 100\n",
            encoding="utf-8",
        )
        config = load_experiment_config(str(path))
        assert config.kind == "fig1-convergence"
        assert config.output_dir == "out/run"
        assert config.seeds == (0, 1, 2)
        assert config.params == {"steps": "100"}

    def test_load_experiment_config_errors(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_experiment_config(str(tmp_path / "missing.ini"))
        bare = tmp_path / "bare.ini"
        bare.write_text("[params]\nd = 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"\[experiment\]"):
            load_experiment_config(str(bare))
        no_out = tmp_path / "noout.ini"
        no_out.write_text("[experiment]\nkind = bounds-only\n", encoding="utf-8")
        with pytest.raises(ValueError, match="output_dir"):
            load_experiment_config(str(no_out))


_TINY_SWEEP = {"n": "60", "steps": "3", "c_grid": "0,0.05", "curvature_examples": "16",
               "curvature_iters": "20"}
_TINY_PARAMS = {
    "fig1-convergence": {"d": "5", "n": "40", "steps": "20"},
    "fig2-gap": {"t_max": "1000", "points": "20"},
    "fig3-robust-compare": {"n": "40", "steps": "20"},
    "fig8-sweep": {**_TINY_SWEEP, "k_grid": "1"},
    "fig9-sweep": {**_TINY_SWEEP, "eps_grid": "1"},
    "bounds-only": {"t_max": "100", "points": "10"},
    "attack-eval": {"n": "80", "steps": "20", "attack_steps": "3", "budgets": "0,0.1"},
}


class TestRunExperiment:
    def _fig1_config(self, out_dir):
        return ExperimentConfig(
            kind="fig1-convergence",
            output_dir=str(out_dir),
            seeds=(0, 1),
            params={"d": "5", "n": "40", "steps": "60"},
        )

    def test_fig1_artifacts_and_manifest(self, tmp_path):
        out = tmp_path / "fig1"
        paths = run_experiment(self._fig1_config(out))
        assert [os.path.basename(p) for p in paths] == [
            "fig1-convergence.csv",
            MANIFEST_NAME,
        ]
        table = read_table(str(out / "fig1-convergence.csv"))
        assert table["t"].shape == (60,)
        assert "bound_robust_private" in table
        manifest = json.loads((out / MANIFEST_NAME).read_text(encoding="utf-8"))
        assert manifest["kind"] == "fig1-convergence"
        assert manifest["seeds"] == [0, 1]
        assert manifest["params"]["d"] == 5
        assert manifest["params"]["sigma"] == 0.25  # default echoed
        assert manifest["artifacts"] == ["fig1-convergence.csv"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_kind_writes_one_artifact_that_verify_reads(self, tmp_path, kind):
        out = tmp_path / "run"
        params = _TINY_PARAMS[kind]
        run_experiment(ExperimentConfig(kind=kind, output_dir=str(out), seeds=(0,), params=params))
        assert sorted(os.listdir(out)) == sorted([artifact_name(kind), MANIFEST_NAME])
        manifest = json.loads((out / MANIFEST_NAME).read_text(encoding="utf-8"))
        assert manifest["artifacts"] == [artifact_name(kind)]
        report = verify_report(str(out))
        assert report.kind == kind and report.checks

    def test_fig1_is_deterministic(self, tmp_path):
        run_experiment(self._fig1_config(tmp_path / "a"))
        run_experiment(self._fig1_config(tmp_path / "b"))
        a = (tmp_path / "a" / "fig1-convergence.csv").read_bytes()
        b = (tmp_path / "b" / "fig1-convergence.csv").read_bytes()
        assert a == b

    def test_fig2_runs_and_verifies(self, tmp_path):
        out = tmp_path / "fig2"
        config = ExperimentConfig(
            kind="fig2-gap", output_dir=str(out), seeds=(0,), params={"points": "60"}
        )
        run_experiment(config)
        report = verify_report(str(out))
        assert report.kind == "fig2-gap"
        assert report.passed, "\n".join(report.lines())

    def test_bounds_only_runs_and_verifies(self, tmp_path):
        out = tmp_path / "bounds"
        config = ExperimentConfig(
            kind="bounds-only",
            output_dir=str(out),
            seeds=(0,),
            params={"t_max": "1000", "points": "50"},
        )
        run_experiment(config)
        report = verify_report(str(out))
        assert report.passed, "\n".join(report.lines())

    def test_attack_eval_runs_and_verifies(self, tmp_path):
        out = tmp_path / "attack"
        config = ExperimentConfig(
            kind="attack-eval",
            output_dir=str(out),
            seeds=(0,),
            params={
                "n": "200",
                "steps": "150",
                "attack_steps": "30",
                "budgets": "0,0.1,0.2",
            },
        )
        run_experiment(config)
        report = verify_report(str(out))
        assert report.passed, "\n".join(report.lines())
        table = read_table(str(out / "attack-eval.csv"))
        np.testing.assert_array_equal(table["acc_standard"], table["exact_acc_standard"])

    def test_missing_input_file_fails_cleanly(self, tmp_path):
        out = tmp_path / "fig8"
        config = ExperimentConfig(
            kind="fig8-sweep",
            output_dir=str(out),
            seeds=(0,),
            params={"images": str(tmp_path / "nope.idx"), "labels": str(tmp_path / "nope2.idx")},
        )
        # a fault of the inputs, not of the run: ValueError (exit 1), naming the stage
        with pytest.raises(ValueError, match="load-data"):
            run_experiment(config)
        assert not out.exists()

    def test_failure_discards_partial_artifacts(self, tmp_path, monkeypatch):
        import rpopt.experiments as exp

        real = exp.write_table

        def sabotaged(path, header, rows):
            real(path, header, rows)
            raise RuntimeError("disk full")

        monkeypatch.setattr(exp, "write_table", sabotaged)
        out = tmp_path / "parent" / "run"
        config = ExperimentConfig(
            kind="bounds-only",
            output_dir=str(out),
            seeds=(0,),
            params={"t_max": "100", "points": "10"},
        )
        with pytest.raises(ExperimentError, match="write-csv"):
            run_experiment(config)
        # the parent is made up front; the output directory only on success
        assert os.listdir(tmp_path / "parent") == []

    def test_failed_rerun_leaves_previous_run_untouched(self, tmp_path, monkeypatch):
        import rpopt.experiments as exp

        out = tmp_path / "run"
        config = ExperimentConfig(
            kind="bounds-only",
            output_dir=str(out),
            seeds=(0,),
            params={"t_max": "100", "points": "10"},
        )
        run_experiment(config)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert set(before) == {"bounds-only.csv", MANIFEST_NAME}
        real = exp.write_table

        def sabotaged(path, header, rows):
            real(path, header, rows)
            raise RuntimeError("disk full")

        monkeypatch.setattr(exp, "write_table", sabotaged)
        rerun = ExperimentConfig(
            kind="bounds-only",
            output_dir=str(out),
            seeds=(0,),
            params={"t_max": "1000", "points": "20"},
        )
        with pytest.raises(ExperimentError, match="write-csv"):
            run_experiment(rerun)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert os.listdir(tmp_path) == ["run"]

    def test_failed_move_leaves_no_manifest(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        config = ExperimentConfig(
            kind="bounds-only",
            output_dir=str(out),
            seeds=(0,),
            params={"t_max": "100", "points": "10"},
        )
        run_experiment(config)

        def no_room(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", no_room)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(config)
        assert not (out / MANIFEST_NAME).exists()
        assert os.listdir(tmp_path) == ["run"]


class TestVerifyReportFaults:
    def _bounds_run(self, tmp_path):
        out = tmp_path / "bounds"
        run_experiment(
            ExperimentConfig(
                kind="bounds-only",
                output_dir=str(out),
                seeds=(0,),
                params={"t_max": "100", "points": "10"},
            )
        )
        return out

    def test_corrupted_column_fails_named_check(self, tmp_path):
        out = self._bounds_run(tmp_path)
        csv_path = out / "bounds-only.csv"
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        col = header.index("bound_private")
        fields = lines[1].split(",")
        fields[col] = "-1.0"
        lines[1] = ",".join(fields)
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = verify_report(str(out))
        assert not report.passed
        failed = {check.name for check in report.checks if not check.passed}
        assert "all bound values positive" in failed
        assert "bound_private >= bound_nominal pointwise" in failed

    @pytest.mark.parametrize("examples, passed", [(1, True), (2, False)])
    def test_attack_eval_slack_is_one_and_a_half_test_examples(
        self, tmp_path, examples, passed
    ):
        # the defaults test on 150 of 600 examples: one example of
        # disagreement with the closed form is within the slack, two are not
        out = tmp_path / "attack"
        run_experiment(
            ExperimentConfig(kind="attack-eval", output_dir=str(out), seeds=(0,), params={})
        )
        csv_path = str(out / "attack-eval.csv")
        table = read_table(csv_path)
        table["acc_standard"][0] -= examples / 150
        write_table(csv_path, list(table), zip(*table.values()))
        (check,) = [
            check for check in verify_report(str(out)).checks
            if check.name == "acc_standard matches the closed form"
        ]
        assert check.passed is passed, check.measured

    def test_constant_column_makes_spearman_undefined(self, tmp_path):
        out = tmp_path / "fig8"
        out.mkdir()
        (out / MANIFEST_NAME).write_text(json.dumps({"kind": "fig8-sweep"}), encoding="utf-8")
        rows = [
            "c,k_or_epsilon,lambda_max,test_accuracy,theta_norm,converged,diverged",
            "0,0.1,0.3,1,2.0,1,0",
            "0,1,0.2,1,2.5,1,0",
            "0.01,0.1,0.5,1,1.5,1,0",
        ]
        (out / "fig8-sweep.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        checks = {check.name: check for check in verify_report(str(out)).checks}
        accuracy = checks["spearman(test accuracy, lambda_max) < 0"]
        assert not accuracy.passed
        assert "undefined" in accuracy.measured and "test_accuracy" in accuracy.measured
        assert "nan" not in accuracy.measured
        assert checks["spearman(lambda_max, c) > 0"].passed

    def test_nan_makes_spearman_undefined_and_says_where(self, tmp_path):
        out = tmp_path / "fig8"
        out.mkdir()
        (out / MANIFEST_NAME).write_text(json.dumps({"kind": "fig8-sweep"}), encoding="utf-8")
        rows = [
            "c,k_or_epsilon,lambda_max,test_accuracy,theta_norm,converged,diverged",
            "0,0.1,0.3,0.9,2.0,1,0",
            "0,1,nan,0.8,2.5,0,0",
            "0.01,0.1,0.5,0.7,1.5,1,0",
        ]
        (out / "fig8-sweep.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        checks = verify_report(str(out)).checks
        assert len(checks) == 3
        for check in checks:  # every fig8 check reads lambda_max
            assert not check.passed
            assert check.measured == "coefficient undefined: NaN in column lambda_max"

    @pytest.mark.parametrize("seed", range(6))
    def test_spearman_coefficient_matches_scipy(self, tmp_path, seed):
        from scipy.stats import rankdata, spearmanr

        rng = np.random.default_rng(seed)
        n = 3 + 11 * seed
        # ties in every column: grid values, rounded accuracies
        table = {
            "c": rng.choice([0.0, 0.01, 0.05], n),
            "k_or_epsilon": rng.choice([0.1, 1.0, 3.0, 10.0], n),
            "lambda_max": np.round(rng.exponential(size=n), 1),
            "test_accuracy": np.round(rng.uniform(size=n), 2),
            "theta_norm": rng.uniform(size=n),
            "converged": np.ones(n),
            "diverged": np.zeros(n),
        }
        table["c"][:2] = (0.0, 0.05)  # no column is constant
        for column in table.values():
            np.testing.assert_array_equal(_average_ranks(column), rankdata(column))
        out = tmp_path / "fig8"
        out.mkdir()
        (out / MANIFEST_NAME).write_text(json.dumps({"kind": "fig8-sweep"}), encoding="utf-8")
        lines = [",".join(table)]
        lines += [",".join(repr(float(v)) for v in row) for row in zip(*table.values())]
        (out / "fig8-sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        measured = [check.measured for check in verify_report(str(out)).checks]
        pairs = [
            ("lambda_max", "c"), ("lambda_max", "k_or_epsilon"), ("test_accuracy", "lambda_max")
        ]
        assert measured == [
            f"coefficient {float(spearmanr(table[a], table[b]).statistic):.4f}" for a, b in pairs
        ]

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=MANIFEST_NAME):
            verify_report(str(tmp_path))

    def test_unknown_kind_in_manifest(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text('{"kind": "fig99"}', encoding="utf-8")
        with pytest.raises(ValueError, match="fig99"):
            verify_report(str(tmp_path))


class TestPlotting:
    def _csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text(
            "t,alpha,beta\n1,1.0,2.0\n10,0.5,1.0\n100,0.25,0.5\n", encoding="utf-8"
        )
        return str(path)

    def test_svg_is_deterministic_and_well_formed(self, tmp_path):
        csv_path = self._csv(tmp_path)
        spec = PlotSpec(x_column="t", log_x=True, title="a <b> & \"c\" 'd' title")
        out1, out2 = str(tmp_path / "p1.svg"), str(tmp_path / "p2.svg")
        render_plot(csv_path, spec, out1)
        render_plot(csv_path, spec, out2)
        data = open(out1, "rb").read()
        assert data == open(out2, "rb").read()
        text = data.decode("utf-8")
        assert text.startswith("<svg ")
        assert text.count("<polyline") == 2
        # element text escapes &, < and >; quotes stay as written
        assert "a &lt;b&gt; &amp; \"c\" 'd' title" in text
        assert "alpha" in text and "beta" in text

    def test_column_selection_and_errors(self, tmp_path):
        csv_path = self._csv(tmp_path)
        out = str(tmp_path / "one.svg")
        render_plot(csv_path, PlotSpec(x_column="t", y_columns=("alpha",)), out)
        assert open(out).read().count("<polyline") == 1
        with pytest.raises(DataFormatError, match="no column"):
            render_plot(csv_path, PlotSpec(x_column="zeta"), out)
        with pytest.raises(DataFormatError, match="no column"):
            render_plot(csv_path, PlotSpec(x_column="t", y_columns=("nope",)), out)

    def test_log_scale_needs_positive_data(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("t,v\n1,-1.0\n2,-2.0\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="finite"):
            render_plot(str(path), PlotSpec(x_column="t"), str(tmp_path / "neg.svg"))

    def test_read_table_errors(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(DataFormatError, match="empty"):
            read_table(str(empty))
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("a,b\n1,2\n3\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="ragged.csv:3: expected 2 fields, got 1"):
            read_table(str(ragged))
        alpha = tmp_path / "alpha.csv"
        alpha.write_text("a,b\n1,2\n1,x\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="alpha.csv:3: non-numeric value 'x'"):
            read_table(str(alpha))
        repeated = tmp_path / "repeated.csv"
        repeated.write_text("a,b,a\n1,2,3\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="repeated column"):
            read_table(str(repeated))


def _write_ini(path, kind, output_dir, params, seeds="0"):
    path.write_text(
        f"[experiment]\nkind = {kind}\noutput_dir = {output_dir}\nseeds = {seeds}\n\n"
        "[params]\n" + "".join(f"{key} = {value}\n" for key, value in params.items()),
        encoding="utf-8",
    )
    return path


@pytest.fixture()
def run_cli(capsys):
    def invoke(*argv, env_seed=None):
        old = os.environ.get("RPOPT_SEED")
        if env_seed is not None:
            os.environ["RPOPT_SEED"] = str(env_seed)
        try:
            code = main([str(a) for a in argv])
        finally:
            if env_seed is not None:
                if old is None:
                    os.environ.pop("RPOPT_SEED", None)
                else:
                    os.environ["RPOPT_SEED"] = old
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestCliInProcess:
    def test_gen_data_and_seed_override(self, run_cli, tmp_path):
        a, b, c = (str(tmp_path / name) for name in ("a.csv", "b.csv", "c.csv"))
        code, out, _ = run_cli("gen-data", "--d", 4, "--n", 30, "--seed", 3, "--out", a)
        assert code == 0 and "30 examples" in out
        run_cli("gen-data", "--d", 4, "--n", 30, "--seed", 0, "--out", b, env_seed=3)
        run_cli("gen-data", "--d", 4, "--n", 30, "--seed", 0, "--out", c)
        assert open(a, "rb").read() == open(b, "rb").read()
        assert open(a, "rb").read() != open(c, "rb").read()
        assert load_csv(a).n == 30

    def test_gen_data_equal_margin(self, run_cli, tmp_path):
        out = str(tmp_path / "eq.csv")
        code, text, _ = run_cli(
            "gen-data", "--kind", "equal-margin", "--d", 4, "--n", 20,
            "--margin", 0.2, "--jitter", 0.1, "--out", out,
        )
        assert code == 0 and "margin=0.2" in text
        ds = load_csv(out)
        assert ds.n == 20

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--kind", "equal-margin", "--gamma", 0.5), "--gamma"),
            (("--margin", 0.2), "--margin"),
            (("--kind", "separable", "--margin", 0.2, "--jitter", 0.1), "--margin and --jitter"),
            (("--jitter", 0.1), "--jitter"),
        ],
        ids=["equal-margin-gamma", "margin", "separable-margin-jitter", "jitter"],
    )
    def test_gen_data_rejects_a_flag_of_the_other_kind(self, run_cli, tmp_path, flags, named):
        out = tmp_path / "data.csv"
        code, _, err = run_cli("gen-data", "--d", 4, "--n", 20, *flags, "--out", out)
        assert code == 1 and f"{named} cannot go with --kind" in err, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, given",
        [
            ((), ("--gamma", 0.3)),
            (("--kind", "equal-margin"), ("--margin", 0.3, "--jitter", 0.01)),
        ],
        ids=["separable", "equal-margin"],
    )
    def test_gen_data_defaults_per_kind(self, run_cli, tmp_path, flags, given):
        default, stated = tmp_path / "default.csv", tmp_path / "stated.csv"
        code, text, _ = run_cli("gen-data", "--d", 4, "--n", 20, *flags, "--out", default)
        assert code == 0
        code, stated_text, _ = run_cli(
            "gen-data", "--d", 4, "--n", 20, *flags, *given, "--out", stated
        )
        assert code == 0
        assert default.read_bytes() == stated.read_bytes()
        assert text.split(": ")[1] == stated_text.split(": ")[1]

    def test_train_roundtrip(self, run_cli, tmp_path):
        data = str(tmp_path / "data.csv")
        run_cli("gen-data", "--d", 4, "--n", 40, "--seed", 1, "--out", data)
        ini = tmp_path / "train.ini"
        ini.write_text(
            "[train]\neta = 0.5\nsteps = 25\nc = 0.05\np = inf\nseed = 2\n",
            encoding="utf-8",
        )
        trace_path = str(tmp_path / "trace.csv")
        code, out, err = run_cli("train", "--config", str(ini), "--data", data, "--out", trace_path)
        assert code == 0 and "25 steps" in out
        trace = read_table(trace_path)
        assert trace["t"].shape == (26,)

    def test_train_warns_on_bad_regime(self, run_cli, tmp_path):
        data = str(tmp_path / "data.csv")
        run_cli("gen-data", "--d", 4, "--n", 40, "--out", data)
        ini = tmp_path / "train.ini"
        ini.write_text("[train]\neta = 5.0\nsteps = 3\n", encoding="utf-8")
        code, _, err = run_cli("train", "--config", str(ini), "--data", data,
                               "--out", str(tmp_path / "t.csv"))
        assert code == 0
        assert "warning:" in err and "eta" in err

    def test_train_on_a_csv_says_the_worst_case_regime_is_unchecked(self, run_cli, tmp_path):
        # the generated data have margin 0.302, so c = 0.9 breaks c < gamma/2,
        # but the CSV stores no separator and hence no margin to check against
        data = str(tmp_path / "data.csv")
        _, out, _ = run_cli(
            "gen-data", "--d", 4, "--n", 40, "--gamma", 0.3, "--seed", 1, "--out", data
        )
        assert "margin=0.302" in out
        ini = tmp_path / "train.ini"
        ini.write_text("[train]\neta = 3.9\nsteps = 3\nc = 0.9\n", encoding="utf-8")
        argv = ("train", "--config", str(ini), "--data", data, "--out", str(tmp_path / "t.csv"))
        code, _, err = run_cli(*argv)
        assert code == 0
        assert "c < gamma/2 and s * eta < 1 not checked" in err
        assert "carries no margin" in err
        ini.write_text("[train]\neta = 3.9\nsteps = 3\n", encoding="utf-8")
        code, _, err = run_cli(*argv)
        assert code == 0 and "warning" not in err

    def test_train_requires_data_source(self, run_cli, tmp_path):
        ini = tmp_path / "train.ini"
        ini.write_text("[train]\neta = 0.5\nsteps = 3\n", encoding="utf-8")
        code, _, err = run_cli("train", "--config", str(ini), "--out", str(tmp_path / "t.csv"))
        assert code == 1 and "error:" in err

    def test_train_rejects_unknown_keys(self, run_cli, tmp_path):
        data = str(tmp_path / "data.csv")
        run_cli("gen-data", "--d", 4, "--n", 40, "--out", data)
        ini = tmp_path / "train.ini"
        ini.write_text("[train]\neta = 0.5\nstpes = 5000\n", encoding="utf-8")
        out = tmp_path / "t.csv"
        code, _, err = run_cli("train", "--config", str(ini), "--data", data, "--out", str(out))
        assert code == 1 and "stpes" in err
        assert not out.exists()

    def test_train_limit_zero_reads_every_example(self, run_cli, tmp_path):
        rng = np.random.default_rng(3)
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(rng.uniform(size=(12, 3, 3)), np.arange(12) % 3, images, labels)
        ini = tmp_path / "train.ini"
        ini.write_text("[train]\neta = 0.5\nsteps = 4\n", encoding="utf-8")
        outputs = {}
        for limit in ("0", "12", "5", None):
            out = tmp_path / f"trace-{limit}.csv"
            flags = () if limit is None else ("--limit", limit)
            code, _, err = run_cli("train", "--config", ini, "--images", images,
                                   "--labels", labels, *flags, "--out", out)
            assert code == 0, err
            outputs[limit] = out.read_bytes()
        assert outputs["0"] == outputs["12"] == outputs[None] != outputs["5"]
        code, _, err = run_cli("train", "--config", ini, "--images", images,
                               "--labels", labels, "--limit", "-1", "--out", tmp_path / "t")
        assert code == 1 and "--limit" in err

    def test_train_limit_keeps_the_first_csv_rows(self, run_cli, tmp_path):
        # rows of norm up to 3, the largest beyond the limit: the kept rows
        # are rescaled by their own largest norm, as a file of them alone is
        rng = np.random.default_rng(5)
        features = rng.uniform(-1.0, 1.0, size=(12, 3))
        features[8] *= 3.0
        labels = np.where(np.arange(12) % 2 == 0, 1, -1)
        lines = ["label,x0,x1,x2"] + [
            ",".join([str(label)] + [repr(float(v)) for v in row])
            for label, row in zip(labels, features)
        ]
        full, head = tmp_path / "full.csv", tmp_path / "head.csv"
        full.write_text("\n".join(lines) + "\n", encoding="utf-8")
        head.write_text("\n".join(lines[:6]) + "\n", encoding="utf-8")
        ini = tmp_path / "train.ini"
        ini.write_text("[train]\neta = 0.5\nsteps = 4\n", encoding="utf-8")
        outputs = {}
        for name, data, flags in (
            ("full", full, ()), ("limit 0", full, ("--limit", 0)),
            ("limit 5", full, ("--limit", 5)), ("head", head, ()),
        ):
            out = tmp_path / f"trace-{name}.csv"
            code, _, err = run_cli("train", "--config", ini, "--data", data, *flags, "--out", out)
            assert code == 0, err
            outputs[name] = out.read_bytes()
        assert outputs["limit 5"] == outputs["head"] != outputs["full"] == outputs["limit 0"]

    def test_train_rejects_batch_as_an_unknown_key(self, run_cli, tmp_path):
        # every step takes the whole training set: no key selects a batch
        data = str(tmp_path / "data.csv")
        run_cli("gen-data", "--d", 4, "--n", 40, "--out", data)
        ini = tmp_path / "train.ini"
        ini.write_text("[train]\neta = 0.5\nsteps = 5\nbatch = 0\n", encoding="utf-8")
        out = tmp_path / "t.csv"
        code, _, err = run_cli("train", "--config", str(ini), "--data", data, "--out", str(out))
        assert code == 1 and "[train]: unknown parameters ['batch']" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["fig8-sweep", "fig9-sweep"])
    def test_sweep_kind_rejects_batch_as_an_unknown_key_on_read(self, run_cli, tmp_path, kind):
        ini = tmp_path / "exp.ini"
        out = tmp_path / "out"
        ini.write_text(
            f"[experiment]\nkind = {kind}\noutput_dir = {out}\n\n"
            "[params]\nn = 60\nsteps = 2\nbatch = 0\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"\[params\]: unknown parameters \['batch'\]"):
            load_experiment_config(str(ini))
        code, _, err = run_cli("experiment", "--config", str(ini))
        assert code == 1 and "[params]: unknown parameters ['batch']" in err
        assert not out.exists()

    def test_load_train_config_errors(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_train_config(str(tmp_path / "none.ini"))
        bad = tmp_path / "bad.ini"
        bad.write_text("[other]\nx = 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"\[train\]"):
            load_train_config(str(bad))

    def test_bounds_single_value_and_series(self, run_cli, tmp_path):
        code, out, _ = run_cli(
            "bounds", "--setting", "nominal", "--eta", 0.1, "--gamma", 1.0, "--t", 1
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(11.243965681605893, rel=1e-14)
        series = str(tmp_path / "series.csv")
        code, out, _ = run_cli(
            "bounds", "--setting", "gap-private", "--eta", 0.1, "--gamma", 1.0,
            "--c", 0.1, "--d", 10, "--sigma", 0.25, "--t-max", 1000, "--points", 30,
            "--out", series,
        )
        assert code == 0
        table = read_table(series)
        assert "gap_private" in table and table["t"][0] == 1

    def test_bounds_regime_error_exits_one(self, run_cli):
        code, _, err = run_cli(
            "bounds", "--setting", "nominal", "--eta", 4.0, "--gamma", 1.0, "--t", 1
        )
        assert code == 1 and "eta < 4" in err

    def test_bounds_needs_t_or_out(self, run_cli):
        code, _, err = run_cli("bounds", "--setting", "nominal", "--eta", 0.1, "--gamma", 1.0)
        assert code == 1 and "--t" in err

    ROBUST = ("bounds", "--setting", "robust", "--eta", 0.1, "--gamma", 1.0, "--c", 0.1)

    @pytest.mark.parametrize(
        "flags, named",
        [(("--out", "x.csv"), "--out"), (("--t-max", 50), "--t-max"),
         (("--points", 5, "--t-max", 50), "--t-max and --points")],
        ids=["out", "t-max", "points-and-t-max"],
    )
    def test_bounds_t_takes_no_series_flag(self, run_cli, tmp_path, monkeypatch, flags, named):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(*self.ROBUST, "--t", 10, *flags)
        assert code == 1 and out == "" and named in err
        assert not os.listdir(tmp_path)

    def test_bounds_t_or_out_alone_gives_the_recorded_output(self, run_cli, tmp_path):
        code, out, _ = run_cli(*self.ROBUST, "--t", 10)
        assert code == 0 and out == "7.0313703487452148\n"
        series = tmp_path / "series.csv"
        code, _, _ = run_cli(*self.ROBUST, "--out", series)
        assert code == 0
        assert hashlib.sha256(series.read_bytes()).hexdigest() == (
            "30e55e79dffd72512db7837c01a03859ffcfb26d515b601268fd224360aada89"
        )

    def test_dp_solver_roundtrip(self, run_cli):
        code, out, _ = run_cli("dp", "--epsilon", 2.0, "--delta", 1e-5, "--steps", 100)
        assert code == 0
        assert out == (
            "sigma = 49.9858398438\nepsilon_achieved = 1.99999976825\norder = 12\n"
            "implied_constant = 8.68097059253\n"
        )
        code, out, _ = run_cli("dp", "--sigma", 49.98583984375, "--delta", 1e-5, "--steps", 100)
        assert code == 0
        assert out == "epsilon = 1.99999976825\norder = 12\nsensitivity = 2\n"

    def test_dp_missing_flag_exits_one(self, run_cli):
        # exactly one of --sigma (solves epsilon) and --epsilon (solves sigma)
        for flags, message in [
            ((), "one of the arguments --sigma --epsilon is required"),
            (("--sigma", 1, "--epsilon", 3), "not allowed with"),
            (("--solve", "epsilon", "--sigma", 1), "--solve"),
        ]:
            code, out, err = run_cli("dp", *flags, "--steps", 10)
            assert code == 1 and message in err and out == "", err

    def test_unreachable_epsilon_exits_one(self, run_cli):
        code, _, err = run_cli("dp", "--epsilon", 0.01, "--delta", 1e-5, "--steps", 10)
        assert code == 1 and "raise lambda_max" in err

    def test_experiment_and_verify_flow(self, run_cli, tmp_path):
        out_dir = tmp_path / "run"
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[experiment]\n"
            "kind = bounds-only\n"
            f"output_dir = {out_dir}\n"
            "seeds = 0\n"
            "[params]\n"
            "t_max = 100\n"
            "points = 10\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli("experiment", "--config", str(ini))
        assert code == 0 and "manifest.json" in out
        code, out, _ = run_cli("verify", "--run", str(out_dir))
        assert code == 0
        assert "result: all checks passed" in out

    def test_verify_exit_three_on_violation(self, run_cli, tmp_path):
        out_dir = tmp_path / "run"
        run_experiment(
            ExperimentConfig(
                kind="bounds-only",
                output_dir=str(out_dir),
                seeds=(0,),
                params={"t_max": "100", "points": "10"},
            )
        )
        csv_path = out_dir / "bounds-only.csv"
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        fields = lines[1].split(",")
        fields[header.index("bound_nominal")] = "-5.0"
        lines[1] = ",".join(fields)
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run_cli("verify", "--run", str(out_dir))
        assert code == 3
        assert "FAIL" in out and "violations found" in out

    @pytest.mark.parametrize(
        "kind, params, column, key",
        [
            ("fig2-gap", {"t_max": "1000", "points": "20"}, "gap_nonprivate", None),
            ("bounds-only", {"t_max": "100", "points": "10"}, "bound_robust", None),
            ("fig3-robust-compare", {"steps": "20"}, None, "eta"),
            ("attack-eval", {"n": "80", "steps": "20", "attack_steps": "3"}, None, "c_train"),
        ],
        ids=["fig2-column", "bounds-only-column", "fig3-param", "attack-eval-param"],
    )
    def test_verify_names_what_a_damaged_run_lacks(
        self, run_cli, tmp_path, kind, params, column, key
    ):
        out_dir = tmp_path / "run"
        run_experiment(ExperimentConfig(kind, str(out_dir), (0,), params))
        if column is not None:
            damaged = out_dir / artifact_name(kind)
            rows = [line.split(",") for line in damaged.read_text(encoding="utf-8").splitlines()]
            drop = rows[0].index(column)
            damaged.write_text(
                "".join(",".join(row[:drop] + row[drop + 1:]) + "\n" for row in rows),
                encoding="utf-8",
            )
        else:
            damaged = out_dir / MANIFEST_NAME
            manifest = json.loads(damaged.read_text(encoding="utf-8"))
            del manifest["params"][key]
            damaged.write_text(json.dumps(manifest), encoding="utf-8")
        code, out, err = run_cli("verify", "--run", str(out_dir))
        assert code == 1 and out == ""
        assert str(damaged) in err and repr(column or key) in err

    def test_experiment_unknown_kind_exits_one(self, run_cli, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[experiment]\nkind = fig42\noutput_dir = x\nseeds = 0\n", encoding="utf-8"
        )
        code, _, err = run_cli("experiment", "--config", str(ini))
        assert code == 1 and "fig42" in err

    def test_attack_eval_verb(self, run_cli, tmp_path):
        out_dir = tmp_path / "attack"
        code, out, _ = run_cli(
            "attack-eval", "--out-dir", str(out_dir), "--seeds", "0",
            "--param", "n=200", "--param", "steps=120",
            "--param", "attack_steps=25", "--param", "budgets=0,0.1",
        )
        assert code == 0
        code, _, _ = run_cli("verify", "--run", str(out_dir))
        assert code == 0

    def test_attack_eval_bad_param_exits_one(self, run_cli, tmp_path):
        code, _, err = run_cli(
            "attack-eval", "--out-dir", str(tmp_path / "x"), "--param", "oops"
        )
        assert code == 1 and "key=value" in err

    @pytest.fixture()
    def sweep_data(self, run_cli, tmp_path):
        data = str(tmp_path / "data.csv")
        run_cli("gen-data", "--d", 4, "--n", 60, "--seed", 2, "--out", data)
        return data

    def test_sweep_clip_mode(self, run_cli, tmp_path, sweep_data):
        out = tmp_path / "sweep"
        code, text, err = run_cli(
            "sweep", "--mode", "clip", "--out-dir", out,
            "--param", f"data_csv={sweep_data}", "--param", "c_grid=0,0.05",
            "--param", "k_grid=0.5,2.0", "--param", "eta=1.0", "--param", "steps=15",
            "--param", "curvature_examples=32",
        )
        assert code == 0, err
        assert text.splitlines() == [
            f"wrote {out / 'fig8-sweep.csv'}", f"wrote {out / MANIFEST_NAME}"
        ]
        table = read_table(str(out / "fig8-sweep.csv"))
        assert table["lambda_max"].shape == (4,)
        # separable data: every accuracy is 1, so verify runs and reports FAIL
        code, text, _ = run_cli("verify", "--run", out)
        assert code == 3 and "kind: fig8-sweep" in text

    @pytest.mark.parametrize(
        "mode, kind, params",
        [
            ("clip", "fig8-sweep", {"k_grid": "0.5,2", "eta": "1.0", "steps": "15"}),
            ("dp", "fig9-sweep", {"eps_grid": "2,20", "eta": "0.5", "steps": "10",
                                  "clip_k": "1.0"}),
        ],
    )
    def test_sweep_verb_runs_the_kind(self, run_cli, tmp_path, sweep_data, mode, kind, params):
        params = dict(params, data_csv=sweep_data, c_grid="0,0.05", curvature_examples="32")
        ini = _write_ini(tmp_path / "exp.ini", kind, tmp_path / "kind", params, seeds="3")
        code, _, err = run_cli("experiment", "--config", ini)
        assert code == 0, err
        overrides = [arg for k, v in params.items() for arg in ("--param", f"{k}={v}")]
        for name, flags, env_seed in (("verb", ("--seeds", 3), None), ("env", (), 3)):
            code, _, err = run_cli("sweep", "--mode", mode, "--out-dir", tmp_path / name,
                                   *flags, *overrides, env_seed=env_seed)
            assert code == 0, err
            for artifact in (f"{kind}.csv", MANIFEST_NAME):
                assert (tmp_path / name / artifact).read_bytes() == (
                    tmp_path / "kind" / artifact
                ).read_bytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_second_seed_is_used_or_refused(self, run_cli, tmp_path, kind):
        # fig1 averages its curves over the seeds; every other kind runs one
        # seed, so a manifest never lists a seed that no number came from
        outputs = {}
        for seeds in ("0,1", "0", "1"):
            out = tmp_path / seeds
            ini = _write_ini(tmp_path / f"{seeds}.ini", kind, out, _TINY_PARAMS[kind], seeds=seeds)
            code, _, err = run_cli("experiment", "--config", ini)
            if kind != "fig1-convergence" and seeds == "0,1":
                assert code == 1 and "[experiment] seeds" in err, err
                assert not out.exists()
                return
            assert code == 0, err
            outputs[seeds] = read_table(str(out / artifact_name(kind)))
        both = outputs["0,1"]
        assert np.all(both["se_private"][1:] > 0)
        for one in ("0", "1"):
            assert not np.array_equal(both["loss_private"], outputs[one]["loss_private"])
        assert np.array_equal(
            both["loss_private"], (outputs["0"]["loss_private"] + outputs["1"]["loss_private"]) / 2
        )

    def test_sweep_limit_keeps_the_first_csv_rows(self, run_cli, tmp_path, sweep_data):
        lines = Path(sweep_data).read_text(encoding="utf-8").splitlines()
        head = tmp_path / "head.csv"
        head.write_text("\n".join(lines[:31]) + "\n", encoding="utf-8")
        tables = {}
        for name, data, limit in (("limit 30", sweep_data, 30), ("head", head, 0)):
            params = dict(_TINY_PARAMS["fig8-sweep"], data_csv=data, limit=limit)
            ini = _write_ini(tmp_path / f"{name}.ini", "fig8-sweep", tmp_path / name, params)
            code, _, err = run_cli("experiment", "--config", ini)
            assert code == 0, err
            tables[name] = (tmp_path / name / "fig8-sweep.csv").read_bytes()
        assert tables["limit 30"] == tables["head"]

    @pytest.mark.parametrize("mode, kind", [("clip", "fig8-sweep"), ("dp", "fig9-sweep")])
    def test_sweep_kinds_take_one_seed(self, run_cli, tmp_path, sweep_data, mode, kind):
        # a seed is a whole sweep, and a sweep does not average over seeds
        params = dict(_TINY_PARAMS[kind], data_csv=sweep_data)
        ini = _write_ini(tmp_path / "exp.ini", kind, tmp_path / "kind", params, seeds="0,1")
        code, _, err = run_cli("experiment", "--config", ini)
        assert code == 1 and "[experiment] seeds" in err, err
        assert not (tmp_path / "kind").exists()
        overrides = [arg for k, v in params.items() for arg in ("--param", f"{k}={v}")]
        for seeds, expected in (("0:2", 1), ("1", 0)):
            out = tmp_path / f"seeds-{seeds}"
            code, _, err = run_cli(
                "sweep", "--mode", mode, "--out-dir", out, "--seeds", seeds, *overrides
            )
            assert code == expected, err
            assert ("[experiment] seeds" in err) == (expected == 1)
            assert out.exists() == (expected == 0)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the fault is planted by patching this process, which only a forked job "
        "process inherits",
    )
    @pytest.mark.parametrize("data", ["binary csv", "attacked multiclass idx"])
    def test_a_fault_in_a_row_process_fails_the_sweep_stage(
        self, run_cli, tmp_path, sweep_data, monkeypatch, data
    ):
        parent = os.getpid()
        real = curvature.train_stack

        def fault_in_a_job_process(dataset, configs):
            if os.getpid() != parent and configs[0].spec.c > 0:
                raise RuntimeError(f"planted fault in a job of size {len(configs)}")
            return real(dataset, configs)

        monkeypatch.setattr(curvature, "train_stack", fault_in_a_job_process)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = tmp_path / "kind"
        if data == "binary csv":
            params = dict(_TINY_PARAMS["fig8-sweep"], data_csv=sweep_data, k_grid="0.5,2")
            size = 2  # the whole c = 0.05 row
        else:
            images, labels = str(tmp_path / "images.idx"), str(tmp_path / "labels.idx")
            rng = np.random.default_rng(4)
            write_idx(rng.uniform(size=(48, 3, 3)), rng.integers(0, 3, size=48), images, labels)
            params = {"images": images, "labels": labels, "c_grid": "0,0.05",
                      "k_grid": "0.5,2", "steps": "3", "attack_steps": "2",
                      "eval_attack_steps": "2", "curvature_examples": "16",
                      "curvature_iters": "20"}
            size = 1  # one cell of the attacked row
        code, _, err = run_cli("experiment", "--config",
                               _write_ini(tmp_path / "exp.ini", "fig8-sweep", out, params))
        assert code == 2, err
        assert f"stage 'sweep' failed: planted fault in a job of size {size}" in err
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_fig1_stacks_run_as_jobs_with_the_same_csv(self, run_cli, tmp_path, monkeypatch):
        params = {"d": "5", "n": "40", "steps": "30"}
        tables = []
        for cpus in (1, 2):  # one CPU trains both stacks here, two in two processes
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            out = tmp_path / f"cpus{cpus}"
            ini = _write_ini(tmp_path / f"exp{cpus}.ini", "fig1-convergence", out, params,
                             seeds="0:3")
            code, _, err = run_cli("experiment", "--config", ini)
            assert code == 0, err
            tables.append((out / artifact_name("fig1-convergence")).read_bytes())
            assert multiprocessing.active_children() == []
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_diverging_fig1_stack_fails_the_train_stage(
        self, run_cli, tmp_path, monkeypatch, cpus
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        out = tmp_path / "fig1"
        params = {"d": "5", "n": "40", "steps": "20", "sigma": "1e308"}
        ini = _write_ini(tmp_path / "exp.ini", "fig1-convergence", out, params, seeds="0,1")
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, err = run_cli("experiment", "--config", ini)
        assert code == 2, err
        # the step comes back from a job process once, with fig1's training stage
        assert re.search(r"stage 'train' failed: training diverged at step \d+$", err,
                         re.MULTILINE), err
        assert err.count("diverged at step") == 1, err
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("source", ["csv", "idx"])
    def test_multiclass_sweep_rejects_p_2_with_a_budget(self, run_cli, tmp_path, source):
        # the frozen-attack lambda_max has no l2 norm term, so it would read
        # below the worst case's curvature
        rng = np.random.default_rng(5)
        features, labels = rng.uniform(0.0, 0.3, size=(48, 9)), rng.integers(0, 3, size=48)
        if source == "csv":
            data = ["--param", f"data_csv={tmp_path / 'data.csv'}"]
            save_csv(Dataset(features, labels), str(tmp_path / "data.csv"))
        else:
            images, idx_labels = tmp_path / "images.idx", tmp_path / "labels.idx"
            write_idx(features.reshape(48, 3, 3), labels, str(images), str(idx_labels))
            data = ["--param", f"images={images}", "--param", f"labels={idx_labels}"]
        for mode in ("clip", "dp"):
            out = tmp_path / mode
            code, _, err = run_cli(
                "sweep", "--mode", mode, "--out-dir", out, *data, "--param", "p=2",
                "--param", "c_grid=0,0.05", "--param", "steps=2",
            )
            assert code == 1 and "[params] p" in err and "load-data" in err, err
            assert not out.exists()
        # a grid without a budget has no attack to leave a term out of
        code, _, err = run_cli(
            "sweep", "--mode", "clip", "--out-dir", tmp_path / "clean", *data,
            "--param", "p=2", "--param", "c_grid=0", "--param", "k_grid=1",
            "--param", "steps=2", "--param", "curvature_iters=5",
        )
        assert code == 0, err

    def test_binary_sweep_runs_at_p_2(self, run_cli, tmp_path, sweep_data):
        out = tmp_path / "sweep"
        code, _, err = run_cli(
            "sweep", "--mode", "clip", "--out-dir", out, "--param", f"data_csv={sweep_data}",
            "--param", "p=2", "--param", "c_grid=0,0.05", "--param", "k_grid=1",
            "--param", "steps=2", "--param", "curvature_examples=16",
        )
        assert code == 0, err
        assert read_table(str(out / "fig8-sweep.csv"))["c"].tolist() == [0.0, 0.05]

    def test_sweep_flag_requirements(self, run_cli, tmp_path):
        out = tmp_path / "sweep"
        code, _, err = run_cli("sweep", "--out-dir", out)
        assert code == 1 and "--mode" in err
        code, _, err = run_cli("sweep", "--mode", "dp")
        assert code == 1 and "--out-dir" in err
        # the grids and training knobs are [params] keys, not flags
        code, _, err = run_cli("sweep", "--mode", "clip", "--out-dir", out, "--k-grid", "1")
        assert code == 1 and "--k-grid" in err
        code, _, err = run_cli("sweep", "--mode", "clip", "--out-dir", out, "--param", "kgrid=1")
        assert code == 1 and "kgrid" in err
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["missing-file", "malformed-file"])
    def test_experiment_input_faults_exit_one(self, run_cli, tmp_path, sweep_data, fault):
        params = {"data_csv": sweep_data, "c_grid": "0", "steps": "2"}
        if fault == "missing-file":
            params["data_csv"] = str(tmp_path / "nope.csv")
        else:
            params["data_csv"] = str(tmp_path / "bad.csv")
            (tmp_path / "bad.csv").write_text("label,x0\n1,abc\n", encoding="utf-8")
        out = tmp_path / "out"
        ini = _write_ini(tmp_path / "exp.ini", "fig8-sweep", out, params)
        code, _, err = run_cli("experiment", "--config", ini)
        assert code == 1 and "stage 'load-data' failed" in err, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, key, params",
        [
            ("fig8-sweep", "p", {"p": "3", "c_grid": "0"}),
            ("attack-eval", "p", {"p": "1"}),
            ("fig8-sweep", "c_grid", {"c_grid": "0,x"}),
            ("fig8-sweep", "k_grid", {"k_grid": "0:3:10"}),
            ("fig9-sweep", "eps_grid", {"eps_grid": "abc"}),
            ("attack-eval", "budgets", {"budgets": "0,0.1:"}),
            ("fig2-gap", "d_list", {"d_list": "10,2.5"}),
            ("fig9-sweep", "clip_k", {"clip_k": "inf"}),
            ("fig9-sweep", "clip_k", {"clip_k": "0"}),
        ],
    )
    def test_bad_param_exits_one_before_any_directory(self, run_cli, tmp_path, kind, key, params):
        ini = _write_ini(tmp_path / "exp.ini", kind, tmp_path / "out", params)
        with pytest.raises(ValueError, match=rf"\[params\] {key}"):
            load_experiment_config(str(ini))
        code, _, err = run_cli("experiment", "--config", ini)
        assert code == 1 and f"[params] {key}" in err
        assert os.listdir(tmp_path) == ["exp.ini"]

    def test_plot_verb(self, run_cli, tmp_path):
        csv_path = tmp_path / "curve.csv"
        csv_path.write_text("t,v\n1,1.0\n10,0.1\n", encoding="utf-8")
        out = str(tmp_path / "plot.svg")
        code, text, _ = run_cli(
            "plot", "--csv", str(csv_path), "--out", out, "--x", "t", "--log-x"
        )
        assert code == 0 and out in text
        assert open(out).read().startswith("<svg ")

    def test_bad_verb_exits_one(self, run_cli):
        code, _, _ = run_cli("frobnicate")
        assert code == 1


def _as_text(value) -> str:
    """A typed config value as it is written in an INI file."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


_FIG3 = "[experiment]\nkind = fig3-robust-compare\noutput_dir = {out}\n"
_FIG3_PARAMS = "[params]\nn = 40\nsteps = 5\n"
_FIG8 = _FIG3.replace("fig3-robust-compare", "fig8-sweep")

# (kind, key, value): one out-of-range value of each [params] key whose range
# is checked when the config is read
_RANGE_FAULTS = [
    ("fig3-robust-compare", "steps", "0"),
    ("attack-eval", "attack_steps", "0"),
    ("bounds-only", "points", "0"),
    ("bounds-only", "t_max", "0"),
    ("fig8-sweep", "curvature_iters", "0"),
    ("fig8-sweep", "curvature_examples", "0"),
    ("fig8-sweep", "eval_attack_steps", "-1"),
    ("fig8-sweep", "limit", "-5"),
    ("fig1-convergence", "sigma", "-0.5"),
    ("fig9-sweep", "delta", "2"),
    ("fig8-sweep", "test_fraction", "1"),
    ("fig8-sweep", "curvature_tol", "0"),
    ("attack-eval", "data_seed", "-1"),
    ("fig2-gap", "gamma", "1.5"),
    ("bounds-only", "gamma", "2"),
    ("fig1-convergence", "gamma", "0"),
    ("bounds-only", "form", "tabel"),
    ("fig8-sweep", "c_grid", "-0.05,0"),
    ("fig8-sweep", "c_grid", "nan"),
    ("fig8-sweep", "c_grid", "inf"),
    ("fig9-sweep", "c_grid", "0,0.01:inf:3"),
    ("fig8-sweep", "k_grid", "-1"),
    ("fig8-sweep", "k_grid", "0"),
    ("fig8-sweep", "k_grid", "nan"),
    ("fig9-sweep", "eps_grid", "0"),
    ("fig9-sweep", "eps_grid", "-2"),
    ("fig9-sweep", "eps_grid", "inf"),
    ("attack-eval", "budgets", "-0.1"),
    ("attack-eval", "budgets", "0,nan"),
    ("fig8-sweep", "c_grid", "0,0.005:0.05:0"),
    ("fig8-sweep", "k_grid", "0.1:3:1"),
]


class TestConfigReader:
    """One convention for [experiment], [params] and [train]."""

    @pytest.mark.parametrize(
        "name, defaults, parsers",
        [
            ("experiment", experiments._EXPERIMENT, experiments._EXPERIMENT_PARSERS),
            ("train", experiments._TRAIN, experiments._TRAIN_PARSERS),
        ]
        + [
            ("params", defaults, experiments._PARAMS_PARSERS)
            for defaults in experiments._DEFAULTS.values()
        ],
        ids=["experiment", "train"] + [f"params-{kind}" for kind in experiments._DEFAULTS],
    )
    def test_every_default_reads_back_as_itself(self, name, defaults, parsers):
        text = {key: _as_text(value) for key, value in defaults.items()}
        back = experiments.read_section(name, text, defaults, parsers)
        assert back == defaults
        assert {key: type(v) for key, v in back.items()} == {
            key: type(v) for key, v in defaults.items()
        }

    def test_every_text_key_has_a_parser(self):
        # a str default reads any text; only the data paths may take any
        text_keys = {
            key
            for defaults in experiments._DEFAULTS.values()
            for key, value in defaults.items()
            if isinstance(value, str)
        }
        paths = {"images", "labels", "data_csv"}
        assert text_keys - paths - set(experiments._PARAMS_PARSERS) == set()

    @pytest.fixture()
    def data(self, run_cli, tmp_path):
        path = tmp_path / "data.csv"
        run_cli("gen-data", "--d", 4, "--n", 40, "--seed", 1, "--out", path)
        return path

    def _outputs(self, run_cli, tmp_path, data, section, line):
        """The output bytes of one run whose [train] or fig3 [params] ends
        with ``line``."""
        out = tmp_path / f"out{len(os.listdir(tmp_path))}"
        ini = tmp_path / f"{out.name}.ini"
        if section == "train":
            ini.write_text("[train]\neta = 0.5\nsteps = 5\nc = 0.05\n" + line)
            code, _, err = run_cli("train", "--config", ini, "--data", data, "--out", out)
            assert code == 0, err
            return [out.read_bytes()]
        ini.write_text(_FIG3.format(out=out) + _FIG3_PARAMS + line)
        code, _, err = run_cli("experiment", "--config", ini)
        assert code == 0, err
        return [path.read_bytes() for path in sorted(out.iterdir())]

    @pytest.mark.parametrize("section, key", [("train", "p"), ("params", "c")])
    def test_an_empty_value_means_the_default_in_both_readers(
        self, run_cli, tmp_path, data, section, key
    ):
        given = self._outputs(run_cli, tmp_path, data, section, f"{key} = \n")
        default = self._outputs(run_cli, tmp_path, data, section, "")
        assert given == default

    @pytest.mark.parametrize(
        "verb, text, env_seed, source",
        [
            ("train", "[train]\neta = abc\n", None, "[train] eta"),
            ("train", "[train]\nsteps = 5\n\n[trian]\neta = 0.5\n", None, "[trian]"),
            ("train", "[train]\nsteps = 5\nseed = -1\n", None, "[train] seed"),
            ("train", "[train]\nsteps = 5\n", -1, "RPOPT_SEED"),
            ("train", "[train]\nsteps = 5\n", "abc", "RPOPT_SEED"),
            ("experiment", _FIG3 + "seed = 5\n" + _FIG3_PARAMS, None,
             "[experiment]: unknown parameters ['seed']"),
            ("experiment", _FIG3.replace("fig3-robust-compare", "fig8-sweep")
             + "[params]\nworkers = 2\n", None, "[params]: unknown parameters ['workers']"),
            ("sweep", ("--mode", "clip", "--out-dir", "{out}", "--param", "workers=2"), None,
             "[params]: unknown parameters ['workers']"),
            ("experiment", _FIG3 + "\n[parms]\neta = 0.5\n", None, "[parms]"),
            ("experiment", _FIG3 + "seeds = -2\n" + _FIG3_PARAMS, None, "[experiment] seeds"),
            ("experiment", _FIG3 + "seeds = 0:2\n" + _FIG3_PARAMS, -1, "RPOPT_SEED"),
            ("experiment", _FIG3 + _FIG3_PARAMS, "abc", "RPOPT_SEED"),
            ("experiment", _FIG3.replace("fig3-robust-compare", "bounds-only")
             + "[params]\neta = 4.0\n", None, "stage 'evaluate-bounds' failed: eta < 4"),
            ("attack-eval", ("--out-dir", "{out}", "--seeds", "-2", "--param", "n=40"), None,
             "--seeds"),
            ("gen-data", ("--d", "4", "--n", "10", "--seed", "-1", "--out", "{out}"), None,
             "--seed"),
            ("train", "[train]\nsteps = 5\nc = -0.5\n", None, "[train] c"),
            ("train", "[train]\nsteps = 5\nnoise_mode = dpsgd\n", None,
             "[train]: unknown parameters ['noise_mode']"),
            ("experiment", _FIG3 + _FIG3_PARAMS + "eta = -1\n", None, "[params] eta"),
            ("experiment", _FIG3.replace("fig3-robust-compare", "fig1-convergence")
             + _FIG3_PARAMS + "c = -0.1\n", None, "[params] c"),
            ("experiment", _FIG3.replace("fig3-robust-compare", "attack-eval")
             + "[params]\nn = 40\nc_train = -0.2\n", None, "[params] c_train"),
            ("train", "[train]\nsteps = 5\nfirst_step_eta = 0.4\n", None,
             "[train]: unknown parameters ['first_step_eta']"),
            ("train", "[train]\nsteps = 5\np = oo\n", None, "[train] p"),
            ("experiment", _FIG3 + _FIG3_PARAMS + "first_step_eta = 0.4\n", None,
             "[params]: unknown parameters ['first_step_eta']"),
            ("experiment", _FIG3.replace("fig3-robust-compare", "fig1-convergence")
             + _FIG3_PARAMS + "first_step_eta = 0.4\n", None,
             "[params]: unknown parameters ['first_step_eta']"),
            ("experiment", _FIG3.replace("fig3-robust-compare", "attack-eval")
             + "[params]\nn = 40\nrestarts = 1\n", None,
             "[params]: unknown parameters ['restarts']"),
            ("experiment", _FIG3.replace("fig3-robust-compare", "attack-eval")
             + "[params]\nn = 40\np = oo\n", None, "[params] p"),
            ("train", ("--config", "{ini}", "--images", "{data}", "--out", "{out}"), None,
             "--images needs --labels"),
            ("train", ("--config", "{ini}", "--images", "{data}", "--labels", "{data}",
                       "--data", "{data}", "--out", "{out}"), None,
             "--images and --data both name a dataset"),
            ("experiment", _FIG8 + "[params]\nlabels = {data}\n", None,
             "[params] labels needs [params] images"),
            ("experiment", _FIG8 + "[params]\nimages = {data}\n", None,
             "[params] images needs [params] labels"),
            ("experiment", _FIG8 + "[params]\nimages = {data}\nlabels = {data}\n"
             "data_csv = {data}\n", None, "[params] images and [params] data_csv"),
        ]
        + [
            ("experiment", _FIG3.replace("fig3-robust-compare", kind)
             + f"[params]\n{key} = {value}\n", None, f"[params] {key}")
            for kind, key, value in _RANGE_FAULTS
        ],
        ids=[
            "train-unparsable-value", "train-stray-section", "train-negative-seed",
            "train-negative-env-seed", "train-non-integer-env-seed",
            "experiment-unknown-key", "params-workers-is-unknown",
            "sweep-param-workers-is-unknown", "experiment-stray-section",
            "experiment-negative-seeds",
            "experiment-negative-env-seed", "experiment-non-integer-env-seed",
            "experiment-regime-violation", "attack-eval-negative-seeds", "gen-data-negative-seed",
            "train-negative-c", "train-noise_mode-is-unknown", "params-negative-eta",
            "params-negative-c", "params-negative-c_train", "train-first_step_eta-is-unknown",
            "train-p-oo", "fig3-first_step_eta-is-unknown", "fig1-first_step_eta-is-unknown",
            "attack-eval-restarts-is-unknown", "attack-eval-p-oo",
            "train-images-without-labels", "train-pair-and-data", "params-labels-without-images",
            "params-images-without-labels", "params-pair-and-data_csv",
        ]
        + [f"params-{key}-{value}" for _, key, value in _RANGE_FAULTS],
    )
    def test_config_faults_exit_one_naming_their_source(
        self, run_cli, tmp_path, data, verb, text, env_seed, source
    ):
        out, ini = tmp_path / "out", tmp_path / "run.ini"
        if isinstance(text, tuple):
            ini.write_text("[train]\nsteps = 5\n")
            argv = (verb, *(arg.format(out=out, ini=ini, data=data) for arg in text))
        else:
            ini.write_text(text.format(out=out, data=data))
            argv = (verb, "--config", ini)
            if verb == "train":
                argv += ("--data", data, "--out", out)
        code, _, err = run_cli(*argv, env_seed=env_seed)
        assert code == 1 and source in err, err
        assert not out.exists()


class TestConsoleScript:
    def test_entry_point_version(self):
        # Runs the entry point that pyproject.toml declares the way a
        # console-script wrapper does, from this checkout's src, so that no
        # install is needed.
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
        assert "rpopt" in scripts
        module, _, function = scripts["rpopt"].partition(":")
        assert module and function
        code = (
            f"import sys; from {module} import {function} as entry; "
            "sys.argv[0] = 'rpopt'; sys.exit(entry())"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, "--version"],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("rpopt ")

    def test_import_needs_numpy_alone(self):
        # scipy is a test dependency only, and escaping SVG text must not pull
        # in xml.sax, which loads urllib.request and http.client
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, rpopt.cli; "
            "print('\\n'.join(m for m in sys.modules "
            "if m.partition('.')[0] in ('scipy', 'xml', 'http') or m == 'urllib.request'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    @pytest.mark.skipif(shutil.which("rpopt") is None, reason="rpopt console script not installed")
    def test_installed_script_version(self):
        proc = subprocess.run(
            ["rpopt", "--version"], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("rpopt ")

    def test_module_invocation_matches(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "rpopt.cli", "bounds", "--setting", "nominal",
             "--eta", "0.1", "--gamma", "1.0", "--t", "1"],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0
        assert float(proc.stdout.strip()) == pytest.approx(11.243965681605893, rel=1e-14)
