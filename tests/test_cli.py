import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from gls_adapt import cli, trainer
from gls_adapt.cli import main, parse_config_file
from gls_adapt.datagen import read_dataset_csv
from gls_adapt.diagnostics import BoundReport
from gls_adapt.distributions import empirical_label_dist, jsd
from gls_adapt.errors import ConfigInvalid, GlsAdaptError, InvalidValue, ShapeMismatch
from gls_adapt.trainer import TrainConfig


def run(argv):
    return main([str(a) for a in argv])


def raised_by(argv):
    """The typed error a command raises, which main prints as one line."""
    args = cli._build_parser().parse_args([str(a) for a in argv])
    with pytest.raises(GlsAdaptError) as info:
        args.func(args)
    return info.value


def read_csv_dict(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:] if ln.strip()]
    return header, rows


class TestGenerate:
    def test_writes_pair_and_manifest(self, tmp_path):
        out = tmp_path / "data"
        rc = run(["generate", "--out", out, "--n", 200, "--seed", "3"])
        assert rc == 0
        src = read_dataset_csv(out / "source.csv")
        tgt = read_dataset_csv(out / "target.csv")
        assert src.n == 200 and tgt.n == 200
        manifest = parse_config_file(out / "manifest.txt")
        assert "jsd_label_dist" in manifest

    def test_subsample_increases_jsd(self, tmp_path):
        out = tmp_path / "data"
        rc = run(["generate", "--out", out, "--n", 400, "--seed", "3", "--subsample", "0.3"])
        assert rc == 0
        src = read_dataset_csv(out / "source.csv")
        tgt = read_dataset_csv(out / "target.csv")
        recomputed = jsd(
            empirical_label_dist(src.labels, src.k), empirical_label_dist(tgt.labels, tgt.k)
        )
        manifest = parse_config_file(out / "manifest.txt")
        assert float(manifest["jsd_label_dist"]) == pytest.approx(recomputed, abs=1e-6)
        assert recomputed > 0

    def test_idempotent_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["generate", "--out", a, "--n", 150, "--seed", "9"])
        run(["generate", "--out", b, "--n", 150, "--seed", "9"])
        assert (a / "source.csv").read_bytes() == (b / "source.csv").read_bytes()
        assert (a / "target.csv").read_bytes() == (b / "target.csv").read_bytes()

    def test_bad_label_dist_is_one_line_error(self, tmp_path, capsys):
        rc = run(["generate", "--target-label-dist", "0.5,0.6", "--out", tmp_path / "x"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: probs sum to 1.1") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--source-label-dist", "0.5,0.6"),
            ("--target-label-dist", "0.5,0.6"),
            ("--target-label-dist", "0.5,0.5"),
        ],
    )
    def test_label_dist_error_names_the_option(self, tmp_path, capsys, flag, value):
        rc = run(["generate", flag, value, "--out", tmp_path / "x"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(f" ({flag})\n")

    def test_config_label_dist_error_names_the_option(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("source_label_dist = 0.5,0.6\n")
        rc = run(["generate", "--config", cfg, "--out", tmp_path / "x"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: probs sum to 1.1, expected 1 within 1e-09 (--source-label-dist)\n"

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--radius", "inf", "radius must be finite, got inf"),
            ("--sigma", "inf", "sigma must be finite, got inf"),
            ("--sigma", "nan", "sigma must be finite, got nan"),
            ("--conditional-shift", "inf", "conditional_shift must be finite, got inf"),
            ("--conditional-shift", "nan", "conditional_shift must be finite, got nan"),
        ],
    )
    def test_non_finite_domain_scalar_is_one_line_error(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "x"
        assert run(["generate", flag, value, "--n", 100, "--out", out]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_overflowing_features_are_one_line_error_naming_sigma(self, tmp_path, capsys):
        out = tmp_path / "g"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["generate", "--sigma", "1e308", "--n", 50, "--out", out]) == 1
        assert capsys.readouterr() == ("", "error: features overflow float64; reduce sigma=1e+308\n")
        assert not out.exists()

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GLS_ADAPT_SEED", "17")
        out = tmp_path / "envseed"
        run(["generate", "--out", out, "--n", 120])
        manifest = parse_config_file(out / "manifest.txt")
        assert manifest["seed"] == "17"


class TestTrain:
    def test_summary_and_traces(self, tmp_path):
        out = tmp_path / "runs"
        rc = run(
            [
                "train",
                "--out",
                out,
                "--n",
                400,
                "--epochs",
                2,
                "--batches-per-epoch",
                4,
                "--feature-dim",
                8,
                "--algorithms",
                "none,dann,iwdan",
                "--seeds",
                "0,1",
                "--source-label-dist",
                "0.5,0.3,0.2",
                "--target-label-dist",
                "0.2,0.3,0.5",
            ]
        )
        assert rc == 0
        header, rows = read_csv_dict(out / "summary.csv")
        assert header == [
            "algorithm",
            "seed",
            "best_acc_src",
            "best_acc_tgt",
            "mean_best_acc_tgt",
            "win_fraction_vs_base",
        ]
        assert len(rows) == 6
        iw_rows = [r for r in rows if r["algorithm"] == "iwdan"]
        assert iw_rows[0]["win_fraction_vs_base"] != "nan"
        none_rows = [r for r in rows if r["algorithm"] == "none"]
        assert none_rows and none_rows[0]["win_fraction_vs_base"] == "nan"
        for alg in ("none", "dann", "iwdan"):
            for seed in (0, 1):
                assert (out / f"trace_{alg}_seed{seed}.csv").exists()

    def test_bounds_flag_writes_reports(self, tmp_path):
        out = tmp_path / "runs"
        rc = run(
            [
                "train",
                "--out",
                out,
                "--n",
                600,
                "--epochs",
                2,
                "--batches-per-epoch",
                4,
                "--feature-dim",
                8,
                "--algorithms",
                "iwdan",
                "--seeds",
                "0",
                "--bounds",
            ]
        )
        assert rc == 0
        header, rows = read_csv_dict(out / "bounds_iwdan_seed0.csv")
        assert header == ["check", "epoch", "lhs", "rhs", "holds", "slack"]
        assert len(rows) == 2 * 4

    def test_bounds_flag_checks_hold_and_trace_is_written(self, tmp_path):
        out = tmp_path / "runs"
        argv = ["train", "--out", out, "--n", 600, "--epochs", 2, "--batches-per-epoch", 4]
        assert run([*argv, "--feature-dim", 8, "--algorithms", "iwdan", "--seeds", "0", "--bounds"]) == 0
        _, rows = read_csv_dict(out / "bounds_iwdan_seed0.csv")
        assert {r["holds"] for r in rows} == {"1"}
        assert (out / "trace_iwdan_seed0.csv").exists()

    def test_bad_feature_dim_is_one_line_error(self, tmp_path, capsys):
        rc = run(["train", "--feature-dim", 0, "--out", tmp_path / "x"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--lr", "nan", "lr must be finite, got nan"),
            ("--lr", "inf", "lr must be finite, got inf"),
            ("--reversal-coeff", "inf", "reversal_coeff must be finite, got inf"),
            ("--reversal-coeff", "nan", "reversal_coeff must be finite, got nan"),
        ],
    )
    def test_non_finite_step_size_is_one_line_error(self, tmp_path, capsys, flag, value, message):
        rc = run(["train", flag, value, "--epochs", 1, "--n", 200, "--out", tmp_path / "x"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_collapsing_run_is_one_line_error_naming_its_epoch_and_batch(self, tmp_path, capsys):
        # the step size drives d to saturation; the warnings filter turns any warning on the way into a failure
        argv = ["train", "--lr", 50, "--reversal-coeff", 1e5, "--momentum", 0.99, "--epochs", 2]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run([*argv, "--algorithms", "iwdan", "--out", tmp_path / "x"])
        assert rc == 1 and not caught
        out, err = capsys.readouterr()
        assert out == "" and re.fullmatch(r"error: epoch \d+ batch \d+: [^\n]+\n", err)

    @pytest.mark.parametrize("algorithm", list(trainer.ALGORITHMS))
    def test_a_diverging_run_is_one_line_error(self, tmp_path, capsys, algorithm):
        # every overflow on the way reaches a loss or a prediction, which the step's check reports
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(["train", "--lr", 1e308, "--epochs", 2, "--algorithms", algorithm, "--out", tmp_path / "x"])
        assert rc == 1 and not caught
        out, err = capsys.readouterr()
        assert out == "" and re.fullmatch(r"error: epoch \d+ batch \d+: [^\n]+\n", err)

    def test_out_of_memory_is_one_line_error(self, tmp_path, capsys, monkeypatch):
        # a real huge allocation fails at once or later depending on the host's overcommit policy
        message = "Unable to allocate 47.3 TiB for an array with shape (100000000000, 65) and data type float64"

        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(trainer.network, "init_model_state", no_memory)
        rc = run(["train", "--n", 200, "--epochs", 1, "--out", tmp_path / "x"])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "flag,value,parsed",
        [
            ("--algorithms", "iwdan,", ["iwdan"]),
            ("--algorithms", ",iwdan", ["iwdan"]),
            ("--algorithms", "iwdan, dann", ["iwdan", "dann"]),
            ("--algorithms", " iwdan ,,dann ", ["iwdan", "dann"]),
            ("--seeds", "1,", [1]),
            ("--seeds", "1, 2", [1, 2]),
            ("--source-label-dist", " 0.5, 0.5,", [0.5, 0.5]),
        ],
    )
    def test_list_options_strip_entries_and_drop_empty_ones(self, flag, value, parsed):
        ns = cli._build_parser().parse_args(["train", flag, value])
        assert getattr(ns, flag[2:].replace("-", "_")) == parsed

    @pytest.mark.parametrize("value", ["", ",", " , "])
    def test_empty_algorithm_list_is_one_line_error(self, tmp_path, capsys, value):
        rc = run(["train", "--algorithms", value, "--epochs", 1, "--n", 200, "--out", tmp_path / "x"])
        assert rc == 1
        assert capsys.readouterr().err == "error: --algorithms lists no algorithm\n"
        assert not (tmp_path / "x").exists()

    def test_unknown_algorithm_fails_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "x"
        rc = run(["train", "--algorithms", "dann,nope", "--epochs", 1, "--n", 200, "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == "error: unknown algorithm 'nope'\n"
        assert not list(tmp_path.rglob("trace_*.csv"))

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--algorithms", "iwdan,iwdan", "--algorithms lists iwdan more than once"),
            ("--algorithms", "dann,iwdan,dann", "--algorithms lists dann more than once"),
            ("--seeds", "3,3", "--seeds lists 3 more than once"),
        ],
    )
    def test_repeated_run_is_one_line_error(self, tmp_path, capsys, flag, value, message):
        rc = run(["train", flag, value, "--epochs", 1, "--n", 200, "--out", tmp_path / "x"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.rglob("*.csv"))

    def test_empty_seed_list_is_one_line_error(self, tmp_path, capsys):
        rc = run(["train", "--seeds", ",", "--epochs", 1, "--n", 200, "--out", tmp_path / "x"])
        assert rc == 1
        assert capsys.readouterr().err == "error: --seeds lists no seed\n"
        assert not (tmp_path / "x").exists()

    def test_bounds_with_too_few_samples_fails_before_writing(self, tmp_path, capsys):
        out = tmp_path / "x"
        rc = run(["train", "--bounds", "--n", 100, "--epochs", 1, "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: class 0: ") and err.endswith(" target samples, need 50\n")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_empty_target_class_names_the_sample_count(self, tmp_path, capsys):
        out = tmp_path / "x"
        rc = run(["train", "--bounds", "--target-label-dist", "0.5,0.5,0", "--n", 600, "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: class 2: ") and err.endswith(" source / 0 target samples, need 50\n")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_kernel_loss_with_one_row_batches_fails_before_any_run(self, tmp_path, capsys):
        # dann alone would train; iwjan's config is refused before dann's run starts
        out = tmp_path / "x"
        argv = ["train", "--algorithms", "dann,iwjan", "--batch-size", 1, "--n", 300, "--epochs", 2]
        assert run([*argv, "--batches-per-epoch", 3, "--out", out]) == 1
        message = "iwjan's kernel loss pairs rows, so batch_size must be >= 2, got 1"
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_loads_datasets_from_files(self, tmp_path):
        data = tmp_path / "data"
        run(["generate", "--out", data, "--n", 300, "--seed", "4"])
        out = tmp_path / "runs"
        rc = run(
            [
                "train",
                "--out",
                out,
                "--source",
                data / "source.csv",
                "--target",
                data / "target.csv",
                "--epochs",
                1,
                "--batches-per-epoch",
                3,
                "--feature-dim",
                8,
                "--algorithms",
                "none",
            ]
        )
        assert rc == 0
        assert (out / "summary.csv").exists()

    def train_from_files(self, tmp_path, missing_from):
        """Train on a generated pair after deleting the class-2 rows of one file."""
        data = tmp_path / "data"
        run(["generate", "--out", data, "--n", 300, "--seed", "4"])
        lines = (data / missing_from).read_text().splitlines()
        (data / missing_from).write_text("\n".join(ln for ln in lines if not ln.endswith(",2")) + "\n")
        argv = ["train", "--out", tmp_path / "runs", "--seed", 0, "--epochs", 1]
        argv += ["--batches-per-epoch", 3, "--feature-dim", 8, "--algorithms", "iwdan"]
        return run(argv + ["--source", data / "source.csv", "--target", data / "target.csv"])

    def test_target_without_a_class_keeps_the_source_class_count(self, tmp_path):
        assert self.train_from_files(tmp_path, "target.csv") == 0
        header = (tmp_path / "runs" / "trace_iwdan_seed0.csv").read_text().splitlines()[0]
        assert header == "epoch,acc_src,acc_tgt,loss_da,loss_c,w_0,w_1,w_2,w_dist,jsd_label"

    def test_source_without_a_class_is_one_line_error(self, tmp_path, capsys):
        assert self.train_from_files(tmp_path, "source.csv") == 1
        assert capsys.readouterr().err == "error: every class needs at least one source sample\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["train"])
    def test_feature_dims_that_differ_are_one_line_error(self, tmp_path, capsys, command):
        for dim in (2, 3):
            run(["generate", "--out", tmp_path / f"d{dim}", "--n", 300, "--dim", dim])
        capsys.readouterr()
        out = tmp_path / "o1"
        argv = [command, "--source", tmp_path / "d2" / "source.csv", "--target", tmp_path / "d3" / "target.csv"]
        assert run([*argv, *TINY_RUN, "--out", out]) == 1
        assert capsys.readouterr().err == "error: feature dims differ: 2 vs 3\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train"])
    @pytest.mark.parametrize("flag", ["--source", "--target"])
    def test_one_dataset_file_is_one_line_error(self, tmp_path, capsys, command, flag):
        out = tmp_path / "runs"
        rc = run([command, flag, tmp_path / "nonexistent.csv", "--epochs", 1, "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == "error: --source and --target must be given together\n"
        assert not out.exists()

    def test_a_failing_run_keeps_the_files_of_the_runs_before_it(self, tmp_path, monkeypatch, capsys):
        real_train = trainer.train

        def train_but_fail_dann(cfg, *args, **kwargs):
            if cfg.algorithm == "dann":
                raise InvalidValue("dann failed")
            return real_train(cfg, *args, **kwargs)

        monkeypatch.setattr(trainer, "train", train_but_fail_dann)
        out = tmp_path / "runs"
        assert run(["train", *TINY_RUN, "--bounds", "--algorithms", "none,dann,iwdan", "--out", out]) == 1
        assert capsys.readouterr().err == "error: dann failed\n"
        assert sorted(p.name for p in out.iterdir()) == ["bounds_none_seed0.csv", "trace_none_seed0.csv"]


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 2\nbatch_size = 16\nn = 200\nseed = 5\n# comment\n")
        out = tmp_path / "runs"
        rc = run(
            [
                "train",
                "--config",
                cfg,
                "--out",
                out,
                "--epochs",
                1,
                "--batches-per-epoch",
                2,
                "--feature-dim",
                8,
                "--algorithms",
                "none",
            ]
        )
        assert rc == 0
        _, rows = read_csv_dict(out / "summary.csv")
        assert rows[0]["seed"] == "5"
        trace_lines = (out / "trace_none_seed5.csv").read_text().splitlines()
        assert len(trace_lines) == 2  # header + 1 epoch: the flag overrode the file

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs 2\n")
        rc = run(["train", "--config", cfg, "--out", tmp_path / "x", "--algorithms", "none"])
        assert rc == 1

    @pytest.mark.parametrize("line", ["epochs = abc", "weight_da_loss = maybe"])
    def test_bad_value_is_one_line_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        rc = run(["train", "--config", cfg, "--out", tmp_path / "x", "--algorithms", "none"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: {line.split()[0]}: ") and err.count("\n") == 1


TINY_RUN = ["--epochs", 1, "--batches-per-epoch", 2, "--feature-dim", 8]


class TestOptionsAreUsedOrRejected:
    """Every option a command accepts reaches the run, or the command stops with one error line."""

    @pytest.mark.parametrize(
        "argv, config, inputs, needle",
        [
            (["train"], "epoch = 1\nalgorithms = dann\n", None, "epoch"),
            (["train"], "bounds = yes\nseeds = 1,2\n", None, "bounds"),
            (["train"], "k = 3\nn_source = 300\n", None, "n_source"),
            (["estimate-weights", "--config", "does-not-exist.cfg"], None, "predictions", "does-not-exist.cfg"),
            (["train", "--n", 50, "--k", 7, "--subsample", 0.1], None, "datasets", "--k"),
            (["train", "--bounds"], "n = 50\n", "datasets", "run.cfg: n: "),
            (["train", "--bounds", "--subsample", 0.1], None, "datasets", "--subsample"),
            (["estimate-weights"], "seed = 3\n", "predictions", "seed: not an option of estimate-weights"),
            (["sweep-jsd", "--tasks", 0], None, None, "error: --tasks must be >= 1, got 0\n"),
            (["train", "--feature-dim", 0], None, None, "error: feature_dim must be >= 1, got 0\n"),
            (["train"], "weight_update_period = 2\n", None, "weight_update_period: not an option of train\n"),
        ],
        ids=[
            "unknown-key",
            "flag-only-keys",
            "manifest-key",
            "missing-config",
            "domain-flags-with-files",
            "domain-key-with-files",
            "subsample-with-files",
            "estimate-weights-seed-key",
            "sweep-no-tasks",
            "train-no-features",
            "train-update-period-key",
        ],
    )
    def test_is_one_line_error_and_writes_nothing(self, tmp_path, capsys, argv, config, inputs, needle):
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv = [*argv, "--config", tmp_path / "run.cfg"]
        if inputs == "datasets":
            data = tmp_path / "data"
            run(["generate", "--out", data, "--n", 300, "--seed", 4])
            argv = [*argv, "--source", data / "source.csv", "--target", data / "target.csv"]
        elif inputs == "predictions":
            sp, sl, tp, _, _ = TestEstimateWeights().write_inputs(tmp_path, n=200)
            argv = [*argv, "--source-preds", sp, "--source-labels", sl, "--target-preds", tp]
        capsys.readouterr()
        out = tmp_path / "out"
        assert run([*argv, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and needle in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--n", 200],
            ["train", "--n", 200, *TINY_RUN, "--algorithms", "none"],
            ["sweep-jsd", "--n", 200, *TINY_RUN, "--tasks", 1],
            ["estimate-weights"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_config_file_is_parsed_once(self, tmp_path, monkeypatch, argv):
        calls = []

        def counting_parse(path):
            calls.append(path)
            return parse_config_file(path)

        monkeypatch.setattr(cli, "parse_config_file", counting_parse)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\n")
        if argv[0] == "estimate-weights":  # it has no option to put in the file
            cfg.write_text("# no keys\n")
            sp, sl, tp, _, _ = TestEstimateWeights().write_inputs(tmp_path, n=200)
            argv = [*argv, "--source-preds", sp, "--source-labels", sl, "--target-preds", tp]
        assert run([*argv, "--config", cfg, "--out", tmp_path / "out"]) == 0
        assert calls == [str(cfg)]

    @pytest.mark.parametrize(
        "argv, env, config, message",
        [
            (["generate", "--seed=-1"], None, None, "--seed: expected a non-negative integer, got -1"),
            (["train"], None, "seed = -2\n", "{cfg}: seed: expected a non-negative integer, got -2"),
            (["generate"], "-4", None, "GLS_ADAPT_SEED: expected a non-negative integer, got '-4'"),
            (["generate"], "abc", None, "GLS_ADAPT_SEED: expected a non-negative integer, got 'abc'"),
            (["train", "--algorithms", "dann", "--seeds=0,-1"], None, None, "seed must be >= 0, got -1"),
        ],
        ids=["flag", "config-key", "env-negative", "env-malformed", "seed-list"],
    )
    def test_bad_seed_is_one_line_error_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys, argv, env, config, message
    ):
        if env is None:
            monkeypatch.delenv("GLS_ADAPT_SEED", raising=False)
        else:
            monkeypatch.setenv("GLS_ADAPT_SEED", env)
        cfg = tmp_path / "run.cfg"
        if config is not None:
            cfg.write_text(config)
            argv = [*argv, "--config", cfg]
        if argv[0] == "train":
            argv = [*argv, *TINY_RUN]
        out = tmp_path / "out"
        assert run([*argv, "--n", 200, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["generate", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
            (["generate", "--n", "x"], "argument --n: invalid int value: 'x'"),
            (["train", "--lr", "y"], "argument --lr: invalid float value: 'y'"),
            (["generate", "--epochs", "2"], "unrecognized arguments: --epochs 2"),
            (["estimate-weights", "--seed", "3"], "unrecognized arguments: --seed 3"),
            (["sweep-jsd", "--weight-update-period", "2"], "unrecognized arguments: --weight-update-period 2"),
            (
                ["estimate-weights", "--source-labels", "l.csv", "--target-preds", "p.csv"],
                "the following arguments are required: --source-preds",
            ),
        ],
        ids=["seed", "n", "lr", "unknown-flag", "estimate-weights-seed", "sweep-update-period", "missing-required"],
    )
    def test_malformed_command_line_is_one_line_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        if argv[0] == "estimate-weights" and "--seed" in argv:
            sp, sl, tp, _, _ = TestEstimateWeights().write_inputs(tmp_path, n=20)
            argv = [*argv, "--source-preds", sp, "--source-labels", sl, "--target-preds", tp]
        assert run([*argv, "--out", out]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "train", "sweep-jsd", "estimate-weights"])
    def test_out_naming_a_file_fails_before_any_work(self, tmp_path, capsys, command):
        # the directory is made with the first file, so without this check a
        # train run would be spent before the file was found in the way
        out = tmp_path / "out"
        out.write_text("kept\n")
        assert run([command, "--out", out]) == 1
        assert capsys.readouterr() == ("", f"error: argument --out: {out} exists and is not a directory\n")
        assert out.read_text() == "kept\n"

    def test_removed_command_is_one_line_error(self, tmp_path, capsys):
        # verify-bounds --algorithm A is now train --bounds --algorithms A
        out = tmp_path / "vb"
        assert run(["verify-bounds", "--algorithm", "iwdan", "--out", out]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1
        assert err.startswith("error: argument command: invalid choice: 'verify-bounds'")
        assert not out.exists()

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["estimate-weights", "--help"])
        assert info.value.code == 0
        assert "--seed" not in capsys.readouterr().out

    TRAIN_FIELDS = [
        f for f in fields(TrainConfig) if f.type in ("int", "float", "bool") and f.name != "seed"
    ]

    @pytest.mark.parametrize("field", TRAIN_FIELDS, ids=lambda f: f.name)
    def test_every_train_field_is_a_config_key(self, tmp_path, monkeypatch, field):
        # a value from the file reaches the TrainConfig that train() receives
        changed = {"int": field.default + 1, "float": field.default / 2, "bool": not field.default}
        value = changed[field.type]
        seen = []

        class Captured(Exception):
            pass

        def capture(cfg, *args, **kwargs):
            seen.append(cfg)
            raise Captured

        monkeypatch.setattr(trainer, "train", capture)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{field.name} = {value}\n")
        with pytest.raises(Captured):
            run(["train", "--config", cfg, "--n", 200, "--out", tmp_path / "out"])
        assert getattr(seen[0], field.name) == value


class TestEstimateWeights:
    def write_inputs(self, tmp_path, n=4000, seed=0):
        rng = np.random.default_rng(seed)
        p_s = np.array([0.5, 0.3, 0.2])
        p_t = np.array([0.2, 0.3, 0.5])
        labels = rng.choice(3, size=n, p=p_s)
        src_preds = np.eye(3)[labels]
        tgt_labels = rng.choice(3, size=n, p=p_t)
        tgt_preds = np.eye(3)[tgt_labels]
        sp = tmp_path / "sp.csv"
        sl = tmp_path / "sl.csv"
        tp = tmp_path / "tp.csv"
        header = "p_0,p_1,p_2"
        sp.write_text(header + "\n" + "\n".join(",".join(map(str, r)) for r in src_preds) + "\n")
        tp.write_text(header + "\n" + "\n".join(",".join(map(str, r)) for r in tgt_preds) + "\n")
        sl.write_text("label\n" + "\n".join(str(v) for v in labels) + "\n")
        return sp, sl, tp, labels, tgt_labels

    def test_recovers_ratio_under_pure_label_shift(self, tmp_path):
        sp, sl, tp, labels, tgt_labels = self.write_inputs(tmp_path)
        out = tmp_path / "est"
        rc = run(
            ["estimate-weights", "--source-preds", sp, "--source-labels", sl,
             "--target-preds", tp, "--out", out, "--full-precision"]
        )
        assert rc == 0
        header, _ = read_csv_dict(out / "weights.csv")
        assert header == ["method", "w_0", "w_1", "w_2"]
        header, rows = read_csv_dict(out / "weights.raw.csv")
        qp_row = next(r for r in rows if r["method"] == "qp")
        emp_s = np.bincount(labels, minlength=3) / labels.size
        emp_t = np.bincount(tgt_labels, minlength=3) / tgt_labels.size
        expected = emp_t / emp_s
        got = np.array([float(qp_row[f"w_{i}"]) for i in range(3)])
        assert np.max(np.abs(got - expected)) < 1e-6
        inv_row = next(r for r in rows if r["method"] == "exact_inverse")
        got_inv = np.array([float(inv_row[f"w_{i}"]) for i in range(3)])
        assert np.max(np.abs(got_inv - expected)) < 1e-6
        assert (out / "confusion.csv").exists()

    def test_balanced_no_shift_gives_unit_weights(self, tmp_path):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=2000)
        preds = np.eye(2)[labels]
        sp = tmp_path / "sp.csv"
        sl = tmp_path / "sl.csv"
        sp.write_text("p_0,p_1\n" + "\n".join(",".join(map(str, r)) for r in preds) + "\n")
        sl.write_text("label\n" + "\n".join(str(v) for v in labels) + "\n")
        out = tmp_path / "est"
        rc = run(
            ["estimate-weights", "--source-preds", sp, "--source-labels", sl,
             "--target-preds", sp, "--out", out]
        )
        assert rc == 0
        _, rows = read_csv_dict(out / "weights.csv")
        qp_row = next(r for r in rows if r["method"] == "qp")
        got = np.array([float(qp_row["w_0"]), float(qp_row["w_1"])])
        assert np.allclose(got, 1.0, atol=1e-9)

    def test_reads_no_seed(self, tmp_path, monkeypatch):
        # no output depends on a seed, so a malformed GLS_ADAPT_SEED is never read
        monkeypatch.setenv("GLS_ADAPT_SEED", "abc")
        sp, sl, tp, _, _ = self.write_inputs(tmp_path, n=200)
        argv = ["estimate-weights", "--source-preds", sp, "--source-labels", sl, "--target-preds", tp]
        assert run([*argv, "--out", tmp_path / "o"]) == 0
        assert (tmp_path / "o" / "weights.csv").exists()

    def test_malformed_row_names_line(self, tmp_path, capsys):
        sp = tmp_path / "sp.csv"
        sp.write_text("p_0,p_1\n0.5,0.5\noops\n")
        sl = tmp_path / "sl.csv"
        sl.write_text("label\n0\n1\n")
        rc = run(
            ["estimate-weights", "--source-preds", sp, "--source-labels", sl,
             "--target-preds", sp, "--out", tmp_path / "o"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 3" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("which", ["sp", "tp"])
    def test_non_finite_prediction_names_file_and_line(self, tmp_path, capsys, value, which):
        sp, sl, tp, _, _ = self.write_inputs(tmp_path, n=20)
        bad = {"sp": sp, "tp": tp}[which]
        lines = bad.read_text().splitlines()
        lines[3] = f"{value},{value},0.0"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        rc = run(
            ["estimate-weights", "--source-preds", sp, "--source-labels", sl,
             "--target-preds", tp, "--out", out]
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}: line 4: values contain non-finite entries\n"
        assert not out.exists()

    @pytest.mark.parametrize("which, name", [("sp", "source_preds"), ("tp", "target_preds")])
    def test_overflowing_prediction_row_is_one_line_error(self, tmp_path, capsys, which, name):
        sp, sl, tp, _, _ = self.write_inputs(tmp_path, n=20)
        bad = {"sp": sp, "tp": tp}[which]
        lines = bad.read_text().splitlines()
        lines[3] = "1e308,1e308,0.0"
        bad.write_text("\n".join(lines) + "\n")
        argv = ["estimate-weights", "--source-preds", sp, "--source-labels", sl, "--target-preds", tp]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*argv, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr() == ("", f"error: {name} rows must be finite and sum to 1 within 1e-06\n")
        assert not (tmp_path / "o").exists()

    def test_negative_prediction_entry_is_one_line_error(self, tmp_path, capsys):
        # the row sums to 1, so only the sign test refuses it
        sp, sl, tp = (tmp_path / name for name in ("sp.csv", "sl.csv", "tp.csv"))
        sp.write_text("p_0,p_1\n0.6,0.4\n1.5,-0.5\n0.2,0.8\n")
        sl.write_text("label\n0\n0\n1\n")
        tp.write_text("p_0,p_1\n0.5,0.5\n0.3,0.7\n")
        out = tmp_path / "o"
        assert run(["estimate-weights", "--source-preds", sp, "--source-labels", sl, "--target-preds", tp, "--out", out]) == 1
        assert capsys.readouterr() == ("", "error: source_preds has an entry below -1e-06\n")
        assert not (out / "weights.csv").exists() and not (out / "confusion.csv").exists()

    def test_label_count_must_match_the_predictions(self, tmp_path, capsys):
        sp, sl, tp, _, _ = self.write_inputs(tmp_path, n=20)
        sl.write_text("label\n0\n1\n")
        argv = ["estimate-weights", "--source-preds", sp, "--source-labels", sl, "--target-preds", tp]
        assert run([*argv, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err == "error: 20 source predictions but 2 labels\n"
        assert not (tmp_path / "o").exists()
        err = raised_by([*argv, "--out", tmp_path / "o"])
        assert type(err) is ShapeMismatch and str(err) == "20 source predictions but 2 labels"

    def test_ill_conditioned_confusion_writes_only_the_qp_row(self, tmp_path):
        # classes 0 and 1 get the same predictions, so C has two equal columns and no inverse
        sp, sl, tp = (tmp_path / name for name in ("sp.csv", "sl.csv", "tp.csv"))
        sp.write_text("p_0,p_1,p_2\n0.5,0.5,0.0\n0.5,0.5,0.0\n0.0,0.0,1.0\n")
        sl.write_text("label\n0\n1\n2\n")
        tp.write_text("p_0,p_1,p_2\n0.5,0.5,0.0\n0.0,0.0,1.0\n")
        out = tmp_path / "est"
        rc = run(["estimate-weights", "--source-preds", sp, "--source-labels", sl, "--target-preds", tp, "--out", out])
        assert rc == 0
        _, rows = read_csv_dict(out / "weights.csv")
        assert [r["method"] for r in rows] == ["qp"]

    @pytest.mark.parametrize(
        "p_source, message",
        [
            ("0.5,0.6,0.1", "probs sum to 1.2000000000000002, expected 1 within 1e-09"),
            ("0.5,0.5", "label_dist length must equal k"),
        ],
        ids=["wrong-sum", "wrong-length"],
    )
    def test_p_source_error_names_the_option(self, tmp_path, capsys, p_source, message):
        sp, sl, tp, _, _ = self.write_inputs(tmp_path, n=200)
        rc = run(
            ["estimate-weights", "--source-preds", sp, "--source-labels", sl,
             "--target-preds", tp, "--p-source", p_source, "--out", tmp_path / "o"]
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message} (--p-source)\n"

    @pytest.mark.parametrize(
        "labels, message",
        [
            ("", "empty file"),
            ("lbl\n0\n", "line 1: expected header 'label'"),
            ("label\n0\n1,2\n", "line 3: expected 1 fields, got 2"),
            ("label\n0\nx\n", "line 3: invalid literal for int() with base 10: 'x'"),
            ("label\n\n", "no data rows"),
        ],
        ids=["empty", "header", "extra-field", "not-an-int", "no-rows"],
    )
    def test_labels_file_errors_match_the_other_readers(self, tmp_path, capsys, labels, message):
        sp, sl, tp, _, _ = self.write_inputs(tmp_path, n=20)
        sl.write_text(labels)
        rc = run(
            ["estimate-weights", "--source-preds", sp, "--source-labels", sl,
             "--target-preds", tp, "--out", tmp_path / "o"]
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: {sl}: {message}\n"


@pytest.mark.parametrize("command", ["generate", "train", "estimate-weights"])
def test_overflowing_label_dist_is_one_line_error(tmp_path, capsys, command):
    # finite entries whose sum overflows: the error alone reports it, with no numpy warning
    if command == "estimate-weights":
        sp, sl, tp, _, _ = TestEstimateWeights().write_inputs(tmp_path, n=20)
        argv = [command, "--source-preds", sp, "--source-labels", sl, "--target-preds", tp, "--p-source"]
        flag = "--p-source"
    else:
        argv = [command, "--n", 50, "--source-label-dist"]
        flag = "--source-label-dist"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*argv, "1e308,1e308,1e308", "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr() == ("", f"error: probs sum to inf, expected 1 within 1e-09 ({flag})\n")


class TestBoundsExitCode:
    @pytest.mark.parametrize("command", ["train"])
    def test_failed_check_exits_1_after_writing_every_file(self, tmp_path, monkeypatch, capsys, command):
        def failing_hook(source, target, sink):
            return lambda epoch, state, record: sink.append(
                (epoch, BoundReport(check="fake", lhs=1.0, rhs=0.0, holds=False, slack=-1.0))
            )

        monkeypatch.setattr(trainer, "make_bound_hook", failing_hook)
        out = tmp_path / "runs"
        argv = [command, "--n", 200, "--epochs", 2, "--batches-per-epoch", 2, "--feature-dim", 8]
        argv += ["--out", out, "--bounds", "--algorithms", "none,dann", "--seeds", "0"]
        assert run(argv) == 1
        runs = [f"{kind}_{alg}_seed0.csv" for alg in ("none", "dann") for kind in ("trace", "bounds")]
        names = ["summary.csv", *runs]
        assert capsys.readouterr().out.splitlines()[-1].endswith(": 4 checks, 4 violations")
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        _, rows = read_csv_dict(out / names[-1])
        assert [r["holds"] for r in rows] == ["0", "0"]


class TestIdempotence:
    def test_train_same_bytes(self, tmp_path):
        args = [
            "train", "--n", 300, "--epochs", 2, "--batches-per-epoch", 3,
            "--feature-dim", 8, "--algorithms", "dann,iwdan", "--seeds", "0",
            "--seed", "6", "--bounds",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        for name in ("summary.csv", "trace_iwdan_seed0.csv", "bounds_iwdan_seed0.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_sweep_parallelism_does_not_change_bytes(self, tmp_path):
        args = [
            "sweep-jsd", "--tasks", 3, "--n", 300, "--epochs", 1,
            "--batches-per-epoch", 2, "--feature-dim", 8, "--seed", "8",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", a, "--jobs", 1]) == 0
        assert run(args + ["--out", b, "--jobs", 2]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


class TestSweep:
    def test_single_task_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        rc = run(
            [
                "sweep-jsd",
                "--out",
                out,
                "--tasks",
                "2",
                "--n",
                400,
                "--epochs",
                1,
                "--batches-per-epoch",
                3,
                "--feature-dim",
                8,
                "--algorithm",
                "iwdan",
                "--seed",
                "2",
            ]
        )
        assert rc == 0
        header, rows = read_csv_dict(out / "sweep.csv")
        assert header == ["task_id", "jsd", "acc_base", "acc_variant", "gain"]
        assert len(rows) == 2
        for row in rows:
            assert float(row["gain"]) == pytest.approx(
                float(row["acc_variant"]) - float(row["acc_base"]), abs=2e-6
            )

    def test_rejects_base_algorithm(self, tmp_path, capsys):
        argv = ["sweep-jsd", "--out", tmp_path / "s", "--algorithm", "dann", "--tasks", "1"]
        message = "--algorithm must be an importance-weighted variant, got 'dann'"
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        err = raised_by(argv)
        assert type(err) is ConfigInvalid and str(err) == message

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_is_one_line_error(self, tmp_path, capsys, jobs):
        rc = run(["sweep-jsd", "--out", tmp_path / "s", "--jobs", jobs, "--tasks", "1", "--epochs", 1])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert not (tmp_path / "s").exists()

