"""End-to-end checks of the command-line pipeline: generate, train,
adapt-eval, head-tail, alpha-sweep, exit codes, and reproducibility."""

import argparse
import ast
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from adaptod import cli, data, doda, metrics, nn
from adaptod.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def bench_constant(name, owner=None):
    """The literal assigned to `name` in bench/workloads.py, at module level
    or in the body of class `owner`, read without importing the bench."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    body = ast.parse(path.read_text()).body
    if owner is not None:
        body = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == owner).body
    node = next(n.value for n in body if isinstance(n, ast.Assign)
                and [t.id for t in n.targets if isinstance(t, ast.Name)] == [name])
    return eval(compile(ast.Expression(node), str(path), "eval"), {"dict": dict})


def flag_dests(command):
    """The dests of a subcommand's flags but --out: the keys of its manifest params."""
    subcommands = next(a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in subcommands.choices[command]._actions} - {"help", "out"}


@pytest.fixture()
def small_run(tmp_path):
    """A tiny generated dataset plus a trained checkpoint, shared per test."""
    data_dir = tmp_path / "data"
    model_dir = tmp_path / "model"
    rc = run_cli("generate", "--out", data_dir, "--n-max", 60, "--n-out", 80,
                 "--n-ood", 80, "--n-test-per-class", 5, "--seed", 3)
    assert rc == EXIT_OK
    rc = run_cli("train", "--data", data_dir, "--out", model_dir, "--seed", 3,
                 "--hidden", 8, "--epochs-pretrain", 2, "--epochs-finetune", 1)
    assert rc == EXIT_OK
    return data_dir, model_dir


@pytest.fixture()
def spread_run(small_run):
    """small_run's data with a model trained for 10 pre-training epochs: its
    ID-train energies spread far beyond sigma_in = 1, so alpha * sigma_in
    overflows at alpha = 1e308."""
    data_dir, model_dir = small_run
    rc = run_cli("train", "--data", data_dir, "--out", model_dir.with_name("model10"),
                 "--seed", 3, "--hidden", 8, "--epochs-pretrain", 10, "--epochs-finetune", 1)
    assert rc == EXIT_OK
    return data_dir, model_dir.with_name("model10")


class TestGenerate:
    def test_writes_all_dataset_files_and_manifest(self, tmp_path):
        out = tmp_path / "d"
        assert run_cli("generate", "--out", out, "--n-max", 60) == EXIT_OK
        for fname in cli.DATASET_FILES.values():
            assert (out / fname).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["params"]["class_counts"][0] == 60

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("generate", "--out", out, "--n-max", 60, "--seed", 7) == EXIT_OK
        for fname in cli.DATASET_FILES.values():
            assert (a / fname).read_bytes() == (b / fname).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("generate", "--out", a, "--n-max", 60, "--seed", 0) == EXIT_OK
        assert run_cli("generate", "--out", b, "--n-max", 60, "--seed", 1) == EXIT_OK
        assert (a / "id_train.csv").read_bytes() != (b / "id_train.csv").read_bytes()

    def test_round_trip_through_loader(self, tmp_path):
        out = tmp_path / "d"
        assert run_cli("generate", "--out", out, "--n-max", 60) == EXIT_OK
        datasets = cli.load_datasets(out)
        assert set(datasets) == set(cli.DATASET_FILES)
        assert datasets[data.ID_TRAIN].features.shape[1] == 8

    @pytest.mark.parametrize("flag, value, message", [
        ("--rho", "nan", "rho must be finite and >= 1, got nan"),
        ("--rho", "inf", "rho must be finite and >= 1, got inf"),
        ("--class-scale", "nan", "class_scale must be finite and positive, got nan"),
        ("--shift", "nan", "shift must be finite and positive, got nan"),
        ("--shift", "inf", "shift must be finite and positive, got inf"),
        ("--n-test-per-class", "0", "n_test_per_class must be >= 1, got 0"),
        ("--head-tilt", "nan", "head_tilt must lie in [0, 1], got nan"),
        ("--head-tilt", "2", "head_tilt must lie in [0, 1], got 2.0"),
        ("--shift", "0", "shift must be finite and positive, got 0.0"),
        ("--rho", "0.5", "rho must be finite and >= 1, got 0.5"),
        ("--n-max", "1", "would receive 0 samples at n_max=1, rho=100.0"),
        ("--n-out", "0", "n_out must be >= 1, got 0"),
        ("--n-ood", "0", "n_ood must be >= 1, got 0"),
        ("--k", "20", "at most 2*d=16 classes, got k=20"),
        ("--d", "0", "d must be >= 1, got 0"),
    ])
    def test_bad_value_exits_config_and_names_it(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "d"
        assert run_cli("generate", "--out", out, "--n-max", 60, flag, value) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_flags_and_manifest_are_the_spec_fields(self, tmp_path):
        out = tmp_path / "d"
        assert run_cli("generate", "--out", out, "--n-max", 60, "--shift", 3) == EXIT_OK
        spec = data.BenchmarkSpec(n_max=60, shift=3.0)
        params = json.loads((out / "manifest.json").read_text())["params"]
        assert params == {**asdict(spec), "class_counts": spec.class_counts()}
        assert set(params) == flag_dests("generate") | {"class_counts"}


class TestBenchmarkContract:
    """bench/workloads.py builds its data through cli.benchmark_datasets and
    `adaptod generate`; its settings and flags must be those of the spec."""

    @pytest.mark.parametrize("workload", ["Stream", "Train"])
    def test_workload_data_settings_are_spec_fields(self, workload):
        settings = bench_constant("DATA", workload)
        assert set(settings) <= {f.name for f in fields(data.BenchmarkSpec)}
        data.BenchmarkSpec(**settings)

    def test_pipeline_generate_flags_are_generate_flags(self):
        argv = bench_constant("GENERATE", "Pipeline")
        subcommands = next(a for a in cli.build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction))
        flags = subcommands.choices["generate"]._option_string_actions
        assert [a for a in argv if a.startswith("--")] == argv[::2]
        assert set(argv[::2]) <= set(flags)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_benchmark_datasets_equal_what_generate_writes(self, tmp_path, seed):
        assert run_cli("generate", "--out", tmp_path, "--seed", seed) == EXIT_OK
        written = cli.load_datasets(tmp_path)
        _, sets = cli.benchmark_datasets(seed)
        for tag, want in sets.items():
            assert np.array_equal(written[tag].features, want.features)
            assert np.array_equal(written[tag].labels, want.labels)


class TestTrain:
    def test_checkpoint_and_loss_log(self, small_run):
        _, model_dir = small_run
        model, seed, stage = nn.load_checkpoint(model_dir / "checkpoint.json")
        assert seed == 3
        assert stage == "finetune"
        assert model.layer_dims == [8, 8, 10]
        lines = (model_dir / "loss_log.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,total,ce,dne_c,dne_s"
        assert len(lines) == 1 + 2 + 1  # header + pretrain + finetune epochs

    def test_repeat_runs_are_byte_identical(self, small_run, tmp_path):
        data_dir, model_dir = small_run
        again = tmp_path / "model2"
        rc = run_cli("train", "--data", data_dir, "--out", again, "--seed", 3,
                     "--hidden", 8, "--epochs-pretrain", 2, "--epochs-finetune", 1)
        assert rc == EXIT_OK
        assert (again / "checkpoint.json").read_bytes() == \
            (model_dir / "checkpoint.json").read_bytes()
        assert (again / "loss_log.csv").read_bytes() == \
            (model_dir / "loss_log.csv").read_bytes()

    def test_reads_only_the_training_files(self, small_run, tmp_path):
        data_dir, model_dir = small_run
        only = tmp_path / "only_train"
        only.mkdir()
        for tag in (data.ID_TRAIN, data.OUTLIER):
            fname = cli.DATASET_FILES[tag]
            (only / fname).write_bytes((data_dir / fname).read_bytes())
        again = tmp_path / "model2"
        rc = run_cli("train", "--data", only, "--out", again, "--seed", 3,
                     "--hidden", 8, "--epochs-pretrain", 2, "--epochs-finetune", 1)
        assert rc == EXIT_OK
        for fname in ("checkpoint.json", "loss_log.csv"):
            assert (again / fname).read_bytes() == (model_dir / fname).read_bytes()

    def test_zero_finetune_epochs_train_with_cross_entropy_alone(self, small_run, tmp_path):
        data_dir, _ = small_run
        out = tmp_path / "ce"
        assert run_cli("train", "--data", data_dir, "--out", out, "--seed", 3, "--hidden", 8,
                       "--epochs-pretrain", 2, "--epochs-finetune", 0) == EXIT_OK
        _, _, stage = nn.load_checkpoint(out / "checkpoint.json")
        assert stage == "pretrain"
        assert len((out / "loss_log.csv").read_text().splitlines()) == 1 + 2
        params = json.loads((out / "manifest.json").read_text())["params"]
        assert params["epochs_finetune"] == 0
        assert set(params) == {"data", "hidden", *(f.name for f in fields(nn.TrainConfig))}
        assert set(params) == flag_dests("train")

    def test_default_run_equals_the_library_defaults(self, tmp_path):
        """`train` without tuning flags is nn.train under TrainConfig(seed=s)
        with one hidden layer of 32, the training the benchmark runs."""
        data_dir, out = tmp_path / "data", tmp_path / "model"
        assert run_cli("generate", "--out", data_dir, "--n-max", 60, "--n-out", 80,
                       "--seed", 4) == EXIT_OK
        assert run_cli("train", "--data", data_dir, "--out", out, "--seed", 4) == EXIT_OK
        sets = cli.load_datasets(data_dir, (data.ID_TRAIN, data.OUTLIER))
        id_train = sets[data.ID_TRAIN]
        init = nn.Mlp.init([id_train.features.shape[1], 32, 10], 4)
        model, _ = nn.train(init, id_train.features, id_train.labels,
                            sets[data.OUTLIER].features, nn.TrainConfig(seed=4))
        nn.save_checkpoint(tmp_path / "want.json", model, 4, "finetune")
        assert (out / "checkpoint.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_benchmark_train_config_is_the_default(self):
        """bench/workloads.py trains with TRAIN_CONFIG; it must be the default
        configuration, so the benchmark times what `train` runs."""
        train_config = bench_constant("TRAIN_CONFIG")
        assert nn.TrainConfig(seed=0, **train_config) == nn.TrainConfig(seed=0)

    @pytest.mark.parametrize("argv, message", [
        (["--b-in", "0"], "b_in=0"),
        (["--b-in", "-3", "--epochs-finetune", "0"], "b_in=-3"),
        (["--b-out", "0"], "b_out=0"),
        (["--momentum", "nan"], "momentum must lie in [0, 1), got nan"),
        (["--epochs-pretrain", "-1"], "got -1 and 10"),
        (["--lr-pretrain", "nan"], "lr_pretrain must be finite and positive, got nan"),
        (["--lr-pretrain", "-1"], "lr_pretrain must be finite and positive, got -1.0"),
        (["--lr-pretrain", "0"], "lr_pretrain must be finite and positive, got 0.0"),
        (["--lr-finetune", "inf"], "lr_finetune must be finite and positive, got inf"),
    ])
    def test_bad_setting_exits_config_before_any_work(self, small_run, tmp_path, capsys, argv,
                                                      message):
        data_dir, _ = small_run
        out = tmp_path / "m"
        assert run_cli("train", "--data", data_dir, "--out", out, *argv) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_dir_exits_data(self, tmp_path):
        rc = run_cli("train", "--data", tmp_path / "nope", "--out", tmp_path / "m")
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("argv", [
        pytest.param(["--lr-pretrain", "1e300"], id="stage-1"),
        pytest.param(["--epochs-pretrain", "1", "--lr-finetune", "1e308"], id="stage-2"),
    ])
    def test_diverging_run_exits_numeric_with_one_line(self, small_run, tmp_path, argv):
        data_dir, _ = small_run
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
        proc = subprocess.run(
            [sys.executable, "-m", "adaptod.cli", "train", "--data", str(data_dir),
             "--out", str(tmp_path / "m"), "--hidden", "8", *argv],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_NUMERIC
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert re.fullmatch(r"numeric error: non-finite (loss|logits) at step \d+", lines[0])
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("field, value, message", [
        (1, "-3", "label -3 in an ID set"),
        (3, "oops", "could not convert"),
    ])
    def test_bad_sample_file_names_the_file_and_the_line(self, tmp_path, capsys, field, value,
                                                          message):
        data_dir = tmp_path / "data"
        assert run_cli("generate", "--out", data_dir, "--n-max", 60) == EXIT_OK
        path = data_dir / "id_train.csv"
        lines = path.read_text().splitlines(keepends=True)
        parts = lines[5].split(",")
        parts[field] = value
        lines[5] = ",".join(parts)
        path.write_text("".join(lines))
        rc = run_cli("train", "--data", data_dir, "--out", tmp_path / "m")
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {path}: line 6: " in err and message in err


class TestSampleFileWidths:
    """Every set a command loads must hold as many values per row as the first."""

    @staticmethod
    def rewrite(path, width):
        """path with every row cut or padded to `width` values."""
        lines = path.read_text().splitlines()
        rows = [",".join((line.split(",") + ["0.5"] * width)[:2 + width]) for line in lines[1:]]
        path.write_text("\n".join([f"k={width}", *rows]) + "\n")

    def test_narrow_outlier_set_exits_data(self, small_run, tmp_path, capsys):
        data_dir, _ = small_run
        self.rewrite(data_dir / "outlier.csv", 7)
        assert run_cli("train", "--data", data_dir, "--out", tmp_path / "m") == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {data_dir / 'outlier.csv'}: rows hold 7 values, " \
               f"but {data_dir / 'id_train.csv'} rows hold 8" in err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("command", ["adapt-eval", "head-tail"])
    def test_wide_true_ood_set_exits_data(self, small_run, tmp_path, capsys, command):
        data_dir, model_dir = small_run
        self.rewrite(data_dir / "true_ood.csv", 9)
        rc = run_cli(command, "--data", data_dir, "--model", model_dir / "checkpoint.json",
                     "--out", tmp_path / "e")
        assert rc == EXIT_DATA
        assert f"{data_dir / 'true_ood.csv'}: rows hold 9 values" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_zero_width_header_exits_data(self, small_run, tmp_path, capsys):
        data_dir, _ = small_run
        (data_dir / "id_train.csv").write_text("k=0\n0,1\n")
        assert run_cli("train", "--data", data_dir, "--out", tmp_path / "m") == EXIT_DATA
        assert f"{data_dir / 'id_train.csv'}: line 1: header k=0" in capsys.readouterr().err


class TestSampleFileContents:
    """A sample file that is not UTF-8, a label beyond int64 and an ID-test
    label that no ID-train class has each exit 3 and name the file."""

    def adapt_eval(self, small_run, tmp_path, command="adapt-eval"):
        data_dir, model_dir = small_run
        return run_cli(command, "--data", data_dir, "--model", model_dir / "checkpoint.json",
                       "--out", tmp_path / "e")

    @pytest.mark.parametrize("tail, line", [(b"\xff\xfe0,1,2\n", 2), (b" \n\xff\xfe0,1,2\n", 3)])
    def test_non_utf8_bytes_exit_data(self, small_run, tmp_path, capsys, tail, line):
        data_dir, _ = small_run
        (data_dir / "id_test.csv").write_bytes(b"k=8\n" + tail)
        assert self.adapt_eval(small_run, tmp_path) == EXIT_DATA
        assert f"data error: {data_dir / 'id_test.csv'}: line {line}: " in \
            capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_label_beyond_int64_exits_data(self, small_run, tmp_path, capsys):
        data_dir, _ = small_run
        path = data_dir / "id_test.csv"
        lines = path.read_text().splitlines()
        lines[3] = ",".join(["2", "99999999999999999999999", *lines[3].split(",")[2:]])
        path.write_text("\n".join(lines) + "\n")
        assert self.adapt_eval(small_run, tmp_path) == EXIT_DATA
        assert f"data error: {path}: line 4: " in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("command", ["adapt-eval", "head-tail", "alpha-sweep"])
    def test_unknown_id_test_class_exits_data(self, small_run, tmp_path, capsys, command):
        data_dir, _ = small_run
        path = data_dir / "id_test.csv"
        lines = path.read_text().splitlines()
        lines[3] = ",".join(["2", "12", *lines[3].split(",")[2:]])
        path.write_text("\n".join(lines) + "\n")
        assert self.adapt_eval(small_run, tmp_path, command) == EXIT_DATA
        assert f"data error: {path}: label 12 is not one of the 10 classes of " \
               f"{data_dir / 'id_train.csv'}" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_the_highest_id_train_class_is_a_class(self, small_run, tmp_path):
        data_dir, _ = small_run
        path = data_dir / "id_test.csv"
        lines = path.read_text().splitlines()
        lines[3] = ",".join(["2", "9", *lines[3].split(",")[2:]])
        path.write_text("\n".join(lines) + "\n")
        assert self.adapt_eval(small_run, tmp_path) == EXIT_OK


class TestAdaptEval:
    def test_writes_reports_state_and_histograms(self, small_run, tmp_path):
        data_dir, model_dir = small_run
        out = tmp_path / "eval"
        rc = run_cli("adapt-eval", "--data", data_dir, "--model",
                     model_dir / "checkpoint.json", "--out", out, "--events")
        assert rc == EXIT_OK
        payload = json.loads((out / "metrics.json").read_text())
        for mode in ("uncalibrated", "no_tta", "doda", "oracle", "sweep_0.5"):
            assert 0.0 <= payload[mode]["auroc"] <= 1.0
        assert (out / "adapter_state.json").exists()
        assert (out / "energy_hist.csv").exists()
        assert {p.name for p in out.iterdir()} == {"manifest.json", "metrics.json",
                                                   "adapter_state.json", "energy_hist.csv",
                                                   "events.csv"}
        events = (out / "events.csv").read_text().strip().splitlines()
        n_stream = len(events) - 1
        assert n_stream > 0
        assert events[0] == "sample_index,accepted,global_energy,calibrated_score"

    def test_events_are_the_plain_doda_event_log(self, small_run, tmp_path):
        """events.csv holds plain DODA's accept mask, G and scores as
        doda.run_stream returns them, also when the filter accepts samples."""
        data_dir, model_dir = small_run
        out = tmp_path / "eval"
        rc = run_cli("adapt-eval", "--data", data_dir, "--model", model_dir / "checkpoint.json",
                     "--out", out, "--events", "--alpha", 0.01, "--virtual-count", 2)
        assert rc == EXIT_OK
        datasets = cli.load_datasets(data_dir)
        model, _, _ = nn.load_checkpoint(model_dir / "checkpoint.json")
        stats, p0, _ = cli.prepare(model, datasets, alpha=0.01, virtual_count=2)
        logits = model.forward(cli.build_stream(datasets[data.ID_TEST], datasets[data.TRUE_OOD],
                                                0.5, 0)[0])
        scores, mask, _ = doda.run_stream(p0, stats, logits)
        assert mask.any() and not mask.all()
        want = [f"{i},{int(acc)},{g!r},{score!r}" for i, (acc, g, score)
                in enumerate(zip(mask, doda.global_energies(logits).tolist(), scores))]
        assert (out / "events.csv").read_text().splitlines()[1:] == want

    def test_repeat_runs_are_byte_identical(self, small_run, tmp_path):
        data_dir, model_dir = small_run
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            rc = run_cli("adapt-eval", "--data", data_dir, "--model",
                         model_dir / "checkpoint.json", "--out", out)
            assert rc == EXIT_OK
            outs.append(out)
        for fname in ("metrics.json", "adapter_state.json", "energy_hist.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_mismatched_checkpoint_exits_config(self, small_run, tmp_path):
        data_dir, _ = small_run
        bad = nn.Mlp.init([8, 4, 3], 0)  # wrong output width for k=10 data
        nn.save_checkpoint(tmp_path / "bad.json", bad, 0, "pretrain")
        rc = run_cli("adapt-eval", "--data", data_dir, "--model",
                     tmp_path / "bad.json", "--out", tmp_path / "e")
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("text, key", [
        ("{not json", "not valid JSON"),
        ('{"layer_dims": [8, 10]}', "'weights'"),
        pytest.param('{"layer_dims": [8, 10], "weights": [[' + ", ".join(["0"] * 80)
                     + ']], "biases": [[1' + "0" * 400 + ", 0" * 9 + "]]}", "bad 'biases'",
                     id="bias-beyond-float64"),  # escaped main as a bare OverflowError
    ])
    def test_malformed_checkpoint_exits_data(self, small_run, tmp_path, capsys, text, key):
        data_dir, _ = small_run
        (tmp_path / "bad.json").write_text(text)
        rc = run_cli("adapt-eval", "--data", data_dir, "--model",
                     tmp_path / "bad.json", "--out", tmp_path / "e")
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert str(tmp_path / "bad.json") in err and key in err

    @pytest.mark.parametrize("command", ["adapt-eval", "head-tail"])
    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "0"])
    def test_bad_alpha_exits_config(self, small_run, tmp_path, capsys, command, alpha):
        data_dir, model_dir = small_run
        rc = run_cli(command, "--data", data_dir, "--model", model_dir / "checkpoint.json",
                     "--out", tmp_path / "e", f"--alpha={alpha}")
        assert rc == EXIT_CONFIG
        assert "alpha must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("command", ["adapt-eval", "head-tail"])
    def test_infinite_threshold_exits_config(self, spread_run, tmp_path, capsys, command):
        data_dir, model_dir = spread_run
        rc = run_cli(command, "--data", data_dir, "--model", model_dir / "checkpoint.json",
                     "--out", tmp_path / "e", "--alpha", "1e308")
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "threshold R = mu_in - alpha * sigma_in is not finite (alpha=1e+308, mu_in=" in err
        assert "sigma_in=" in err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("fractions, bad", [
        ("-0.5", "-0.5"), ("0,1.5", "1.5"), ("nan", "nan"), ("0.5,inf", "inf"),
    ])
    def test_bad_oracle_fraction_exits_config_before_any_work(self, small_run, tmp_path, capsys,
                                                              fractions, bad):
        data_dir, model_dir = small_run
        rc = run_cli("adapt-eval", "--data", data_dir, "--model", model_dir / "checkpoint.json",
                     "--out", tmp_path / "e", "--oracle-fractions", fractions)
        assert rc == EXIT_CONFIG
        assert f"oracle fraction {bad} must lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("command", ["adapt-eval", "head-tail", "alpha-sweep"])
    @pytest.mark.parametrize("flag, value", [
        ("--ood-fraction", "1.5"), ("--ood-fraction", "nan"), ("--virtual-count", "-1"),
    ])
    def test_bad_stream_setting_exits_config_and_leaves_no_directory(self, small_run, tmp_path,
                                                                     capsys, command, flag, value):
        data_dir, model_dir = small_run
        rc = run_cli(command, "--data", data_dir, "--model",
                     model_dir / "checkpoint.json", "--out", tmp_path / "e", flag, value)
        assert rc == EXIT_CONFIG
        assert f"got {value}" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("command", ["adapt-eval", "head-tail", "alpha-sweep"])
    @pytest.mark.parametrize("flag, value", [
        ("--ood-fraction", "nan"), ("--virtual-count", "-1"),
        ("--virtual-count", str(2**53 + 1)),  # above the counts a float64 holds exactly
        pytest.param("--virtual-count", "1" + "0" * 400, id="--virtual-count-10**400"),
    ])
    def test_bad_stream_setting_is_checked_before_any_file_is_read(self, tmp_path, capsys,
                                                                   command, flag, value):
        rc = run_cli(command, "--data", tmp_path / "no-data", "--model", tmp_path / "no.json",
                     "--out", tmp_path / "e", flag, value)
        assert rc == EXIT_CONFIG
        assert f"got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [("adapt-eval", []),
                                                ("head-tail", ["--mode", "oracle"])])
    def test_a_virtual_count_of_2_pow_53_runs(self, small_run, tmp_path, command, extra):
        data_dir, model_dir = small_run
        rc = run_cli(command, "--data", data_dir, "--model", model_dir / "checkpoint.json",
                     "--out", tmp_path / "e", "--virtual-count", 2**53, *extra)
        assert rc == EXIT_OK

    def test_oracle_fractions_with_one_sweep_name_exit_config_before_any_file_is_read(
            self, tmp_path, capsys):
        """Two values that print alike would overwrite each other's sweep_<f>."""
        rc = run_cli("adapt-eval", "--data", tmp_path / "no-data", "--model",
                     tmp_path / "no.json", "--out", tmp_path / "e",
                     "--oracle-fractions", "0.5,0.1234567,0.1234568")
        assert rc == EXIT_CONFIG
        assert ("oracle fractions 0.1234567 and 0.1234568 would both be reported as "
                "sweep_0.123457") in capsys.readouterr().err
        assert not (tmp_path / "e").exists()


class TestHeadTail:
    def test_reports_cover_both_halves(self, small_run, tmp_path):
        data_dir, model_dir = small_run
        out = tmp_path / "ht"
        rc = run_cli("head-tail", "--data", data_dir, "--model",
                     model_dir / "checkpoint.json", "--out", out)
        assert rc == EXIT_OK
        payload = json.loads((out / "head_tail.json").read_text())
        assert set(payload) == {"head", "tail"}
        for rep in payload.values():
            assert 0.0 <= rep["auroc"] <= 1.0

    def test_unknown_mode_exits_config(self, small_run, tmp_path):
        data_dir, model_dir = small_run
        rc = run_cli("head-tail", "--data", data_dir, "--model",
                     model_dir / "checkpoint.json", "--out", tmp_path / "ht",
                     "--mode", "sideways")
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("mode", list(cli.HEAD_TAIL_MODES))
    def test_every_mode_exits_ok(self, small_run, tmp_path, mode):
        data_dir, model_dir = small_run
        out = tmp_path / "ht"
        rc = run_cli("head-tail", "--data", data_dir, "--model",
                     model_dir / "checkpoint.json", "--out", out, "--mode", mode)
        assert rc == EXIT_OK
        params = json.loads((out / "manifest.json").read_text())["params"]
        assert params["mode"] == mode
        assert set(params) == flag_dests("head-tail")


class TestAlphaSweep:
    def test_one_row_per_alpha(self, small_run, tmp_path):
        data_dir, model_dir = small_run
        out = tmp_path / "sweep"
        rc = run_cli("alpha-sweep", "--data", data_dir, "--model",
                     model_dir / "checkpoint.json", "--out", out,
                     "--alphas", "2.0,3.0,4.0")
        assert rc == EXIT_OK
        lines = (out / "alpha_sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "alpha,auroc"
        assert len(lines) == 4
        assert [float(l.split(",")[0]) for l in lines[1:]] == [2.0, 3.0, 4.0]

    def test_accepting_alphas_equal_one_stream_per_alpha(self, small_run, tmp_path):
        """The small alphas put R inside the stream's G range, so those plans
        accept samples; each AUROC equals that of its own run_stream."""
        data_dir, model_dir = small_run
        alphas = [0.005, 0.01, 0.05, 3.0, 0.01]
        out = tmp_path / "sweep"
        rc = run_cli("alpha-sweep", "--data", data_dir, "--model", model_dir / "checkpoint.json",
                     "--out", out, "--alphas", ",".join(map(str, alphas)), "--virtual-count", 2)
        assert rc == EXIT_OK
        rows = [line.split(",") for line in (out / "alpha_sweep.csv").read_text().splitlines()[1:]]
        datasets = cli.load_datasets(data_dir)
        model, _, _ = nn.load_checkpoint(model_dir / "checkpoint.json")
        fitted, p0, _ = cli.prepare(model, datasets, virtual_count=2)
        feats, is_ood, _ = cli.build_stream(datasets[data.ID_TEST], datasets[data.TRUE_OOD],
                                            0.5, 0)
        logits = model.forward(feats)
        accepted = []
        for alpha, (alpha_text, auroc_text) in zip(alphas, rows, strict=True):
            stats = doda.EnergyStats.from_moments(fitted.mu_in, fitted.sigma_in, alpha)
            scores, mask, _ = doda.run_stream(p0, stats, logits)
            accepted.append(int(mask.sum()))
            assert float(alpha_text) == alpha
            assert float(auroc_text) == metrics.auroc(np.asarray(scores), ~is_ood)
        assert 0 < min(accepted[:3]) and max(accepted[:3]) < len(logits) and accepted[3] == 0

    @pytest.mark.parametrize("alphas", ["nan,3", "3,inf", "2,-1"])
    def test_bad_alpha_in_grid_exits_config(self, small_run, tmp_path, capsys, alphas):
        data_dir, model_dir = small_run
        rc = run_cli("alpha-sweep", "--data", data_dir, "--model",
                     model_dir / "checkpoint.json", "--out", tmp_path / "s", "--alphas", alphas)
        assert rc == EXIT_CONFIG
        assert "alpha must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("alphas", ["1e308,3", "3,1e308"])
    def test_infinite_threshold_in_grid_exits_config(self, spread_run, tmp_path, capsys, alphas):
        # 1e308,3 once wrote the same AUROC for both rows: R = -inf accepts nothing
        data_dir, model_dir = spread_run
        rc = run_cli("alpha-sweep", "--data", data_dir, "--model",
                     model_dir / "checkpoint.json", "--out", tmp_path / "s", "--alphas", alphas)
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "threshold R = mu_in - alpha * sigma_in is not finite (alpha=1e+308, mu_in=" in err
        assert not (tmp_path / "s").exists()

    def test_alpha_is_not_a_flag(self, small_run, tmp_path, capsys):
        data_dir, model_dir = small_run
        rc = run_cli("alpha-sweep", "--data", data_dir, "--model",
                     model_dir / "checkpoint.json", "--out", tmp_path / "s", "--alpha", 3)
        assert rc == EXIT_CONFIG
        assert "--alpha 3" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_alpha_is_not_a_config_key(self, small_run, tmp_path, capsys):
        data_dir, model_dir = small_run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 3}))
        rc = run_cli("--config", cfg, "alpha-sweep", "--data", data_dir, "--model",
                     model_dir / "checkpoint.json", "--out", tmp_path / "s")
        assert rc == EXIT_CONFIG
        assert "config key 'alpha' is not a flag" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_empty_grid_exits_config(self, small_run, tmp_path):
        data_dir, model_dir = small_run
        rc = run_cli("alpha-sweep", "--data", data_dir, "--model",
                     model_dir / "checkpoint.json", "--out", tmp_path / "s",
                     "--alphas", "")
        assert rc == EXIT_CONFIG


class TestRunDirectory:
    """An --out is complete or absent: a non-empty one is refused before any
    work, a failing command leaves none, and its manifest holds every flag."""

    COMMANDS = ["generate", "train", "adapt-eval", "head-tail", "alpha-sweep"]

    @staticmethod
    def argv(command, small_run, out):
        data_dir, model_dir = small_run
        return {"generate": ["--out", out, "--n-max", 60],
                "train": ["--data", data_dir, "--out", out, "--hidden", 8,
                          "--epochs-pretrain", 1, "--epochs-finetune", 1]}.get(
            command, ["--data", data_dir, "--model", model_dir / "checkpoint.json", "--out", out])

    @staticmethod
    def contents(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_non_empty_out_exits_config_and_keeps_its_files(self, small_run, tmp_path, capsys,
                                                           command):
        out = tmp_path / "run"
        out.mkdir()
        (out / "manifest.json").write_text('{"command": "earlier"}\n')
        (out / "notes.txt").write_text("not named by any flag\n")
        before = self.contents(out)
        assert run_cli(command, *self.argv(command, small_run, out)) == EXIT_CONFIG
        assert f"--out {out} exists and is not an empty directory" in capsys.readouterr().err
        assert self.contents(out) == before
        assert not list(tmp_path.glob(".run.*"))

    def test_out_that_is_a_file_exits_config(self, tmp_path):
        out = tmp_path / "run"
        out.write_text("a file\n")
        assert run_cli("generate", "--out", out, "--n-max", 60) == EXIT_CONFIG
        assert out.read_text() == "a file\n"

    def test_second_run_into_a_run_directory_exits_config(self, small_run, tmp_path):
        # the second run once left the first run's events.csv beside "events": false
        out = tmp_path / "eval"
        argv = ["adapt-eval", *self.argv("adapt-eval", small_run, out)]
        assert run_cli(*argv, "--events") == EXIT_OK
        before = self.contents(out)
        assert run_cli(*argv, "--alpha", 2) == EXIT_CONFIG
        assert self.contents(out) == before
        assert json.loads(before["manifest.json"])["params"]["events"] is True

    def test_head_tail_into_the_data_directory_exits_config(self, small_run, capsys):
        data_dir, model_dir = small_run
        before = self.contents(data_dir)
        rc = run_cli("head-tail", "--data", data_dir, "--model", model_dir / "checkpoint.json",
                     "--out", data_dir)
        assert rc == EXIT_CONFIG
        assert f"--out {data_dir} exists" in capsys.readouterr().err
        assert self.contents(data_dir) == before

    @pytest.mark.parametrize("events", [False, True])
    def test_empty_out_gets_exactly_the_files_the_flags_imply(self, small_run, tmp_path, events):
        out = tmp_path / "eval"
        out.mkdir()
        argv = self.argv("adapt-eval", small_run, out) + (["--events"] if events else [])
        assert run_cli("adapt-eval", *argv) == EXIT_OK
        want = {"manifest.json", "metrics.json", "adapter_state.json", "energy_hist.csv"}
        assert set(self.contents(out)) == want | ({"events.csv"} if events else set())
        assert json.loads((out / "manifest.json").read_text())["params"]["events"] is events
        assert not list(tmp_path.glob(".eval.*"))

    def test_failure_after_the_first_write_leaves_no_out(self, small_run, tmp_path, monkeypatch,
                                                         capsys):
        def failing_save_state(path, *args):
            raise OSError(f"cannot write {path.name}")

        monkeypatch.setattr(doda, "save_state", failing_save_state)
        out = tmp_path / "eval"
        argv = self.argv("adapt-eval", small_run, out)
        assert run_cli("adapt-eval", *argv, "--events") == EXIT_DATA
        assert "data error: cannot write adapter_state.json" in capsys.readouterr().err
        assert not out.exists()
        assert not list(tmp_path.glob(".eval.*"))

    @pytest.mark.parametrize("command", ["adapt-eval", "alpha-sweep"])
    def test_manifest_params_are_every_flag_but_out(self, small_run, tmp_path, command):
        out = tmp_path / "run"
        argv = [str(a) for a in [command, *self.argv(command, small_run, out)]]
        assert run_cli(*argv) == EXIT_OK
        params = json.loads((out / "manifest.json").read_text())["params"]
        assert set(params) == flag_dests(command)
        ns = cli.build_parser().parse_args(argv)
        assert params == {key: getattr(ns, key) for key in params}


class TestSizeLimits:
    """Model and data sizes are checked against a documented limit before
    anything is allocated; a size past it exits 2 and names the value."""

    @pytest.mark.parametrize("limit, rc", [(161, EXIT_CONFIG), (162, EXIT_OK)])
    def test_train_checks_the_parameter_count(self, small_run, tmp_path, monkeypatch, capsys,
                                              limit, rc):
        data_dir, _ = small_run
        monkeypatch.setattr(nn, "MAX_PARAMS", limit)
        out = tmp_path / "m"
        assert run_cli("train", "--data", data_dir, "--out", out, "--hidden", 8,
                       "--epochs-pretrain", 1, "--epochs-finetune", 1) == rc
        if rc == EXIT_CONFIG:
            assert "162 parameters in [8, 8, 10] exceed MAX_PARAMS=161" in capsys.readouterr().err
        assert out.exists() == (rc == EXIT_OK)

    @pytest.mark.parametrize("limit, rc", [(1, EXIT_CONFIG), (2**22, EXIT_OK)])
    def test_train_checks_the_step_count(self, small_run, tmp_path, monkeypatch, capsys,
                                         limit, rc):
        data_dir, _ = small_run
        steps = cli.load_datasets(data_dir)[data.ID_TRAIN].n // 64  # b_in 64: steps an epoch
        monkeypatch.setattr(nn, "MAX_STEPS", limit)
        out = tmp_path / "m"
        assert run_cli("train", "--data", data_dir, "--out", out, "--hidden", 8,
                       "--epochs-pretrain", 2, "--epochs-finetune", 1) == rc
        if rc == EXIT_CONFIG:
            assert (f"epochs_pretrain=2 epochs of {steps} steps exceed MAX_STEPS=1"
                    in capsys.readouterr().err)
        assert out.exists() == (rc == EXIT_OK)

    def test_adapt_eval_checks_the_activation_count(self, small_run, tmp_path, monkeypatch,
                                                    capsys):
        data_dir, model_dir = small_run
        rows = cli.load_datasets(data_dir)[data.ID_TRAIN].n  # the first set forwarded
        monkeypatch.setattr(nn, "MAX_ACTIVATIONS", 18 * rows - 1)
        out = tmp_path / "e"
        rc = run_cli("adapt-eval", "--data", data_dir, "--model", model_dir / "checkpoint.json",
                     "--out", out)
        assert rc == EXIT_CONFIG
        assert (f"{rows} rows through layers of widths [8, 10] make {18 * rows} activation "
                f"values, more than MAX_ACTIVATIONS={18 * rows - 1}") in capsys.readouterr().err
        assert not out.exists()

    SMALL = ["--k", 4, "--d", 2, "--n-max", 5, "--rho", 5, "--n-test-per-class", 1,
             "--n-out", 10, "--n-ood", 10]  # at most 20 rows of 2 values per set

    @pytest.mark.parametrize("flag, value, message", [
        (None, None, None),
        ("--n-max", 6, "n_max=6 makes a set of up to 24 rows of d=2"),
        ("--d", 3, "n_max=5 makes a set of up to 20 rows of d=3"),
        ("--n-test-per-class", 6, "n_test_per_class=6 makes a set of up to 24 rows of d=2"),
        ("--n-out", 21, "n_out=21 makes a set of up to 21 rows of d=2"),
        ("--n-ood", 21, "n_ood=21 makes a set of up to 21 rows of d=2"),
    ])
    def test_generate_checks_the_set_sizes(self, tmp_path, monkeypatch, capsys, flag, value,
                                           message):
        monkeypatch.setattr(data, "MAX_SET_VALUES", 40)
        out = tmp_path / "d"
        rc = run_cli("generate", "--out", out, *self.SMALL, *([flag, value] if flag else []))
        if message is None:
            assert rc == EXIT_OK
        else:
            assert rc == EXIT_CONFIG
            assert f"{message} values, more than MAX_SET_VALUES=40" in capsys.readouterr().err
            assert not out.exists()


class TestEvaluationPlan:
    """Each command forwards a set once and runs only the stream modes it reports."""

    @pytest.mark.parametrize("command, extra, passes", [
        ("adapt-eval", ["--events"], 1),  # one pass for every plan; uncalibrated is G
        ("head-tail", [], 2),  # one mode per half
        ("alpha-sweep", [], 1),  # one pass for every alpha's threshold
    ])
    def test_forward_and_stream_pass_counts(self, small_run, tmp_path, monkeypatch,
                                            command, extra, passes):
        data_dir, model_dir = small_run
        calls = {"run_plans": 0, "rows": []}
        forward, run_plans = nn.Mlp.forward, doda.run_plans

        def counting_forward(self, inputs):
            calls["rows"].append(len(inputs))
            return forward(self, inputs)

        def counting_run_plans(*args, **kwargs):  # run_stream is its one-plan case
            calls["run_plans"] += 1
            return run_plans(*args, **kwargs)

        monkeypatch.setattr(nn.Mlp, "forward", counting_forward)
        monkeypatch.setattr(doda, "run_plans", counting_run_plans)
        rc = run_cli(command, "--data", data_dir, "--model", model_dir / "checkpoint.json",
                     "--out", tmp_path / "o", *extra)
        assert rc == EXIT_OK
        assert calls["run_plans"] == passes
        # one forward per set, in prepare: every row of every set, once
        assert sorted(calls["rows"]) == sorted(s.n for s in cli.load_datasets(data_dir).values())

    def test_adapt_eval_computes_each_g_once(self, tmp_path, monkeypatch):
        """The stream's G comes from run_plans: global_energies runs on the
        ID-train rows, the stream and the three histogram sets, once each."""
        data_dir, model_dir = tmp_path / "d", tmp_path / "m"
        assert run_cli("generate", "--out", data_dir) == EXIT_OK
        assert run_cli("train", "--data", data_dir, "--out", model_dir, "--hidden", 8,
                       "--epochs-pretrain", 1, "--epochs-finetune", 1) == EXIT_OK
        rows, global_energies = [], doda.global_energies

        def counting_global_energies(logits):
            rows.append(len(logits))
            return global_energies(logits)

        monkeypatch.setattr(doda, "global_energies", counting_global_energies)
        rc = run_cli("adapt-eval", "--data", data_dir, "--model", model_dir / "checkpoint.json",
                     "--out", tmp_path / "o", "--events")
        assert rc == EXIT_OK
        assert rows == [745, 800, 400, 600, 600]

    @pytest.mark.parametrize("fractions", ["", "0", "1", "0.3", "0,0.25,0.5,0.75,1.0",
                                           "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,0.9"])
    def test_adapt_eval_steps_each_stream_sample_once(self, small_run, tmp_path, monkeypatch,
                                                      fractions):
        data_dir, model_dir = small_run
        samples, step = [], doda._step

        def counting_step(values, counts, logits, sample_index, *args):
            samples.append(sample_index)
            return step(values, counts, logits, sample_index, *args)

        monkeypatch.setattr(doda, "_step", counting_step)
        rc = run_cli("adapt-eval", "--data", data_dir, "--model", model_dir / "checkpoint.json",
                     "--out", tmp_path / "o", "--events", "--oracle-fractions", fractions)
        assert rc == EXIT_OK
        n = len((tmp_path / "o" / "events.csv").read_text().splitlines()) - 1
        assert n > 0 and samples == list(range(n))

    @pytest.fixture()
    def prepared(self, small_run):
        data_dir, model_dir = small_run
        datasets = cli.load_datasets(data_dir)
        model, _, _ = nn.load_checkpoint(model_dir / "checkpoint.json")
        stats, p0, _ = cli.prepare(model, datasets, virtual_count=2)
        feats, is_ood, labels = cli.build_stream(datasets[data.ID_TEST],
                                                 datasets[data.TRUE_OOD], 0.5, seed=5)
        return model, datasets, stats, p0, (model.forward(feats), is_ood, labels)

    def test_each_mode_alone_equals_the_full_run(self, prepared):
        _, _, stats, p0, stream = prepared
        fractions = (0.0, 0.25, 0.5, 1.0)
        full = cli.evaluate_modes(stats, p0, stream, oracle_fractions=fractions, seed=5)
        assert set(full) == set(cli.MODES) | {f"sweep_{f:g}" for f in fractions}
        for mode in cli.MODES:
            alone = cli.evaluate_modes(stats, p0, stream, modes=(mode,), seed=5)
            assert set(alone) == {mode}
            assert alone[mode]["report"] == full[mode]["report"]
            assert alone[mode]["scores"] == full[mode]["scores"]
        for frac in fractions:
            alone = cli.evaluate_modes(stats, p0, stream, modes=(), oracle_fractions=(frac,),
                                       seed=5)
            key = f"sweep_{frac:g}"
            assert alone[key]["report"] == full[key]["report"]

    def test_alpha_grid_from_moments_equals_a_fit_per_alpha(self, prepared):
        model, datasets, stats, _, _ = prepared
        ns = cli.build_parser().parse_args(["alpha-sweep", "--data", "d", "--model", "m",
                                            "--out", "o"])
        train_logits = model.forward(datasets[data.ID_TRAIN].features)
        for alpha in cli._parse_grid(ns.alphas):
            assert doda.EnergyStats.from_moments(stats.mu_in, stats.sigma_in, alpha) \
                == doda.fit_energy_stats(train_logits, alpha)


class TestConfigFile:
    def test_config_json_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-max": 60, "seed": 9}))
        out = tmp_path / "d"
        assert run_cli("--config", cfg, "generate", "--out", out) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"]["n_max"] == 60
        assert manifest["params"]["seed"] == 9

    def test_unreadable_config_exits_config(self, tmp_path):
        assert run_cli("--config", tmp_path / "missing.json",
                       "generate", "--out", tmp_path / "d") == EXIT_CONFIG

    def test_malformed_config_exits_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run_cli("--config", cfg, "generate", "--out", tmp_path / "d") == EXIT_CONFIG

    def test_command_line_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9, "n_max": 60}))
        out = tmp_path / "d"
        assert run_cli("--config", cfg, "generate", "--out", out, "--seed", 4) == EXIT_OK
        params = json.loads((out / "manifest.json").read_text())["params"]
        assert (params["seed"], params["n_max"]) == (4, 60)

    def test_unknown_config_key_exits_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sed": 9}))
        assert run_cli("--config", cfg, "generate", "--out", tmp_path / "d") == EXIT_CONFIG
        assert "'sed'" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_values_are_converted_by_the_flag_type(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": "9", "rho": 50, "n-max": 60}))
        out = tmp_path / "d"
        assert run_cli("--config", cfg, "generate", "--out", out) == EXIT_OK
        params = json.loads((out / "manifest.json").read_text())["params"]
        assert (params["seed"], params["rho"]) == (9, 50.0)
        assert isinstance(params["rho"], float)

    @pytest.mark.parametrize("command, key, value", [
        ("generate", "seed", "nine"),
        ("generate", "seed", 9.5),
        ("generate", "seed", True),
        ("generate", "seed", None),
        ("generate", "rho", [1.0]),
        ("generate", "out", {"a": 1}),
        ("train", "hidden", 8),
        ("train", "hidden", ["x"]),
        ("train", "finetune_all_layers", "yes"),
        ("head-tail", "mode", "sideways"),
    ])
    def test_bad_config_value_exits_config(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        argv = {"generate": ["--out", tmp_path / "d"],
                "train": ["--data", tmp_path / "d", "--out", tmp_path / "m"],
                "head-tail": ["--data", tmp_path / "d", "--model", tmp_path / "c.json",
                              "--out", tmp_path / "h"]}[command]
        assert run_cli("--config", cfg, command, *argv) == EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err

    def test_config_must_be_an_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert run_cli("--config", cfg, "generate", "--out", tmp_path / "d") == EXIT_CONFIG


class TestStream:
    def test_stream_hits_requested_fraction(self, tmp_path):
        out = tmp_path / "d"
        assert run_cli("generate", "--out", out, "--n-max", 60,
                       "--n-test-per-class", 10) == EXIT_OK
        datasets = cli.load_datasets(out)
        feats, is_ood, labels = cli.build_stream(
            datasets[data.ID_TEST], datasets[data.TRUE_OOD], 0.25, seed=0)
        n = feats.shape[0]
        assert is_ood.sum() == round(100 * 0.25 / 0.75)
        assert (labels[is_ood] == -1).all()
        assert (labels[~is_ood] >= 0).all()
        assert n == is_ood.size == labels.size

    def test_stream_order_is_seeded(self, tmp_path):
        out = tmp_path / "d"
        assert run_cli("generate", "--out", out, "--n-max", 60,
                       "--n-test-per-class", 10) == EXIT_OK
        datasets = cli.load_datasets(out)
        a = cli.build_stream(datasets[data.ID_TEST], datasets[data.TRUE_OOD], 0.5, seed=1)
        b = cli.build_stream(datasets[data.ID_TEST], datasets[data.TRUE_OOD], 0.5, seed=1)
        c = cli.build_stream(datasets[data.ID_TEST], datasets[data.TRUE_OOD], 0.5, seed=2)
        assert np.array_equal(a[0], b[0])
        assert not np.array_equal(a[0], c[0])


class TestSeed:
    @pytest.mark.parametrize("command", ["generate", "train", "adapt-eval", "head-tail",
                                         "alpha-sweep"])
    def test_negative_seed_exits_config(self, tmp_path, capsys, command):
        argv = {"generate": ["--out", tmp_path / "d"],
                "train": ["--data", tmp_path / "d", "--out", tmp_path / "m"]}.get(
            command, ["--data", tmp_path / "d", "--model", tmp_path / "c.json",
                      "--out", tmp_path / "e"])
        assert run_cli(command, *argv, "--seed", -1) == EXIT_CONFIG
        assert "seed must be non-negative, got -1" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_help_runs_without_runpy_warning(self):
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
        proc = subprocess.run([sys.executable, "-m", "adaptod.cli", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "usage:" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr
