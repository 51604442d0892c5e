"""Command-line surface: config layering, exit codes, artifacts, replays.

All commands run in-process through ``main(argv)`` so exit codes and
stdout/stderr can be asserted directly.
"""

import json
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import children_left, needs_two_blas_threads
from skelgest import pipeline, pool
from skelgest.cli import EXIT_CHECK, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from skelgest.config import (
    REGISTRY,
    ConfigError,
    default_config,
    load_config_file,
    parse_config_text,
    parse_value,
    render_config,
    resolve,
)
from skelgest.neuralnet import (
    HeadKind, LstmSpec, common, init_parameters, load_checkpoint, save_checkpoint,
)
from skelgest.skeleton import ALL_GESTURE_IDS, DYNAMIC_GESTURE_IDS

TINY_TRAIN_FLAGS = [
    "--lstm-hidden", "4", "--epochs", "1", "--stride", "8",
    "--frames", "16", "--batch-size", "128",
]


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """A small synthetic dataset written through the CLI itself."""
    root = tmp_path_factory.mktemp("data") / "ds"
    code = run_cli("synth", "--out", str(root), "--seed", "21", "--patients", "2")
    assert code == EXIT_OK
    return root


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, dataset_dir):
    """A trained multiclass model set for --models evaluations."""
    out = tmp_path_factory.mktemp("trained")
    code = run_cli(
        "train", "--dataset", str(dataset_dir), "--out", str(out),
        "--seed", "5", *TINY_TRAIN_FLAGS,
    )
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def eval_out(tmp_path_factory, dataset_dir):
    """A completed two-fold cross-validation run."""
    out = tmp_path_factory.mktemp("eval") / "run"
    code = run_cli(
        "evaluate", "--dataset", str(dataset_dir), "--out", str(out),
        "--seed", "6", "--fold-boundaries", "1,2", *TINY_TRAIN_FLAGS,
    )
    assert code == EXIT_OK
    return out


class TestConfigModule:
    def test_render_parse_round_trip(self):
        defaults = default_config()
        text = render_config(defaults)
        assert parse_config_text(text) == {
            k: v for k, v in defaults.items()
        }

    def test_comments_and_blanks_ignored(self):
        text = "\n# full-line comment\ntrain.epochs = 7  # trailing comment\n\n"
        assert parse_config_text(text) == {"train.epochs": 7}

    def test_unknown_key_carries_line_number(self):
        with pytest.raises(ConfigError, match=r"conf:3:.*no\.such\.key"):
            parse_config_text("\n\nno.such.key = 1\n", source="conf")

    def test_bad_value_carries_line_number(self):
        with pytest.raises(ConfigError, match=r"conf:1:.*'abc'"):
            parse_config_text("train.epochs = abc", source="conf")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("train.epochs 7")

    def test_window_values(self):
        assert parse_value("preprocess.window", "32") == (32,)
        assert parse_value("preprocess.window", "128,256") == (128, 256)
        with pytest.raises(ConfigError, match="increasing"):
            parse_value("preprocess.window", "256,128")
        with pytest.raises(ConfigError):
            parse_value("preprocess.window", "0")
        with pytest.raises(ConfigError):
            parse_value("preprocess.window", "16,32,64")

    def test_method_range(self):
        assert parse_value("preprocess.method", "5") == 5
        with pytest.raises(ConfigError, match="1..5"):
            parse_value("preprocess.method", "6")

    def test_bool_spellings(self):
        for text, expected in [("true", True), ("YES", True), ("1", True),
                               ("off", False), ("0", False)]:
            assert parse_value("preprocess.smooth", text) is expected
        with pytest.raises(ConfigError):
            parse_value("preprocess.smooth", "maybe")

    def test_optional_int_none(self):
        assert parse_value("run.seed", "none") is None
        assert parse_value("run.seed", "17") == 17

    def test_int_pair(self):
        assert parse_value("folds.boundaries", "15,35") == (15, 35)
        with pytest.raises(ConfigError, match="two integers"):
            parse_value("folds.boundaries", "15")

    def test_chin_index_range(self):
        assert parse_value("joints.chin_index", "13") == 13
        for text in ("14", "-1"):
            with pytest.raises(ConfigError, match=rf"'joints.chin_index': chin_index {text} "
                                                  r"outside \[0, 14\)"):
                parse_value("joints.chin_index", text)

    def test_choice_keys(self):
        assert parse_value("model.protocol", "binary") == "binary"
        with pytest.raises(ConfigError, match="one of"):
            parse_value("model.net", "transformer")

    def test_resolve_precedence(self, tmp_path):
        file = tmp_path / "conf"
        file.write_text("train.epochs = 7\nsynth.patients = 9\n")
        resolved = resolve(file, {"train.epochs": 3})
        assert resolved["train.epochs"] == 3  # flag beats file
        assert resolved["synth.patients"] == 9  # file beats default
        assert resolved["train.batch_size"] == 32  # untouched default

    def test_resolve_ignores_none_overrides(self, tmp_path):
        resolved = resolve(None, {"train.epochs": None})
        assert resolved["train.epochs"] == 20

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config_file(tmp_path / "nope.conf")


class TestArgumentErrors:
    def test_no_command_is_usage_error(self):
        assert run_cli() == EXIT_USAGE

    def test_unknown_command_is_usage_error(self):
        assert run_cli("frobnicate") == EXIT_USAGE

    def test_bad_flag_value_is_usage_error(self, capsys):
        assert run_cli("synth", "--seed", "1", "--patients", "zero") == EXIT_USAGE

    def test_invalid_method_is_usage_error(self, dataset_dir):
        code = run_cli(
            "evaluate", "--dataset", str(dataset_dir), "--seed", "1", "--method", "9"
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flag,value", [("--noise-sigma", "nan"), ("--noise-sigma", "inf"),
                                            ("--camera-offset-range", "inf")])
    def test_non_finite_synth_setting_is_usage_error(self, flag, value, tmp_path, capsys):
        """Refused before anything is written."""
        out = tmp_path / "x"
        assert run_cli("synth", "--out", str(out), "--seed", "1", flag, value) == EXIT_USAGE
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {name} must be finite, got {value}\n"
        assert not out.exists()

    def test_missing_seed_is_usage_error(self, tmp_path, capsys):
        code = run_cli("synth", "--out", str(tmp_path / "x"))
        assert code == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err

    def test_missing_dataset_is_usage_error(self, capsys):
        code = run_cli("train", "--seed", "1")
        assert code == EXIT_USAGE
        assert "--dataset" in capsys.readouterr().err


class TestSynth:
    def test_writes_labelled_rows_and_config_echo(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code = run_cli("synth", "--out", str(out), "--seed", "3", "--patients", "6")
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "174 sequences" in stdout
        assert "checksum" in stdout
        manifest = (out / "manifest.csv").read_text().strip().splitlines()
        assert len(manifest) == 1 + 174
        echoed = parse_config_text((out / "config.txt").read_text())
        assert echoed["run.seed"] == 3
        assert echoed["synth.patients"] == 6

    def test_same_seed_same_out_is_byte_identical(self, tmp_path):
        out = tmp_path / "ds"
        assert run_cli("synth", "--out", str(out), "--seed", "9", "--patients", "2") == EXIT_OK
        snapshot = {
            p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
        }
        assert run_cli("synth", "--out", str(out), "--seed", "9", "--patients", "2") == EXIT_OK
        again = {
            p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
        }
        assert snapshot == again

    def test_different_seed_changes_payload(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("synth", "--out", str(a), "--seed", "1", "--patients", "1")
        run_cli("synth", "--out", str(b), "--seed", "2", "--patients", "1")
        differing = [
            p.name for p in (a / "frames").iterdir()
            if p.read_bytes() != (b / "frames" / p.name).read_bytes()
        ]
        assert differing


    def test_frames_path_that_cannot_be_written_leaves_no_manifest(self, tmp_path, capsys):
        """A frames file that cannot be written exits 3 with the system's
        error, and leaves no manifest that `ingest` would load."""
        out = tmp_path / "ds"
        blocked = out / "frames" / f"p002_{ALL_GESTURE_IDS[0]}.txt"
        blocked.mkdir(parents=True)
        code = run_cli("synth", "--out", str(out), "--seed", "1", "--patients", "2")
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{blocked}'\n"
        assert not (out / "manifest.csv").exists()
        assert run_cli("ingest", "--dataset", str(out)) == EXIT_DATA

    def test_out_that_is_a_file_is_a_data_error(self, tmp_path, capsys):
        out = tmp_path / "ds"
        out.write_text("not a directory\n")
        code = run_cli("synth", "--out", str(out), "--seed", "1", "--patients", "1")
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: [Errno 20] Not a directory: '{out / 'frames'}'\n")

    def test_killed_writer_is_a_check_failure(self, tmp_path, monkeypatch, capsys):
        """A writer killed while re-writing an old cohort: exit 1 naming the
        first frames file not received, no worker left running, and no
        manifest, old or new."""
        out = tmp_path / "ds"
        assert run_cli("synth", "--out", str(out), "--seed", "1", "--patients", "2") == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(pool, "_cpus", lambda: 2)
        fork_map = pool.fork_map
        monkeypatch.setattr(pool, "fork_map", lambda fn, n, state, workers, **kw: (
            fork_map(_kill_own_worker, n, state, workers, **kw)))
        code = run_cli("synth", "--out", str(out), "--seed", "2", "--patients", "2")
        assert code == EXIT_CHECK
        assert capsys.readouterr().err == (
            f"error: {out / 'frames' / f'p001_{ALL_GESTURE_IDS[0]}.txt'}: a writer ended "
            "before reporting this frames file written (58 of 58 not received)\n")
        assert not children_left()
        assert not (out / "manifest.csv").exists()


class TestConfigLayering:
    def test_config_file_supplies_values(self, tmp_path, capsys):
        conf = tmp_path / "site.conf"
        conf.write_text("synth.patients = 2\nrun.seed = 4\n")
        out = tmp_path / "ds"
        code = run_cli("synth", "--config", str(conf), "--out", str(out))
        assert code == EXIT_OK
        assert "58 sequences" in capsys.readouterr().out

    def test_flag_beats_config_file(self, tmp_path, capsys):
        conf = tmp_path / "site.conf"
        conf.write_text("synth.patients = 2\n")
        out = tmp_path / "ds"
        code = run_cli(
            "synth", "--config", str(conf), "--out", str(out),
            "--seed", "4", "--patients", "3",
        )
        assert code == EXIT_OK
        assert "87 sequences" in capsys.readouterr().out

    def test_root_level_config_position_works(self, tmp_path, capsys):
        conf = tmp_path / "site.conf"
        conf.write_text("synth.patients = 2\nrun.seed = 4\n")
        out = tmp_path / "ds"
        code = run_cli("--config", str(conf), "synth", "--out", str(out))
        assert code == EXIT_OK
        assert "58 sequences" in capsys.readouterr().out

    def test_env_var_config(self, tmp_path, capsys, monkeypatch):
        conf = tmp_path / "env.conf"
        conf.write_text("synth.patients = 2\nrun.seed = 4\n")
        monkeypatch.setenv("SKELGEST_CONFIG", str(conf))
        out = tmp_path / "ds"
        assert run_cli("synth", "--out", str(out)) == EXIT_OK
        assert "58 sequences" in capsys.readouterr().out

    def test_explicit_config_beats_env_var(self, tmp_path, capsys, monkeypatch):
        env_conf = tmp_path / "env.conf"
        env_conf.write_text("synth.patients = 2\nrun.seed = 4\n")
        cli_conf = tmp_path / "cli.conf"
        cli_conf.write_text("synth.patients = 3\nrun.seed = 4\n")
        monkeypatch.setenv("SKELGEST_CONFIG", str(env_conf))
        out = tmp_path / "ds"
        assert run_cli("synth", "--config", str(cli_conf), "--out", str(out)) == EXIT_OK
        assert "87 sequences" in capsys.readouterr().out

    def test_unknown_key_in_file_is_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("run.seed = 1\ntypo.key = 5\n")
        code = run_cli("synth", "--config", str(conf), "--out", str(tmp_path / "x"))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "bad.conf:2" in err and "typo.key" in err


class TestIngest:
    def test_prints_summary(self, dataset_dir, capsys):
        assert run_cli("ingest", "--dataset", str(dataset_dir)) == EXIT_OK
        out = capsys.readouterr().out
        assert "sequences: 58" in out
        assert "patients: 2 (1..2)" in out
        assert "static: 30 sequences over 15 classes; dynamic: 28 over 14" in out
        assert "checksum" in out

    def test_missing_dataset_is_data_error(self, tmp_path):
        assert run_cli("ingest", "--dataset", str(tmp_path / "void")) == EXIT_DATA

    @pytest.mark.parametrize("damage", ["not-utf8", "directory"])
    def test_unreadable_frames_file_is_data_error(self, damage, dataset_dir, tmp_path,
                                                  capsys):
        root = tmp_path / "ds"
        shutil.copytree(dataset_dir, root)
        manifest = root / "manifest.csv"
        victim = root / manifest.read_text().splitlines()[3].split(",")[3]
        victim.unlink()
        if damage == "not-utf8":
            victim.write_bytes(b"\xff\xfe 1.0\n")
        else:
            victim.mkdir()
        assert run_cli("ingest", "--dataset", str(root)) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{manifest}:4:" in err and str(victim) in err, err


class TestManifestRows:
    """Every command reads a dataset's manifest through one checked reader."""

    def _copy(self, dataset_dir, tmp_path, line, text):
        root = tmp_path / "ds"
        shutil.copytree(dataset_dir, root)
        manifest = root / "manifest.csv"
        lines = manifest.read_text().splitlines()
        lines[line - 1] = text
        manifest.write_text("\n".join(lines) + "\n")
        return root, manifest

    @pytest.mark.parametrize("command", ["ingest", "train", "evaluate"])
    def test_short_row_is_data_error(self, command, dataset_dir, tmp_path, capsys):
        root, manifest = self._copy(dataset_dir, tmp_path, 3, "1,A1_2,1")
        argv = [command, "--dataset", str(root)]
        if command != "ingest":
            argv += ["--out", str(tmp_path / "out"), "--seed", "6",
                     "--fold-boundaries", "1,2", *TINY_TRAIN_FLAGS]
        assert run_cli(*argv) == EXIT_DATA
        assert f"{manifest}:3:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "evaluate"])
    def test_manifest_that_does_not_decode_is_data_error(self, command, dataset_dir,
                                                         tmp_path, capsys):
        root = tmp_path / "ds"
        shutil.copytree(dataset_dir, root)
        manifest = root / "manifest.csv"
        manifest.write_bytes(manifest.read_bytes().replace(b"A1_2", b"A1_\xff", 1))
        argv = [command, "--dataset", str(root)]
        if command != "ingest":
            argv += ["--out", str(tmp_path / "out"), "--seed", "6",
                     "--fold-boundaries", "1,2", *TINY_TRAIN_FLAGS]
        assert run_cli(*argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {re.escape(str(manifest))}: cannot read manifest: "
                            r"'utf-8' codec can't decode byte 0xff in position \d+: .*\n",
                            err), err

    def test_replay_against_a_bad_header_is_data_error(self, eval_out, dataset_dir,
                                                       tmp_path, capsys):
        root, manifest = self._copy(dataset_dir, tmp_path, 1, "patient,gesture,ok,path")
        code = run_cli(
            "evaluate", "--from-manifest", str(eval_out / "run_manifest.json"),
            "--dataset", str(root), "--out", str(tmp_path / "x"),
        )
        assert code == EXIT_DATA
        assert f"{manifest}:1:" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["2", "5"])
def test_zero_chin_coordinate_under_a_ratio_method_is_data_error(method, dataset_dir,
                                                                 tmp_path, capsys):
    """Every chin x of patient 1's A1_1 set to 0.0: the chin-ratio features
    are undefined, and the error names the sequence."""
    root = tmp_path / "ds"
    shutil.copytree(dataset_dir, root)
    victim = root / "frames" / "p001_A1_1.txt"
    lines = victim.read_text().splitlines()
    for x_row in range(0, len(lines), 5):
        values = lines[x_row].split()
        values[1] = "0.0"  # the default chin column
        lines[x_row] = " ".join(values)
    victim.write_text("\n".join(lines) + "\n")
    code = run_cli("evaluate", "--dataset", str(root), "--out", str(tmp_path / "out"),
                   "--seed", "6", "--fold-boundaries", "1,2", "--method", method,
                   *TINY_TRAIN_FLAGS)
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: patient 1 gesture A1_1: reference chin \(0\.0, [-0-9.e]+\) "
                        r"has a zero coordinate; chin-ratio normalization is undefined\n",
                        err), err


class TestTrain:
    def test_multiclass_writes_two_checkpoints(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "train", "--dataset", str(dataset_dir), "--out", str(out),
            "--seed", "5", *TINY_TRAIN_FLAGS,
        )
        assert code == EXIT_OK
        ckpts = sorted(p.name for p in (out / "models").glob("*.ckpt"))
        assert ckpts == ["main_dynamic.ckpt", "main_static.ckpt"]
        assert (out / "models" / "modelset.json").is_file()
        assert (out / "config.txt").is_file()
        assert (out / "run_manifest.json").is_file()

    def test_window_pair_trains_four_checkpoints(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "train", "--dataset", str(dataset_dir), "--out", str(out),
            "--seed", "5", "--lstm-hidden", "4", "--epochs", "1",
            "--stride", "8", "--frames", "16,32", "--batch-size", "128",
        )
        assert code == EXIT_OK
        ckpts = sorted(p.name for p in (out / "models").glob("*.ckpt"))
        assert ckpts == [
            "long_dynamic.ckpt", "long_static.ckpt",
            "short_dynamic.ckpt", "short_static.ckpt",
        ]

    def test_binary_trains_29_checkpoints(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "train", "--dataset", str(dataset_dir), "--out", str(out),
            "--seed", "5", "--protocol", "binary", *TINY_TRAIN_FLAGS,
        )
        assert code == EXIT_OK
        ckpts = list((out / "models").glob("*.ckpt"))
        assert len(ckpts) == 29

    def test_checkpoint_headers_carry_seed_and_digest(self, model_dir):
        from skelgest.neuralnet import load_checkpoint

        _, header = load_checkpoint(model_dir / "models" / "main_static.ckpt")
        assert header["seed"] == 5
        assert len(header["config_digest"]) == 16
        assert header["labels"][0] == "A1_1"
        assert header["route"] == "main" and header["key"] == "static"


class TestEvaluate:
    def test_writes_report_files(self, eval_out):
        names = {p.name for p in eval_out.iterdir()}
        assert {
            "report.json", "report.csv", "config.txt", "run_manifest.json",
            "confusion_static.csv", "confusion_dynamic.csv",
            "confusion_fold1_static.csv", "confusion_fold2_static.csv",
            "confusion_fold1_dynamic.csv", "confusion_fold2_dynamic.csv",
        } <= names

    def test_report_structure(self, eval_out):
        report = json.loads((eval_out / "report.json").read_text())
        assert report["protocol"] == "multiclass"
        assert [f["fold"] for f in report["folds"]] == [1, 2]
        for fold in report["folds"]:
            assert not set(fold["train_patients"]) & set(fold["test_patients"])
        assert 0.0 <= report["mean_average_accuracy"] <= 1.0

    def test_summary_on_stdout(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(
            "evaluate", "--dataset", str(dataset_dir), "--out", str(out),
            "--seed", "6", "--fold-boundaries", "1,2", *TINY_TRAIN_FLAGS,
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "protocol=multiclass" in stdout
        assert "mean average accuracy" in stdout

    def test_manifest_replay_is_byte_identical(self, eval_out, dataset_dir, tmp_path):
        replay_out = tmp_path / "replay"
        code = run_cli(
            "evaluate", "--from-manifest", str(eval_out / "run_manifest.json"),
            "--dataset", str(dataset_dir), "--out", str(replay_out),
        )
        assert code == EXIT_OK
        assert (replay_out / "report.json").read_bytes() == (
            eval_out / "report.json"
        ).read_bytes()

    def test_replay_rejects_conflicting_flags(self, eval_out, dataset_dir, tmp_path, capsys):
        code = run_cli(
            "evaluate", "--from-manifest", str(eval_out / "run_manifest.json"),
            "--dataset", str(dataset_dir), "--out", str(tmp_path / "x"),
            "--epochs", "2",
        )
        assert code == EXIT_USAGE
        assert "--epochs" in capsys.readouterr().err

    def test_replay_detects_dataset_tampering(self, eval_out, dataset_dir, tmp_path, capsys):
        tampered = tmp_path / "tampered"
        tampered.mkdir()
        for p in dataset_dir.rglob("*"):
            rel = p.relative_to(dataset_dir)
            if p.is_dir():
                (tampered / rel).mkdir(parents=True, exist_ok=True)
            else:
                (tampered / rel).write_bytes(p.read_bytes())
        victim = next((tampered / "frames").iterdir())
        victim.write_text(victim.read_text().replace("4", "5", 1))
        code = run_cli(
            "evaluate", "--from-manifest", str(eval_out / "run_manifest.json"),
            "--dataset", str(tampered), "--out", str(tmp_path / "x"),
        )
        assert code == EXIT_DATA
        assert "checksum" in capsys.readouterr().err

    def test_missing_manifest_is_data_error(self, dataset_dir, tmp_path):
        code = run_cli(
            "evaluate", "--from-manifest", str(tmp_path / "none.json"),
            "--dataset", str(dataset_dir), "--out", str(tmp_path / "x"),
        )
        assert code == EXIT_DATA

    def test_models_mode_skips_training(self, model_dir, dataset_dir, tmp_path, capsys):
        out = tmp_path / "fixed"
        code = run_cli(
            "evaluate", "--models", str(model_dir / "models"),
            "--dataset", str(dataset_dir), "--out", str(out),
        )
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["extras"]["mode"] == "fixed-model-set"
        assert [f["fold"] for f in report["folds"]] == [0]

    def test_models_mode_rejects_mismatched_settings(self, model_dir, dataset_dir, tmp_path, capsys):
        code = run_cli(
            "evaluate", "--models", str(model_dir / "models"),
            "--dataset", str(dataset_dir), "--out", str(tmp_path / "x"),
            "--method", "5",
        )
        assert code == EXIT_USAGE
        assert "mismatch" in capsys.readouterr().err

    def test_models_and_manifest_are_exclusive(self, model_dir, tmp_path):
        code = run_cli(
            "evaluate", "--models", str(model_dir / "models"),
            "--from-manifest", str(tmp_path / "m.json"),
        )
        assert code == EXIT_USAGE

    def test_single_fold_dataset_is_data_error(self, dataset_dir, tmp_path, capsys):
        code = run_cli(
            "evaluate", "--dataset", str(dataset_dir), "--out", str(tmp_path / "x"),
            "--seed", "6", *TINY_TRAIN_FLAGS,  # default boundaries put both patients in fold 1
        )
        assert code == EXIT_DATA
        assert "2 populated folds" in capsys.readouterr().err


class TestReplayInputs:
    """A saved run or model set replays with the chin index and the dataset
    manifest that it ran with, not with the defaults."""

    def _evaluate(self, out, *flags):
        return run_cli(
            "evaluate", "--out", str(out), "--seed", "6", "--fold-boundaries", "1,2",
            *TINY_TRAIN_FLAGS, *flags,
        )

    def _replay(self, run_dir, dataset_dir, out):
        return run_cli(
            "evaluate", "--from-manifest", str(run_dir / "run_manifest.json"),
            "--dataset", str(dataset_dir), "--out", str(out),
        )

    def test_replay_keeps_chin_index(self, dataset_dir, tmp_path):
        run = tmp_path / "run"
        assert self._evaluate(run, "--dataset", str(dataset_dir),
                              "--chin-index", "4") == EXIT_OK
        manifest = json.loads((run / "run_manifest.json").read_text())
        assert manifest["chin_index"] == 4
        assert "chin_index" not in manifest["config"]
        assert self._replay(run, dataset_dir, tmp_path / "replay") == EXIT_OK
        assert (tmp_path / "replay" / "report.json").read_bytes() == (
            run / "report.json"
        ).read_bytes()

    def test_replay_keeps_dataset_manifest(self, tmp_path):
        data = tmp_path / "ds"
        assert run_cli("synth", "--out", str(data), "--seed", "21",
                       "--patients", "3") == EXIT_OK
        rows = (data / "manifest.csv").read_text().splitlines()
        # patients 1 and 2 only: two folds where the full manifest has three
        subset = tmp_path / "subset.csv"
        subset.write_text("\n".join(row for row in rows if not row.startswith("3,")) + "\n")
        run = tmp_path / "run"
        assert self._evaluate(run, "--dataset", str(data),
                              "--manifest", str(subset)) == EXIT_OK
        manifest = json.loads((run / "run_manifest.json").read_text())
        assert manifest["dataset"]["manifest"] == str(subset)
        from skelgest.ingest import dataset_checksum

        assert manifest["dataset"]["checksum"] == dataset_checksum(data, subset)
        assert self._replay(run, data, tmp_path / "replay") == EXIT_OK
        assert (tmp_path / "replay" / "report.json").read_bytes() == (
            run / "report.json"
        ).read_bytes()

    def test_manifest_without_chin_replays_with_default(self, eval_out, dataset_dir,
                                                        tmp_path):
        recorded = json.loads((eval_out / "run_manifest.json").read_text())
        del recorded["chin_index"], recorded["dataset"]["manifest"]
        old = tmp_path / "old"
        old.mkdir()
        (old / "run_manifest.json").write_text(json.dumps(recorded))
        assert self._replay(old, dataset_dir, tmp_path / "replay") == EXIT_OK
        assert (tmp_path / "replay" / "report.json").read_bytes() == (
            eval_out / "report.json"
        ).read_bytes()

    def test_model_set_keeps_chin_index(self, dataset_dir, tmp_path, capsys):
        trained = tmp_path / "trained"
        code = run_cli(
            "train", "--dataset", str(dataset_dir), "--out", str(trained),
            "--seed", "5", "--chin-index", "4", *TINY_TRAIN_FLAGS,
        )
        assert code == EXIT_OK
        index = json.loads((trained / "models" / "modelset.json").read_text())
        assert index["chin_index"] == 4
        assert index["dataset"]["manifest"] is None
        models = str(trained / "models")
        reports = []
        for name, flags in (("plain", []), ("explicit", ["--chin-index", "4"])):
            out = tmp_path / name
            code = run_cli("evaluate", "--models", models, "--dataset", str(dataset_dir),
                           "--out", str(out), *flags)
            assert code == EXIT_OK
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        capsys.readouterr()
        code = run_cli("evaluate", "--models", models, "--dataset", str(dataset_dir),
                       "--out", str(tmp_path / "x"), "--chin-index", "1")
        assert code == EXIT_USAGE
        assert "--chin-index" in capsys.readouterr().err


# For each setting that a model set records, a value other than the one that
# ``model_dir`` and ``eval_out`` ran with (TINY_TRAIN_FLAGS and defaults).
OTHER_MODEL_SET_VALUES = {
    "model.protocol": "binary",
    "model.net": "tcn",
    "preprocess.method": "5",
    "preprocess.window": "32,48",
    "preprocess.stride": "1",
    "preprocess.route_threshold": "20",
    "preprocess.smooth": "false",
    "preprocess.savgol.m": "7",
    "preprocess.savgol.order": "3",
    "preprocess.include_confidence": "true",
    "model.lstm_hidden": "64",
    "model.tcn_channels": "8",
    "model.tcn_kernel": "2",
    "model.tcn_dilations": "1,2",
    "train.optimizer": "sgd",
    "train.learning_rate": "0.01",
    "train.epochs": "2",
    "train.batch_size": "16",
    "train.clip_norm": "1.0",
    "train.rebalance": "true",
    "joints.chin_index": "4",
}
# A run manifest also records the seed and the fold boundaries.
OTHER_RUN_VALUES = {**OTHER_MODEL_SET_VALUES, "run.seed": "7", "folds.boundaries": "1,3"}


class TestReplayRule:
    """``evaluate --models`` and ``--from-manifest`` run what was recorded: a
    flag or a config file that sets a recorded setting to another value is a
    usage error naming the flag, and ``config.txt`` echoes the recorded
    values."""

    @pytest.mark.parametrize("via", ["flag", "config", "env"])
    @pytest.mark.parametrize(
        "mode,name",
        [("models", name) for name in OTHER_MODEL_SET_VALUES]
        + [("manifest", name) for name in OTHER_RUN_VALUES],
    )
    def test_other_value_than_recorded_is_usage_error(
        self, mode, name, via, model_dir, eval_out, dataset_dir, tmp_path, capsys,
        monkeypatch,
    ):
        value = OTHER_RUN_VALUES[name]
        flags = [REGISTRY[name].flag, value]
        if via != "flag":
            conf = tmp_path / "run.conf"
            conf.write_text(f"{name} = {value}\n")
            if via == "config":
                flags = ["--config", str(conf)]
            else:
                flags = []
                monkeypatch.setenv("SKELGEST_CONFIG", str(conf))
        source = (["--models", str(model_dir / "models")] if mode == "models"
                  else ["--from-manifest", str(eval_out / "run_manifest.json")])
        code = run_cli("evaluate", *source, "--dataset", str(dataset_dir),
                       "--out", str(tmp_path / "x"), *flags)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "mismatch" in err and REGISTRY[name].flag in err
        assert not (tmp_path / "x").exists()

    def test_recorded_values_are_accepted(self, model_dir, eval_out, dataset_dir,
                                          tmp_path):
        same = [*TINY_TRAIN_FLAGS, "--protocol", "multiclass", "--chin-index", "1"]
        # Scoring a model set draws no random numbers and uses no folds.
        code = run_cli(
            "evaluate", "--models", str(model_dir / "models"), "--dataset",
            str(dataset_dir), "--out", str(tmp_path / "fixed"), *same,
            "--seed", "99", "--fold-boundaries", "3,4",
        )
        assert code == EXIT_OK
        conf = tmp_path / "run.conf"
        conf.write_text("train.epochs = 1\nrun.seed = 6\n")
        code = run_cli(
            "evaluate", "--from-manifest", str(eval_out / "run_manifest.json"),
            "--dataset", str(dataset_dir), "--out", str(tmp_path / "replay"),
            "--config", str(conf), *same, "--fold-boundaries", "1,2",
        )
        assert code == EXIT_OK
        assert (tmp_path / "replay" / "report.json").read_bytes() == (
            eval_out / "report.json"
        ).read_bytes()

    def test_binary_is_multiclass_binary(self, dataset_dir, tmp_path):
        trained = tmp_path / "trained"
        code = run_cli(
            "train", "--dataset", str(dataset_dir), "--out", str(trained),
            "--seed", "5", "--protocol", "binary", *TINY_TRAIN_FLAGS,
        )
        assert code == EXIT_OK
        for protocol in ("binary", "multiclass-binary"):
            code = run_cli(
                "evaluate", "--models", str(trained / "models"), "--dataset",
                str(dataset_dir), "--out", str(tmp_path / protocol),
                "--protocol", protocol,
            )
            assert code == EXIT_OK
        code = run_cli(
            "evaluate", "--models", str(trained / "models"), "--dataset",
            str(dataset_dir), "--out", str(tmp_path / "x"), "--protocol", "multiclass",
        )
        assert code == EXIT_USAGE

    def test_models_config_txt_records_the_model_set(self, model_dir, dataset_dir,
                                                     tmp_path):
        out = tmp_path / "fixed"
        code = run_cli(
            "evaluate", "--models", str(model_dir / "models"),
            "--dataset", str(dataset_dir), "--out", str(out), "--seed", "99",
        )
        assert code == EXIT_OK
        echoed = parse_config_text((out / "config.txt").read_text())
        trained = parse_config_text((model_dir / "config.txt").read_text())
        for name in OTHER_MODEL_SET_VALUES:
            assert echoed[name] == trained[name], name
        assert echoed["run.seed"] == 99

    def test_replay_config_txt_records_the_run(self, eval_out, dataset_dir, tmp_path):
        out = tmp_path / "replay"
        code = run_cli(
            "evaluate", "--from-manifest", str(eval_out / "run_manifest.json"),
            "--dataset", str(dataset_dir), "--out", str(out),
        )
        assert code == EXIT_OK
        echoed = parse_config_text((out / "config.txt").read_text())
        recorded = parse_config_text((eval_out / "config.txt").read_text())
        del echoed["output.dir"], recorded["output.dir"]
        assert echoed == recorded

    def test_replay_without_dataset_flag_records_the_loaded_root(self, eval_out,
                                                                 tmp_path):
        out = tmp_path / "replay"
        code = run_cli(
            "evaluate", "--from-manifest", str(eval_out / "run_manifest.json"),
            "--out", str(out),
        )
        assert code == EXIT_OK
        echoed = parse_config_text((out / "config.txt").read_text())
        recorded = parse_config_text((eval_out / "config.txt").read_text())
        assert echoed["dataset.root"] == recorded["dataset.root"]
        assert echoed["dataset.manifest"] == recorded["dataset.manifest"]


def _cut_in_header_length(data):
    return data[:10]


def _bad_magic(data):
    return b"NOTACKPT" + data[8:]


def _short_payload(data):
    return data[:-16]


def _bad_header_json(data):
    (header_len,) = struct.unpack("<Q", data[8:16])
    return data[:16] + b"{" * header_len + data[16 + header_len :]


def _trailing_bytes(data):
    return data + b"\x00" * 8


@pytest.mark.parametrize(
    "corrupt",
    [_cut_in_header_length, _bad_magic, _short_payload, _bad_header_json,
     _trailing_bytes],
)
def test_corrupt_checkpoint_is_data_error(corrupt, model_dir, dataset_dir, tmp_path,
                                          capsys):
    models = tmp_path / "models"
    shutil.copytree(model_dir / "models", models)
    victim = models / "main_static.ckpt"
    victim.write_bytes(corrupt(victim.read_bytes()))
    code = run_cli("evaluate", "--models", str(models), "--dataset", str(dataset_dir),
                   "--out", str(tmp_path / "out"))
    assert code == EXIT_DATA
    assert str(victim) in capsys.readouterr().err


def test_unknown_route_in_model_set_index_is_data_error(model_dir, dataset_dir,
                                                         tmp_path, capsys):
    models = tmp_path / "models"
    shutil.copytree(model_dir / "models", models)
    index_path = models / "modelset.json"
    index = json.loads(index_path.read_text())
    index["models"][0]["route"] = "bogus"
    index_path.write_text(json.dumps(index))
    code = run_cli("evaluate", "--models", str(models), "--dataset", str(dataset_dir),
                   "--out", str(tmp_path / "out"))
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert str(index_path) in err and "'bogus'" in err


@pytest.mark.parametrize("field", ["file", "route", "key"])
def test_model_set_entry_without_a_field_is_data_error(field, model_dir, dataset_dir,
                                                       tmp_path, capsys):
    models = tmp_path / "models"
    shutil.copytree(model_dir / "models", models)
    index_path = models / "modelset.json"
    index = json.loads(index_path.read_text())
    del index["models"][0][field]
    index_path.write_text(json.dumps(index))
    code = run_cli("evaluate", "--models", str(models), "--dataset", str(dataset_dir),
                   "--out", str(tmp_path / "out"))
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert str(index_path) in err and f"{field!r}" in err


@pytest.mark.parametrize("entry", [0, 1])
def test_model_set_index_without_a_model_is_data_error(entry, model_dir, dataset_dir,
                                                       tmp_path, capsys):
    models = tmp_path / "models"
    shutil.copytree(model_dir / "models", models)
    index_path = models / "modelset.json"
    index = json.loads(index_path.read_text())
    key = index["models"].pop(entry)["key"]
    index_path.write_text(json.dumps(index))
    code = run_cli("evaluate", "--models", str(models), "--dataset", str(dataset_dir),
                   "--out", str(tmp_path / "out"))
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert str(index_path) in err and f"'main' model for {key!r}" in err


def test_one_vs_rest_model_set_index_without_a_gestures_model_is_data_error(
        binary_model_dir, dataset_dir, tmp_path, capsys):
    models = tmp_path / "models"
    shutil.copytree(binary_model_dir / "models", models)
    index_path = models / "modelset.json"
    index = json.loads(index_path.read_text())
    index["models"] = [entry for entry in index["models"] if entry["key"] != "P2_5"]
    index_path.write_text(json.dumps(index))
    code = run_cli("evaluate", "--models", str(models), "--dataset", str(dataset_dir),
                   "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == EXIT_DATA, err
    assert f"{index_path}: no 'main' model for 'P2_5'" in err


def _index_copy(kind, model_dir, eval_out, dataset_dir, tmp_path):
    """A copy of a model set's ``modelset.json`` or of a run's
    ``run_manifest.json``, and the ``evaluate`` arguments that read it."""
    if kind == "modelset":
        models = tmp_path / "models"
        shutil.copytree(model_dir / "models", models)
        path = models / "modelset.json"
        flags = ["--models", str(models), "--dataset", str(dataset_dir)]
    else:
        path = tmp_path / "run_manifest.json"
        shutil.copy(eval_out / "run_manifest.json", path)
        flags = ["--from-manifest", str(path)]
    return path, ["evaluate", *flags, "--out", str(tmp_path / "out")]


def _damaged_index_exits_3(path, argv, capsys, *fragments):
    code = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == EXIT_DATA, err
    assert str(path) in err and all(f in err for f in fragments), err
    assert not Path(argv[-1]).exists()  # nothing written


@pytest.mark.parametrize(
    "kind,field",
    [("modelset", "config"), ("modelset", "models"),
     ("manifest", "config"), ("manifest", "command"), ("manifest", "fold_boundaries"),
     ("manifest", "dataset.root"), ("manifest", "dataset.checksum")],
)
def test_index_without_a_required_field_is_data_error(kind, field, model_dir, eval_out,
                                                      dataset_dir, tmp_path, capsys):
    path, argv = _index_copy(kind, model_dir, eval_out, dataset_dir, tmp_path)
    index = json.loads(path.read_text())
    *parents, last = field.split(".")
    node = index
    for part in parents:
        node = node[part]
    del node[last]
    path.write_text(json.dumps(index))
    _damaged_index_exits_3(path, argv, capsys, f"{field!r}")


@pytest.mark.parametrize("kind", ["modelset", "manifest"])
@pytest.mark.parametrize(
    "text,fragment",
    [('{"not json', "JSON"), ('{"format": "something-else"}', "'something-else'"),
     ("[1, 2]", "format None")],
    ids=["bad-json", "other-format", "not-an-object"],
)
def test_unreadable_index_is_data_error(kind, text, fragment, model_dir, eval_out,
                                        dataset_dir, tmp_path, capsys):
    path, argv = _index_copy(kind, model_dir, eval_out, dataset_dir, tmp_path)
    path.write_text(text)
    _damaged_index_exits_3(path, argv, capsys, fragment)


@pytest.mark.parametrize(
    "kind,where,value,message",
    [("manifest", ("fold_boundaries",), 5, "'fold_boundaries' is not a list of two integers"),
     ("manifest", ("fold_boundaries",), [1, "2"], "'fold_boundaries' is not a list of two"),
     ("manifest", ("fold_boundaries",), [1, 2, 3], "'fold_boundaries' is not a list of two"),
     ("manifest", ("dataset", "root"), 5, "'dataset.root' is not a string"),
     ("manifest", ("dataset", "checksum"), None, "'dataset.checksum' is not a string"),
     ("manifest", ("dataset", "manifest"), 5, "'dataset.manifest' is not a string or null"),
     ("manifest", ("chin_index",), -1, "'chin_index' is not an integer in [0, 14)"),
     ("modelset", ("dataset", "manifest"), ["m"], "'dataset.manifest' is not a string"),
     ("modelset", ("chin_index",), "x", "'chin_index' is not an integer in [0, 14)"),
     ("modelset", ("chin_index",), 99, "'chin_index' is not an integer in [0, 14)"),
     ("modelset", ("chin_index",), True, "'chin_index' is not an integer in [0, 14)"),
     ("modelset", ("models",), 5, "'models' is not a list"),
     ("modelset", ("models", 0), 5, "'models' entry 0 is not an object"),
     ("modelset", ("models", 0, "file"), 5, "'models' entry 0 has no string 'file' field"),
     ("modelset", ("models", 1, "route"), ["main"], "'models' entry 1 has no string 'route'"),
     ("modelset", ("models", 0, "key"), None, "'models' entry 0 has no string 'key' field"),
     ("manifest", ("config", "lstm_hidden"), "x", "mistyped config value 'lstm_hidden'"),
     ("manifest", ("config", "train", "epochs"), 2.0, "mistyped config value 'train.epochs'"),
     ("manifest", ("config", "tcn_dilations"), [1, "2"],
      "mistyped config value 'tcn_dilations'"),
     ("manifest", ("config", "train", "adam_eps"), "x",
      "mistyped config value 'train.adam_eps'"),
     ("modelset", ("config", "lstm_hidden"), "x", "mistyped config value 'lstm_hidden'"),
     ("modelset", ("config", "include_confidence"), 1,
      "mistyped config value 'include_confidence'"),
     ("modelset", ("config", "savgol"), {"m": 5.0, "order": 2},
      "mistyped config value 'savgol.m'"),
     ("modelset", ("config", "seed"), "7", "mistyped config value 'seed'"),
     ("modelset", ("config", "method"), 3.0, "mistyped config value 'method': 3.0"),
     ("manifest", ("config", "method"), True, "mistyped config value 'method': True"),
     ("modelset", ("config", "protocol"), 1, "mistyped config value 'protocol': 1"),
     ("manifest", ("fold_boundaries",), [2, 2], "'fold_boundaries' is not strictly increasing"),
     ("manifest", ("fold_boundaries",), [3, 1], "'fold_boundaries' is not strictly increasing")],
)
def test_index_with_a_mistyped_field_is_data_error(kind, where, value, message, model_dir,
                                                   eval_out, dataset_dir, tmp_path, capsys):
    path, argv = _index_copy(kind, model_dir, eval_out, dataset_dir, tmp_path)
    index = json.loads(path.read_text())
    *parents, last = where
    node = index
    for part in parents:
        node = node[part]
    node[last] = value
    path.write_text(json.dumps(index))
    _damaged_index_exits_3(path, argv, capsys, message)


@pytest.mark.parametrize("kind", ["modelset", "manifest"])
@pytest.mark.parametrize(
    "config,fragment",
    [({"protocol": "bogus"}, "bogus"),
     ({"lstm_hidden": 0}, "hidden_dim=0"),
     ({"net": "tcn", "tcn_dilations": [3]}, "powers of two"),
     ({"train": {"clip_norm": 0.0}}, "clip_norm must be > 0"),
     ({"train": {"learning_rate": float("inf")}}, "learning_rate must be finite")],
    ids=["protocol", "lstm-hidden", "tcn-dilations", "clip-norm", "learning-rate-inf"],
)
def test_index_with_a_config_no_run_has_is_data_error(kind, config, fragment, model_dir,
                                                      eval_out, dataset_dir, tmp_path,
                                                      capsys):
    path, argv = _index_copy(kind, model_dir, eval_out, dataset_dir, tmp_path)
    index = json.loads(path.read_text())
    for name, value in config.items():
        if isinstance(value, dict):
            index["config"][name].update(value)
        else:
            index["config"][name] = value
    path.write_text(json.dumps(index))
    _damaged_index_exits_3(path, argv, capsys, "'config'", fragment)


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize(
    "flags,fragment",
    [(["--lstm-hidden", "0"], "hidden_dim=0"),
     (["--net", "tcn", "--tcn-dilations", "3"], "powers of two"),
     (["--clip-norm", "0"], "clip_norm must be > 0"),
     (["--learning-rate", "inf"], "learning_rate must be finite, got inf"),
     (["--learning-rate", "nan"], "learning_rate must be finite, got nan"),
     (["--clip-norm", "inf"], "clip_norm must be finite, got inf")],
    ids=["lstm-hidden", "tcn-dilations", "clip-norm", "learning-rate-inf",
         "learning-rate-nan", "clip-norm-inf"],
)
def test_config_no_run_has_is_usage_error_before_the_dataset(command, flags, fragment,
                                                             tmp_path, capsys):
    code = run_cli(command, "--dataset", str(tmp_path / "missing"), "--seed", "1",
                   "--out", str(tmp_path / "out"), *flags)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE, err
    assert fragment in err and "missing" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("boundaries", ["5,3", "3,3"])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_fold_boundaries_that_do_not_increase_are_usage_error_before_the_dataset(
        command, boundaries, tmp_path, capsys):
    code = run_cli(command, "--dataset", str(tmp_path / "missing"), "--seed", "1",
                   "--out", str(tmp_path / "out"), "--fold-boundaries", boundaries)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE, err
    assert "fold boundaries must be strictly increasing" in err and "missing" not in err
    assert not (tmp_path / "out").exists()


def test_fold_boundaries_that_do_not_increase_in_a_config_file_name_the_line(tmp_path,
                                                                           capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("run.seed = 1\nfolds.boundaries = 5,3\n")
    code = run_cli("train", "--config", str(conf), "--dataset", str(tmp_path / "missing"),
                   "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE, err
    assert f"{conf}:2: " in err and "strictly increasing" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["ingest", "train", "evaluate"])
@pytest.mark.parametrize("chin", ["14", "-1"])
def test_chin_index_out_of_range_is_usage_error_naming_its_flag(command, chin, tmp_path,
                                                                capsys):
    code = run_cli(command, "--dataset", str(tmp_path / "missing"), "--chin-index", chin)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE, err
    assert (f"argument --chin-index: config key 'joints.chin_index': chin_index {chin} "
            "outside [0, 14)") in err


def test_chin_index_out_of_range_in_a_config_file_names_the_line(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("joints.chin_index = 20\n")
    code = run_cli("ingest", "--config", str(conf), "--dataset", str(tmp_path / "missing"))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE, err
    assert f"{conf}:1: config key 'joints.chin_index': chin_index 20 outside [0, 14)" in err


def test_replaying_a_train_manifest_is_data_error(model_dir, dataset_dir, tmp_path, capsys):
    """A train run cross-validated nothing, so there is no evaluation to replay."""
    path = model_dir / "run_manifest.json"
    assert json.loads(path.read_text())["command"] == "train"
    code = run_cli("evaluate", "--from-manifest", str(path), "--dataset", str(dataset_dir),
                   "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == EXIT_DATA, err
    assert str(path) in err and "'train' run" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["modelset", "manifest"])
@pytest.mark.parametrize("where,key", [(("lstm_hiden",), "'lstm_hiden'"),
                                       (("train", "epoch"), "'train.epoch'"),
                                       (("savgol", "mm"), "'savgol.mm'")])
def test_index_with_an_unknown_config_key_is_data_error(kind, where, key, model_dir,
                                                        eval_out, dataset_dir, tmp_path,
                                                        capsys):
    """A mistyped or newer recorded setting is not dropped to replay another run."""
    path, argv = _index_copy(kind, model_dir, eval_out, dataset_dir, tmp_path)
    index = json.loads(path.read_text())
    *parents, last = where
    node = index["config"]
    for part in parents:
        node = node[part]
    node[last] = 3
    path.write_text(json.dumps(index))
    _damaged_index_exits_3(path, argv, capsys, "'config'", key)


@needs_two_blas_threads
def test_train_does_not_depend_on_the_blas_thread_count(dataset_dir, tmp_path):
    """Every checkpoint and the index are byte-identical at one and two threads."""
    models = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "skelgest", "train", "--dataset", str(dataset_dir),
             "--out", str(out), "--seed", "5", "--protocol", "binary",
             "--lstm-hidden", "32", "--frames", "32", "--stride", "16", "--epochs", "1",
             "--batch-size", "16", "--rebalance", "true"],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        models.append(out / "models")
    names = sorted(path.name for path in models[0].iterdir())
    assert len(names) == 30 and "modelset.json" in names
    assert sorted(path.name for path in models[1].iterdir()) == names
    for name in names:
        assert (models[0] / name).read_bytes() == (models[1] / name).read_bytes(), name


def _kill_own_worker(state, index):
    """A forked item that ends its worker process as the OOM killer would."""
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each ``fork_map`` call the run makes."""
    sizes = []
    fork_map = pipeline.fork_map
    monkeypatch.setattr(pipeline, "fork_map", lambda fn, n, state, workers, **kw: (
        sizes.append(workers) or fork_map(fn, n, state, workers, **kw)))
    return sizes


class TestForkedWorkers:
    """Every job of a run in one pool of forked workers (``_cpus`` pinned to
    2 or 3) writes the same bytes, and fails with the same message, as the
    jobs run in process (1)."""

    @pytest.mark.parametrize("protocol,frames,net", [
        pytest.param("binary", "16", ["--lstm-hidden", "4"], id="16"),
        pytest.param("binary", "16,32", ["--lstm-hidden", "4"], id="16,32"),
        pytest.param("multiclass", "16,32",
                     ["--net", "tcn", "--tcn-channels", "4", "--route-threshold", "48"],
                     id="multiclass-tcn-16,32"),
    ])
    def test_two_workers_write_what_one_writes(self, protocol, frames, net, pools,
                                               dataset_dir, tmp_path, monkeypatch):
        flags = ["--seed", "5", "--protocol", protocol, "--epochs", "1", "--stride", "8",
                 "--frames", frames, "--batch-size", "128"]
        for cpus in (1, 2, 3):
            monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
            assert run_cli("evaluate", "--dataset", str(dataset_dir),
                           "--out", str(tmp_path / f"eval{cpus}"),
                           "--fold-boundaries", "1,2", "--rebalance", "true",
                           *net, *flags) == EXIT_OK
            assert run_cli("train", "--dataset", str(dataset_dir),
                           "--out", str(tmp_path / f"train{cpus}"), *net, *flags) == EXIT_OK
        routes = len(frames.split(","))
        keys = 29 if protocol == "binary" else 2
        # One pool per command: the train's jobs, or each of two folds' jobs.
        jobs = (2 * routes * keys, routes * keys)
        assert pools == [min(cpus, n) for cpus in (1, 2, 3) for n in jobs]
        reports = sorted(p.name for p in (tmp_path / "eval1").iterdir())
        per_fold = (["binary_fold1.csv", "binary_fold2.csv"] if protocol == "binary" else
                    [f"confusion_fold{n}_{kind}.csv" for n in (1, 2)
                     for kind in ("static", "dynamic")])
        assert {"report.json", "report.csv", *per_fold} <= set(reports)
        models = sorted(p.name for p in (tmp_path / "train1" / "models").iterdir())
        assert len(models) == keys * routes + 1 and "modelset.json" in models
        for cpus in (2, 3):
            assert sorted(p.name for p in (tmp_path / f"eval{cpus}").iterdir()) == reports
            assert sorted(p.name for p in (tmp_path / f"train{cpus}" / "models").iterdir()) == (
                models)
        for run, names in (("eval{}", set(reports) - {"config.txt"}),  # which echoes --out
                           ("train{}/models", models)):
            for name in names:
                for cpus in (2, 3):
                    one, more = (tmp_path / run.format(c) / name for c in (1, cpus))
                    assert one.read_bytes() == more.read_bytes(), (cpus, name)

    @pytest.mark.parametrize("protocol,items", [("multiclass", 4), ("binary", 58)])
    def test_one_pool_per_command(self, protocol, items, pools, dataset_dir, tmp_path,
                                  monkeypatch):
        """An evaluate and a train each make one `fork_map` call, with one
        worker per CPU and at most one per job: each fold's models, or the
        train's."""
        for cpus in (1, 2, 3):
            monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
            for command, extra, n in (("evaluate", ["--fold-boundaries", "1,2"], items),
                                      ("train", [], items // 2)):
                pools.clear()
                assert run_cli(command, "--dataset", str(dataset_dir), "--seed", "5",
                               "--out", str(tmp_path / f"{command}{cpus}"),
                               "--protocol", protocol, *TINY_TRAIN_FLAGS, *extra) == EXIT_OK
                assert pools == [min(cpus, n)], (command, cpus)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_in_a_worker_fails_as_in_process(self, pools, dataset_dir,
                                                         tmp_path, monkeypatch, capsys):
        """NaN windows in one job's training data: exit 1, naming the model,
        epoch and step, with no worker left running."""
        victim = ALL_GESTURE_IDS[4]
        windows = pipeline.TrainJob.windows

        def poisoned(job):
            x = windows(job)
            if job.key == victim:
                x = x.copy()
                x[-1] = np.nan
            return x

        monkeypatch.setattr(pipeline.TrainJob, "windows", poisoned)
        errors = []
        for cpus in (1, 2):
            monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
            code = run_cli("evaluate", "--dataset", str(dataset_dir),
                           "--out", str(tmp_path / f"run{cpus}"), "--seed", "5",
                           "--fold-boundaries", "1,2", "--protocol", "binary",
                           *TINY_TRAIN_FLAGS, "--batch-size", "16")
            assert code == EXIT_CHECK
            errors.append(capsys.readouterr().err)
            assert not children_left()
        assert pools == [1, 2]
        assert errors[0] == errors[1]
        assert re.fullmatch(rf"error: fold1-{victim}: epoch 1, step \d+: non-finite "
                            r"loss or gradient \(loss=nan\)\n", errors[0]), errors[0]


    @staticmethod
    def _killed(protocol, pools, dataset_dir, tmp_path, monkeypatch, capsys):
        """Exit 1 with one line naming the route and the first job lost, and
        no worker left running; returns that line's start."""
        monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
        fork_map = pipeline.fork_map
        monkeypatch.setattr(pipeline, "fork_map", lambda fn, n, state, workers, **kw: (
            fork_map(_kill_own_worker, n, state, workers, **kw)))
        code = run_cli("evaluate", "--dataset", str(dataset_dir), "--out", str(tmp_path),
                       "--seed", "5", "--fold-boundaries", "1,2", "--protocol", protocol,
                       *TINY_TRAIN_FLAGS)
        assert code == EXIT_CHECK
        assert pools == [2]
        assert not children_left()
        return capsys.readouterr().err

    def test_killed_worker_is_a_check_failure(self, pools, dataset_dir, tmp_path,
                                              monkeypatch, capsys):
        assert self._killed("binary", pools, dataset_dir, tmp_path, monkeypatch, capsys) == (
            f"error: fold1-{ALL_GESTURE_IDS[0]}: a fit worker of route 'main' ended "
            "before sending back this job's classifier (58 of 58 not received)\n"
        )

    def test_killed_multiclass_worker_is_a_check_failure(self, pools, dataset_dir, tmp_path,
                                                         monkeypatch, capsys):
        assert self._killed("multiclass", pools, dataset_dir, tmp_path, monkeypatch,
                            capsys) == (
            "error: fold1-static: a fit worker of route 'main' ended "
            "before sending back this job's classifier (4 of 4 not received)\n"
        )


@pytest.mark.parametrize("cpus", [1, 2])
def test_one_blas_thread_switch_per_command(cpus, dataset_dir, model_dir, tmp_path,
                                            monkeypatch):
    """Each command sets OpenBLAS to one thread once, around its one pool,
    and restores the count once, at any worker count; no `fit` or `forward`
    switches it again, in process or in a worker."""
    puts = []
    monkeypatch.setattr(common, "_OPENBLAS_THREADS", (lambda: 2, puts.append))
    monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
    for argv in (["evaluate", "--dataset", str(dataset_dir), "--fold-boundaries", "1,2",
                  "--seed", "5", *TINY_TRAIN_FLAGS],
                 ["train", "--dataset", str(dataset_dir), "--seed", "5", *TINY_TRAIN_FLAGS],
                 ["evaluate", "--models", str(model_dir / "models"),
                  "--dataset", str(dataset_dir)]):
        puts.clear()
        assert run_cli(*argv, "--out", str(tmp_path / str(len(os.listdir(tmp_path))))) == (
            EXIT_OK)
        assert puts == [1, 2], argv


def _without_dynamic(src, root, patients):
    """A copy of the dataset ``src`` with the dynamic performances of
    ``patients`` marked incorrect."""
    shutil.copytree(src, root)
    manifest = root / "manifest.csv"
    header, *rows = manifest.read_text().splitlines()
    for n, row in enumerate(rows):
        patient, gesture, _, path = row.split(",")
        if int(patient) in patients and gesture in DYNAMIC_GESTURE_IDS:
            rows[n] = ",".join([patient, gesture, "0", path])
    manifest.write_text("\n".join([header, *rows]) + "\n")
    return root


def test_a_fold_without_dynamic_performances_is_data_error_before_any_fit(tmp_path,
                                                                         monkeypatch, capsys):
    """Patient 3's dynamic performances are marked incorrect, so fold 3 has
    no dynamic accuracy: exit 3, naming the fold and the kind, and nothing
    is fitted or written."""
    src = tmp_path / "src"
    assert run_cli("synth", "--out", str(src), "--patients", "3", "--seed", "5") == EXIT_OK
    root = _without_dynamic(src, tmp_path / "ds", {3})
    fits = []
    fit = pipeline.fit
    monkeypatch.setattr(pipeline, "fit", lambda *args: fits.append(1) or fit(*args))
    capsys.readouterr()
    code = run_cli("evaluate", "--dataset", str(root), "--out", str(tmp_path / "out"),
                   "--seed", "5", "--fold-boundaries", "1,2", *TINY_TRAIN_FLAGS)
    assert code == EXIT_DATA
    assert capsys.readouterr().err == (
        "error: fold 3: no dynamic test performances, so the dynamic model's "
        "accuracy is undefined\n")
    assert fits == []
    assert not (tmp_path / "out").exists()


def test_scoring_a_multiclass_set_without_dynamic_performances_is_data_error(
        model_dir, dataset_dir, tmp_path, capsys):
    root = _without_dynamic(dataset_dir, tmp_path / "ds", {1, 2})
    code = run_cli("evaluate", "--models", str(model_dir / "models"), "--dataset", str(root),
                   "--out", str(tmp_path / "out"))
    assert code == EXIT_DATA
    assert capsys.readouterr().err == (
        "error: fold 0: no dynamic test performances, so the dynamic model's "
        "accuracy is undefined\n")
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def scored_dir(tmp_path_factory):
    """Three unseen patients whose manifest rows interleave.  Patient 2's
    first performance is cut to 10 frames: one padded window at 16 frames."""
    root = tmp_path_factory.mktemp("scored") / "ds"
    assert run_cli("synth", "--out", str(root), "--seed", "23", "--patients", "3") == EXIT_OK
    manifest = root / "manifest.csv"
    header, *rows = manifest.read_text().splitlines()
    by_patient = [[row for row in rows if row.startswith(f"{p},")] for p in (1, 2, 3)]
    manifest.write_text("\n".join([header, *(row for trio in zip(*by_patient)
                                             for row in trio)]) + "\n")
    short = root / by_patient[1][0].split(",")[3]
    short.write_text("".join(short.read_text().splitlines(keepends=True)[:5 * 10]))
    return root


@pytest.fixture(scope="module")
def binary_model_dir(tmp_path_factory, dataset_dir):
    """A trained one-vs-rest model set."""
    out = tmp_path_factory.mktemp("binary")
    code = run_cli("train", "--dataset", str(dataset_dir), "--out", str(out), "--seed", "5",
                   "--protocol", "binary", *TINY_TRAIN_FLAGS)
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def routed_tcn_dir(tmp_path_factory, dataset_dir):
    """A trained multiclass TCN model set with length routing: performances
    of up to 48 frames take the 16-frame route, longer ones the 32-frame."""
    out = tmp_path_factory.mktemp("tcn")
    code = run_cli("train", "--dataset", str(dataset_dir), "--out", str(out), "--seed", "5",
                   "--net", "tcn", "--tcn-channels", "4", "--epochs", "1", "--stride", "8",
                   "--frames", "16,32", "--route-threshold", "48", "--batch-size", "128")
    assert code == EXIT_OK
    return out


def _model_set(request, name):
    """The ``models`` directory of the named model set fixture."""
    fixture = {"lstm": "model_dir", "routed-tcn": "routed_tcn_dir",
               "binary": "binary_model_dir"}[name]
    return request.getfixturevalue(fixture) / "models"


class TestForkedScoring:
    """``evaluate --models`` reads and scores each patient in a forked
    worker, one per CPU up to one per patient (``_cpus`` pinned to 1, 2 and
    3): the same bytes, and the same errors, at every count."""

    def test_the_scored_inputs(self, scored_dir):
        from skelgest.ingest import load_dataset

        ds = load_dataset(scored_dir)
        assert [s.patient_id for s in ds.sequences[:6]] == [1, 2, 3, 1, 2, 3]
        assert ds.sequences[1].n_frames == 10

    @pytest.mark.parametrize("models", ["lstm", "routed-tcn", "binary"])
    def test_every_worker_count_writes_the_same_bytes(self, models, request, scored_dir,
                                                      pools, tmp_path, monkeypatch):
        model_set = _model_set(request, models)
        pools.clear()  # training the model set may fork
        for cpus in (1, 2, 3, 4):
            monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
            assert run_cli("evaluate", "--models", str(model_set), "--dataset",
                           str(scored_dir), "--out", str(tmp_path / str(cpus))) == EXIT_OK
        assert pools == [1, 2, 3, 3]  # at most one worker per patient
        names = sorted(p.name for p in (tmp_path / "1").iterdir())
        expected = ({"binary_fold0.csv"} if models == "binary"
                    else {"confusion_fold0_static.csv", "confusion_dynamic.csv"})
        assert {"report.json", "report.csv", "config.txt"} | expected <= set(names)
        for cpus in (2, 3, 4):
            assert sorted(p.name for p in (tmp_path / str(cpus)).iterdir()) == names
            for name in set(names) - {"config.txt"}:  # which echoes --out
                assert ((tmp_path / str(cpus) / name).read_bytes()
                        == (tmp_path / "1" / name).read_bytes()), (cpus, name)

    def test_a_bad_token_in_a_worker_is_the_error_at_one_worker(self, model_dir, scored_dir,
                                                                 tmp_path, monkeypatch,
                                                                 capsys):
        """Patients 2 and 3 each hold a bad token: every count names patient
        2's, the first patient whose scores fail, with exit 3 and no worker
        left running."""
        data = tmp_path / "data"
        shutil.copytree(scored_dir, data)
        rows = (data / "manifest.csv").read_text().splitlines()[1:]
        victims = [data / [r for r in rows if r.startswith(f"{p},")][4].split(",")[3]
                   for p in (2, 3)]
        for victim in victims:
            lines = victim.read_text().splitlines(keepends=True)
            tokens = lines[6].split()
            tokens[3] = "oops"
            lines[6] = " ".join(tokens) + "\n"
            victim.write_text("".join(lines))
        for cpus in (1, 2, 3):
            monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
            code = run_cli("evaluate", "--models", str(model_dir / "models"), "--dataset",
                           str(data), "--out", str(tmp_path / f"out{cpus}"))
            assert code == EXIT_DATA
            assert capsys.readouterr().err == (
                f"error: {victims[0]}:7: non-numeric token 'oops'\n")
            assert not children_left()
            assert not (tmp_path / f"out{cpus}").exists()

    def test_killed_scoring_worker_is_a_check_failure(self, model_dir, scored_dir, pools,
                                                      tmp_path, monkeypatch, capsys):
        """Exit 1 with one line naming the first patient lost, and no worker
        left running."""
        monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
        fork_map = pipeline.fork_map
        monkeypatch.setattr(pipeline, "fork_map", lambda fn, n, state, workers, **kw: (
            fork_map(_kill_own_worker, n, state, workers, **kw)))
        code = run_cli("evaluate", "--models", str(model_dir / "models"), "--dataset",
                       str(scored_dir), "--out", str(tmp_path / "out"))
        assert code == EXIT_CHECK
        assert pools == [2]
        assert capsys.readouterr().err == (
            "error: patient 1: a scoring worker ended before sending back this "
            "patient's scores (3 of 3 not received)\n"
        )
        assert not children_left()
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "models,entries,field",
    [("lstm", (0, 1), "key"), ("binary", (3, 17), "key"), ("routed-tcn", (0, 2), "route")],
)
def test_checkpoint_its_index_entry_does_not_name_is_data_error(models, entries, field,
                                                                request, dataset_dir,
                                                                tmp_path, capsys):
    """Two entries of ``modelset.json`` with their files swapped."""
    model_set = tmp_path / "models"
    shutil.copytree(_model_set(request, models), model_set)
    index_path = model_set / "modelset.json"
    index = json.loads(index_path.read_text())
    a, b = (index["models"][i] for i in entries)
    a["file"], b["file"] = b["file"], a["file"]
    index_path.write_text(json.dumps(index))
    code = run_cli("evaluate", "--models", str(model_set), "--dataset", str(dataset_dir),
                   "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == EXIT_DATA, err
    assert err.startswith(f"error: {model_set / a['file']}: checkpoint {field} ")
    assert str(index_path) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("models,file,edit", [
    ("lstm", "main_static.ckpt", lambda labels: labels[:-1]),
    ("lstm", "main_static.ckpt", lambda labels: labels[::-1]),
    ("binary", f"main_{ALL_GESTURE_IDS[3]}.ckpt", lambda labels: [ALL_GESTURE_IDS[4]]),
], ids=["one-short", "reversed", "another-gesture"])
def test_checkpoint_labels_its_key_does_not_mean_are_data_error(models, file, edit, request,
                                                                dataset_dir, tmp_path,
                                                                capsys):
    """A checkpoint whose label list is cut, reordered or of another model."""
    model_set = tmp_path / "models"
    shutil.copytree(_model_set(request, models), model_set)
    model, header = load_checkpoint(model_set / file)
    header["labels"] = edit(header["labels"])
    save_checkpoint(model_set / file, model, extra=header)
    code = run_cli("evaluate", "--models", str(model_set), "--dataset", str(dataset_dir),
                   "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == EXIT_DATA, err
    assert err.startswith(f"error: {model_set / file}: checkpoint labels ")
    assert not (tmp_path / "out").exists()


def test_checkpoint_of_another_config_is_data_error(model_dir, dataset_dir, tmp_path,
                                                    capsys):
    """An index whose recorded config differs from the one its checkpoints
    were trained with."""
    model_set = tmp_path / "models"
    shutil.copytree(model_dir / "models", model_set)
    index_path = model_set / "modelset.json"
    index = json.loads(index_path.read_text())
    index["config"]["train"]["epochs"] = 2
    index_path.write_text(json.dumps(index))
    code = run_cli("evaluate", "--models", str(model_set), "--dataset", str(dataset_dir),
                   "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == EXIT_DATA, err
    assert err.startswith(f"error: {model_set / 'main_static.ckpt'}: checkpoint config_digest ")
    assert str(index_path) in err


@pytest.mark.parametrize("spec,head,field", [
    (LstmSpec(input_dim=28, hidden_dim=8, n_classes=15), HeadKind.SOFTMAX, "architecture"),
    (LstmSpec(input_dim=28, hidden_dim=4, n_classes=1), HeadKind.SIGMOID, "head"),
], ids=["wider-lstm", "sigmoid-head"])
def test_checkpoint_of_another_network_is_data_error(spec, head, field, model_dir,
                                                     dataset_dir, tmp_path, capsys):
    """A checkpoint whose header names its slot's route, key, labels and
    config digest, but whose network is not the one its key and config
    give."""
    model_set = tmp_path / "models"
    shutil.copytree(model_dir / "models", model_set)
    path = model_set / "main_static.ckpt"
    _, header = load_checkpoint(path)
    extra = {name: header[name] for name in ("labels", "route", "key", "seed",
                                             "config_digest")}
    save_checkpoint(path, init_parameters(spec, head, seed=0), extra=extra)
    code = run_cli("evaluate", "--models", str(model_set), "--dataset", str(dataset_dir),
                   "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == EXIT_DATA, err
    assert err.startswith(f"error: {path}: checkpoint {field} ")
    assert str(model_set / "modelset.json") in err
    assert not (tmp_path / "out").exists()


class TestGradcheck:
    def test_passes_at_default_tolerance(self, capsys):
        assert run_cli("gradcheck", "--seed", "1") == EXIT_OK
        out = capsys.readouterr().out
        lines = [line for line in out.strip().splitlines()]
        assert len(lines) == 4
        assert all("PASS" in line for line in lines)
        assert any(line.startswith("lstm/softmax:") for line in lines)
        assert any(line.startswith("tcn/sigmoid:") for line in lines)
        assert all("max relative error" in line for line in lines)

    def test_zero_tolerance_fails_with_exit_1(self, capsys):
        assert run_cli("gradcheck", "--seed", "1", "--tolerance", "0") == EXIT_CHECK
        assert "FAIL" in capsys.readouterr().out

    def test_requires_seed(self):
        assert run_cli("gradcheck") == EXIT_USAGE

    def test_negative_tolerance_is_usage_error(self):
        assert run_cli("gradcheck", "--seed", "1", "--tolerance", "-1") == EXIT_USAGE

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_is_usage_error(self, value, capsys):
        """Refused before any check runs: no PASS or FAIL line."""
        assert run_cli("gradcheck", "--seed", "1", "--tolerance", value) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: tolerance must be finite, got {value}\n"


class TestReport:
    def test_text_rendering(self, eval_out, capsys):
        assert run_cli("report", "--from", str(eval_out)) == EXIT_OK
        assert "mean average accuracy" in capsys.readouterr().out

    def test_json_rendering_round_trips(self, eval_out, capsys):
        assert run_cli("report", "--from", str(eval_out), "--format", "json") == EXIT_OK
        parsed = json.loads(capsys.readouterr().out)
        original = json.loads((eval_out / "report.json").read_text())
        assert parsed["mean_average_accuracy"] == original["mean_average_accuracy"]

    def test_csv_rendering(self, eval_out, capsys):
        assert run_cli("report", "--from", str(eval_out), "--format", "csv") == EXIT_OK
        assert capsys.readouterr().out.startswith("fold,static_pct,dynamic_pct")

    def test_missing_report_is_data_error(self, tmp_path):
        assert run_cli("report", "--from", str(tmp_path)) == EXIT_DATA

    def test_corrupt_report_is_data_error(self, tmp_path):
        (tmp_path / "report.json").write_text("{not json")
        assert run_cli("report", "--from", str(tmp_path)) == EXIT_DATA

    @pytest.mark.parametrize("body", [
        b'{"protocol": "multiclass"}',
        b"[1, 2]",
        json.dumps({"protocol": "multiclass", "arch": "lstm", "method": 3, "window": 32,
                    "folds": [{"fold": 1, "train_patients": [2],
                               "test_patients": [1]}]}).encode(),
        b'{"protocol": "multiclass\xff"}',
        json.dumps({"protocol": "multiclass", "arch": "lstm", "method": 3, "window": 32,
                    "folds": []}).encode(),
    ], ids=["missing-fields", "not-an-object", "fold-without-results", "not-utf8",
            "no-folds"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_malformed_report_is_data_error(self, body, fmt, tmp_path, capsys):
        (tmp_path / "report.json").write_bytes(body)
        assert run_cli("report", "--from", str(tmp_path), "--format", fmt) == EXIT_DATA
        assert str(tmp_path / "report.json") in capsys.readouterr().err

    @pytest.mark.parametrize("run", ["multiclass", "one-vs-rest", "model-set"])
    def test_text_is_what_the_evaluation_printed(self, run, dataset_dir, model_dir,
                                                 tmp_path, capsys):
        if run == "model-set":
            flags = ["--models", str(model_dir / "models")]
        else:
            flags = ["--seed", "6", "--fold-boundaries", "1,2", *TINY_TRAIN_FLAGS]
            if run == "one-vs-rest":
                flags += ["--protocol", "binary"]
        out = tmp_path / "run"
        assert run_cli("evaluate", "--dataset", str(dataset_dir), "--out", str(out),
                       *flags) == EXIT_OK
        printed = capsys.readouterr().out
        assert run_cli("report", "--from", str(out)) == EXIT_OK
        assert capsys.readouterr().out == printed


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "skelgest", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "synth" in proc.stdout and "gradcheck" in proc.stdout
