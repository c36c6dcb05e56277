"""End-to-end command line tests, run in-process through ``main``.

The pipeline test drives gen-data, pretrain, train, eval, and explain on a
32x32 two-epoch configuration; the whole chain takes a few seconds.
"""

import csv
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from protodensity import datagen, tensor
from protodensity.cli import SEED_ENV, _THREAD_ENV, main
from protodensity.datagen import load_dataset
from protodensity.model import (CountModel, FeatureExtractor, ModelConfig,
                                load_checkpoint, save_checkpoint, save_extractor)

TINY_CFG = """\
# tiny end-to-end configuration
scene.image_size = 32,32
scene.cell_count_range = 3,12
model.k_cell = 2
model.k_bg = 2
model.d = 16
train.batch_size = 8
train.learning_rate = 0.001
train.max_epochs = 2
train.pretrain_epochs = 2
train.projection_interval = 2
train.calibration_epochs = 1
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_threads_value(capsys):
    assert main(["--threads", "0", "gradcheck"]) == 1
    assert "--threads" in capsys.readouterr().err


def test_unknown_config_key_names_it(tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path / "d"),
                 "--set", "train.bogus_knob=1"]) == 1
    assert "bogus_knob" in capsys.readouterr().err


def test_bad_seed_env_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "not-a-seed")
    assert main(["gen-data", "--out", str(tmp_path / "d"),
                 "--n-train", "1", "--n-test", "1"]) == 1
    assert SEED_ENV in capsys.readouterr().err


def test_missing_paths_exit_usage(tmp_path, capsys):
    assert main(["eval", "--model", str(tmp_path / "no_model"),
                 "--data", str(tmp_path / "no_data"),
                 "--out", str(tmp_path / "eval.csv")]) == 1
    assert capsys.readouterr().err


def test_full_pipeline(tmp_path, cfg_path, capsys):
    data = str(tmp_path / "data")
    extractor = str(tmp_path / "extractor")
    run = str(tmp_path / "run")
    gallery = str(tmp_path / "gallery")
    eval_csv = str(tmp_path / "eval.csv")

    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "8", "--n-test", "4"]) == 0
    with open(os.path.join(data, "config_resolved.txt")) as f:
        resolved = f.read()
    assert resolved.startswith("version = protodensity-")
    assert "seed = 0" in resolved.splitlines()
    assert "command = gen-data" in resolved.splitlines()
    assert "scene.image_size = 32,32" in resolved.splitlines()

    assert main(["pretrain", "--config", cfg_path, "--data", data,
                 "--out", extractor]) == 0
    with open(os.path.join(extractor, "pretrain_history.csv"), newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["epoch", "mse"]
    assert len(rows) == 3  # two pretraining epochs

    assert main(["train", "--config", cfg_path, "--data", data,
                 "--extractor", extractor, "--out", run]) == 0
    assert os.path.isdir(os.path.join(run, "checkpoint_final"))
    assert os.path.isfile(os.path.join(run, "history.csv"))
    assert os.path.isfile(os.path.join(run, "projections.csv"))

    model = os.path.join(run, "checkpoint_final")
    assert main(["eval", "--model", model, "--data", data,
                 "--out", eval_csv]) == 0
    with open(eval_csv, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["sample_id", "true_count", "predicted_count", "abs_error"]
    assert len(rows) == 5  # header + 4 test images
    assert os.path.isfile(eval_csv + ".config.txt")

    assert main(["explain", "--model", model, "--data", data,
                 "--out", gallery, "--global-k", "1",
                 "--image", "0", "--loc", "1,1"]) == 0
    assert os.path.isfile(os.path.join(gallery, "patches.csv"))
    assert os.path.isfile(os.path.join(gallery, "explanation_img0000_h1w1.csv"))

    out = capsys.readouterr().out
    assert "test MAE" in out and "density at (1,1)" in out

    # --image without --loc, and an id the dataset does not hold
    assert main(["explain", "--model", model, "--data", data,
                 "--out", gallery, "--image", "0"]) == 1
    assert main(["explain", "--model", model, "--data", data,
                 "--out", gallery, "--image", "999", "--loc", "1,1"]) == 1
    err = capsys.readouterr().err
    assert "--loc" in err and "999" in err


@pytest.mark.parametrize("flags, named", [
    (["--image", "1"], "--loc"),
    (["--loc", "1,1"], "--image"),
    (["--image", "999", "--loc", "1,1"], "999"),
    (["--image", "1", "--loc", "99,99"], "outside density map"),
])
def test_bad_explain_arguments_exit_before_any_output(tmp_path, cfg_path, capsys,
                                                      flags, named):
    data, ckpt, out = str(tmp_path / "data"), str(tmp_path / "ckpt"), tmp_path / "out"
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    save_checkpoint(CountModel(ModelConfig(k_cell=2, k_bg=2, d=16),
                               FeatureExtractor(np.random.default_rng(0))), ckpt)
    capsys.readouterr()
    assert main(["explain", "--model", ckpt, "--data", data, "--out", str(out),
                 *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert not out.exists()


def test_malformed_manifest_and_provenance_exit_usage(tmp_path, cfg_path, capsys):
    data = str(tmp_path / "data")
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    manifest = os.path.join(data, "manifest.txt")
    with open(manifest) as f:
        lines = [line for line in f if not line.startswith("sigma")]
    with open(manifest, "w") as f:
        f.writelines(lines)
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(CountModel(ModelConfig(k_cell=2, k_bg=2, d=16),
                               FeatureExtractor(np.random.default_rng(0))), ckpt)
    extractor = str(tmp_path / "ex")
    for argv in (["pretrain", "--data", data, "--out", extractor],
                 ["train", "--data", data, "--extractor", extractor,
                  "--out", str(tmp_path / "run")],
                 ["eval", "--model", ckpt, "--data", data,
                  "--out", str(tmp_path / "eval.csv")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert manifest in err and "'sigma'" in err

    provenance = os.path.join(ckpt, "provenance.csv")
    with open(provenance, "a", newline="") as f:
        f.write("9,0,0,0,0.0\r\n")
    assert main(["eval", "--model", ckpt, "--data", data,
                 "--out", str(tmp_path / "eval.csv")]) == 1
    err = capsys.readouterr().err
    assert provenance in err and "prototype id 9" in err
    os.remove(provenance)
    assert main(["eval", "--model", ckpt, "--data", data,
                 "--out", str(tmp_path / "eval.csv")]) == 1
    assert provenance in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "x,y\r\n1.0\r\n"])
def test_malformed_points_file_exits_usage(tmp_path, cfg_path, capsys, text):
    data = str(tmp_path / "data")
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    points = os.path.join(data, "samples", "sample_00001_points.csv")
    with open(points, "w", newline="") as f:
        f.write(text)
    assert main(["pretrain", "--config", cfg_path, "--data", data,
                 "--out", str(tmp_path / "ex")]) == 1
    assert points in capsys.readouterr().err


@pytest.mark.parametrize("name,dims", [("sample_00001_image.pdt", (1, 16, 64)),
                                       ("sample_00002_density.pdt", (2, 8))])
def test_sample_of_another_shape_exits_usage(tmp_path, cfg_path, capsys, name, dims):
    # a PDTF header edited to another shape with the same payload length
    # loads as a tensor; the dataset loader must reject it against the
    # manifest's image_size and downsample
    data = str(tmp_path / "data")
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    path = os.path.join(data, "samples", name)
    with open(path, "rb") as f:
        blob = f.read()
    ndim = blob[5]
    header = blob[:5] + struct.pack("<B", len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
    with open(path, "wb") as f:
        f.write(header + blob[6 + 4 * ndim:])
    assert tensor.load_tensor(path).shape == dims
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(CountModel(ModelConfig(k_cell=2, k_bg=2, d=16),
                               FeatureExtractor(np.random.default_rng(0))), ckpt)
    for argv in (["pretrain", "--config", cfg_path, "--data", data,
                  "--out", str(tmp_path / "ex")],
                 ["train", "--config", cfg_path, "--data", data,
                  "--extractor", str(tmp_path / "ex"), "--out", str(tmp_path / "run")],
                 ["eval", "--model", ckpt, "--data", data,
                  "--out", str(tmp_path / "eval.csv")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert path in err and str(dims) in err


@pytest.mark.parametrize("old,new,named", [
    ("samples/sample_00001_image.pdt", "samples/no_such_file.pdt", "no_such_file"),
    ("1,train,", "1,validation,", "'validation'"),
])
def test_edited_sample_row_exits_usage(tmp_path, cfg_path, capsys, old, new, named):
    # the loader reads samples/sample_<id>_* only, so a manifest row that
    # records another path, or a split other than train/test, is rejected
    data = str(tmp_path / "data")
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    manifest = os.path.join(data, "manifest.txt")
    with open(manifest) as f:
        lines = f.read().splitlines()
    lineno = next(n for n, line in enumerate(lines, start=1) if line.startswith("1,"))
    lines[lineno - 1] = lines[lineno - 1].replace(old, new)
    with open(manifest, "w") as f:
        f.write("\n".join(lines) + "\n")
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(CountModel(ModelConfig(k_cell=2, k_bg=2, d=16),
                               FeatureExtractor(np.random.default_rng(0))), ckpt)
    for argv in (["pretrain", "--config", cfg_path, "--data", data,
                  "--out", str(tmp_path / "ex")],
                 ["train", "--config", cfg_path, "--data", data,
                  "--extractor", str(tmp_path / "ex"), "--out", str(tmp_path / "run")],
                 ["eval", "--model", ckpt, "--data", data,
                  "--out", str(tmp_path / "eval.csv")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{manifest}:{lineno}:" in err and named in err


def test_interrupted_checkpoint_save_does_not_load(tmp_path, cfg_path, capsys,
                                                   monkeypatch):
    data = str(tmp_path / "data")
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    ckpt = str(tmp_path / "ckpt")
    config = ModelConfig(k_cell=2, k_bg=2, d=16)
    save_checkpoint(CountModel(config, FeatureExtractor(np.random.default_rng(0))), ckpt)
    load_checkpoint(ckpt)

    # a second save, cut short at its third tensor
    saved = []
    real_save = tensor.save_tensor

    def failing_save(path, array):
        if len(saved) == 2:
            raise OSError("disk full")
        saved.append(path)
        real_save(path, array)

    monkeypatch.setattr(tensor, "save_tensor", failing_save)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(CountModel(config, FeatureExtractor(np.random.default_rng(1)),
                                   seed=1), ckpt)
    monkeypatch.undo()
    with pytest.raises(FileNotFoundError, match="no manifest"):
        load_checkpoint(ckpt)
    assert main(["eval", "--model", ckpt, "--data", data,
                 "--out", str(tmp_path / "eval.csv")]) == 1
    assert "no manifest" in capsys.readouterr().err


def test_interrupted_gen_data_does_not_load(tmp_path, cfg_path, capsys, monkeypatch):
    data = str(tmp_path / "data")
    extractor = str(tmp_path / "ex")
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    assert main(["pretrain", "--config", cfg_path, "--data", data, "--out", extractor]) == 0
    load_dataset(data)

    # a second gen-data into the same directory, cut short at its third sample
    saved = []
    real_save = datagen.save_sample

    def failing_save(samples_dir, sample):
        if len(saved) == 2:
            raise OSError("disk full")
        saved.append(sample.sample_id)
        real_save(samples_dir, sample)

    monkeypatch.setattr(datagen, "save_sample", failing_save)
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 2
    monkeypatch.undo()
    manifest = os.path.join(data, "manifest.txt")
    with pytest.raises(FileNotFoundError) as exc:
        load_dataset(data)
    assert manifest in str(exc.value)
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--data", data, "--extractor", extractor,
                 "--out", str(tmp_path / "run")]) == 1
    assert manifest in capsys.readouterr().err


def test_rerun_into_same_out_leaves_no_loadable_stale_checkpoint(tmp_path, cfg_path, capsys):
    data, extractor, run = (str(tmp_path / d) for d in ("data", "ex", "m"))
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "4", "--n-test", "1"]) == 0
    assert main(["pretrain", "--config", cfg_path, "--data", data, "--out", extractor]) == 0
    for epochs in (6, 3):
        assert main(["train", "--config", cfg_path, "--data", data, "--extractor", extractor,
                     "--out", run, "--set", f"train.max_epochs={epochs}",
                     "--set", "train.projection_interval=2"]) == 0
    for kept in ("checkpoint_epoch0002", "checkpoint_final"):
        load_checkpoint(os.path.join(run, kept))
    capsys.readouterr()
    for stale in ("checkpoint_epoch0004", "checkpoint_epoch0006"):
        ckpt = os.path.join(run, stale)
        with pytest.raises(FileNotFoundError, match="no manifest"):
            load_checkpoint(ckpt)
        assert main(["eval", "--model", ckpt, "--data", data,
                     "--out", str(tmp_path / "eval.csv")]) == 1
        assert f"no manifest at {os.path.join(ckpt, 'checkpoint.txt')}" in \
            capsys.readouterr().err


def test_seed_env_overrides_config(tmp_path, cfg_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "7")
    data = str(tmp_path / "data7")
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    with open(os.path.join(data, "config_resolved.txt")) as f:
        lines = f.read().splitlines()
    assert "seed = 7" in lines
    assert "scene.seed = 7" in lines
    assert "train.seed = 7" in lines


def _files(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _data_and_extractor(tmp_path, cfg_path):
    data, extractor = str(tmp_path / "data"), str(tmp_path / "ex")
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "4", "--n-test", "2"]) == 0
    assert main(["pretrain", "--config", cfg_path, "--data", data,
                 "--out", extractor]) == 0
    return data, extractor


@pytest.mark.parametrize("command, named", [
    ("gen-data", "scene.seed"), ("pretrain", "train.seed"),
    ("train", "train.seed"), ("gen-data", SEED_ENV)])
def test_negative_seed_exits_before_writing(tmp_path, cfg_path, capsys, monkeypatch,
                                            command, named):
    data, extractor = _data_and_extractor(tmp_path, cfg_path)
    before = _files(tmp_path)
    capsys.readouterr()
    argv = {"gen-data": ["--out", data, "--n-train", "4", "--n-test", "2"],
            "pretrain": ["--data", data, "--out", str(tmp_path / "ex2")],
            "train": ["--data", data, "--extractor", extractor,
                      "--out", str(tmp_path / "run")]}[command]
    if named == SEED_ENV:
        monkeypatch.setenv(SEED_ENV, "-1")
    else:
        argv += ["--set", f"{named}=-1"]
    assert main([command, "--config", cfg_path, *argv]) == 1
    assert named in capsys.readouterr().err
    assert _files(tmp_path) == before
    load_dataset(data)


@pytest.mark.parametrize("flags, named", [
    (["ablate", "--variants", "full,nope"], "nope"),
    (["ablate", "--seeds", ""], "comma-separated"),
    (["sweep-k", "--k", ""], "comma-separated"),
    (["sweep-tau", "--tau", ","], "comma-separated"),
    (["sweep-tau", "--tau", "0.4,0.4000001"], "share gallery names"),
    (["sweep-k", "--k", "3"], "even"),
    (["sweep-tau", "--tau", "0,2"], "tau_cell"),
])
def test_bad_grid_list_exits_before_any_output(tmp_path, cfg_path, capsys,
                                               no_pretraining, flags, named):
    data, out = str(tmp_path / "data"), tmp_path / "out"
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    capsys.readouterr()
    assert main([flags[0], "--config", cfg_path, "--data", data, "--out", str(out),
                 *flags[1:]]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_sweep_tau_out_of_range_trains_nothing(tmp_path, cfg_path, capsys):
    data, extractor = _data_and_extractor(tmp_path, cfg_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["sweep-tau", "--config", cfg_path, "--data", data,
                 "--extractor", extractor, "--out", str(out),
                 "--tau", "0,2"]) == 1
    assert "tau_cell" in capsys.readouterr().err
    assert not (out / "tau_0_seed0").exists()
    assert not (out / "sweep_tau.csv").exists()


@pytest.mark.parametrize("command", ["pretrain", "train", "eval"])
def test_dataset_of_another_downsample_exits_naming_its_manifest(tmp_path, cfg_path,
                                                                 capsys, command):
    data = str(tmp_path / "data")
    datagen.generate_dataset(datagen.SceneConfig(image_size=(32, 32)), 4, 2, data)
    manifest = os.path.join(data, "manifest.txt")
    with open(manifest) as f:
        text = f.read()
    assert "\ndownsample = 8\n" in text
    with open(manifest, "w") as f:
        f.write(text.replace("\ndownsample = 8\n", "\ndownsample = 4\n"))
    model = CountModel(ModelConfig(k_cell=2, k_bg=2, d=16),
                       FeatureExtractor(np.random.default_rng(0)))
    ckpt, extractor = str(tmp_path / "ckpt"), str(tmp_path / "ex")
    save_checkpoint(model, ckpt)
    save_extractor(model.extractor, extractor)
    argv = {"pretrain": ["--config", cfg_path, "--out", str(tmp_path / "ex2")],
            "train": ["--config", cfg_path, "--extractor", extractor,
                      "--out", str(tmp_path / "run")],
            "eval": ["--model", ckpt, "--out", str(tmp_path / "eval.csv")]}[command]
    assert main([command, "--data", data, *argv]) == 1
    err = capsys.readouterr().err
    assert "manifest.txt" in err and "downsample 4" in err


@pytest.mark.parametrize("flags", [["ablate", "--variants", "full"],
                                   ["sweep-k", "--k", "2,4"],
                                   ["sweep-tau", "--tau", "0.5"]])
def test_grid_commands_train_the_configured_model(tmp_path, cfg_path,
                                                  trained_configs, flags):
    data, extractor = _data_and_extractor(tmp_path, cfg_path)
    assert main([flags[0], "--config", cfg_path, "--data", data, "--extractor",
                 extractor, "--out", str(tmp_path / "out"), "--seeds", "0",
                 "--set", "model.d=8", "--set", "model.epsilon=0.001",
                 *flags[1:]]) == 0
    assert trained_configs
    assert all(c.d == 8 and c.epsilon == 0.001 for c in trained_configs)


def test_gradcheck_passes_and_sets_threads(capsys):
    saved = {name: os.environ.get(name) for name in _THREAD_ENV}
    try:
        assert main(["--threads", "2", "gradcheck", "--trials", "1"]) == 0
        assert all(os.environ[name] == "2" for name in _THREAD_ENV)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    out = capsys.readouterr().out
    assert "all gradients within" in out
    for component in ("density_loss", "proto_feature_loss", "diversity_loss",
                      "total_loss", "count_through_model"):
        assert component in out


def test_gradcheck_reports_failure(capsys, monkeypatch):
    import protodensity.cli as cli
    monkeypatch.setattr(cli, "GRADCHECK_TOLERANCE", 0.0)
    assert main(["gradcheck", "--trials", "1"]) == 2
    assert "FAIL" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_rerun_leaves_no_stale_history(tmp_path, cfg_path, capsys):
    data, extractor, run = (str(tmp_path / d) for d in ("data", "ex", "m"))
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "4", "--n-test", "1"]) == 0
    assert main(["pretrain", "--config", cfg_path, "--data", data, "--out", extractor]) == 0
    train = ["train", "--config", cfg_path, "--data", data, "--extractor", extractor,
             "--out", run]
    assert main(train) == 0
    assert main([*train, "--set", "train.learning_rate=1e300"]) == 2
    assert "non-finite" in capsys.readouterr().err
    for name in ("history.csv", "projections.csv"):
        assert not os.path.exists(os.path.join(run, name)), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exits_runtime(tmp_path, cfg_path, capsys):
    data = str(tmp_path / "data")
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "4", "--n-test", "1"]) == 0
    code = main(["pretrain", "--config", cfg_path, "--data", data,
                 "--out", str(tmp_path / "ex"),
                 "--set", "train.pretrain_learning_rate=1e200",
                 "--set", "train.pretrain_epochs=4"])
    assert code == 2
    assert "runtime failure" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, flags, layout", [
    ("pipeline", ["--gallery-k", "1"],
     ["data", "extractor", "run/history.csv", "run/checkpoint_final", "eval.csv",
      "gallery/patches.csv"]),
    ("ablation", ["--seeds", "0"],
     ["data", "extractor", "ablation.csv", "distance_table.txt"]),
    ("sweeps", ["--k", "4", "--tau", "0.8"],
     ["data", "extractor", "sweep_k.csv", "sweep_tau.csv", "tau_0.8_seed0"]),
])
def test_experiment_scripts_keep_their_layout(tmp_path, cfg_path, experiment, flags, layout):
    out = tmp_path / "out"
    _run_script("run_experiment.py", experiment, "--out", str(out), "--config", cfg_path,
                "--n-train", "8", "--n-test", "4", *flags)
    for entry in layout:
        assert (out / entry).exists(), entry


def _run_script(script, *args, check=True) -> subprocess.CompletedProcess:
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    # the scripts import the package from src/ whether or not it is installed
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, os.path.join(root, "scripts", script), *args],
                          check=check, capture_output=True, text=True, env=env)


def test_failing_step_stops_the_experiment_with_its_exit_code(tmp_path):
    out = tmp_path / "out"
    done = _run_script("run_experiment.py", "pipeline", "--out", str(out),
                       "--set", "scene.image_size=30,30", check=False)
    assert done.returncode == 1
    assert "image_size" in done.stderr
    assert not (out / "extractor").exists()


def test_experiment_rejects_another_experiments_flag(tmp_path):
    done = _run_script("run_experiment.py", "pipeline", "--out", str(tmp_path / "out"),
                       "--k", "4", check=False)
    assert done.returncode == 2
    assert "unrecognized arguments: --k 4" in done.stderr
    assert not (tmp_path / "out").exists()


def test_two_runs_of_the_pipeline_digest_alike(tmp_path, cfg_path):
    digests = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        _run_script("run_experiment.py", "pipeline", "--out", out, "--config", cfg_path,
                    "--n-train", "8", "--n-test", "4", "--gallery-k", "1")
        digests.append(_run_script("digest_run.py", out).stdout)
    assert digests[0] == digests[1]
    paths = [line.split("  ", 1)[1] for line in digests[0].splitlines()]
    assert paths == sorted(paths)
    assert {"run/checkpoint_final/checkpoint.txt", "run/config_resolved.txt",
            "eval.csv"} <= set(paths)
    # the configs echo each run's own paths, masked in the digest
    a, b = ((tmp_path / name / "run" / "config_resolved.txt").read_text()
            for name in ("a", "b"))
    assert a != b
