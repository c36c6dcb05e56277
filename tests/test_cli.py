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

from protodensity import tensor
from protodensity.cli import SEED_ENV, _THREAD_ENV, main
from protodensity.model import (CountModel, FeatureExtractor, ModelConfig,
                                load_checkpoint, save_checkpoint)

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
    resolved = open(os.path.join(data, "config_resolved.txt")).read()
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

    def failing_save(path, array, dtype="float64"):
        if len(saved) == 2:
            raise OSError("disk full")
        saved.append(path)
        real_save(path, array, dtype)

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


def test_seed_env_overrides_config(tmp_path, cfg_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "7")
    data = str(tmp_path / "data7")
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    lines = open(os.path.join(data, "config_resolved.txt")).read().splitlines()
    assert "seed = 7" in lines
    assert "scene.seed = 7" in lines
    assert "train.seed = 7" in lines


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


@pytest.mark.parametrize("script, flags, layout", [
    ("run_pipeline.py", ["--gallery-k", "1"],
     ["data", "extractor", "run/history.csv", "run/checkpoint_final", "eval.csv",
      "gallery/patches.csv"]),
    ("run_ablation.py", ["--seeds", "0"],
     ["data", "extractor", "ablation.csv", "distance_table.txt"]),
    ("run_sweeps.py", ["--k", "4", "--tau", "0.8"],
     ["data", "extractor", "sweep_k.csv", "sweep_tau.csv", "tau_0.8_seed0"]),
])
def test_experiment_scripts_keep_their_layout(tmp_path, cfg_path, script, flags, layout):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", script)
    out = tmp_path / "out"
    subprocess.run([sys.executable, path, "--out", str(out), "--config", cfg_path,
                    "--n-train", "8", "--n-test", "4", *flags],
                   check=True, capture_output=True)
    for entry in layout:
        assert (out / entry).exists(), entry
