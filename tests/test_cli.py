"""End-to-end command line tests, run in-process through ``main``.

The pipeline test drives gen-data, pretrain, train, eval, and explain on a
32x32 two-epoch configuration; the whole chain takes a few seconds.
"""

import csv
import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from protodensity import datagen, tensor
from protodensity.cli import main
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


def test_threads_flag_is_a_usage_error(capsys):
    # BLAS threads are set in the environment: OPENBLAS_NUM_THREADS=1 protodensity ...
    assert main(["--threads", "2", "gradcheck"]) == 1
    err = capsys.readouterr().err
    assert "--threads" in err and "after the subcommand" in err


def test_unknown_config_key_names_it(tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path / "d"),
                 "--set", "train.bogus_knob=1"]) == 1
    assert "bogus_knob" in capsys.readouterr().err


@pytest.mark.parametrize("counts", [("-1", "1"), ("1", "-1")])
def test_gen_data_negative_count_exits_before_any_output(tmp_path, capsys, counts):
    out = tmp_path / "d"
    assert main(["gen-data", "--out", str(out), "--n-train", counts[0],
                 "--n-test", counts[1]]) == 1
    assert "sample counts must be >= 0" in capsys.readouterr().err
    assert not out.exists()


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
    assert rows[1][0] == "1"  # counted from 1, as history.csv is

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
    (["--global-k", "0"], "k must be >= 1"),
    (["--percentile", "150"], "q must be in (0, 100]"),
    (["--percentile", "0"], "q must be in (0, 100]"),
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


@pytest.mark.parametrize("frozen", ["True", "False"])
def test_flipped_extractor_bit_exits_usage_whatever_the_frozen_flag(tmp_path, cfg_path,
                                                                    capsys, frozen):
    # the checksum is verified on every load; the flag only says whether to freeze
    data = str(tmp_path / "data")
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    extractor = FeatureExtractor(np.random.default_rng(0))
    extractor.freeze()
    ckpt, ex = tmp_path / "ckpt", tmp_path / "ex"
    save_checkpoint(CountModel(ModelConfig(k_cell=2, k_bg=2, d=16), extractor), str(ckpt))
    save_extractor(extractor, str(ex))
    for manifest, key, argv in [
            (ckpt / "checkpoint.txt", "extractor_frozen",
             ["eval", "--model", str(ckpt), "--data", data, "--out", str(tmp_path / "e.csv")]),
            (ex / "extractor.txt", "frozen",
             ["train", "--config", cfg_path, "--data", data, "--extractor", str(ex),
              "--out", str(tmp_path / "run")])]:
        weight = manifest.parent / "extractor.block1.weight.pdt"
        blob = bytearray(weight.read_bytes())
        blob[-1] ^= 0x80  # the sign of the last element
        weight.write_bytes(blob)
        text = manifest.read_text()
        assert f"\n{key} = True\n" in text
        manifest.write_text(text.replace(f"\n{key} = True\n", f"\n{key} = {frozen}\n"))
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {manifest}: extractor checksum mismatch after load\n"
    assert not (tmp_path / "e.csv").exists() and not (tmp_path / "run").exists()


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


def test_repeated_sample_and_prototype_ids_exit_usage(tmp_path, cfg_path, capsys):
    data, ckpt = str(tmp_path / "data"), str(tmp_path / "ckpt")
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    save_checkpoint(CountModel(ModelConfig(k_cell=2, k_bg=2, d=16),
                               FeatureExtractor(np.random.default_rng(0))), ckpt)
    eval_argv = ["eval", "--model", ckpt, "--data", data, "--out", str(tmp_path / "e.csv")]
    provenance = os.path.join(ckpt, "provenance.csv")
    with open(provenance, newline="") as f:
        header, first, _, *rest = f.readlines()
    with open(provenance, "w", newline="") as f:
        f.writelines([header, first, first, *rest])
    assert main(eval_argv) == 1
    err = capsys.readouterr().err
    assert provenance in err and "prototype id 0 is listed twice" in err

    save_checkpoint(CountModel(ModelConfig(k_cell=2, k_bg=2, d=16),
                               FeatureExtractor(np.random.default_rng(0))), ckpt)
    manifest = os.path.join(data, "manifest.txt")
    with open(manifest) as f:
        lines = f.readlines()
    n = next(i for i, line in enumerate(lines) if line.startswith("1,train,"))
    lines[n] = lines[n - 1]
    with open(manifest, "w") as f:
        f.writelines(lines)
    assert main(eval_argv) == 1
    err = capsys.readouterr().err
    assert f"{manifest}:{n + 1}: sample id 0 is listed twice" in err


def test_nan_epsilon_in_checkpoint_exits_usage(tmp_path, cfg_path, capsys):
    data, ckpt = str(tmp_path / "data"), str(tmp_path / "ckpt")
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    save_checkpoint(CountModel(ModelConfig(k_cell=2, k_bg=2, d=16),
                               FeatureExtractor(np.random.default_rng(0))), ckpt)
    manifest = os.path.join(ckpt, "checkpoint.txt")
    with open(manifest) as f:
        lines = ["epsilon = nan\n" if line.startswith("epsilon") else line for line in f]
    with open(manifest, "w") as f:
        f.writelines(lines)
    capsys.readouterr()
    assert main(["eval", "--model", ckpt, "--data", data,
                 "--out", str(tmp_path / "eval.csv")]) == 1
    err = capsys.readouterr().err
    assert manifest in err and "epsilon must lie in (0, 1), got nan" in err
    assert not (tmp_path / "eval.csv").exists()


@pytest.mark.parametrize("x, y", [("nan", "1.0"), ("inf", "1.0"), ("-0.5", "1.0"),
                                  ("32", "1.0"), ("1.0", "32")],
                         ids=["nan", "inf", "negative", "x-equals-width", "y-equals-height"])
def test_point_outside_its_image_exits_naming_the_points_file(tmp_path, cfg_path, capsys,
                                                               x, y):
    data, ckpt = str(tmp_path / "data"), str(tmp_path / "ckpt")
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    save_checkpoint(CountModel(ModelConfig(k_cell=2, k_bg=2, d=16),
                               FeatureExtractor(np.random.default_rng(0))), ckpt)
    points = os.path.join(data, "samples", "sample_00002_points.csv")
    with open(points, newline="") as f:
        header, _, *rest = f.readlines()
    with open(points, "w", newline="") as f:
        f.writelines([header, f"{x},{y}\r\n", *rest])
    with pytest.raises(ValueError, match=f"^{re.escape(points)}: row 1: "):
        load_dataset(data)
    capsys.readouterr()
    assert main(["eval", "--model", ckpt, "--data", data,
                 "--out", str(tmp_path / "e.csv")]) == 1
    assert points in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()


def _poke_first_value(path, value):
    # overwrite the first float64 of a PDTF payload
    with open(path, "r+b") as f:
        f.seek(6 + 4 * f.read(6)[5])
        f.write(struct.pack("<d", value))


@pytest.mark.parametrize("poked, value, commands", [
    (["ckpt/prototypes.pdt"], np.nan, ("eval", "explain")),
    (["ckpt/prototypes.pdt"], np.inf, ("eval", "explain")),
    (["ckpt/extractor.block1.weight.pdt", "ex/extractor.block1.weight.pdt"], np.nan,
     ("eval", "explain", "train")),
    (["data/samples/sample_00001_image.pdt"], np.nan,
     ("eval", "explain", "train", "pretrain")),
], ids=["nan-prototypes", "inf-prototypes", "nan-extractor-weight", "nan-image"])
def test_non_finite_tensor_file_exits_naming_it(tmp_path, cfg_path, capsys,
                                                poked, value, commands):
    data, ckpt, ex = (str(tmp_path / name) for name in ("data", "ckpt", "ex"))
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    model = CountModel(ModelConfig(k_cell=2, k_bg=2, d=16),
                       FeatureExtractor(np.random.default_rng(0)))
    save_checkpoint(model, ckpt)
    save_extractor(model.extractor, ex)
    for name in poked:
        _poke_first_value(tmp_path / name, value)
    capsys.readouterr()
    argvs = {"eval": ["eval", "--model", ckpt, "--data", data,
                      "--out", str(tmp_path / "eval.csv")],
             "explain": ["explain", "--model", ckpt, "--data", data,
                         "--out", str(tmp_path / "gallery")],
             "train": ["train", "--config", cfg_path, "--data", data,
                       "--extractor", ex, "--out", str(tmp_path / "run")],
             "pretrain": ["pretrain", "--config", cfg_path, "--data", data,
                          "--out", str(tmp_path / "ex2")]}
    for command in commands:
        assert main(argvs[command]) == 1
        err = capsys.readouterr().err
        assert "NaN or inf" in err and any(str(tmp_path / n) in err for n in poked), err
    assert not (tmp_path / "eval.csv").exists() and not (tmp_path / "run").exists()


def test_truncated_tensor_header_exits_naming_it(tmp_path, cfg_path, capsys):
    # a checkpoint tensor cut inside its dims: eval exits 1 naming the file,
    # with no traceback and no eval.csv
    data, ckpt = str(tmp_path / "data"), str(tmp_path / "ckpt")
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    save_checkpoint(CountModel(ModelConfig(k_cell=2, k_bg=2, d=16),
                               FeatureExtractor(np.random.default_rng(0))), ckpt)
    path = tmp_path / "ckpt" / "prototypes.pdt"
    path.write_bytes(path.read_bytes()[:8])
    capsys.readouterr()
    assert main(["eval", "--model", ckpt, "--data", data,
                 "--out", str(tmp_path / "eval.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{path}: truncated PDTF header" in err and "Traceback" not in err, err
    assert not (tmp_path / "eval.csv").exists()


def test_overflowing_prototypes_exit_naming_the_map(tmp_path, cfg_path, capsys):
    # finite prototypes at 1e200 overflow every distance to inf, and every
    # similarity log((inf + 1) / (inf + eps)) is NaN
    data, ckpt = str(tmp_path / "data"), str(tmp_path / "ckpt")
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    model = CountModel(ModelConfig(k_cell=2, k_bg=2, d=16),
                       FeatureExtractor(np.random.default_rng(0)))
    model.prototypes.data[:] = 1e200
    save_checkpoint(model, ckpt)
    capsys.readouterr()
    for argv, named in (
            (["eval", "--model", ckpt, "--data", data, "--out", str(tmp_path / "eval.csv")],
             "predicted count of sample 2 is nan"),
            (["explain", "--model", ckpt, "--data", data, "--out", str(tmp_path / "gallery"),
              "--image", "0", "--loc", "1,1"],
             "similarity map of prototype 0 on sample 0 is not finite")):
        with pytest.warns(RuntimeWarning):
            assert main(argv) == 1
        assert named in capsys.readouterr().err
    assert not (tmp_path / "eval.csv").exists()
    assert not list((tmp_path / "gallery").glob("*"))


def test_failed_explain_leaves_the_earlier_gallery_whole(tmp_path, cfg_path, capsys):
    data, good, bad = (str(tmp_path / name) for name in ("data", "good", "bad"))
    gallery = tmp_path / "gal"
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "3", "--n-test", "1"]) == 0
    model = CountModel(ModelConfig(k_cell=2, k_bg=2, d=16),
                       FeatureExtractor(np.random.default_rng(0)))
    save_checkpoint(model, good)
    model.prototypes.data[:] = 1e200
    save_checkpoint(model, bad)
    assert main(["explain", "--model", good, "--data", data, "--out", str(gallery),
                 "--global-k", "1"]) == 0
    before = {p.name: p.read_bytes() for p in gallery.iterdir()}
    assert len(before) > 1
    capsys.readouterr()
    with pytest.warns(RuntimeWarning):
        assert main(["explain", "--model", bad, "--data", data, "--out", str(gallery)]) == 1
    assert "is not finite" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in gallery.iterdir()} == before


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


def test_directory_in_place_of_a_file_exits_usage(tmp_path, cfg_path, capsys):
    data, ckpt, report = (str(tmp_path / name) for name in ("data", "ckpt", "report"))
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    save_checkpoint(CountModel(ModelConfig(k_cell=2, k_bg=2, d=16),
                               FeatureExtractor(np.random.default_rng(0))), ckpt)
    os.mkdir(report)
    capsys.readouterr()
    assert main(["eval", "--model", ckpt, "--data", data, "--out", report]) == 1
    assert report in capsys.readouterr().err
    image = os.path.join(data, "samples", "sample_00000_image.pdt")
    os.remove(image)
    os.mkdir(image)
    assert main(["pretrain", "--config", cfg_path, "--data", data,
                 "--out", str(tmp_path / "ex")]) == 1
    assert image in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen-data", "pretrain", "train", "explain"])
@pytest.mark.parametrize("sub", [[], ["sub"]], ids=["file", "below-file"])
def test_file_in_place_of_an_output_directory_exits_usage(tmp_path, cfg_path, capsys,
                                                          command, sub):
    data, extractor, ckpt = (str(tmp_path / name) for name in ("data", "ex", "ckpt"))
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    model = CountModel(ModelConfig(k_cell=2, k_bg=2, d=16),
                       FeatureExtractor(np.random.default_rng(0)))
    model.extractor.freeze()  # an unfrozen one is refused before --out is looked at
    save_extractor(model.extractor, extractor)
    save_checkpoint(model, ckpt)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = os.path.join(afile, *sub)
    argv = {"gen-data": ["--config", cfg_path, "--n-train", "2", "--n-test", "1"],
            "pretrain": ["--config", cfg_path, "--data", data],
            "train": ["--config", cfg_path, "--data", data, "--extractor", extractor],
            "explain": ["--model", ckpt, "--data", data]}[command]
    capsys.readouterr()
    assert main([command, *argv, "--out", out]) == 1
    assert str(afile) in capsys.readouterr().err
    assert afile.read_text() == "kept\n"


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


def test_train_prints_the_shipped_models_val_mae(tmp_path, cfg_path, capsys):
    data, extractor, run = (str(tmp_path / d) for d in ("data", "ex", "run"))
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "12", "--n-test", "1"]) == 0
    assert main(["pretrain", "--config", cfg_path, "--data", data, "--out", extractor]) == 0
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--data", data, "--extractor", extractor,
                 "--out", run, "--set", "train.max_epochs=6",
                 "--set", "train.calibration_epochs=3"]) == 0
    printed = capsys.readouterr().out.split("final val MAE ")[1].strip()
    with open(os.path.join(run, "history.csv"), newline="") as f:
        last = list(csv.reader(f))[-1]
    assert last[0] == "calibrate"
    assert printed == f"{float(last[-1]):.3f}"


def test_seeds_come_from_the_config_not_the_environment(tmp_path, cfg_path,
                                                        monkeypatch):
    monkeypatch.setenv("PROTODENSITY_SEED", "7")
    data = str(tmp_path / "data")
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1",
                 "--set", "scene.seed=3", "--set", "train.seed=5"]) == 0
    with open(os.path.join(data, "config_resolved.txt")) as f:
        lines = f.read().splitlines()
    assert "scene.seed = 3" in lines
    assert "train.seed = 5" in lines


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
    ("train", "train.seed")])
def test_negative_seed_exits_before_writing(tmp_path, cfg_path, capsys, command, named):
    data, extractor = _data_and_extractor(tmp_path, cfg_path)
    before = _files(tmp_path)
    capsys.readouterr()
    argv = {"gen-data": ["--out", data, "--n-train", "4", "--n-test", "2"],
            "pretrain": ["--data", data, "--out", str(tmp_path / "ex2")],
            "train": ["--data", data, "--extractor", extractor,
                      "--out", str(tmp_path / "run")]}[command]
    assert main([command, "--config", cfg_path, *argv, "--set", f"{named}=-1"]) == 1
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
                                               trained_configs, flags, named):
    data, out = str(tmp_path / "data"), tmp_path / "out"
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    capsys.readouterr()
    # the grid is checked before the extractor is loaded, so none need exist
    assert main([flags[0], "--config", cfg_path, "--data", data, "--out", str(out),
                 "--extractor", str(tmp_path / "ex"), *flags[1:]]) == 1
    assert named in capsys.readouterr().err
    assert not trained_configs
    assert not out.exists()


@pytest.mark.parametrize("command", ["ablate", "sweep-k", "sweep-tau"])
@pytest.mark.parametrize("extractor, named", [([], "--extractor"),
                                              (["--extractor", "nope"], "extractor.txt")],
                         ids=["missing", "nonexistent"])
def test_grid_without_an_extractor_writes_nothing(tmp_path, cfg_path, capsys,
                                                  command, extractor, named):
    data = str(tmp_path / "data")
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    before = _files(tmp_path)
    capsys.readouterr()
    assert main([command, "--config", cfg_path, "--data", data,
                 "--out", str(tmp_path / "out"), "--seeds", "0", *extractor]) == 1
    assert named in capsys.readouterr().err
    assert _files(tmp_path) == before


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


@pytest.mark.parametrize("key, value", [("config.noise_std", "nan"),
                                        ("config.cell_count_range", "9,3"),
                                        ("config.artifact_kinds", "vignette"),
                                        ("sigma", "2.0")])
def test_manifest_of_bad_scene_settings_exits_naming_it(tmp_path, cfg_path, capsys,
                                                        key, value):
    # the scene settings a manifest records are validated on load, and its
    # sigma checked against the model's, as the downsample is
    data, extractor = str(tmp_path / "data"), str(tmp_path / "ex")
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "2", "--n-test", "1"]) == 0
    manifest = os.path.join(data, "manifest.txt")
    with open(manifest) as f:
        lines = f.readlines()
    edited = [f"{key} = {value}\n" if line.startswith(f"{key} =") else line
              for line in lines]
    assert sum(a != b for a, b in zip(lines, edited)) == 1
    with open(manifest, "w") as f:
        f.writelines(edited)
    save_extractor(FeatureExtractor(np.random.default_rng(0)), extractor)
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--data", data,
                 "--extractor", extractor, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert manifest in err and key.removeprefix("config.") in err
    assert not (tmp_path / "run").exists()


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


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "all gradients within" in out
    for component in ("density_loss", "proto_feature_loss", "diversity_loss",
                      "total_loss", "count_through_model"):
        assert component in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_gradcheck_without_trials_exits_usage(capsys, trials):
    # no trial checks no gradient, so it must not report them all within bounds
    assert main(["gradcheck", "--trials", trials]) == 1
    out, err = capsys.readouterr()
    assert "all gradients within" not in out
    assert err.startswith("error: --trials") and trials in err


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
@pytest.mark.parametrize("command, flags, diverging, results", [
    ("pretrain", [], "train.pretrain_learning_rate=1e200",
     ["extractor.txt", "pretrain_history.csv"]),
    ("ablate", ["--variants", "full", "--seeds", "0"], "train.learning_rate=1e300",
     ["ablation.csv", "distance_table.txt"]),
    ("sweep-k", ["--k", "2", "--seeds", "0"], "train.learning_rate=1e300", ["sweep_k.csv"]),
    ("sweep-tau", ["--tau", "0", "--seeds", "0"], "train.learning_rate=1e300",
     ["sweep_tau.csv", "tau_0_seed0/patches.csv"]),
])
def test_failed_rerun_leaves_none_of_the_earlier_results(tmp_path, cfg_path, capsys, command,
                                                         flags, diverging, results):
    data, extractor, out = (str(tmp_path / d) for d in ("data", "ex", "out"))
    assert main(["gen-data", "--config", cfg_path, "--out", data,
                 "--n-train", "4", "--n-test", "1"]) == 0
    assert main(["pretrain", "--config", cfg_path, "--data", data, "--out", extractor]) == 0
    argv = [command, "--config", cfg_path, "--data", data, "--out", out, *flags,
            *([] if command == "pretrain" else ["--extractor", extractor])]
    assert main(argv) == 0
    assert all(os.path.isfile(os.path.join(out, name)) for name in results)
    capsys.readouterr()
    assert main([*argv, "--set", diverging]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert [name for name in results if os.path.lexists(os.path.join(out, name))] == []


@pytest.mark.parametrize("command, flags", [
    ("train", []), ("ablate", ["--variants", "full", "--seeds", "0"]),
    ("sweep-k", ["--k", "2", "--seeds", "0"]), ("sweep-tau", ["--tau", "0", "--seeds", "0"]),
])
def test_unfrozen_extractor_exits_before_touching_any_output(tmp_path, cfg_path, capsys,
                                                             command, flags):
    data, extractor = _data_and_extractor(tmp_path, cfg_path)
    out, new = tmp_path / "out", tmp_path / "new"
    argv = [command, "--config", cfg_path, "--data", data, "--extractor", extractor, *flags]
    assert main([*argv, "--out", str(out)]) == 0
    manifest = os.path.join(extractor, "extractor.txt")
    with open(manifest) as f:
        text = f.read()
    assert "\nfrozen = True\n" in text
    with open(manifest, "w") as f:
        f.write(text.replace("\nfrozen = True\n", "\nfrozen = False\n"))
    before = _files(tmp_path)
    for target in (out, new):
        capsys.readouterr()
        assert main([*argv, "--out", str(target)]) == 1
        assert _files(tmp_path) == before
        err = capsys.readouterr().err
        assert err == f"error: extractor in {extractor} is not frozen: pretrain it first\n"
    assert not new.exists()


def test_sweep_tau_rerun_with_fewer_taus_leaves_no_dropped_gallery(tmp_path, cfg_path):
    data, extractor = _data_and_extractor(tmp_path, cfg_path)
    out = tmp_path / "out"
    sweep = ["sweep-tau", "--config", cfg_path, "--data", data, "--extractor", extractor,
             "--out", str(out), "--seeds", "0"]
    assert main([*sweep, "--tau", "0,0.4"]) == 0
    assert (out / "tau_0.4_seed0" / "patches.csv").is_file()
    assert main([*sweep, "--tau", "0"]) == 0
    assert (out / "tau_0_seed0" / "patches.csv").is_file()
    assert list((out / "tau_0.4_seed0").iterdir()) == []


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
    # the echo is written before the work, so a failed run still says what it ran
    assert "train.pretrain_learning_rate = 1e+200" in \
        (tmp_path / "ex" / "config_resolved.txt").read_text().splitlines()


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


def _run_script(script, *args, check=True, env=()) -> subprocess.CompletedProcess:
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    # the scripts import the package from src/ whether or not it is installed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | dict(env)
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
    # the second run's BLAS has two threads: no output may depend on their number
    digests = []
    for name, threads in (("a", "1"), ("b", "2")):
        out = str(tmp_path / name)
        _run_script("run_experiment.py", "pipeline", "--out", out, "--config", cfg_path,
                    "--n-train", "8", "--n-test", "4", "--gallery-k", "1",
                    env={"OPENBLAS_NUM_THREADS": threads})
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
    done = _run_script("digest_run.py", str(tmp_path / "a"), str(tmp_path / "b"))
    assert done.stdout == ""


def test_digest_run_compares_two_directories(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "sub").mkdir(parents=True)
        (root / "x.txt").write_text("x\n")
        (root / "sub" / "y.bin").write_bytes(bytes(range(16)))
    assert _run_script("digest_run.py", str(a), str(b)).stdout == ""
    (b / "sub" / "y.bin").write_bytes(bytes(range(15)) + b"\xff")
    done = _run_script("digest_run.py", str(a), str(b), check=False)
    assert done.returncode == 1
    assert done.stdout == f"differs  {os.path.join('sub', 'y.bin')}\n"
    (a / "x.txt").unlink()
    (b / "z").write_text("")
    done = _run_script("digest_run.py", str(a), str(b), check=False)
    assert done.returncode == 1
    assert done.stdout.splitlines() == ["differs  " + os.path.join("sub", "y.bin"),
                                        "only in B  x.txt", "only in B  z"]


def test_digest_run_exits_quietly_when_its_reader_closes_early(tmp_path):
    # ~260 KB of digest lines, far past a pipe's buffer, so the script is
    # still writing when the reader stops after the first line, as ``| head -1``
    for n in range(2000):
        (tmp_path / f"{n:04d}_{'x' * 60}").write_text(str(n))
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "digest_run.py")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with subprocess.Popen([sys.executable, script, str(tmp_path)], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env) as proc:
        assert proc.stdout.readline().endswith(f"  0000_{'x' * 60}\n")
        proc.stdout.close()
        assert proc.communicate(timeout=60)[1] == ""
    assert proc.returncode == 0


def test_digest_run_says_by_how_much_numbers_differ(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    values = np.arange(1.0, 7.0).reshape(2, 3)
    for root in (a, b):
        root.mkdir()
        tensor.save_tensor(str(root / "w.pdt"), values)
        tensor.save_tensor(str(root / "shape.pdt"), values)
        tensor.write_csv(str(root / "h.csv"), ["epoch", "loss", "note"],
                         [[1, 0.5, "x"], [2, 0.25, "y"]])
        (root / "notes.txt").write_text("same\n")
    compare = ("digest_run.py", str(a), str(b))
    assert _run_script(*compare).stdout == ""

    # one ulp on element [1, 2], a CSV cell, a shape and a text file
    moved = values.copy()
    moved[1, 2] = np.nextafter(6.0, 7.0)
    tensor.save_tensor(str(b / "w.pdt"), moved)
    tensor.save_tensor(str(b / "shape.pdt"), values.T)
    tensor.write_csv(str(b / "h.csv"), ["epoch", "loss", "note"],
                     [[1, 0.5, "x"], [2, 0.3, "y"]])
    (b / "notes.txt").write_text("other\n")
    done = _run_script(*compare, check=False)
    assert done.returncode == 1
    ulp = np.spacing(6.0)
    assert done.stdout.splitlines() == [
        "differs  h.csv  max abs 5.000e-02 at row 2 column loss  "
        "max rel 1.667e-01 at row 2 column loss",
        "differs  notes.txt",
        "differs  shape.pdt  shape (2, 3) vs (3, 2)",
        f"differs  w.pdt  max abs {ulp:.3e} at [1, 2]  "
        f"max rel {ulp / np.nextafter(6.0, 7.0):.3e} at [1, 2]",
    ]
    # a cell that is not a number is named with both values
    tensor.write_csv(str(b / "h.csv"), ["epoch", "loss", "note"],
                     [[1, 0.5, "x"], [2, 0.3, "z"]])
    assert ("differs  h.csv  row 2 column note: 'y' vs 'z'"
            in _run_script(*compare, check=False).stdout.splitlines())


def test_bench_table_prints_medians_ratios_and_pairs_won(tmp_path):
    def run(side, seed, main_per_s, call_ms, extra=None):
        metrics = {"main_per_s": {"value": main_per_s, "unit": "1/s"},
                   "call_ms_p50": {"value": call_ms, "unit": "ms"}, **(extra or {})}
        return {"side": side, "workload": "train", "seed": seed, "batch": "A",
                "result": {"metrics": metrics}}

    # two pairs, and a change run whose parent is missing: it counts in the
    # change median but in no pair; "probe" is not in BENCHMARK.json. The
    # one traced pair is read like the runs, and one parent run has no spread
    runs = [run("parent", 1, 100.0, 30.0), run("change", 1, 120.0, 28.0),
            run("change", 2, 105.0, 29.0, {"probe": {"value": 2.0, "unit": "s"}}),
            run("parent", 2, 110.0, 32.0), run("change", 3, 90.0, 40.0)]
    traced = [{"side": side, "workload": "train", "seed": 21, "trace": 1,
               "result": {"metrics": {"tensor.log.fwd_s": {"value": v, "unit": "s"}}}}
              for side, v in (("parent", 0.5), ("change", 0.4))]
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps({"runs": runs, "traced": traced}))
    lines = _run_script("bench_table.py", str(path)).stdout.splitlines()
    assert lines[0] == str(path)
    assert lines[1].split() == ["workload", "metric", "parent", "n", "change", "n",
                                "ratio", "won", "iqr/med"]
    # parent main_per_s 100 and 110: quartiles 102.5 and 107.5 over median 105
    assert [line.split() for line in lines[2:]] == [
        ["train", "call_ms_p50", "31.0000", "2", "29.0000", "3", "0.935", "2/2", "0.032"],
        ["train", "main_per_s", "105.0000", "2", "105.0000", "3", "1.000", "1/2", "0.048"],
        ["train", "probe", "-", "0", "2.0000", "1", "-", "-", "-"],
        ["train", "tensor.log.fwd_s", "0.5000", "1", "0.4000", "1", "0.800", "-", "-"],
    ]
    done = _run_script("bench_table.py", str(tmp_path / "none.json"), check=False)
    assert done.returncode == 1 and "none.json" in done.stderr
