"""Fuzz tests over every reader of a file the package wrote: dataset
manifests and samples (points table and image tensor), checkpoints (manifest,
provenance table and tensors), extractor directories and config files.
Whatever the bytes, a loader either returns or raises ValueError or
FileNotFoundError whose message names the damaged path, so the command line
ends with exit code 1 and the culprit named."""

import os
import re
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import TINY_SCENE
from protodensity.config import RunConfig, write_resolved_config
from protodensity.datagen import generate_dataset, load_dataset
from protodensity.model import (CountModel, FeatureExtractor, ModelConfig,
                                PrototypeProvenance, load_checkpoint,
                                load_extractor, save_checkpoint, save_extractor)
from protodensity.tensor import parse_key_values, read_text

_text = st.text(max_size=40)
# one edit of a file's lines: drop one, replace one, insert one, or replace
# one line's value with an integer (a huge prototype count or depth must be
# rejected before the model allocates for it)
_line_edit = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 200)),
    st.tuples(st.just("replace"), st.integers(0, 200), _text),
    st.tuples(st.just("insert"), st.integers(0, 200), _text),
    st.tuples(st.just("value"), st.integers(0, 200),
              st.integers(-2 ** 70, 2 ** 70).map(str)),
)
# a damage to a file: arbitrary bytes, overwritten bytes, a cut, line edits
_damage = st.one_of(
    st.tuples(st.just("bytes"), st.binary(max_size=300)),
    st.tuples(st.just("poke"), st.integers(0, 10 ** 6), st.binary(min_size=1, max_size=4)),
    st.tuples(st.just("cut"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("lines"), st.lists(_line_edit, min_size=1, max_size=4)),
)


def _damaged(blob: bytes, damage) -> bytes:
    kind = damage[0]
    if kind == "bytes":
        return damage[1]
    if kind == "poke":
        at = damage[1] % (len(blob) + 1)
        return blob[:at] + damage[2] + blob[at + len(damage[2]):]
    if kind == "cut":
        return blob[:damage[1] % (len(blob) + 1)]
    lines = blob.decode("latin-1").splitlines()
    for edit in damage[1]:
        i = edit[1] % (len(lines) + 1)
        if edit[0] == "drop":
            del lines[i:i + 1]
        elif edit[0] == "replace":
            lines[i:i + 1] = [edit[2]]
        elif edit[0] == "insert":
            lines.insert(i, edit[2])
        elif i < len(lines):
            key = lines[i].partition("=")[0].partition(",")[0]
            lines[i] = f"{key} = {edit[2]}" if "=" in lines[i] else f"{key},{edit[2]}"
    return "\n".join(lines).encode() + b"\n"


def _expect_clean_failure(load, path, culprit: str) -> None:
    try:
        load(path)
    except (ValueError, FileNotFoundError) as exc:
        assert culprit in str(exc), f"{type(exc).__name__} does not name {culprit}: {exc}"


def _fuzz_copy(src_dir: str, name: str, damage, load, name_file: bool = False) -> None:
    """Copy ``src_dir``, damage its file ``name`` and load the copy; a failure
    must name the copy, or with ``name_file`` the damaged file itself."""
    with tempfile.TemporaryDirectory() as tmp:
        work = os.path.join(tmp, "copy")
        shutil.copytree(src_dir, work)
        path = os.path.join(work, name)
        with open(path, "rb") as f:
            blob = f.read()
        with open(path, "wb") as f:
            f.write(_damaged(blob, damage))
        _expect_clean_failure(load, work, path if name_file else work)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_sources")
    generate_dataset(TINY_SCENE, 2, 1, str(root / "data"))
    extractor = FeatureExtractor(np.random.default_rng(0))
    extractor.freeze()
    save_extractor(extractor, str(root / "extractor"))
    model = CountModel(ModelConfig(k_cell=2, k_bg=2, d=4), extractor, seed=0)
    model.provenance[1] = PrototypeProvenance(1, 0, 2, 3, 0.25)
    save_checkpoint(model, str(root / "ckpt"))
    # the resolved config's dotted lines, without its version and seed header
    with open(write_resolved_config(RunConfig(), str(root))) as f:
        (root / "run.cfg").write_text(
            "".join(line for line in f if "." in line.split(" = ")[0]))
    return root


@given(damage=_damage)
def test_load_dataset_manifest_fails_cleanly(saved, damage):
    _fuzz_copy(str(saved / "data"), "manifest.txt", damage, load_dataset)


@given(row=st.integers(0, 2), column=st.sampled_from([1, 3, 4, 5]),
       value=st.text(st.characters(blacklist_characters=","), max_size=40))
def test_load_dataset_rejects_edited_split_or_path(saved, row, column, value):
    # any other split than the recorded one, and any other sample path than
    # samples/sample_<id>_*, fails naming the manifest
    with tempfile.TemporaryDirectory() as tmp:
        work = os.path.join(tmp, "copy")
        shutil.copytree(str(saved / "data"), work)
        manifest = os.path.join(work, "manifest.txt")
        with open(manifest) as f:
            lines = f.read().splitlines()
        at = lines.index("id,split,count,image,annotation,density") + 1 + row
        cells = lines[at].split(",")
        assume(value.strip() != cells[column])
        cells[column] = value
        lines[at] = ",".join(cells)
        with open(manifest, "w", errors="surrogatepass") as f:
            f.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(manifest)):
            load_dataset(work)


@given(name=st.sampled_from(["samples/sample_00001_points.csv",
                             "samples/sample_00001_image.pdt"]),
       damage=_damage)
def test_load_dataset_sample_fails_cleanly(saved, name, damage):
    _fuzz_copy(str(saved / "data"), name, damage, load_dataset, name_file=True)


@given(name=st.sampled_from(["checkpoint.txt", "provenance.csv", "prototypes.pdt",
                             "extractor.block1.weight.pdt"]),
       damage=_damage)
def test_load_checkpoint_fails_cleanly(saved, name, damage):
    _fuzz_copy(str(saved / "ckpt"), name, damage, load_checkpoint)


@given(name=st.sampled_from(["extractor.txt", "extractor.block0.bias.pdt"]),
       damage=_damage)
def test_load_extractor_fails_cleanly(saved, name, damage):
    _fuzz_copy(str(saved / "extractor"), name, damage, load_extractor)


@given(damage=_damage)
def test_load_config_file_fails_cleanly(saved, damage):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "wb") as f:
            f.write(_damaged((saved / "run.cfg").read_bytes(), damage))
        _expect_clean_failure(lambda p: parse_key_values(read_text(p).splitlines(), p),
                              path, path)


@given(text=st.text(max_size=200))
def test_parse_config_text_fails_cleanly(text):
    _expect_clean_failure(lambda t: parse_key_values(t.splitlines(), "fuzz.cfg"), text,
                          "fuzz.cfg")


def test_missing_files_are_named(saved, tmp_path):
    for n, name in enumerate(["head.theta.pdt", "provenance.csv"]):
        ckpt = tmp_path / f"ckpt{n}"
        shutil.copytree(saved / "ckpt", ckpt)
        os.remove(ckpt / name)
        with pytest.raises(FileNotFoundError, match=re.escape(str(ckpt / name))):
            load_checkpoint(str(ckpt))
    with pytest.raises(FileNotFoundError, match="manifest.txt"):
        load_dataset(str(tmp_path))
