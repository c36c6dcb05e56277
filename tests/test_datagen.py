"""Data generator tests: deterministic rendering, sum-preserving density
maps, dataset round trips, and manifest integrity."""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protodensity.datagen import (SIGMA, DotAnnotation, SceneConfig, generate_dataset,
                                  load_dataset, make_density_map, manifest_hash,
                                  render_scene, write_pgm)
from protodensity.model import DOWNSAMPLE

SMALL = SceneConfig(image_size=(32, 32), cell_count_range=(3, 12), seed=7)


# -- config validation ---------------------------------------------------------


def test_validate_accepts_default():
    SceneConfig()


@pytest.mark.parametrize("bad", [
    dict(image_size=(100, 128)),
    dict(cell_count_range=(10, 5)),
    dict(cell_intensity_range=(0.0, 1.0)),
    dict(cell_intensity_range=(0.5, 1.5)),
    dict(artifact_kinds=("blob", "vignette")),
    dict(noise_std=-0.1),
])
def test_validate_rejects(bad):
    from dataclasses import replace
    with pytest.raises(ValueError):
        replace(SceneConfig(), **bad)


# -- scene rendering -----------------------------------------------------------


def test_render_is_deterministic():
    img1, ann1 = render_scene(SMALL, 3)
    img2, ann2 = render_scene(SMALL, 3)
    np.testing.assert_array_equal(img1, img2)
    assert ann1.points == ann2.points


def test_render_differs_across_indices():
    img1, _ = render_scene(SMALL, 0)
    img2, _ = render_scene(SMALL, 1)
    assert not np.array_equal(img1, img2)


def test_render_output_contract():
    img, ann = render_scene(SMALL, 0)
    assert img.shape == (1, 32, 32) and img.dtype == np.float64
    assert img.min() >= 0.0 and img.max() <= 1.0
    lo, hi = SMALL.cell_count_range
    assert lo <= len(ann) <= hi
    for x, y in ann.points:
        assert 0.0 <= x < 32 and 0.0 <= y < 32


# -- density maps --------------------------------------------------------------


def test_density_sums_to_count_500_random():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(0, 40))
        pts = [(float(rng.uniform(0, 64)), float(rng.uniform(0, 64))) for _ in range(n)]
        density = make_density_map(DotAnnotation(pts), (64, 64))
        worst = max(worst, abs(float(density.sum()) - n))
    assert worst <= 1e-7, f"mass error {worst:.2e}"


def test_density_shape_and_nonnegative():
    density = make_density_map(DotAnnotation([(5.0, 9.0)]), (64, 48))
    assert density.shape == (8, 6)
    assert np.all(density >= 0.0)


def test_density_empty_annotation_is_zero():
    density = make_density_map(DotAnnotation([]), (32, 32))
    np.testing.assert_array_equal(density, np.zeros((4, 4)))


def test_density_peak_tracks_point():
    density = make_density_map(DotAnnotation([(40.0, 8.0)]), (64, 64))
    assert np.unravel_index(np.argmax(density), density.shape) == (1, 5)


def test_density_out_of_bounds_names_point():
    with pytest.raises(ValueError, match=r"70"):
        make_density_map(DotAnnotation([(70.0, 2.0)]), (64, 64))
    with pytest.raises(ValueError):
        make_density_map(DotAnnotation([(2.0, -1.0)]), (64, 64))
    with pytest.raises(ValueError, match=r"point \(2\.0, -1\.0\) outside"):
        make_density_map(DotAnnotation([(3.0, 4.0), (2.0, -1.0), (70.0, 2.0)]), (64, 64))


def density_map_per_point(points, input_size):
    """The map as a loop over points: each kernel summed alone, then added
    into the map in point order."""
    hf, wf = input_size[0] // DOWNSAMPLE, input_size[1] // DOWNSAMPLE
    out = np.zeros((hf, wf))
    cols = np.arange(wf, dtype=np.float64)[None, :]
    rows = np.arange(hf, dtype=np.float64)[:, None]
    for x, y in points:
        cx, cy = x / DOWNSAMPLE, y / DOWNSAMPLE
        kernel = np.exp(-((cols - cx) ** 2 + (rows - cy) ** 2) / (2.0 * SIGMA * SIGMA))
        out += kernel / kernel.sum()
    return out


@pytest.mark.parametrize("size", [(32, 32), (64, 48), (128, 128)])
def test_density_equals_per_point_loop_bitwise(size):
    # the one broadcast over all points gives the loop's bits, edge points
    # (where the kernel is most truncated) included
    rng = np.random.default_rng(size[1])
    h, w = size
    edges = [(0.0, 0.0), (np.nextafter(w, 0), np.nextafter(h, 0)), (0.0, h - 1e-9)]
    for n in (0, 1, 7, 40):
        points = edges + [(float(rng.uniform(0, w)), float(rng.uniform(0, h)))
                          for _ in range(n)]
        density = make_density_map(DotAnnotation(points), size)
        expected = density_map_per_point(points, size)
        assert density.tobytes() == expected.tobytes()


@given(st.lists(st.tuples(st.floats(0, 31.999), st.floats(0, 31.999)),
                max_size=12))
@settings(max_examples=40)
def test_density_mass_property(points):
    density = make_density_map(DotAnnotation(points), (32, 32))
    assert abs(float(density.sum()) - len(points)) <= 1e-7
    assert np.all(density >= 0.0)


# -- sample and dataset round trips --------------------------------------------


def test_sample_roundtrip_bit_identical(tmp_path):
    generate_dataset(SMALL, 2, 1, str(tmp_path))
    back = load_dataset(str(tmp_path)).test[0]
    img, ann = render_scene(SMALL, 2)
    np.testing.assert_array_equal(back.image, img)
    np.testing.assert_array_equal(back.density_gt, make_density_map(ann, SMALL.image_size))
    assert back.annotation.points == ann.points
    assert back.sample_id == 2


def test_generate_and_load_dataset(tmp_path):
    manifest = generate_dataset(SMALL, 5, 3, str(tmp_path))
    dataset = load_dataset(str(tmp_path))
    assert len(dataset.train) == 5 and len(dataset.test) == 3
    assert dataset.manifest_hash == manifest_hash(manifest)
    for sample in dataset.all_samples:
        assert abs(float(sample.density_gt.sum()) - len(sample.annotation)) <= 1e-7
    ids = [s.sample_id for s in dataset.all_samples]
    assert ids == list(range(8))


def test_dataset_regenerates_identically(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_dataset(SMALL, 4, 2, str(a))
    generate_dataset(SMALL, 4, 2, str(b))
    assert manifest_hash(str(a / "manifest.txt")) == manifest_hash(str(b / "manifest.txt"))
    da, db = load_dataset(str(a)), load_dataset(str(b))
    for sa, sb in zip(da.all_samples, db.all_samples):
        np.testing.assert_array_equal(sa.image, sb.image)
        np.testing.assert_array_equal(sa.density_gt, sb.density_gt)


def test_manifest_config_roundtrip(tmp_path):
    generate_dataset(SMALL, 2, 1, str(tmp_path))
    dataset = load_dataset(str(tmp_path))
    assert dataset.config == SMALL
    assert (len(dataset.train), len(dataset.test)) == (2, 1)


def test_manifest_with_a_removed_scene_field_still_loads(tmp_path):
    # older manifests record config.min_separation; its one value, 0.0, drew
    # the cells exactly as render_scene draws them now
    generate_dataset(SMALL, 2, 1, str(tmp_path / "new"))
    manifest = tmp_path / "new" / "manifest.txt"
    text = manifest.read_text()
    assert "\nconfig.seed = " in text and "min_separation" not in text
    old = tmp_path / "old"
    shutil.copytree(tmp_path / "new", old)
    (old / "manifest.txt").write_text(text.replace(
        "\nconfig.seed = ", "\nconfig.min_separation = 0.0\nconfig.seed = "))
    a, b = load_dataset(str(tmp_path / "new")), load_dataset(str(old))
    assert a.config == b.config == SMALL
    for sa, sb in zip(a.all_samples, b.all_samples, strict=True):
        np.testing.assert_array_equal(sa.image, sb.image)
        assert sa.annotation.points == sb.annotation.points


def test_load_rejects_count_mismatch(tmp_path):
    generate_dataset(SMALL, 2, 1, str(tmp_path))
    manifest = tmp_path / "manifest.txt"
    text = manifest.read_text()
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("0,train,"):
            parts = line.split(",")
            parts[2] = str(int(parts[2]) + 1)
            lines[i] = ",".join(parts)
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="count"):
        load_dataset(str(tmp_path))


def test_manifest_rejects_repeated_sample_id(tmp_path):
    # sample 0's row in place of sample 1's: loading it would train on
    # sample 0 twice and never on sample 1
    manifest = generate_dataset(SMALL, 2, 1, str(tmp_path))
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("0,train,"))
    assert lines[first + 1].startswith("1,train,")
    lines[first + 1] = lines[first]
    (tmp_path / "manifest.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="sample id 0 is listed twice") as info:
        load_dataset(str(tmp_path))
    assert str(info.value).startswith(f"{manifest}:{first + 2}: ")


def test_load_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(str(tmp_path / "nope"))


# -- PGM export ----------------------------------------------------------------


def test_write_pgm_format(tmp_path):
    arr = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    path = tmp_path / "img.pgm"
    write_pgm(str(path), arr)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n4 3\n255\n")
    payload = blob[len(b"P5\n4 3\n255\n"):]
    assert len(payload) == 12
    assert payload[0] == 0 and payload[-1] == 255
    assert (tmp_path / "img.pgm.scale.txt").exists()


def test_write_pgm_constant_array(tmp_path):
    path = tmp_path / "flat.pgm"
    write_pgm(str(path), np.full((2, 2), 0.7))
    payload = path.read_bytes().split(b"255\n", 1)[1]
    assert payload == bytes(4)


def test_write_pgm_rejects_non_2d(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(str(tmp_path / "x.pgm"), np.zeros((1, 2, 2)))
