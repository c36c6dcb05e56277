"""Data generator tests: deterministic rendering, sum-preserving density
maps, dataset round trips, and manifest integrity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protodensity.datagen import (DotAnnotation, SceneConfig, generate_dataset,
                                  load_dataset, load_sample, make_density_map,
                                  manifest_hash, parse_manifest, render_scene,
                                  save_sample, validate_config, write_pgm)

SMALL = SceneConfig(image_size=(32, 32), cell_count_range=(3, 12), seed=7)


# -- config validation ---------------------------------------------------------


def test_validate_accepts_default():
    validate_config(SceneConfig())


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
        validate_config(replace(SceneConfig(), **bad))


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


@given(st.lists(st.tuples(st.floats(0, 31.999), st.floats(0, 31.999)),
                max_size=12))
@settings(max_examples=40)
def test_density_mass_property(points):
    density = make_density_map(DotAnnotation(points), (32, 32))
    assert abs(float(density.sum()) - len(points)) <= 1e-7
    assert np.all(density >= 0.0)


# -- sample and dataset round trips --------------------------------------------


def test_sample_roundtrip_bit_identical(tmp_path):
    img, ann = render_scene(SMALL, 2)
    density = make_density_map(ann, SMALL.image_size)
    from protodensity.datagen import Sample
    sample = Sample(img, ann, density, sample_id=2)
    save_sample(str(tmp_path), sample)
    back = load_sample(str(tmp_path), 2)
    np.testing.assert_array_equal(back.image, img)
    np.testing.assert_array_equal(back.density_gt, density)
    assert back.annotation.points == ann.points
    assert back.sample_id == 2


def test_generate_and_load_dataset(tmp_path):
    manifest = generate_dataset(SMALL, 5, 3, str(tmp_path))
    dataset = load_dataset(str(tmp_path))
    assert len(dataset.train) == 5 and len(dataset.test) == 3
    assert dataset.manifest_path == manifest
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
    manifest = generate_dataset(SMALL, 2, 1, str(tmp_path))
    config, downsample, sigma, n_train, n_test, rows = parse_manifest(manifest)
    assert config == SMALL
    assert (downsample, sigma, n_train, n_test) == (8, 1.0, 2, 1)
    assert len(rows) == 3


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
