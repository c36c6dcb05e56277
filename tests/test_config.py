"""Config parsing, coercion, precedence, and the resolved-config echo."""

import pytest

from protodensity import __version__
from protodensity.config import (RESOLVED_CONFIG_NAME, ConfigError, RunConfig,
                                 build_run_config, load_config_file,
                                 parse_config_text, write_resolved_config)


def test_parse_skips_comments_and_blanks():
    text = """
    # a comment
    scene.seed = 3   # trailing comment

    loss.lambda3 = 10
    """
    assert parse_config_text(text) == {"scene.seed": "3", "loss.lambda3": "10"}


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError, match=r"<config>:1"):
        parse_config_text("no equals sign")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("= 3")


def test_load_config_file_missing(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config_file(str(tmp_path / "nope.txt"))


def test_defaults_without_file():
    assert build_run_config() == RunConfig()


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("train.learning_rate = 0.5\ntrain.batch_size = 4\n")
    config = build_run_config(str(path), ["train.learning_rate=0.25"])
    assert config.train.learning_rate == 0.25
    assert config.train.batch_size == 4


def test_coercion_by_field_type():
    config = build_run_config(None, [
        "scene.image_size = (48, 64)",
        "scene.cell_count_range = 3,12",
        "model.d = 16",
        "train.val_fraction = 0.25",
        "scene.artifact_kinds = blob, streak",
    ])
    assert config.scene.image_size == (48, 64)
    assert config.scene.cell_count_range == (3, 12)
    assert config.model.d == 16
    assert config.train.val_fraction == 0.25
    assert config.scene.artifact_kinds == ("blob", "streak")


def test_loss_keys_land_inside_train():
    config = build_run_config(None, ["loss.lambda3 = 7"])
    assert config.train.loss.lambda3 == 7.0
    assert config.train.learning_rate == RunConfig().train.learning_rate


@pytest.mark.parametrize("override, fragment", [
    ("sectionless = 1", "sectionless"),
    ("nowhere.seed = 1", "nowhere"),
    ("train.bogus_field = 1", "bogus_field"),
    ("model.d = not_a_number", "model.d"),
    ("scene.image_size = 64", "image_size"),  # needs both dims
    ("loss.tau_cell = maybe", "loss.tau_cell"),
])
def test_bad_keys_and_values_name_the_culprit(override, fragment):
    with pytest.raises(ConfigError, match=fragment):
        build_run_config(None, [override])


def test_validation_failures_become_config_errors():
    with pytest.raises(ConfigError, match="d"):
        build_run_config(None, ["model.d = 0"])
    with pytest.raises(ConfigError):
        build_run_config(None, ["scene.image_size = 30,30"])
    with pytest.raises(ConfigError, match="learning_rate"):
        build_run_config(None, ["train.learning_rate = -1"])


def test_resolved_lines_cover_every_field(tmp_path):
    with open(write_resolved_config(RunConfig(), str(tmp_path))) as f:
        lines = [line for line in f.read().splitlines() if "." in line.split(" = ")[0]]
    assert "scene.seed = 0" in lines
    assert "model.k_cell = 4" in lines
    assert "loss.lambda3 = 100.0" in lines
    assert not any(line.startswith("train.loss") for line in lines)
    # dotted keys round-trip: feeding them back reproduces the same config
    config = build_run_config(None, lines)
    assert config == RunConfig()


def test_write_resolved_config(tmp_path):
    config = build_run_config(None, ["train.seed = 9"])
    path = write_resolved_config(config, str(tmp_path), {"command": "train",
                                                         "data": "x"})
    assert path.endswith(RESOLVED_CONFIG_NAME)
    with open(path) as f:
        lines = f.read().splitlines()
    assert lines[0] == f"version = protodensity-{__version__}"
    assert lines[1] == "seed = 9"
    assert lines[2] == "command = train"
    assert lines[3] == "data = x"
    assert "train.seed = 9" in lines
