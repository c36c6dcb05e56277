"""Config parsing, coercion, precedence, and the resolved-config echo."""

import ast
import re
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest

import protodensity
from protodensity import __version__
from protodensity.cli import main
from protodensity.config import (RESOLVED_CONFIG_NAME, RunConfig, build_run_config,
                                 write_resolved_config)
from protodensity.datagen import SceneConfig
from protodensity.losses import LossConfig
from protodensity.model import ModelConfig
from protodensity.tensor import parse_key_values
from protodensity.training import TrainConfig


def test_parse_skips_comments_and_blanks():
    text = """
    # a comment
    scene.seed = 3   # trailing comment

    loss.lambda3 = 10
    """
    assert parse_key_values(text.splitlines(), "<config>") == \
        {"scene.seed": "3", "loss.lambda3": "10"}


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError, match=r"<config>:1"):
        parse_key_values(["no equals sign"], "<config>")
    with pytest.raises(ValueError, match="empty key"):
        parse_key_values(["= 3"], "<config>")


def test_load_config_file_missing(tmp_path):
    with pytest.raises(FileNotFoundError, match="nope.txt"):
        build_run_config(str(tmp_path / "nope.txt"))


def test_defaults_without_file():
    assert build_run_config() == RunConfig()


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("train.learning_rate = 0.5\ntrain.batch_size = 4\n")
    config = build_run_config(str(path), ["train.learning_rate=0.25"])
    assert config.train.learning_rate == 0.25
    assert config.train.batch_size == 4


def test_digest_protocols_tiny_config_loads():
    # scripts/tiny.cfg is the config every byte-identity check runs with
    path = Path(__file__).parent.parent / "scripts" / "tiny.cfg"
    config = build_run_config(str(path))
    assert config.scene.image_size == (32, 32)
    assert (config.train.max_epochs, config.train.projection_interval,
            config.train.calibration_epochs, config.train.pretrain_epochs,
            config.train.batch_size) == (4, 2, 1, 2, 8)
    assert config.model == ModelConfig()


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
    ("scene.min_separation = nan", "scene.min_separation"),  # a removed field
    ("model.d = not_a_number", "model.d"),
    ("scene.image_size = 64", "image_size"),  # needs both dims
    ("loss.tau_cell = maybe", "loss.tau_cell"),
    # NaN fails the one-sided range checks too
    ("model.epsilon = nan", "epsilon"),
    ("loss.lambda2 = nan", "lambda2"),
    ("train.learning_rate = nan", "learning_rate"),
    ("train.pretrain_learning_rate = nan", "pretrain_learning_rate"),
    ("scene.noise_std = nan", "noise_std"),
    ("scene.cell_radius_range = nan, 5", "cell_radius_range"),
    # values that passed before every numeric field carried a bound
    ("train.beta1 = 1.5", "train.beta1"),
    ("train.beta2 = nan", "train.beta2"),
    ("train.adam_epsilon = 0", "train.adam_epsilon"),
    ("train.weight_decay = nan", "train.weight_decay"),
    ("train.min_delta = -1", "train.min_delta"),
    ("train.convergence_patience = -5", "train.convergence_patience"),
    ("train.learning_rate = inf", "train.learning_rate"),
    ("scene.cell_count_range = -3,2", "scene.cell_count_range"),
    ("scene.cell_radius_range = 0,0", "scene.cell_radius_range"),
    ("scene.noise_std = inf", "scene.noise_std"),
    ("scene.image_size = -8,8", "scene.image_size"),
])
def test_bad_keys_and_values_name_the_culprit(override, fragment):
    with pytest.raises(ValueError, match=fragment):
        build_run_config(None, [override])


def test_first_bad_key_in_input_order_is_named():
    with pytest.raises(ValueError, match=r"^train\.beta1 "):
        build_run_config(None, ["train.beta1 = 2", "model.d = 0"])


def test_validation_failures_become_config_errors():
    with pytest.raises(ValueError, match="d"):
        build_run_config(None, ["model.d = 0"])
    with pytest.raises(ValueError):
        build_run_config(None, ["scene.image_size = 30,30"])
    with pytest.raises(ValueError, match="learning_rate"):
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


# -- bounds: every numeric field is range-checked --------------------------------


_SECTIONS = {"scene": SceneConfig(), "model": ModelConfig(),
             "train": TrainConfig(), "loss": LossConfig()}


def _numeric_fields():
    """(section, field, default) of every int, float or numeric-tuple field
    of the four config dataclasses."""
    for section, config in _SECTIONS.items():
        for f in fields(config):
            default = getattr(config, f.name)
            ends = default if isinstance(default, tuple) else (default,)
            if all(isinstance(v, (int, float)) for v in ends):
                yield section, f, default


def _bad_values():
    """For each numeric field, NaN and a value just below its bound's low
    end, in place of the default's (first) end. A field without a bound gets
    the NaN row only; the test above names it."""
    for section, f, default in _numeric_fields():
        values = ["nan"]
        if "bound" in f.metadata:
            kind = type(default[0] if isinstance(default, tuple) else default)
            bound = f.metadata["bound"]
            lo = float(bound[1:-1].split(",")[0])
            values.append(kind(lo if bound[0] == "(" else lo - 1))
        for value in values:
            if isinstance(default, tuple):
                value = ",".join(map(str, (value, *default[1:])))
            yield f"{section}.{f.name}", str(value)


def test_every_numeric_field_is_bounded_and_every_default_passes():
    numeric = {f"{section}.{f.name}": f for section, f, _ in _numeric_fields()}
    assert "train.beta2" in numeric and "scene.image_size" in numeric
    assert "scene.artifact_kinds" not in numeric and "train.loss" not in numeric
    assert [key for key, f in numeric.items() if "bound" not in f.metadata] == []
    RunConfig()


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


@pytest.mark.parametrize("key, raw", list(_bad_values()))
def test_out_of_bound_config_cannot_be_built(key, raw):
    section, name = key.split(".")
    default = _SECTIONS[section]
    value = (tuple(map(_number, raw.split(","))) if isinstance(getattr(default, name), tuple)
             else _number(raw))
    with pytest.raises(ValueError, match=re.escape(key)):
        replace(default, **{name: value})


@pytest.mark.parametrize("config", [*_SECTIONS.values(), RunConfig()],
                         ids=[*_SECTIONS, "run"])
def test_configs_are_frozen(config):
    name = fields(config)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(config, name, getattr(config, name))


@pytest.mark.parametrize("key, raw", list(_bad_values()))
def test_out_of_bound_value_exits_before_writing(tmp_path, capsys, key, raw):
    out = tmp_path / "data"
    assert main(["gen-data", "--set", f"{key}={raw}", "--out", str(out),
                 "--n-train", "1", "--n-test", "1"]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


# the dotted lines of the default echo: names, order, defaults and formatting
_DEFAULT_ECHO = [
    "scene.image_size = 128,128",
    "scene.cell_count_range = 5,80",
    "scene.cell_radius_range = 2.0,5.0",
    "scene.cell_intensity_range = 0.4,1.0",
    "scene.artifact_count_range = 2,6",
    "scene.artifact_kinds = blob,streak,gradient",
    "scene.noise_std = 0.03",
    "scene.seed = 0",
    "model.k_cell = 4",
    "model.k_bg = 4",
    "model.d = 64",
    "model.epsilon = 0.0001",
    "train.learning_rate = 0.01",
    "train.beta1 = 0.95",
    "train.beta2 = 0.999",
    "train.adam_epsilon = 1e-08",
    "train.weight_decay = 0.0005",
    "train.batch_size = 32",
    "train.max_epochs = 500",
    "train.projection_interval = 100",
    "train.convergence_patience = 50",
    "train.min_delta = 0.01",
    "train.val_fraction = 0.2",
    "train.calibration_epochs = 30",
    "train.pretrain_epochs = 30",
    "train.pretrain_learning_rate = 0.001",
    "train.pretrain_batch_size = 16",
    "train.seed = 0",
    "loss.lambda1 = 1.0",
    "loss.lambda2 = 1.0",
    "loss.lambda3 = 100.0",
    "loss.tau_cell = 0.8",
    "loss.tau_bg = 0.8",
]


def test_default_echo_is_pinned(tmp_path):
    with open(write_resolved_config(RunConfig(), str(tmp_path))) as f:
        lines = [line for line in f.read().splitlines() if "." in line.split(" = ")[0]]
    assert lines == _DEFAULT_ECHO


def test_removed_key_exits_before_writing(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen-data", "--set", "scene.min_separation=2", "--out", str(out),
                 "--n-train", "1", "--n-test", "1"]) == 1
    assert "unknown config key 'scene.min_separation'" in capsys.readouterr().err
    assert not out.exists()


def test_package_never_touches_the_process_environment():
    # settings enter through argv and config files only; BLAS threads are the
    # caller's to set (OPENBLAS_NUM_THREADS=1 protodensity ...)
    banned = {"environ", "getenv", "putenv"}
    found = []
    for path in sorted(Path(protodensity.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name in banned]
    assert not found


def test_package_imports_only_at_module_level():
    # each module imports what it calls once, as a top-level statement, so a
    # missing or circular import fails on `import protodensity.cli`, not mid-run
    found = []
    for path in sorted(Path(protodensity.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and node not in tree.body]
    assert not found
