"""Run configuration: one merged view of scene, model, and training knobs.

Configs load from a flat dotted-key text file (``loss.lambda3 = 100``) and
can be overridden per key on the command line. The fully resolved config is
echoed into every run directory before any work starts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace

from . import __version__
from .datagen import SceneConfig
from .losses import LossConfig
from .model import ModelConfig
from .tensor import parse_key_values, parse_value, read_text, write_key_values
from .training import TrainConfig

RESOLVED_CONFIG_NAME = "config_resolved.txt"


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: data generation, model dims, training. Each
    section checks its own bounds when built, so a RunConfig is valid."""

    scene: SceneConfig = field(default_factory=SceneConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)


# -- parsing -------------------------------------------------------------------


def _section_fields(obj) -> dict[str, object]:
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name != "loss"}


def apply_values(config: RunConfig, values: dict[str, str]) -> RunConfig:
    """A new RunConfig with every dotted key applied, in order. Keys live
    under the scene., model., train., and loss. namespaces. The first key
    whose value its section rejects raises ValueError naming that key."""
    sections = {"scene": config.scene, "model": config.model,
                "train": config.train, "loss": config.train.loss}
    for key, raw in values.items():
        if "." not in key:
            raise ValueError(f"unknown config key {key!r} (expected section.field)")
        section, name = key.split(".", 1)
        if section not in sections:
            raise ValueError(f"unknown config section {section!r} in key {key!r}")
        current = _section_fields(sections[section])
        if name not in current:
            raise ValueError(f"unknown config key {key!r}")
        try:
            value = parse_value(raw, current[name])
        except ValueError as exc:
            raise ValueError(f"{key}: cannot parse {raw!r}: {exc}") from None
        sections[section] = replace(sections[section], **{name: value})
    return RunConfig(sections["scene"], sections["model"],
                     replace(sections["train"], loss=sections["loss"]))


def build_run_config(config_path: str | None = None,
                     overrides=()) -> RunConfig:
    """Defaults, then the config file, then ``key=value`` override strings."""
    values: dict[str, str] = {}
    if config_path:
        values.update(parse_key_values(read_text(config_path).splitlines(), config_path))
    for item in overrides:
        values.update(parse_key_values(item.splitlines(), "<override>"))
    return apply_values(RunConfig(), values)


# -- echoing -------------------------------------------------------------------


def _resolved_fields(config: RunConfig) -> list[tuple[str, object]]:
    return [(f"{section}.{name}", value)
            for section, obj in (("scene", config.scene), ("model", config.model),
                                 ("train", config.train), ("loss", config.train.loss))
            for name, value in _section_fields(obj).items()]


def write_resolved_config(config: RunConfig, out_dir: str,
                          extra: dict[str, object] | None = None) -> str:
    """Echo the fully resolved config (plus version and seed) into
    ``out_dir`` and return the file path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, RESOLVED_CONFIG_NAME)
    write_key_values(path, [("version", f"protodensity-{__version__}"),
                            ("seed", config.train.seed),
                            *sorted((extra or {}).items()),
                            *_resolved_fields(config)])
    return path
