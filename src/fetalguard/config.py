"""Experiment configuration: JSON file -> validated dataclasses.

The file has sections ``data``, ``preprocess``, ``split``, ``model.<name>``,
``eval``, and ``output``. Unknown keys anywhere are errors; messages carry the
key path and, where possible, the line in the file.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .autoencoder import AeModel
from .datasets import SplitConfig
from .errors import ConfigError
from .ganomaly import GanomalyModel
from .iforest import IsolationForestModel
from .preprocess import PreprocessConfig

# model name -> model class; the class holds the detector's config type, fit
# recipe, calibration parameter and artifact loader
DETECTORS = {cls.model_type: cls for cls in (IsolationForestModel, AeModel, GanomalyModel)}


def detector(name):
    """The model class registered under name; any other name is a ConfigError."""
    if isinstance(name, str) and name in DETECTORS:
        return DETECTORS[name]
    raise ConfigError(f"unknown model {name!r}; valid options: {', '.join(sorted(DETECTORS))}")


@dataclass
class SynthDataConfig:
    n_normal: int = 370
    n_abnormal: int = 182
    seed: int = 0


@dataclass
class DataConfig:
    signals_dir: str | None = None
    metadata_file: str | None = None
    synth: SynthDataConfig | None = None

    def __post_init__(self):
        real = self.signals_dir is not None or self.metadata_file is not None
        if real and (self.signals_dir is None or self.metadata_file is None):
            raise ConfigError("data: signals_dir and metadata_file must be given together")
        if real == (self.synth is not None):
            raise ConfigError(
                "data: configure exactly one of synth or signals_dir+metadata_file"
            )


@dataclass
class EvalConfig:
    seeds: int = 1

    def __post_init__(self):
        if self.seeds <= 0:
            raise ConfigError(f"eval.seeds must be positive, got {self.seeds}")


@dataclass
class OutputConfig:
    dir: str = "runs/experiment"


@dataclass
class ExperimentConfig:
    data: DataConfig
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    models: dict = field(default_factory=dict)  # name -> model config dataclass
    grids: dict = field(default_factory=dict)  # name -> {param: [values]}
    eval: EvalConfig = field(default_factory=EvalConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


def _key_line(raw_text: str | None, key: str) -> str:
    if raw_text:
        for i, line in enumerate(raw_text.splitlines(), start=1):
            if f'"{key}"' in line:
                return f" (line {i})"
    return ""


def _build_dataclass(cls, data: dict, path: str, raw_text: str | None):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    allowed = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in allowed:
            raise ConfigError(
                f"unknown key {path}.{key}{_key_line(raw_text, key)}; "
                f"valid keys: {', '.join(sorted(allowed))}"
            )
        default = allowed[key].default
        if isinstance(default, tuple) and isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _build_data_config(data: dict, raw_text: str | None) -> DataConfig:
    if not isinstance(data, dict):
        raise ConfigError("data: expected an object")
    data = dict(data)
    synth_body = data.pop("synth", None)
    allowed = {f.name for f in dataclasses.fields(DataConfig)} - {"synth"}
    for key in data:
        if key not in allowed:
            raise ConfigError(
                f"unknown key data.{key}{_key_line(raw_text, key)}; "
                f"valid keys: {', '.join(sorted(allowed | {'synth'}))}"
            )
    synth = (
        _build_dataclass(SynthDataConfig, synth_body, "data.synth", raw_text)
        if synth_body is not None
        else None
    )
    return DataConfig(synth=synth, **data)


def _build_models(section: dict, raw_text: str | None) -> tuple[dict, dict]:
    if not isinstance(section, dict):
        raise ConfigError("model: expected an object of model sections")
    if not section:
        raise ConfigError("model: at least one model section is required")
    models: dict = {}
    grids: dict = {}
    for name, body in section.items():
        cls = detector(name).config_type
        if not isinstance(body, dict):
            raise ConfigError(f"model.{name}: expected an object")
        body = dict(body)
        grid = body.pop("grid", None)
        models[name] = _build_dataclass(cls, body, f"model.{name}", raw_text)
        if grid is not None:
            if not isinstance(grid, dict):
                raise ConfigError(f"model.{name}.grid: expected an object of parameter lists")
            valid = {f.name for f in dataclasses.fields(cls)}
            for param, values in grid.items():
                if param not in valid:
                    raise ConfigError(
                        f"model.{name}.grid: {param!r} is not a {name} parameter"
                    )
                if not isinstance(values, list) or not values:
                    raise ConfigError(f"model.{name}.grid.{param}: expected a non-empty list")
            grids[name] = grid
    return models, grids


def parse_config(
    data: dict,
    raw_text: str | None = None,
    required: tuple[str, ...] = ("data", "model"),
) -> ExperimentConfig:
    """Validate a parsed JSON object into an ExperimentConfig (fail-loud)."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    known = {"data", "preprocess", "split", "model", "eval", "output"}
    for key in data:
        if key not in known:
            raise ConfigError(
                f"unknown section {key!r}{_key_line(raw_text, key)}; "
                f"valid sections: {', '.join(sorted(known))}"
            )
    for section in required:
        if section not in data:
            raise ConfigError(f"missing required section {section!r}")
    if "data" in data:
        data_config = _build_data_config(data["data"], raw_text)
    else:
        data_config = DataConfig(synth=SynthDataConfig())
    if "model" in data:
        models, grids = _build_models(data["model"], raw_text)
    else:
        models, grids = {}, {}
    return ExperimentConfig(
        data=data_config,
        preprocess=_build_dataclass(
            PreprocessConfig, data.get("preprocess", {}), "preprocess", raw_text
        ),
        split=_build_dataclass(SplitConfig, data.get("split", {}), "split", raw_text),
        models=models,
        grids=grids,
        eval=_build_dataclass(EvalConfig, data.get("eval", {}), "eval", raw_text),
        output=_build_dataclass(OutputConfig, data.get("output", {}), "output", raw_text),
    )


def load_config(
    path: str | Path, required: tuple[str, ...] = ("data", "model")
) -> ExperimentConfig:
    """Read and validate a config file; parse errors carry line and column."""
    path = Path(path)
    try:
        raw_text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(raw_text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    return parse_config(data, raw_text, required=required)


def config_to_dict(config: ExperimentConfig) -> dict:
    """Resolved configuration as plain JSON-ready data (for run provenance)."""

    def encode(value):
        if dataclasses.is_dataclass(value):
            return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
        if isinstance(value, tuple):
            return list(value)
        if isinstance(value, dict):
            return {k: encode(v) for k, v in value.items()}
        return value

    return {
        "data": encode(config.data),
        "preprocess": encode(config.preprocess),
        "split": encode(config.split),
        "model": {
            name: {**encode(cfg), **({"grid": config.grids[name]} if name in config.grids else {})}
            for name, cfg in config.models.items()
        },
        "eval": encode(config.eval),
        "output": encode(config.output),
    }
