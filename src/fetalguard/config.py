"""Experiment configuration: JSON file -> validated dataclasses.

The file has sections ``data``, ``preprocess``, ``split``, ``model.<name>``,
``eval``, and ``output``. Unknown keys anywhere are errors; messages carry the
key path and, where possible, the line in the file. The same ``encode`` and
``decode`` pair writes and reads the model artifacts.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import types
import typing
from dataclasses import MISSING, dataclass, field
from pathlib import Path

import numpy as np

from . import iforest
from .autoencoder import AeModel
from .datasets import SplitConfig
from .errors import BoundError, Checked, ConfigError, FetalGuardError, NonNegativeInt, PositiveInt
from .files import decode_array, encode_array, finite_number, read_json
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
class SynthDataConfig(Checked):
    n_normal: NonNegativeInt = 370
    n_abnormal: NonNegativeInt = 182
    seed: NonNegativeInt = 0


@dataclass
class DataConfig:
    signals_dir: str | None = None
    metadata_file: str | None = None
    synth: SynthDataConfig | None = None

    def __post_init__(self):
        real = self.signals_dir is not None or self.metadata_file is not None
        if real and (self.signals_dir is None or self.metadata_file is None):
            raise ConfigError("signals_dir and metadata_file must be given together")
        if real == (self.synth is not None):
            raise ConfigError("configure exactly one of synth or signals_dir+metadata_file")


@dataclass
class EvalConfig(Checked):
    seeds: PositiveInt = 1  # runs, at split.seed, split.seed + 1, ...


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


# the JSON value each scalar field type takes, as messages name it; a float field takes an int too
EXPECTED = {bool: "a boolean", str: "a string", int: "an integer", float: "a finite number"}


@functools.cache
def _fields(cls) -> dict:
    """name -> (plain type hint, required?) of a dataclass's fields, in declaration order."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in dataclasses.fields(cls)
    }


def encode(value):
    """JSON-ready form of a config or model: the inverse of ``decode``; an array is its float64 bytes."""
    if isinstance(value, np.ndarray):
        return encode_array(value, "<f8")
    if isinstance(value, iforest.Forest):
        return iforest._forest_to_json(value)
    if dataclasses.is_dataclass(value):
        return {name: encode(getattr(value, name)) for name in _fields(type(value))}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    return value


def decode(cls, data, path: str, raw_text: str | None = None):
    """Dataclass cls from parsed JSON, checked against its fields' type hints.

    An unknown key, a missing required key, a value of the wrong type, a
    value outside its field's Bound and any other value its class refuses are
    each a one-line ConfigError naming the key path; an absent key takes the
    field's default. An int is accepted for a float field and kept as an int,
    and an ``np.ndarray`` field is read from encode's float64 bytes.
    """
    return _decode(cls, data, path, raw_text, None)


def _decode(hint, value, path, raw_text, outer):
    """Decode one value; outer holds the outermost object's fields decoded so far."""
    if hint is np.ndarray:
        return decode_array(value, path, "<f8")
    if hint == iforest.Forest:
        try:
            return iforest._forest_from_json(value, outer["feature_dim"], outer["subsample_size"])
        except FetalGuardError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # X | None
        return None if value is None else _decode(args[0], value, path, raw_text, outer)
    if hint in EXPECTED:
        if (not finite_number(value) if hint is float else not isinstance(value, hint)) or (
            isinstance(value, bool) and hint is not bool
        ):
            raise ConfigError(f"{path}: expected {EXPECTED[hint]}, got {json.dumps(value)[:60]}")
        return value
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected an array, got {json.dumps(value)[:60]}")
        items = [_decode(args[0], v, f"{path}[{i}]", raw_text, outer) for i, v in enumerate(value)]
        return items if origin is list else tuple(items)
    if not isinstance(value, dict):  # a dataclass
        raise ConfigError(f"{path}: expected an object, got {json.dumps(value)[:60]}")
    fields = _fields(hint)
    prefix = f"{path}." if path else ""  # the config root has the empty path
    for key in value:
        if key not in fields:
            raise ConfigError(
                f"unknown key {prefix}{key}{_key_line(raw_text, key)}; "
                f"valid keys: {', '.join(sorted(fields))}"
            )
    kwargs = {}
    context = kwargs if outer is None else outer
    for name, (field_hint, required) in fields.items():
        if name in value:
            kwargs[name] = _decode(field_hint, value[name], prefix + name, raw_text, context)
        elif required:
            raise ConfigError(f"{path}: missing key {name!r}")
    try:
        return hint(**kwargs)
    except FetalGuardError as exc:  # a BoundError names the field; the path names the object
        raise ConfigError(f"{prefix}{exc}" if isinstance(exc, BoundError) else f"{path}: {exc}") from None


def _build_models(section: dict, raw_text: str | None) -> tuple[dict, dict]:
    if not isinstance(section, dict):
        raise ConfigError("model: expected an object of model sections")
    if not section:
        raise ConfigError("model: at least one model section is required")
    models, grids = {}, {}
    for name, body in section.items():
        cls = detector(name).config_type
        path = f"model.{name}"
        if not isinstance(body, dict):
            raise ConfigError(f"{path}: expected an object")
        models[name] = decode(cls, {k: v for k, v in body.items() if k != "grid"}, path, raw_text)
        grid = body.get("grid")
        if grid is not None:
            if not isinstance(grid, dict):
                raise ConfigError(f"{path}.grid: expected an object of parameter lists")
            fields = _fields(cls)
            grids[name] = {}
            for param, values in grid.items():
                if param not in fields:
                    raise ConfigError(f"{path}.grid: {param!r} is not a {name} parameter")
                if not isinstance(values, list) or not values:
                    raise ConfigError(f"{path}.grid.{param}: expected a non-empty list")
                hint = list[fields[param][0]]  # each value is checked as the field is
                grids[name][param] = _decode(hint, values, f"{path}.grid.{param}", raw_text, None)
            try:  # so a value outside its bound fails before any fit
                grid_candidates(models[name], grids[name])
            except BoundError as exc:
                raise ConfigError(f"{path}.grid.{exc}") from None
    return models, grids


def grid_candidates(model_config, grid: dict) -> list[tuple[dict, object]]:
    """(combination, model config) for each point of a {param: [values]} grid; one for no grid."""
    names = sorted(grid)
    combos = [dict(zip(names, values)) for values in itertools.product(*(grid[n] for n in names))]
    return [(combo, dataclasses.replace(model_config, **combo)) for combo in combos]


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
    models, grids = _build_models(data["model"], raw_text) if "model" in data else ({}, {})
    sections = {"data": {"synth": {}}, **{key: value for key, value in data.items() if key != "model"}}
    config = decode(ExperimentConfig, sections, "", raw_text)
    return dataclasses.replace(config, models=models, grids=grids)


def load_config(
    path: str | Path, required: tuple[str, ...] = ("data", "model")
) -> ExperimentConfig:
    """Read and validate a config file; errors name the file, and parse errors the line and column."""
    decode = functools.partial(parse_config, required=required)
    return read_json(Path(path), "config", decode)


def config_to_dict(config: ExperimentConfig) -> dict:
    """Resolved configuration as plain JSON-ready data (for run provenance)."""
    data = encode(config)
    grids = data.pop("grids")
    data["model"] = {
        name: {**body, **({"grid": grids[name]} if name in grids else {})}
        for name, body in data.pop("models").items()
    }
    return data
