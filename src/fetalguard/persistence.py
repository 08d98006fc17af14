"""Model artifact files: one JSON per trained detector, dispatched by model_type."""

from __future__ import annotations

from pathlib import Path

from .config import decode, detector, encode
from .errors import ConfigError
from .files import read_json, write_json


def save_model(model, path: str | Path) -> None:
    data = {"model_type": model.model_type, "format_version": model.format_version, **encode(model)}
    write_json(data, path)


def load_model(path: str | Path):
    """Read a model artifact; a malformed or truncated one is a one-line ConfigError."""
    return read_json(Path(path), "model", _decode_model)


def _decode_model(data):
    if not isinstance(data, dict):
        raise ConfigError("expected a model object")
    fields = dict(data)
    cls = detector(fields.pop("model_type", None))
    version = fields.pop("format_version", None)
    formats = {cls.format_version: {}, **cls.past_formats}  # version -> renamed keys
    renames = formats.get(version) if type(version) is int else None
    if renames is None:
        raise ConfigError(f"unsupported {cls.model_type} format version {version!r}")
    fields = {renames.get(key, key): value for key, value in fields.items()}
    return decode(cls, fields, cls.model_type)
