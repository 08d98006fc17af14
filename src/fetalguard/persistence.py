"""Model artifact files: one sealed JSON per trained detector, dispatched by model_type."""

from __future__ import annotations

from pathlib import Path

from .config import decode, detector, encode
from .errors import ConfigError
from .files import read_sealed_json, write_json


def save_model(model, path: str | Path) -> None:
    data = {"model_type": model.model_type, "format_version": model.format_version, **encode(model)}
    write_json(data, path, sealed=True)


def load_model(path: str | Path):
    """Read a model artifact; a malformed, damaged or unsealed one is a one-line ConfigError."""
    return read_sealed_json(Path(path), "model", _decode_model)


def _decode_model(data, sealed: bool):
    if not isinstance(data, dict):
        raise ConfigError("expected a model object")
    fields = dict(data)
    cls = detector(fields.pop("model_type", None))
    version = fields.pop("format_version", None)
    if not sealed or type(version) is not int or version != cls.format_version:
        raise ConfigError(
            f"unsupported {cls.model_type} format version {version!r}{'' if sealed else ' without a seal'}: "
            f"only sealed version {cls.format_version} files are read, so re-train the model"
        )
    return decode(cls, fields, cls.model_type)
