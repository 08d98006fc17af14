"""Model artifact files: one JSON per trained detector, dispatched by model_type."""

from __future__ import annotations

import json
from pathlib import Path

from .config import decode, detector, encode
from .errors import ConfigError


def save_model(model, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = {"model_type": model.model_type, "format_version": model.format_version, **encode(model)}
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_model(path: str | Path):
    """Read a model artifact; a malformed or truncated one is a one-line ConfigError."""
    path = Path(path)
    try:
        return _decode_model(json.loads(path.read_text(encoding="utf-8")))
    except OSError as exc:
        raise ConfigError(f"cannot read model {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"model {path} is not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ConfigError(f"model {path} nests too deeply") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


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
