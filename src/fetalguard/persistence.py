"""Model artifact files: one JSON per trained detector, dispatched by model_type."""

from __future__ import annotations

import json
from pathlib import Path

from .config import detector
from .errors import ConfigError, FetalGuardError


def save_model(model, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(model.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_model(path: str | Path):
    """Read a model artifact; a malformed or truncated one is a one-line ConfigError."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read model {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    model_type = data.get("model_type") if isinstance(data, dict) else None
    try:
        return detector(model_type).from_dict(data)
    except KeyError as exc:
        raise ConfigError(f"{path}: {model_type} model lacks key {exc.args[0]!r}") from None
    except (FetalGuardError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
