"""The package's file encodings: UTF-8 CSV and JSON files, and arrays as base64 text."""

from __future__ import annotations

import base64
import contextlib
import csv
import hashlib
import json
import os
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError


@contextlib.contextmanager
def utf8_text(path: Path, newline: str | None = None):
    """path opened as UTF-8 text; text that does not decode, read inside the block, is a ParseError."""
    with path.open(newline=newline, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_csv_rows(path: Path) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) of each row of a UTF-8 CSV file, the header first.

    A row csv cannot read (a cell beyond csv's field size limit) is a ParseError naming its line.
    """
    with utf8_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                yield reader.line_num, row
        except csv.Error as exc:
            raise ParseError(f"{path}: malformed CSV: {exc}", line=reader.line_num) from None


def write_csv(path: str | Path, header: Iterable[str], rows: Iterable) -> None:
    """header and rows as a UTF-8 CSV file by csv.writer ("\\r\\n" line ends), creating its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@contextlib.contextmanager
def _one_line_errors(path: Path, what: str):
    """Any failure to read, parse or decode the file inside the block, nesting too deeply included,
    as a one-line ConfigError that names it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ConfigError(f"{what} {path} nests too deeply") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def read_json(path: Path, what: str, decode):
    """decode(value, text) of a UTF-8 JSON file; failures are one-line ConfigErrors that name it."""
    with _one_line_errors(path, what):
        text = path.read_text(encoding="utf-8")
        return decode(json.loads(text), text)


# A sealed file is _SEAL, 64 hex digits, '",' and then the text write_json writes
# unsealed, from after its opening brace; the digits are the SHA-256 of that text.
_SEAL = b'{\n  "sha256": "'
_BODY = len(_SEAL) + 66  # where the unsealed text resumes


def read_sealed_json(path: Path, what: str, decode):
    """decode(value, sealed) of a JSON file that write_json may have sealed, its "sha256" key removed.

    The seal is checked on the bytes as read, which are freed before parsing. One that does
    not match them, or is not where write_json puts it (the file was re-formatted), is a
    one-line ConfigError, as read_json's failures are.
    """
    damaged = ConfigError(f"{what} file is damaged: its sha256 seal does not match its contents")
    with _one_line_errors(path, what):
        raw = path.read_bytes()
        sealed = raw.startswith(_SEAL) and raw[_BODY - 2 : _BODY] == b'",'
        if sealed:
            digest = hashlib.sha256(b"{")
            digest.update(memoryview(raw)[_BODY:])
            if raw[len(_SEAL) : _BODY - 2] != digest.hexdigest().encode():
                raise damaged
        text = raw.decode("utf-8")
        del raw
        value = json.loads(text)
        del text
        if isinstance(value, dict) and value.pop("sha256", None) is not None and not sealed:
            raise damaged
        return decode(value, sealed)


def refuse_unknown_keys(data: dict, known, where: str) -> None:
    """A ConfigError naming the first key of data that is not known, if any."""
    unknown = data.keys() - known
    if unknown:
        raise ConfigError(f"unknown key {min(unknown)!r} in {where}")


def finite_number(value) -> bool:
    """Whether a JSON value is a number a float field takes: an int or a finite float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def write_json(data, path: str | Path, sealed: bool = False) -> None:
    """data as a UTF-8 JSON file, keys sorted, two-space indents, creating its directory.

    sealed puts the "sha256" key that read_sealed_json checks first. The bytes go to a
    new file in the same directory that then replaces path, so a write that fails
    partway leaves path as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()
    parts = [_SEAL, hashlib.sha256(text).hexdigest().encode(), b'",', memoryview(text)[1:]] if sealed else [text]
    temporary = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with temporary.open("xb") as fh:
            fh.writelines(parts)
        temporary.replace(path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def encode_array(values, dtype: str) -> str:
    """base64 of values as the little-endian fixed-width dtype, in C order."""
    return base64.b64encode(np.ascontiguousarray(values, dtype=dtype).tobytes()).decode("ascii")


def decode_array(value, name: str, dtype: str) -> np.ndarray:
    """encode_array's values as a writable int64 or float64 copy; anything else is a ConfigError naming it."""
    try:
        raw = base64.b64decode(value, validate=True) if isinstance(value, str) else None
    except ValueError:  # not base64, or not ASCII
        raw = None
    if raw is None:
        raise ConfigError(f"{name} is not a base64 string")
    dtype = np.dtype(dtype)
    if len(raw) % dtype.itemsize:
        raise ConfigError(f"{name} holds {len(raw)} bytes, not a multiple of {dtype.itemsize}")
    return np.frombuffer(raw, dtype=dtype).astype(np.float64 if dtype.kind == "f" else np.int64)
