"""The package's file encodings: UTF-8 CSV and JSON files, and sealed JSON files whose arrays follow as raw bytes."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .errors import ConfigError, FetalGuardError, ParseError


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


# A sealed file is _SEAL, 64 hex digits, '",', the text write_json writes unsealed from
# after its opening brace, and then the tail: the bytes of every array, in the order the
# text names them. The text holds each array as a reference {"length": n, "offset": o} to
# its bytes in the tail, and ends at its first _END; the digits are the SHA-256 of the
# unsealed text followed by the tail.
_SEAL = b'{\n  "sha256": "'
_BODY = len(_SEAL) + 66  # where the unsealed text resumes
_END = b"\n}\n"  # json.dumps with indents starts no other line with a brace, and escapes line breaks in strings
_REFERENCE = {"length", "offset"}


class ArrayBytes(dict):
    """An array reference as read_sealed_json reads it: the JSON object, which is how a
    message shows it, with the tail bytes it names in data."""

    __slots__ = ("data",)


def read_sealed_json(path: Path, what: str, decode):
    """decode(value, sealed) of a JSON file that write_json may have sealed, its "sha256" key
    removed and each array reference an ArrayBytes, which decode_array takes.

    The seal is checked on the bytes as read, before any is decoded; only the text is
    decoded as text. A seal that does not match them, or is not where write_json puts it
    (the file was re-formatted), is a one-line ConfigError, as read_json's failures are; so
    is a reference that runs past the tail, and references that do not tile it exactly.
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
        end = raw.find(_END)
        end = len(raw) if end < 0 else end + len(_END)
        tail, spans = memoryview(raw)[end:], []
        value = json.loads(raw[:end].decode("utf-8"), object_hook=lambda obj: _resolved(obj, tail, spans))
        covered = 0
        for offset, length in sorted(spans) + [(len(tail), 0)]:
            if offset != covered:
                raise ConfigError(
                    f"arrays overlap at tail byte {offset}" if offset < covered
                    else f"tail bytes {covered}-{offset} belong to no array"
                )
            covered = offset + length
        if isinstance(value, dict) and value.pop("sha256", None) is not None and not sealed:
            raise damaged
        return decode(value, sealed)


def _resolved(obj: dict, tail: memoryview, spans: list):
    """obj, or the ArrayBytes of the tail bytes it names if it is an array reference; spans gets their place."""
    if obj.keys() != _REFERENCE:
        return obj
    offset, length = obj["offset"], obj["length"]
    if not all(type(v) is int and v >= 0 for v in (offset, length)):
        raise ConfigError(f"array reference {json.dumps(obj)[:60]} does not hold two non-negative integers")
    if offset + length > len(tail):
        raise ConfigError(
            f"the array at tail bytes {offset}-{offset + length} runs past the end of the {len(tail)}-byte tail"
        )
    spans.append((offset, length))
    array = ArrayBytes(obj)
    array.data = tail[offset : offset + length]
    return array


def finite_number(value) -> bool:
    """Whether a JSON value is a number a float field takes: an int or a finite float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def write_json(data, path: str | Path, sealed: bool = False) -> None:
    """data as a UTF-8 JSON file, keys sorted, two-space indents, creating its directory.

    sealed puts the "sha256" key that read_sealed_json checks first, and takes data that
    holds encode_array's bytes: each becomes a reference to its place in the tail. A NaN
    or infinity, which strict JSON has no number for, is a FetalGuardError, and nothing
    is written. The bytes go to a new file in the same directory that then replaces path,
    so a write that fails partway leaves path as it was.
    """
    path = Path(path)
    tail: list[bytes] = []

    def reference(array):
        if not (sealed and isinstance(array, bytes)):
            raise TypeError(f"Object of type {type(array).__name__} is not JSON serializable")
        offset = sum(map(len, tail))
        tail.append(array)
        return {"length": len(array), "offset": offset}

    try:
        text = (json.dumps(data, indent=2, sort_keys=True, default=reference, allow_nan=False) + "\n").encode()
    except ValueError as exc:
        raise FetalGuardError(f"cannot write {path}: {exc}") from None
    path.parent.mkdir(parents=True, exist_ok=True)
    parts = [text]
    if sealed:
        digest = hashlib.sha256(text)
        for array in tail:
            digest.update(array)
        parts = [_SEAL, digest.hexdigest().encode(), b'",', memoryview(text)[1:], *tail]
    temporary = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with temporary.open("xb") as fh:
            fh.writelines(parts)
        temporary.replace(path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def encode_array(values, dtype: str) -> bytes:
    """values as the little-endian fixed-width dtype, in C order: what write_json puts in a sealed file's tail."""
    return np.ascontiguousarray(values, dtype=dtype).tobytes()


def decode_array(value, name: str, dtype: str) -> np.ndarray:
    """The bytes of encode_array, or of a reference that read_sealed_json read, as a writable
    int64 or float64 copy; anything else is a ConfigError naming it."""
    data = value.data if isinstance(value, ArrayBytes) else value
    if not isinstance(data, (bytes, memoryview)):
        raise ConfigError(f"{name} is not an array reference")
    dtype = np.dtype(dtype)
    if len(data) % dtype.itemsize:
        raise ConfigError(f"{name} holds {len(data)} bytes, not a multiple of {dtype.itemsize}")
    return np.frombuffer(data, dtype=dtype).astype(np.float64 if dtype.kind == "f" else np.int64)
