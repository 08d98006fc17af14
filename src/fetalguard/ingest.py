"""Recording ingestion: per-record signal CSVs, clinical metadata, and class labels.

Wire formats:
    signal CSV    header ``time_s,fhr_bpm``, one row per sample, UTF-8, ``.`` decimal.
    metadata CSV  header ``record_id,ph,apgar1[,pco2,po2,bdecf]``, empty cell = missing.

Zero-valued heart-rate samples mean sensor dropout and are passed through verbatim;
the preprocessing stage treats them as missing.
"""

from __future__ import annotations

import contextlib
import csv
import io
import logging
import math
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Literal

import numpy as np

from .errors import (
    EmptyInputError,
    FetalGuardError,
    LabelingError,
    ParseError,
    StructureError,
)
from .files import read_csv_rows, utf8_text
from .workers import fork_map

logger = logging.getLogger(__name__)

PH_ABNORMAL_BELOW = 7.20
APGAR1_ABNORMAL_BELOW = 7

# the headers of the two wire formats, which synth.write_dataset writes
SIGNAL_HEADER = ("time_s", "fhr_bpm")
METADATA_COLUMNS = ("record_id", "ph", "apgar1", "pco2", "po2", "bdecf")
# numpy's number reader strips these separators as whitespace; float() refuses them
_NUMPY_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


class ClassLabel(IntEnum):
    """Binary class of a recording; ABNORMAL is the positive class."""

    NORMAL = 0
    ABNORMAL = 1


@dataclass
class ClinicalMetadata:
    """Outcome measurements attached to one recording.

    BDecf, pCO2 and pO2 are carried for completeness but unused by labeling.
    """

    ph: float | None = None
    apgar1: int | None = None
    pco2: float | None = None
    po2: float | None = None
    bdecf: float | None = None

    def __post_init__(self):
        if self.ph is not None and not (6.5 <= self.ph <= 7.8):
            raise ValueError(f"ph {self.ph} outside physiological range [6.5, 7.8]")
        if self.apgar1 is not None and not (0 <= self.apgar1 <= 10):
            raise ValueError(f"apgar1 {self.apgar1} outside [0, 10]")


@dataclass
class SignalRecord:
    """Raw heart-rate time series for one recording."""

    record_id: str
    fhr: np.ndarray
    sample_rate_hz: float
    metadata: ClinicalMetadata = field(default_factory=ClinicalMetadata)

    def __post_init__(self):
        self.fhr = np.asarray(self.fhr, dtype=float)
        if self.fhr.size == 0:
            raise ValueError("fhr must be non-empty")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")


@dataclass
class LabeledRecord:
    record: SignalRecord
    label: ClassLabel


@dataclass(frozen=True)
class Rejected:
    """A recording that did not become features, and why; str() is the line `preprocess` prints and `run` logs."""

    record_id: str
    stage: Literal["ingest", "preprocess"]
    reason: str

    def __str__(self) -> str:
        verb = "skipped" if self.stage == "ingest" else "rejected"
        return f"{verb} {self.record_id}: {self.reason}"


def parse_record_csv(text: str, record_id: str) -> SignalRecord:
    """Parse one signal CSV into a SignalRecord.

    The data rows are read by one call to numpy's C reader; only input it
    refuses goes through the row-by-row reader, which names the first bad line.
    The sample rate is inferred from the median time delta between consecutive
    rows. Raises ParseError (with line number) on malformed cells or rows,
    StructureError on non-increasing time or a sample rate that is not finite
    and positive, EmptyInputError on a header-only file.
    """
    reader = csv.reader(io.StringIO(text))

    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError(f"record {record_id}: file is empty") from None
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None
    if [c.strip().lower() for c in header] != list(SIGNAL_HEADER):
        raise ParseError(
            f"expected header '{','.join(SIGNAL_HEADER)}', got '{','.join(header)}'", line=1
        )

    columns = _read_columns(text, reader.line_num)
    times, values = columns if columns is not None else _read_rows(reader, record_id)

    if not values.size:
        raise EmptyInputError(f"record {record_id}: no data rows")
    if values.size < 2:
        raise StructureError(
            f"record {record_id}: need at least two samples to infer the sample rate"
        )

    sample_rate_hz = 1.0 / float(np.median(np.diff(times)))
    if not (math.isfinite(sample_rate_hz) and sample_rate_hz > 0):
        raise StructureError(
            f"record {record_id}: time column gives sample rate {sample_rate_hz}, "
            "not a finite positive number"
        )
    return SignalRecord(record_id=record_id, fhr=values, sample_rate_hz=sample_rate_hz)


def _read_columns(text: str, header_lines: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(times, fhr) of the data rows in one numpy call, or None to leave them to _read_rows.

    Accepted only where the result is the row loop's: no separator that numpy
    takes for a space, at least two rows of two numbers, and strictly
    increasing time. numpy refuses a quote, so quoted cells, which csv lets
    span lines, take the row loop. Lines split on "\\n" alone, as csv's do;
    ``splitlines`` would also split on "\\x0c" and the like.
    """
    if any(c in text for c in _NUMPY_ONLY_SPACES):
        return None
    lines = text.split("\n")
    if not any(line.strip() for line in lines[header_lines:]):
        return None  # no data rows: numpy would warn, the row loop raises
    try:
        table = np.loadtxt(lines, skiprows=header_lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[0] < 2 or table.shape[1] != 2:
        return None
    # one contiguous copy first: copying the column straight out of the loaded
    # rows raised the peak RSS of loading 552 files from 52 to 92 MB
    table = np.asfortranarray(table)
    times = table[:, 0]
    if not (np.diff(times) > 0).all():  # also false on NaN, which the row loop lets through
        return None
    return times, table[:, 1].copy()


def _read_rows(reader, record_id: str) -> tuple[np.ndarray, np.ndarray]:
    """Row-by-row reader of the data rows: the reference semantics, and the error locator."""
    times: list[float] = []
    values: list[float] = []
    try:
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ParseError(f"expected 2 columns, got {len(row)}", line=line_no)
            try:
                t = float(row[0])
                v = float(row[1])
            except ValueError:
                raise ParseError(f"non-numeric cell in row {row!r}", line=line_no) from None
            if times and t <= times[-1]:
                raise StructureError(
                    f"record {record_id}: time not strictly increasing at line {line_no} "
                    f"({times[-1]} -> {t})"
                )
            times.append(t)
            values.append(v)
    except csv.Error as exc:  # e.g. a bare carriage return inside a row
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None
    return np.array(times), np.array(values)


def assign_label(meta: ClinicalMetadata) -> ClassLabel:
    """Label a recording from its clinical outcome.

    Abnormal requires both pH < 7.20 and Apgar1 < 7 (strict on both); anything
    else is Normal. Raises LabelingError when either value is missing.
    """
    if meta.ph is None or meta.apgar1 is None:
        missing = [n for n, v in (("ph", meta.ph), ("apgar1", meta.apgar1)) if v is None]
        raise LabelingError(f"cannot label record: missing {', '.join(missing)}")
    if meta.ph < PH_ABNORMAL_BELOW and meta.apgar1 < APGAR1_ABNORMAL_BELOW:
        return ClassLabel.ABNORMAL
    return ClassLabel.NORMAL


def _parse_optional_float(cell: str, name: str, line: int) -> float | None:
    cell = cell.strip()
    if not cell:
        return None
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"non-numeric {name} {cell!r}", line=line) from None


def read_record_csv(path: str | Path) -> SignalRecord:
    """parse_record_csv of one signal file, named by its stem; a file that is not UTF-8 is a ParseError."""
    path = Path(path)
    with utf8_text(path) as fh:
        text = fh.read()
    return parse_record_csv(text, path.stem)


def read_metadata_csv(path: str | Path) -> dict[str, ClinicalMetadata]:
    """Read the metadata table into a mapping record_id -> ClinicalMetadata.

    Accepts the minimal 3-column layout or the full 6-column one. A non-numeric
    cell, a non-integer Apgar, or a pH or Apgar out of range is a ParseError
    naming the line.
    """
    path = Path(path)
    out: dict[str, ClinicalMetadata] = {}
    rows = read_csv_rows(path)
    _, header = next(rows, (0, None))
    if header is None:
        raise EmptyInputError(f"{path}: metadata file is empty")
    header = [c.strip().lower() for c in header]
    if tuple(header) not in (METADATA_COLUMNS[:3], METADATA_COLUMNS):
        raise ParseError(
            f"{path}: expected header '{','.join(METADATA_COLUMNS[:3])}' or "
            f"'{','.join(METADATA_COLUMNS)}', got '{','.join(header)}'",
            line=1,
        )
    for line_no, row in rows:
        if not row or not row[0].strip():
            continue
        if len(row) != len(header):
            raise ParseError(f"{path}: expected {len(header)} columns, got {len(row)}", line=line_no)
        record_id = row[0].strip()
        if record_id in out:
            raise StructureError(f"{path}: duplicate record_id {record_id!r} at line {line_no}")
        ph = _parse_optional_float(row[1], "ph", line_no)
        apgar_raw = _parse_optional_float(row[2], "apgar1", line_no)
        if apgar_raw is not None and not apgar_raw.is_integer():
            raise ParseError(f"{path}: apgar1 must be an integer, got {row[2].strip()!r}", line=line_no)
        apgar1 = None if apgar_raw is None else int(apgar_raw)
        extras = {}
        if len(header) == 6:
            extras = {
                name: _parse_optional_float(row[i], name, line_no)
                for i, name in ((3, "pco2"), (4, "po2"), (5, "bdecf"))
            }
        try:
            out[record_id] = ClinicalMetadata(ph=ph, apgar1=apgar1, **extras)
        except ValueError as exc:  # pH or Apgar outside its range
            raise ParseError(f"{path}: {exc}", line=line_no) from None
    return out


def load_each(signal_dir: str | Path, metadata_file: str | Path, function) -> list:
    """function(LabeledRecord) of each recording under signal_dir, or its ingest Rejected, in file order.

    A file is skipped for the first of: no metadata row, a parse failure, a
    labeling failure. Any other exception (an OSError such as a directory
    named ``x.csv``) propagates, the first in file order. Parsing a 4800-row
    file is about 2.6 ms of string-to-double conversion that holds the
    interpreter lock, so each file is read, labeled and given to function in
    one forked worker per available core (workers.fork_map), and only
    function's result comes back; the list does not depend on how many.
    Raises EmptyInputError when no recording loads.
    """
    signal_dir = Path(signal_dir)
    metadata = read_metadata_csv(metadata_file)

    signal_files = sorted(signal_dir.glob("*.csv"))
    if not signal_files:
        raise EmptyInputError(f"no signal CSV files in {signal_dir}")

    jobs = [(path, metadata[path.stem]) for path in signal_files if path.stem in metadata]
    with contextlib.closing(fork_map(lambda job: _load_one(*job, function), jobs, "signal-reading")) as loaded:
        outcomes = [
            next(loaded) if path.stem in metadata else Rejected(path.stem, "ingest", "no metadata row")
            for path in signal_files
        ]

    skipped = sum(isinstance(outcome, Rejected) and outcome.stage == "ingest" for outcome in outcomes)
    if skipped == len(outcomes):
        raise EmptyInputError(f"no records loaded from {signal_dir} ({skipped} skipped)")
    logger.info("loaded %d records (%d skipped)", len(outcomes) - skipped, skipped)
    return outcomes


def _load_one(path: Path, meta: ClinicalMetadata, function):
    """function(LabeledRecord) of one signal file, or the Rejected that load_each skips it with."""
    record = _read_signal(path)
    if isinstance(record, Rejected):
        return record
    try:
        label = assign_label(meta)
    except LabelingError as exc:
        return Rejected(path.stem, "ingest", str(exc))
    record.metadata = meta
    return function(LabeledRecord(record, label))


def _read_signal(path: Path) -> SignalRecord | Rejected:
    """read_record_csv(path), or the Rejected that load_each skips the file with.

    Any other exception (an OSError such as a directory named ``x.csv``) propagates.
    """
    try:
        return read_record_csv(path)
    except (FetalGuardError, ValueError) as exc:
        return Rejected(path.stem, "ingest", str(exc))
