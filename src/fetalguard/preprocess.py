"""Signal cleaning and featurization.

The cleaning pipeline runs in a fixed order: clip physiologically impossible
samples to missing, fill missing runs by linear interpolation, smooth with a
median filter, then reduce the final segment of the recording to a fixed-length
vector normalized into [0, 1].
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Annotated

import numpy as np

from .errors import (
    Bound,
    Checked,
    ConfigError,
    EmptyInputError,
    FetalGuardError,
    ParseError,
    PositiveFloat,
    PositiveInt,
    PreprocessError,
    ShapeError,
    TrainingDataError,
)
from .files import read_csv_rows, write_csv
from .ingest import ClassLabel, LabeledRecord, SignalRecord, SkippedRecord, load_each

BPM_MIN = 50.0
BPM_MAX = 200.0
BPM_SPAN = BPM_MAX - BPM_MIN


@dataclass
class PreprocessConfig(Checked):
    """Tunable knobs of the cleaning pipeline."""

    median_window: Annotated[int, Bound(gt=0, odd=True)] = 5
    segment_minutes: PositiveFloat = 20.0
    feature_dim: PositiveInt = 480

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CleanSignal:
    """A cleaned signal plus the mask of positions that were originally missing."""

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.values.shape != self.mask.shape:
            raise ValueError("values and mask must have identical shape")


@dataclass
class FeatureVector:
    """Fixed-length normalized representation of one recording."""

    x: np.ndarray
    record_id: str
    label: ClassLabel | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)


def as_matrix(samples) -> np.ndarray:
    """Stack FeatureVectors or plain vectors into an (n, d) float matrix.

    A 2-D array is taken row by row. Raises TrainingDataError on no samples and
    ShapeError when the rows differ in length.
    """
    rows = [s.x if isinstance(s, FeatureVector) else np.asarray(s, dtype=float) for s in samples]
    if not rows:
        raise TrainingDataError("no samples")
    try:
        x = np.asarray(rows, dtype=float)
    except ValueError as exc:
        raise ShapeError(f"samples must share one feature dimension: {exc}") from None
    if x.ndim != 2:
        raise ShapeError("samples must share one feature dimension")
    return x


def clip_physiological(signal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mark samples outside [50, 200] bpm as missing.

    The zero-valued dropout convention and any non-finite sample fall under the
    same rule. Returns (values, missing_mask); values are untouched.
    """
    values = np.asarray(signal, dtype=float)
    if values.size == 0:
        raise PreprocessError("cannot clip an empty signal")
    with np.errstate(invalid="ignore"):
        missing = (values < BPM_MIN) | (values > BPM_MAX)
    missing |= ~np.isfinite(values)
    return values, missing


def interpolate_missing(values: np.ndarray, missing: np.ndarray) -> CleanSignal:
    """Fill missing runs by linear interpolation between the nearest valid samples.

    Leading and trailing missing runs are filled by extending the nearest valid
    value. Valid samples pass through bitwise unchanged. Raises PreprocessError
    when everything is missing.
    """
    values = np.asarray(values, dtype=float)
    missing = np.asarray(missing, dtype=bool)
    valid = ~missing
    if not valid.any():
        raise PreprocessError("signal has no valid samples")
    idx = np.arange(values.size)
    filled = np.interp(idx, idx[valid], values[valid])
    filled[valid] = values[valid]
    return CleanSignal(values=filled, mask=missing.copy())


def median_smooth(signal: CleanSignal, window: int) -> CleanSignal:
    """Median filter with boundary-replication padding; output length equals input.

    The window must be odd, positive, and no longer than the signal. An
    odd-even transposition sort of the window's shifted copies, made of
    np.minimum and np.maximum, puts each window's median in the middle row.
    Both return one of their inputs, so the result holds the very values that
    np.median takes from each window of finite values.
    """
    if window <= 0 or window % 2 == 0:
        raise ConfigError(f"median window must be odd and positive, got {window}")
    values = signal.values
    if window > values.size:
        raise ConfigError(
            f"median window {window} longer than signal of length {values.size}"
        )
    pad = window // 2
    padded = np.concatenate([np.full(pad, values[0]), values, np.full(pad, values[-1])])
    rows = [padded[i : i + values.size] for i in range(window)]  # row i: the i-th value of each window
    for step in range(window):  # window rounds of compare-exchange sort window rows
        for i in range(step % 2, window - 1, 2):
            rows[i], rows[i + 1] = np.minimum(rows[i], rows[i + 1]), np.maximum(rows[i], rows[i + 1])
    return CleanSignal(values=rows[pad], mask=signal.mask.copy())


def featurize(
    signal: CleanSignal,
    d: int,
    sample_rate_hz: float,
    segment_minutes: float = 20.0,
) -> np.ndarray:
    """Reduce a cleaned signal to d components in [0, 1].

    Takes the final ``segment_minutes`` of the signal (the portion closest to
    delivery; the whole signal if shorter), averages it into d uniform
    non-overlapping bins, and maps each bin mean through (v - 50) / 150.
    Raises PreprocessError when the segment is shorter than d samples.
    """
    if d <= 0:
        raise ConfigError(f"feature dimension must be positive, got {d}")
    values = signal.values
    segment_samples = int(round(segment_minutes * 60.0 * sample_rate_hz))
    if segment_samples > 0 and values.size > segment_samples:
        values = values[-segment_samples:]
    n = values.size
    if n < d:
        raise PreprocessError(
            f"segment of {n} samples is shorter than feature dimension {d}"
        )
    bounds = (np.arange(d + 1) * n) // d
    sums = np.add.reduceat(values, bounds[:-1])
    means = sums / np.diff(bounds)
    return (means - BPM_MIN) / BPM_SPAN


def preprocess_pipeline(
    record: SignalRecord,
    config: PreprocessConfig | None = None,
    label: ClassLabel | None = None,
) -> FeatureVector:
    """Run clip -> interpolate -> median smooth -> featurize on one record.

    Errors from any stage are re-raised annotated with the record id.
    """
    config = config or PreprocessConfig()
    try:
        values, missing = clip_physiological(record.fhr)
        clean = interpolate_missing(values, missing)
        clean = median_smooth(clean, config.median_window)
        x = featurize(
            clean,
            config.feature_dim,
            sample_rate_hz=record.sample_rate_hz,
            segment_minutes=config.segment_minutes,
        )
    except FetalGuardError as exc:
        raise type(exc)(f"record {record.record_id}: {exc}") from exc
    return FeatureVector(x=x, record_id=record.record_id, label=label)


@dataclass
class PreprocessReport:
    features: list[FeatureVector]
    rejected: list[tuple[str, str]] = field(default_factory=list)


def preprocess_collection(records, config: PreprocessConfig | None = None) -> PreprocessReport:
    """Preprocess LabeledRecords; rejected records go into the report, not an exception."""
    config = config or PreprocessConfig()
    return collect_features(preprocess_item(item, config) for item in records)


def preprocess_files(
    signal_dir: str | Path, metadata_file: str | Path, config: PreprocessConfig
) -> tuple[PreprocessReport, list[SkippedRecord]]:
    """preprocess_collection of the records load_each reads, and its skip report, in one pass.

    Each file is read and preprocessed in the worker that reads it
    (ingest.load_each), so only its features or its reason come back.
    """
    outcomes, skipped = load_each(signal_dir, metadata_file, lambda item: preprocess_item(item, config))
    return collect_features(outcomes), skipped


def preprocess_item(item: LabeledRecord, config: PreprocessConfig) -> FeatureVector | tuple[str, str]:
    """preprocess_pipeline of one LabeledRecord, or its (record_id, reason) rejection."""
    try:
        return preprocess_pipeline(item.record, config, label=item.label)
    except FetalGuardError as exc:
        return item.record.record_id, str(exc)


def collect_features(outcomes) -> PreprocessReport:
    """The report of preprocess_item outcomes, in their order; raises PreprocessError if all are rejections."""
    features: list[FeatureVector] = []
    rejected: list[tuple[str, str]] = []
    for outcome in outcomes:
        (features if isinstance(outcome, FeatureVector) else rejected).append(outcome)
    if not features:
        raise PreprocessError(f"all {len(rejected)} records were rejected by preprocessing")
    return PreprocessReport(features=features, rejected=rejected)


def write_features_csv(features: list[FeatureVector], path: str | Path) -> None:
    """Persist feature vectors as CSV: record_id, label, then one column per component."""
    if not features:
        raise PreprocessError("nothing to write: empty feature list")
    d = features[0].x.size
    for fv in features:
        if fv.x.size != d:
            raise PreprocessError(f"inconsistent feature dimension for {fv.record_id}: {fv.x.size} != {d}")
    rows = (
        [fv.record_id, "" if fv.label is None else int(fv.label)] + [repr(float(v)) for v in fv.x]
        for fv in features
    )
    write_csv(path, ["record_id", "label"] + [f"f{i:03d}" for i in range(d)], rows)


def read_features_csv(path: str | Path, labeled: bool = False) -> list[FeatureVector]:
    """Read feature vectors written by write_features_csv; a cell that is not a finite number is a ParseError.

    With labeled, so is an empty label.
    """
    path = Path(path)
    out: list[FeatureVector] = []
    rows = read_csv_rows(path)
    _, header = next(rows, (0, None))
    if header is None:
        raise EmptyInputError(f"{path}: empty feature file")
    d = len(header) - 2
    if header[:2] != ["record_id", "label"] or d <= 0:
        raise PreprocessError(f"{path}: not a feature CSV")
    for line, row in rows:
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"{path}: expected {len(header)} columns, got {len(row)}", line=line)
        if row[1] not in ("", "0", "1"):
            raise ParseError(f"{path}: label must be 0, 1 or empty, got {row[1]!r}", line=line)
        if labeled and not row[1]:
            raise ParseError(f"{path}: evaluation needs labeled features; record {row[0]} has no label", line=line)
        try:
            x = np.array(row[2:], dtype=float)
        except ValueError:
            raise ParseError(f"{path}: non-numeric feature cell", line=line) from None
        if not np.isfinite(x).all():
            raise ParseError(f"{path}: non-finite feature cell {row[2 + np.argmin(np.isfinite(x))]!r}", line=line)
        label = None if row[1] == "" else ClassLabel(int(row[1]))
        out.append(FeatureVector(x=x, record_id=row[0], label=label))
    if not out:
        raise EmptyInputError(f"{path}: no feature rows")
    return out
