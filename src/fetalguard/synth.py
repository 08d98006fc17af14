"""Parametric generator of heart-rate-like signals with known ground truth.

Normal records are a baseline with smooth accelerations/decelerations, Gaussian
noise, and sensor dropouts (zero samples). Abnormal records additionally carry
sustained bradycardia segments (baseline dip of at least 20 bpm for at least
3 minutes) and halved noise variability. Metadata is written so the labeling
rule agrees with the generator's ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Annotated

import numpy as np

from .errors import Bound, Checked, ConfigError, NonNegativeFloat, NonNegativeInt, PositiveFloat
from .files import write_csv
from .ingest import METADATA_COLUMNS, SIGNAL_HEADER, ClassLabel, ClinicalMetadata, LabeledRecord, SignalRecord
from .workers import fork_map

SAMPLE_RATE_HZ = 4.0

# metadata written per class so assign_label reproduces the ground truth
ABNORMAL_METADATA = ClinicalMetadata(ph=7.00, apgar1=4)
NORMAL_METADATA = ClinicalMetadata(ph=7.35, apgar1=9)


@dataclass(frozen=True)
class SynthParams(Checked):
    baseline_bpm: Annotated[float, Bound(ge=110, le=160)] = 135.0
    n_accels: NonNegativeInt = 3
    n_decels: NonNegativeInt = 2
    accel_amplitude_bpm: float = 15.0
    accel_duration_s: PositiveFloat = 40.0
    decel_amplitude_bpm: float = 12.0
    decel_duration_s: PositiveFloat = 45.0
    noise_std: NonNegativeFloat = 4.0
    dropout_rate: Annotated[float, Bound(ge=0, le=1)] = 0.02
    duration_min: PositiveFloat = 20.0
    abnormal: bool = False


def _add_bump(signal: np.ndarray, center: int, half_width: int, amplitude: float) -> None:
    """Superimpose a raised-cosine bump in place."""
    lo = max(0, center - half_width)
    hi = min(signal.size, center + half_width)
    t = np.arange(lo, hi) - center
    signal[lo:hi] += amplitude * 0.5 * (1.0 + np.cos(np.pi * t / half_width))


def _add_plateau(signal: np.ndarray, start: int, length: int, depth: float, ramp: int) -> None:
    """Superimpose a sustained dip with cosine ramps in place; where the ramps overlap the lower scale holds."""
    end = min(signal.size, start + length)
    into = np.arange(end - start)  # samples since the start
    left = into[::-1]  # samples before the last one
    scale = np.ones(into.size)
    rising, falling = into < ramp, left < ramp
    scale[rising] = 0.5 * (1.0 - np.cos(np.pi * into[rising] / ramp))
    scale[falling] = np.minimum(scale[falling], 0.5 * (1.0 - np.cos(np.pi * left[falling] / ramp)))
    signal[start:end] -= depth * scale


def generate_record(params: SynthParams, seed) -> tuple[SignalRecord, ClassLabel]:
    """One synthetic record, deterministic per seed; label follows params.abnormal."""
    rng = np.random.default_rng(seed)
    n = int(round(params.duration_min * 60.0 * SAMPLE_RATE_HZ))
    signal = np.full(n, params.baseline_bpm)

    events = [(params.n_accels, params.accel_amplitude_bpm, params.accel_duration_s, +1.0),
              (params.n_decels, params.decel_amplitude_bpm, params.decel_duration_s, -1.0)]
    for count, amplitude, duration_s, sign in events:
        for _ in range(count):
            center = int(rng.integers(0, n))
            half_width = max(2, int(duration_s * SAMPLE_RATE_HZ * rng.uniform(0.8, 1.2) / 2))
            _add_bump(signal, center, half_width, sign * amplitude * rng.uniform(0.8, 1.2))

    noise_std = params.noise_std * (0.5 if params.abnormal else 1.0)
    if params.abnormal:
        n_segments = int(rng.integers(1, 3))
        for _ in range(n_segments):
            minutes = rng.uniform(3.0, 6.0)
            length = int(minutes * 60.0 * SAMPLE_RATE_HZ)
            depth = rng.uniform(20.0, 35.0)
            start = int(rng.integers(0, max(1, n - length)))
            _add_plateau(signal, start, length, depth, ramp=int(15 * SAMPLE_RATE_HZ))

    signal += rng.normal(0.0, noise_std, size=n) if noise_std > 0 else 0.0

    dropped = rng.random(n) < params.dropout_rate
    signal[dropped] = 0.0

    record = SignalRecord(
        record_id="synthetic",
        fhr=signal,
        sample_rate_hz=SAMPLE_RATE_HZ,
        metadata=ABNORMAL_METADATA if params.abnormal else NORMAL_METADATA,
    )
    label = ClassLabel.ABNORMAL if params.abnormal else ClassLabel.NORMAL
    return record, label


def generate_dataset(n_normal: int, n_abnormal: int, seed: int = 0) -> list[LabeledRecord]:
    """n_normal + n_abnormal records (dataset_record of each index); exact class counts."""
    if n_normal < 0 or n_abnormal < 0:
        raise ConfigError("record counts must be nonnegative")
    return [dataset_record(i, n_normal, seed) for i in range(n_normal + n_abnormal)]


def dataset_record(i: int, n_normal: int, seed: int) -> LabeledRecord:
    """Record ``syn<i>`` of a dataset whose first n_normal records are normal.

    It is drawn from the seeds [seed, i, 0] and [seed, i, 1]. The baseline is
    jittered around the default one so records differ beyond their noise
    realizations.
    """
    rng = np.random.default_rng([seed, i, 0])
    baseline = float(np.clip(SynthParams.baseline_bpm + rng.uniform(-10.0, 10.0), 110.0, 160.0))
    params = SynthParams(baseline_bpm=baseline, abnormal=i >= n_normal)
    record, label = generate_record(params, seed=[seed, i, 1])
    record.record_id = f"syn{i:04d}"
    return LabeledRecord(record, label)


def write_dataset(records: list[LabeledRecord], out_dir: str | Path) -> tuple[Path, Path]:
    """Write signal CSVs plus metadata.csv in the ingestion schema.

    The cost is float formatting: a signal file is one time and one sample
    per line, each as its shortest round-trip repr, so ingest reads back the
    exact float64 values. That holds the interpreter lock, so the signal CSVs
    are written in one forked worker per available core (workers.fork_map).
    The time cells are formatted once per (sample count, rate) in the process
    that writes, and are dropped with this call. Returns (signals_dir,
    metadata_file).
    """
    out_dir = Path(out_dir)
    signals_dir = out_dir / "signals"
    signals = [item.record for item in records]
    if signals:
        signals_dir.mkdir(parents=True, exist_ok=True)
    time_cells: dict[tuple[int, float], list[str]] = {}  # a worker fills its own copy
    for _ in fork_map(lambda record: _write_signal(record, signals_dir, time_cells), signals, "signal-writing"):
        pass
    metadata_file = out_dir / "metadata.csv"
    rows = ((r.record_id, r.metadata.ph, r.metadata.apgar1, "", "", "") for r in signals)
    write_csv(metadata_file, METADATA_COLUMNS, rows)
    return signals_dir, metadata_file


def _write_signal(record: SignalRecord, signals_dir: Path, time_cells: dict[tuple[int, float], list[str]]) -> None:
    """One record's signal CSV, ``<record_id>.csv``: the bytes csv.writer writes for a
    time_s,fhr_bpm row per sample, built as one string.

    time_cells maps (sample count, rate) to each sample's time repr and comma;
    the entry this record needs is made if it is missing.
    """
    n, rate = record.fhr.size, record.sample_rate_hz
    times = time_cells.get((n, rate))
    if times is None:
        times = time_cells[n, rate] = [repr(i / rate) + "," for i in range(n)]
    lines = [f"{time}{value!r}\r\n" for time, value in zip(times, record.fhr.tolist())]
    text = ",".join(SIGNAL_HEADER) + "\r\n" + "".join(lines)
    (signals_dir / f"{record.record_id}.csv").write_text(text, encoding="utf-8", newline="")
