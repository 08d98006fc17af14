"""Dataset splitting and resampling.

All splits are stratified by class and deterministic in the seed. Test/validation
sizes are taken per class as the ceiling of count * fraction, which reproduces a
56-sample test partition with 19 abnormal records from the 552-record corpus at
fraction 0.10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import Bound, Checked, ConfigError, NonNegativeInt, SplitError, TrainingDataError
from .ingest import ClassLabel
from .preprocess import FeatureVector

Fraction = Annotated[float, Bound(gt=0, lt=1)]  # of each class, held out


@dataclass
class SplitConfig(Checked):
    test_fraction: Fraction = 0.10
    val_fraction: Fraction = 0.10
    val_fraction_ganomaly: Fraction = 0.40
    seed: NonNegativeInt = 0

    def val_fraction_for(self, name: str) -> float:
        """A detector's own ``val_fraction_<name>`` field if there is one, else ``val_fraction``."""
        return getattr(self, f"val_fraction_{name}", self.val_fraction)


def _held_out_count(class_size: int, fraction: float) -> int:
    # ceil with a tolerance so that exact products (e.g. 370 * 0.1) do not
    # round up through floating-point noise
    return min(class_size, max(0, math.ceil(class_size * fraction - 1e-9)))


def _stratified_split(data, fraction, seed):
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"fraction must be in (0, 1), got {fraction}")
    by_class: dict[ClassLabel, list[FeatureVector]] = {}
    for fv in data:
        if fv.label is None:
            raise SplitError(f"record {fv.record_id} has no label; cannot stratify")
        by_class.setdefault(fv.label, []).append(fv)
    for label in (ClassLabel.NORMAL, ClassLabel.ABNORMAL):
        if not by_class.get(label):
            raise SplitError(f"class {label.name} has zero samples")

    rng = np.random.default_rng(seed)
    kept: list[FeatureVector] = []
    held: list[FeatureVector] = []
    for label in sorted(by_class):
        group = by_class[label]
        n_held = _held_out_count(len(group), fraction)
        if n_held >= len(group):
            raise SplitError(
                f"fraction {fraction} empties class {label.name} ({len(group)} samples)"
            )
        order = rng.permutation(len(group))
        held.extend(group[i] for i in order[:n_held])
        kept.extend(group[i] for i in order[n_held:])
    return kept, held


def train_test_split(
    data: list[FeatureVector], test_fraction: float, seed: int
) -> tuple[list[FeatureVector], list[FeatureVector]]:
    """Stratified, seed-deterministic split into (train, test)."""
    return _stratified_split(data, test_fraction, seed)


def validation_split(
    train: list[FeatureVector], fraction: float, seed: int
) -> tuple[list[FeatureVector], list[FeatureVector]]:
    """Carve a stratified validation set out of the training set -> (train_core, validation)."""
    return _stratified_split(train, fraction, seed)


def bootstrap_resample(
    train_core: list[FeatureVector], target_size: int, seed: int
) -> list[FeatureVector]:
    """Draw target_size samples uniformly with replacement; deterministic per seed."""
    if target_size <= 0:
        raise ConfigError(f"target_size must be positive, got {target_size}")
    if not train_core:
        raise TrainingDataError("cannot resample an empty collection")
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(train_core), size=target_size)
    return [train_core[i] for i in picks]


def normals_only(collection: list[FeatureVector]) -> list[FeatureVector]:
    """Filter to NORMAL samples, order preserved; error if none remain."""
    normals = [fv for fv in collection if fv.label is ClassLabel.NORMAL]
    if not normals:
        raise TrainingDataError("no normal samples available for semi-supervised training")
    return normals


def validation_normals(validation: list[FeatureVector]) -> list[FeatureVector] | None:
    """NORMAL samples of a validation set, or None when it holds none."""
    normals = [fv for fv in validation if fv.label is ClassLabel.NORMAL]
    return normals or None


def class_counts(collection) -> dict[str, int]:
    counts = {ClassLabel.NORMAL.name: 0, ClassLabel.ABNORMAL.name: 0}
    for fv in collection:
        if fv.label is not None:
            counts[fv.label.name] += 1
    return counts
