from __future__ import annotations

import numpy as np
import pytest

from fetalguard.datasets import (
    bootstrap_resample,
    normals_only,
    train_test_split,
    validation_split,
)
from fetalguard.errors import ConfigError, SplitError, TrainingDataError
from fetalguard.ingest import ClassLabel
from fetalguard.preprocess import FeatureVector


def _make_dataset(n_normal, n_abnormal, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_normal + n_abnormal):
        label = ClassLabel.NORMAL if i < n_normal else ClassLabel.ABNORMAL
        out.append(FeatureVector(x=rng.uniform(0, 1, size=dim), record_id=f"r{i:04d}", label=label))
    return out


def _count(items, label):
    return sum(1 for fv in items if fv.label is label)


def test_full_corpus_split_reproduces_56_test_with_19_abnormal():
    data = _make_dataset(370, 182)
    train, test = train_test_split(data, 0.10, seed=3)
    assert len(test) == 56
    assert _count(test, ClassLabel.ABNORMAL) == 19
    assert len(train) == 496
    assert _count(train, ClassLabel.ABNORMAL) == 163


def test_small_balanced_split_rounding():
    data = _make_dataset(5, 5)
    train, test = train_test_split(data, 0.2, seed=1)
    assert len(test) == 2
    assert _count(test, ClassLabel.ABNORMAL) == 1
    assert len(train) == 8


def test_split_is_deterministic_per_seed():
    data = _make_dataset(40, 20)
    first = train_test_split(data, 0.25, seed=9)
    second = train_test_split(data, 0.25, seed=9)
    assert [fv.record_id for fv in first[0]] == [fv.record_id for fv in second[0]]
    assert [fv.record_id for fv in first[1]] == [fv.record_id for fv in second[1]]


def test_split_preserves_the_multiset_of_ids():
    rng = np.random.default_rng(31)
    for trial in range(25):
        n_normal = int(rng.integers(3, 60))
        n_abnormal = int(rng.integers(3, 60))
        fraction = float(rng.uniform(0.1, 0.5))
        data = _make_dataset(n_normal, n_abnormal, seed=trial)
        train, test = train_test_split(data, fraction, seed=trial)
        assert sorted(fv.record_id for fv in train + test) == sorted(
            fv.record_id for fv in data
        )
        assert not {fv.record_id for fv in train} & {fv.record_id for fv in test}


def test_split_stratification_tracks_global_proportion():
    rng = np.random.default_rng(13)
    for trial in range(20):
        n_normal = int(rng.integers(50, 200))
        n_abnormal = int(rng.integers(30, 150))
        data = _make_dataset(n_normal, n_abnormal, seed=100 + trial)
        _, test = train_test_split(data, 0.10, seed=trial)
        global_prop = n_abnormal / (n_normal + n_abnormal)
        test_prop = _count(test, ClassLabel.ABNORMAL) / len(test)
        assert abs(test_prop - global_prop) <= 0.05 + 1e-9


def test_split_rejects_missing_class():
    data = _make_dataset(10, 0)
    with pytest.raises(SplitError):
        train_test_split(data, 0.2, seed=0)


def test_split_rejects_bad_fraction():
    data = _make_dataset(5, 5)
    for fraction in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ConfigError):
            train_test_split(data, fraction, seed=0)


def test_validation_fractions_match_protocol():
    train = _make_dataset(333, 163)
    core, val = validation_split(train, 0.10, seed=2)
    assert len(val) == 51  # ceil(33.3) + ceil(16.3)
    assert len(core) == 445
    core40, val40 = validation_split(train, 0.40, seed=2)
    assert len(val40) == 200  # ceil(133.2) + ceil(65.2)
    assert len(core40) == 296


def test_validation_split_error_when_class_empties():
    data = _make_dataset(5, 5)
    with pytest.raises(SplitError):
        validation_split(data, 0.999, seed=0)


def test_bootstrap_resample_members_come_from_source():
    source = _make_dataset(20, 10)
    out = bootstrap_resample(source, target_size=50, seed=4)
    assert len(out) == 50
    ids = {fv.record_id for fv in source}
    assert all(fv.record_id in ids for fv in out)


def test_bootstrap_resample_is_deterministic():
    source = _make_dataset(10, 5)
    a = bootstrap_resample(source, 30, seed=8)
    b = bootstrap_resample(source, 30, seed=8)
    assert [fv.record_id for fv in a] == [fv.record_id for fv in b]


def test_bootstrap_single_element_source_repeats_it():
    source = _make_dataset(1, 0)
    out = bootstrap_resample(source, 5, seed=0)
    assert [fv.record_id for fv in out] == [source[0].record_id] * 5


def test_bootstrap_rejects_nonpositive_target():
    with pytest.raises(ConfigError):
        bootstrap_resample(_make_dataset(2, 2), 0, seed=0)


def test_bootstrap_rejects_empty_source():
    with pytest.raises(TrainingDataError):
        bootstrap_resample([], 5, seed=0)


def test_normals_only_preserves_order():
    data = _make_dataset(3, 2)
    mixed = [data[3], data[0], data[4], data[1], data[2]]
    normals = normals_only(mixed)
    assert [fv.record_id for fv in normals] == ["r0000", "r0001", "r0002"]


def test_normals_only_identity_on_all_normal():
    data = _make_dataset(4, 0)
    assert normals_only(data) == data


def test_normals_only_rejects_all_abnormal():
    with pytest.raises(TrainingDataError):
        normals_only(_make_dataset(0, 3))
