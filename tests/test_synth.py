from __future__ import annotations

import numpy as np
import pytest

from fetalguard.errors import ConfigError
from fetalguard.ingest import ClassLabel, assign_label, load_collection
from fetalguard.preprocess import PreprocessConfig, preprocess_collection
from fetalguard.synth import SynthParams, _add_plateau, generate_dataset, generate_record, write_dataset
from oracles import reference_add_plateau


class TestGenerateRecord:
    def test_quiet_params_give_constant_baseline(self):
        params = SynthParams(
            baseline_bpm=140.0, n_accels=0, n_decels=0, noise_std=0.0, dropout_rate=0.0
        )
        record, label = generate_record(params, seed=0)
        assert label is ClassLabel.NORMAL
        assert np.allclose(record.fhr, 140.0)
        assert record.sample_rate_hz == 4.0
        assert record.fhr.size == 20 * 60 * 4

    def test_full_dropout_gives_all_zero_signal(self):
        params = SynthParams(dropout_rate=1.0)
        record, _ = generate_record(params, seed=1)
        assert np.all(record.fhr == 0.0)

    def test_fixed_seed_reproduces_signal(self):
        params = SynthParams()
        a, _ = generate_record(params, seed=5)
        b, _ = generate_record(params, seed=5)
        assert np.array_equal(a.fhr, b.fhr)

    def test_abnormal_mode_dips_the_baseline_for_minutes(self):
        quiet = SynthParams(n_accels=0, n_decels=0, noise_std=0.0, dropout_rate=0.0)
        abnormal = SynthParams(
            n_accels=0, n_decels=0, noise_std=0.0, dropout_rate=0.0, abnormal=True
        )
        base_record, _ = generate_record(quiet, seed=9)
        record, label = generate_record(abnormal, seed=9)
        assert label is ClassLabel.ABNORMAL
        dip = base_record.fhr - record.fhr
        # sustained dip of at least 20 bpm for at least 3 minutes (720 samples)
        assert (dip >= 19.99).sum() >= 3 * 60 * 4

    def test_abnormal_metadata_agrees_with_labeling_rule(self):
        record, label = generate_record(SynthParams(abnormal=True), seed=2)
        assert assign_label(record.metadata) is label
        record, label = generate_record(SynthParams(abnormal=False), seed=2)
        assert assign_label(record.metadata) is label

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            SynthParams(baseline_bpm=90.0)
        with pytest.raises(ConfigError):
            SynthParams(dropout_rate=1.5)
        with pytest.raises(ConfigError):
            SynthParams(duration_min=-1.0)


class TestPlateau:
    @pytest.mark.parametrize(
        "start, length, ramp",
        [
            (0, 120, 60),  # starts at the first sample
            (950, 600, 60),  # clipped at the signal end
            (300, 90, 60),  # shorter than its two ramps, which overlap
            (300, 120, 60),  # exactly its two ramps
            (500, 1, 60),
            (400, 360, 60),  # as generate_record makes them: minutes long with 15-second ramps
            (999, 5, 3),  # one sample, at the end
        ],
    )
    def test_equals_the_sample_loop_bit_for_bit(self, start, length, ramp):
        signal = np.random.default_rng(start).normal(135.0, 4.0, size=1000)
        expected = signal.copy()
        _add_plateau(signal, start, length, 27.3, ramp)
        reference_add_plateau(expected, start, length, 27.3, ramp)
        assert signal.tobytes() == expected.tobytes()

    def test_leaves_the_rest_of_the_signal_alone(self):
        signal = np.full(100, 135.0)
        _add_plateau(signal, 40, 30, 20.0, 5)
        assert (signal[:40] == 135.0).all() and (signal[70:] == 135.0).all()
        assert (signal[45:65] == 115.0).all()


class TestGenerateDataset:
    def test_exact_class_counts_in_requested_proportions(self):
        records = generate_dataset(37, 18, seed=0)
        labels = [item.label for item in records]
        assert labels.count(ClassLabel.NORMAL) == 37
        assert labels.count(ClassLabel.ABNORMAL) == 18

    def test_all_normal(self):
        records = generate_dataset(10, 0, seed=0)
        assert all(item.label is ClassLabel.NORMAL for item in records)

    def test_same_seed_gives_identical_dataset(self):
        a = generate_dataset(5, 3, seed=42)
        b = generate_dataset(5, 3, seed=42)
        for left, right in zip(a, b):
            assert left.record.record_id == right.record.record_id
            assert np.array_equal(left.record.fhr, right.record.fhr)

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigError):
            generate_dataset(-1, 5, seed=0)

    def test_record_ids_are_unique(self):
        records = generate_dataset(20, 10, seed=3)
        ids = [item.record.record_id for item in records]
        assert len(set(ids)) == len(ids)


class TestRoundTripThroughIngest:
    def test_written_dataset_reloads_with_same_labels(self, tmp_path):
        records = generate_dataset(6, 4, seed=7)
        signals_dir, metadata_file = write_dataset(records, tmp_path)
        loaded = load_collection(signals_dir, metadata_file)
        assert not loaded.skipped
        expected = {item.record.record_id: item.label for item in records}
        for item in loaded.records:
            assert item.label is expected[item.record.record_id]
        by_id = {item.record.record_id: item.record for item in loaded.records}
        for item in records:
            assert np.allclose(by_id[item.record.record_id].fhr, item.record.fhr)

    def test_normal_records_survive_preprocessing_into_unit_interval(self, tmp_path):
        records = generate_dataset(8, 0, seed=11)
        report = preprocess_collection(
            records, PreprocessConfig(median_window=5, feature_dim=64)
        )
        assert not report.rejected
        for fv in report.features:
            assert np.isfinite(fv.x).all()
            assert (fv.x >= 0.0).all() and (fv.x <= 1.0).all()
