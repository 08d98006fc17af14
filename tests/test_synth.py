from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from fetalguard import synth
from fetalguard.errors import ConfigError
from fetalguard.ingest import ClassLabel, ClinicalMetadata, LabeledRecord, SignalRecord, assign_label, load_each
from fetalguard.preprocess import PreprocessConfig, preprocess_collection
from fetalguard.synth import (
    SynthParams,
    SyntheticDataset,
    _add_plateau,
    generate_dataset,
    generate_record,
    write_dataset,
)
from oracles import reference_add_plateau, reference_write_dataset


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


def _tree(root: Path) -> dict:
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


class TestWriteDataset:
    def test_the_tree_is_byte_identical_to_the_serial_writer_on_every_core_count(self, tmp_path, set_cores):
        records = generate_dataset(5, 3, seed=4)
        reference_write_dataset(records, tmp_path / "reference")
        expected = _tree(tmp_path / "reference")
        assert len(expected) == 9  # eight signal files and metadata.csv
        for cores in (1, 2, 3):
            set_cores(cores)
            out = tmp_path / f"cores{cores}"
            assert write_dataset(records, out) == (out / "signals", out / "metadata.csv")
            assert _tree(out) == expected

    def test_records_of_several_rates_and_lengths_are_byte_identical_to_the_serial_writer(self, tmp_path, set_cores):
        special = [0.0, -0.0, 1e-05, 1e+16, 5e-324, float("nan"), float("inf")]
        # (samples, rate) per record, dealt so that at 1, 2 and 3 cores some worker writes one length
        # at two rates, and some worker one rate at a shorter length and then a longer one
        shapes = [(7, 4.0), (7, 3.0), (1, 4.0), (5, 3.0), (7, 4.0), (5, 4.0)]
        records = []
        for i, (n, rate) in enumerate(shapes):
            fhr = np.roll(special + [140.25, -float("inf")], i)[:n]
            record = SignalRecord(f"rec{i}", fhr, rate, ClinicalMetadata(ph=7.35, apgar1=9))
            records.append(LabeledRecord(record, ClassLabel.NORMAL))
        reference_write_dataset(records, tmp_path / "reference")
        expected = _tree(tmp_path / "reference")
        assert b"\r\n0.3333333333333333," in expected["signals/rec3.csv"]
        written = b"".join(expected.values())
        assert all(b",%s\r\n" % repr(value).encode() in written for value in special)
        for cores in (1, 2, 3):
            set_cores(cores)
            write_dataset(records, tmp_path / f"cores{cores}")
            assert _tree(tmp_path / f"cores{cores}") == expected

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="signal files are written in forked workers only where fork exists")
    def test_signal_files_are_written_in_workers_and_metadata_here(self, tmp_path, set_cores, monkeypatch):
        pids = []  # of the signal writes made in this process; a worker appends to its own copy
        write_signal = synth._write_signal

        def spy(record, *args):
            pids.append(os.getpid())
            return write_signal(record, *args)

        monkeypatch.setattr(synth, "_write_signal", spy)
        records = generate_dataset(3, 1, seed=4)
        for cores, written_here in ((2, []), (1, [os.getpid()] * 4)):
            set_cores(cores)
            pids.clear()
            out = tmp_path / f"cores{cores}"
            write_dataset(records, out)
            assert pids == written_here  # at 1 core, the spy sees every write
            assert len(list((out / "signals").glob("*.csv"))) == 4
            assert (out / "metadata.csv").exists()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="signal files are written in forked workers only where fork exists")
    def test_a_synthetic_dataset_is_synthesized_only_in_the_workers(self, tmp_path, set_cores, monkeypatch):
        pids = []  # of the records synthesized in this process
        dataset_record = synth.dataset_record

        def spy(*args):
            pids.append(os.getpid())
            return dataset_record(*args)

        monkeypatch.setattr(synth, "dataset_record", spy)
        set_cores(2)
        records = SyntheticDataset(3, 1, seed=4)
        assert len(records) == 4 and records[-1].record.record_id == "syn0003"
        pids.clear()
        write_dataset(records, tmp_path / "synthesized")
        assert pids == []
        write_dataset(generate_dataset(3, 1, seed=4), tmp_path / "held")
        assert _tree(tmp_path / "synthesized") == _tree(tmp_path / "held")

    def test_no_records_write_the_metadata_header_and_no_signals_directory(self, tmp_path, set_cores):
        set_cores(3)
        signals_dir, metadata_file = write_dataset([], tmp_path)
        assert not signals_dir.exists()
        assert metadata_file.read_bytes() == b"record_id,ph,apgar1,pco2,po2,bdecf\r\n"


class TestRoundTripThroughIngest:
    def test_written_dataset_reloads_with_same_labels(self, tmp_path):
        records = generate_dataset(6, 4, seed=7)
        signals_dir, metadata_file = write_dataset(records, tmp_path)
        loaded, skipped = load_each(signals_dir, metadata_file, lambda item: item)
        assert not skipped
        expected = {item.record.record_id: item.label for item in records}
        for item in loaded:
            assert item.label is expected[item.record.record_id]
        by_id = {item.record.record_id: item.record for item in loaded}
        for item in records:  # each written repr reads back as the same float64
            loaded_record = by_id[item.record.record_id]
            assert loaded_record.fhr.tobytes() == item.record.fhr.tobytes()
            assert loaded_record.sample_rate_hz == item.record.sample_rate_hz

    def test_normal_records_survive_preprocessing_into_unit_interval(self, tmp_path):
        records = generate_dataset(8, 0, seed=11)
        report = preprocess_collection(
            records, PreprocessConfig(median_window=5, feature_dim=64)
        )
        assert not report.rejected
        for fv in report.features:
            assert np.isfinite(fv.x).all()
            assert (fv.x >= 0.0).all() and (fv.x <= 1.0).all()
