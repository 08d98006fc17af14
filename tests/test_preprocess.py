from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import median_oracle

from fetalguard.errors import ConfigError, FetalGuardError, PreprocessError
from fetalguard.ingest import ClassLabel, SignalRecord
from fetalguard.preprocess import (
    CleanSignal,
    PreprocessConfig,
    clip_physiological,
    featurize,
    interpolate_missing,
    median_smooth,
    preprocess_pipeline,
    read_features_csv,
    write_features_csv,
)


class TestClip:
    def test_out_of_range_samples_become_missing(self):
        values, missing = clip_physiological([49.0, 120.0, 201.0])
        assert values.tolist() == [49.0, 120.0, 201.0]
        assert missing.tolist() == [True, False, True]

    def test_boundary_values_are_retained(self):
        _, missing = clip_physiological([50.0, 200.0])
        assert missing.tolist() == [False, False]

    def test_zero_dropout_convention(self):
        _, missing = clip_physiological([0.0, 140.0])
        assert missing.tolist() == [True, False]

    def test_non_finite_samples_become_missing(self):
        _, missing = clip_physiological([np.nan, np.inf, -np.inf, 140.0])
        assert missing.tolist() == [True, True, True, False]

    def test_empty_signal_rejected(self):
        with pytest.raises(PreprocessError):
            clip_physiological([])


class TestInterpolate:
    def test_midpoint_fill(self):
        clean = interpolate_missing(
            np.array([100.0, 0.0, 120.0]), np.array([False, True, False])
        )
        assert clean.values.tolist() == [100.0, 110.0, 120.0]
        assert clean.mask.tolist() == [False, True, False]

    def test_leading_run_extends_nearest_value(self):
        clean = interpolate_missing(
            np.array([0.0, 0.0, 130.0, 130.0]), np.array([True, True, False, False])
        )
        assert clean.values.tolist() == [130.0, 130.0, 130.0, 130.0]

    def test_trailing_run_extends_nearest_value(self):
        clean = interpolate_missing(
            np.array([110.0, 0.0]), np.array([False, True])
        )
        assert clean.values.tolist() == [110.0, 110.0]

    def test_no_missing_is_identity(self):
        clean = interpolate_missing(np.array([100.0, 120.0]), np.array([False, False]))
        assert clean.values.tolist() == [100.0, 120.0]

    def test_all_missing_rejected(self):
        with pytest.raises(PreprocessError):
            interpolate_missing(np.array([0.0, 0.0]), np.array([True, True]))

    def test_valid_samples_pass_through_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            values = rng.uniform(50, 200, size=n)
            missing = rng.random(n) < 0.3
            missing[int(rng.integers(0, n))] = False  # keep one valid sample
            clean = interpolate_missing(values, missing)
            valid = ~missing
            assert np.array_equal(clean.values[valid], values[valid])


class TestMedianSmooth:
    def test_spec_example(self):
        clean = CleanSignal(np.array([1.0, 9.0, 1.0, 9.0, 1.0]), np.zeros(5, dtype=bool))
        out = median_smooth(clean, 3)
        assert out.values.tolist() == [1.0, 1.0, 9.0, 1.0, 1.0]

    def test_constant_signal_unchanged(self):
        clean = CleanSignal(np.full(9, 140.0), np.zeros(9, dtype=bool))
        assert median_smooth(clean, 5).values.tolist() == [140.0] * 9

    def test_window_one_is_identity(self):
        values = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        clean = CleanSignal(values, np.zeros(5, dtype=bool))
        assert median_smooth(clean, 1).values.tolist() == values.tolist()

    @pytest.mark.parametrize("window", [0, -3, 2, 4])
    def test_even_or_nonpositive_window_rejected(self, window):
        clean = CleanSignal(np.ones(9), np.zeros(9, dtype=bool))
        with pytest.raises(ConfigError):
            median_smooth(clean, window)

    def test_window_longer_than_signal_rejected(self):
        clean = CleanSignal(np.ones(3), np.zeros(3, dtype=bool))
        with pytest.raises(ConfigError):
            median_smooth(clean, 5)

    def test_matches_sort_oracle_on_random_signals(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(3, 80))
            window = int(rng.choice([3, 5, 7]))
            if window > n:
                window = 3 if n >= 3 else 1
            values = rng.uniform(50, 200, size=n)
            clean = CleanSignal(values, np.zeros(n, dtype=bool))
            out = median_smooth(clean, window)
            assert out.values.tolist() == median_oracle(values, window)

    @pytest.mark.parametrize("window", range(1, 16, 2))
    def test_equals_numpy_median_bit_for_bit(self, window):
        rng = np.random.default_rng(window)
        for n in (window, window + 1, 3 * window + 2, 200):  # n == window: one window spans the signal
            for values in (rng.uniform(50, 200, size=n), np.round(rng.uniform(110, 160, size=n))):  # ties too
                pad = window // 2
                padded = np.concatenate([np.full(pad, values[0]), values, np.full(pad, values[-1])])
                expected = np.median(np.lib.stride_tricks.sliding_window_view(padded, window), axis=1)
                out = median_smooth(CleanSignal(values, np.zeros(n, dtype=bool)), window)
                assert out.values.tobytes() == expected.tobytes()

    def test_window_three_reaches_fixed_point_on_binary_signals(self):
        # iterated filtering converges to a root signal within ceil(n/2) passes,
        # after which one more pass is the identity
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(3, 25))
            values = rng.choice([60.0, 180.0], size=n)
            current = CleanSignal(values, np.zeros(n, dtype=bool))
            for _ in range((n + 1) // 2 + 1):
                following = median_smooth(current, 3)
                if following.values.tolist() == current.values.tolist():
                    break
                current = following
            assert median_smooth(current, 3).values.tolist() == current.values.tolist()


class TestFeaturize:
    def test_constant_signal_normalizes_to_point_six(self):
        clean = CleanSignal(np.full(4800, 140.0), np.zeros(4800, dtype=bool))
        x = featurize(clean, 480, sample_rate_hz=4.0)
        assert x.shape == (480,)
        assert np.allclose(x, 0.6)

    def test_bins_average_ten_consecutive_samples(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(50, 200, size=4800)
        clean = CleanSignal(values, np.zeros(4800, dtype=bool))
        x = featurize(clean, 480, sample_rate_hz=4.0)
        expected = np.array(
            [(values[10 * i : 10 * (i + 1)].mean() - 50.0) / 150.0 for i in range(480)]
        )
        assert np.allclose(x, expected, atol=1e-12)

    def test_length_equal_to_dim_is_identity_reduction(self):
        values = np.linspace(50, 200, 16)
        clean = CleanSignal(values, np.zeros(16, dtype=bool))
        x = featurize(clean, 16, sample_rate_hz=4.0)
        assert np.allclose(x, (values - 50.0) / 150.0)

    def test_takes_final_segment_only(self):
        # first half 100 bpm, last 20 minutes 150 bpm
        values = np.concatenate([np.full(2400, 100.0), np.full(4800, 150.0)])
        clean = CleanSignal(values, np.zeros(values.size, dtype=bool))
        x = featurize(clean, 480, sample_rate_hz=4.0, segment_minutes=20.0)
        assert np.allclose(x, (150.0 - 50.0) / 150.0)

    def test_signal_shorter_than_dim_rejected(self):
        clean = CleanSignal(np.full(10, 140.0), np.zeros(10, dtype=bool))
        with pytest.raises(PreprocessError):
            featurize(clean, 16, sample_rate_hz=4.0)

    def test_commutes_with_constant_shift(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(80, 150, size=960)
        shift = 20.0
        base = featurize(CleanSignal(values, np.zeros(960, dtype=bool)), 96, sample_rate_hz=4.0)
        shifted = featurize(
            CleanSignal(values + shift, np.zeros(960, dtype=bool)), 96, sample_rate_hz=4.0
        )
        assert np.allclose(shifted, base + shift / 150.0, atol=1e-12)


class TestPipeline:
    def _record(self, values, record_id="r1"):
        return SignalRecord(record_id, np.asarray(values, dtype=float), 4.0)

    def test_clipped_sample_gets_filled_before_featurization(self):
        values = np.full(64, 100.0)
        values[0] = 49.0  # below range: marked missing, then edge-extended to 100
        fv = preprocess_pipeline(
            self._record(values), PreprocessConfig(median_window=3, feature_dim=64)
        )
        assert np.allclose(fv.x, (100.0 - 50.0) / 150.0)

    def test_constant_record_is_pure_normalization(self):
        fv = preprocess_pipeline(
            self._record(np.full(64, 140.0)),
            PreprocessConfig(median_window=5, feature_dim=64),
        )
        assert np.allclose(fv.x, 0.6)

    def test_all_dropout_record_rejected_with_id(self):
        with pytest.raises(PreprocessError) as exc:
            preprocess_pipeline(
                self._record(np.zeros(64), record_id="bad42"),
                PreprocessConfig(median_window=3, feature_dim=16),
            )
        assert "bad42" in str(exc.value)

    def test_fuzzed_inputs_stay_in_unit_interval(self):
        rng = np.random.default_rng(17)
        config = PreprocessConfig(median_window=5, feature_dim=32)
        for _ in range(40):
            n = int(rng.integers(40, 300))
            values = rng.uniform(-50, 400, size=n)
            values[rng.random(n) < 0.1] = 0.0
            values[rng.random(n) < 0.05] = np.nan
            if not ((values >= 50) & (values <= 200)).any():
                values[0] = 120.0
            fv = preprocess_pipeline(self._record(values), config)
            assert np.isfinite(fv.x).all()
            assert (fv.x >= 0.0).all() and (fv.x <= 1.0).all()

    def test_label_is_carried_through(self):
        fv = preprocess_pipeline(
            self._record(np.full(64, 140.0)),
            PreprocessConfig(median_window=3, feature_dim=16),
            label=ClassLabel.ABNORMAL,
        )
        assert fv.label is ClassLabel.ABNORMAL


def test_feature_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(23)
    from fetalguard.preprocess import FeatureVector

    features = [
        FeatureVector(x=rng.uniform(0, 1, size=8), record_id=f"r{i}", label=ClassLabel(i % 2))
        for i in range(5)
    ]
    path = tmp_path / "features.csv"
    write_features_csv(features, path)
    loaded = read_features_csv(path)
    assert [fv.record_id for fv in loaded] == [f"r{i}" for i in range(5)]
    for a, b in zip(features, loaded):
        assert a.label == b.label
        assert np.array_equal(a.x, b.x)


@pytest.fixture(scope="module")
def features_file(tmp_path_factory):
    return tmp_path_factory.mktemp("features-fuzz") / "features.csv"


FEATURE_CELLS = st.one_of(
    st.sampled_from(
        ["", " ", "0.5", " 1 ", "1_0", "nan", "-inf", "1e400", "0x10", '"0.5"', '"0\n5"', "x", "\r", "\x00",
         "\ud800"]
    ),
    st.floats().map(repr),
    st.text(max_size=4),
)


@st.composite
def feature_texts(draw):
    """A header of 0-3 feature columns, then rows of mostly its width with labels and cells, some broken."""
    dim = draw(st.integers(0, 3))
    prefix = draw(st.sampled_from([["record_id", "label"], ["id", "label"], []]))
    header = prefix + [f"f{i}" for i in range(dim)]
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        label = draw(st.sampled_from(["", "0", "1", "2", " 1", "x"]))
        n_cells = draw(st.sampled_from([dim, dim, dim, dim + 1, max(dim - 1, 0)]))
        cells = draw(st.lists(FEATURE_CELLS, min_size=n_cells, max_size=n_cells))
        rows.append(",".join([draw(st.sampled_from(["r1", "r2", ""])), label] + cells))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join([",".join(header)] + rows) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(feature_texts(), st.binary(max_size=3))
@example("record_id,label,f0,f1\nr1,1,0.5,0.25\nr2,,0.5,nan\n", b"")
@example("record_id,label,f0\nr1,1,0.5\r0.25\n", b"")  # a bare carriage return inside a row
@example("record_id,label,f0\nr1,1,0.5\n", b"\xff")  # not UTF-8
@example("record_id,label,f0\nr1,1," + "5" * 200_000 + "\n", b"")  # a cell beyond csv's size limit
def test_read_features_is_a_typed_error_or_valid_features(features_file, text, tail):
    features_file.unlink(missing_ok=True)  # a new file: truncating one can cost tens of ms per example
    features_file.write_bytes(text.encode("utf-8", "surrogatepass") + tail)
    try:
        features = read_features_csv(features_file)
    except FetalGuardError:
        return
    assert features
    dim = features[0].x.size
    for fv in features:
        assert isinstance(fv.record_id, str)
        assert fv.label in (None, ClassLabel.NORMAL, ClassLabel.ABNORMAL)
        assert fv.x.dtype == np.float64 and fv.x.shape == (dim,) and dim > 0
