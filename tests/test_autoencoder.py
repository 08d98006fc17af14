from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from oracles import reference_backward

from fetalguard.autoencoder import (
    AeConfig,
    _mean_l1,
    ae_scores,
    build_ae_networks,
    calibrate_threshold,
    train_ae,
)
from fetalguard import autoencoder
from fetalguard.config import encode
from fetalguard.errors import ConfigError, ShapeError, TrainingDataError, TrainingError
from fetalguard.ingest import ClassLabel
from fetalguard.metrics import classify
from fetalguard.nn import forward
from fetalguard.persistence import load_model, save_model
from fetalguard.preprocess import FeatureVector, as_matrix


SMALL = AeConfig(encoder_units=(16, 8), decoder_units=(8, 16), epochs=60, patience=60, batch_size=8)


def _vectors(matrix, label=ClassLabel.NORMAL):
    return [FeatureVector(x=row, record_id=f"r{i}", label=label) for i, row in enumerate(matrix)]


def _near_constant_normals(n=48, dim=12, seed=0):
    rng = np.random.default_rng(seed)
    return _vectors(0.6 + 0.01 * rng.normal(size=(n, dim)))


def _constant_normals(n=48, dim=12, value=0.6):
    return _vectors(np.full((n, dim), value))


def _reconstruction(model, x):
    """decoder(encoder(x)) by two forward passes."""
    z, _ = forward(model.encoder, x)
    return forward(model.decoder, z)[0]


class TestArchitecture:
    def test_default_stack_matches_configured_units(self):
        encoder, decoder = build_ae_networks(480, AeConfig(), seed=0)
        assert [l.out_dim for l in encoder.layers] == [128, 64, 16]
        assert [l.out_dim for l in decoder.layers] == [16, 64, 128, 480]
        assert decoder.layers[-1].activation == "identity"
        assert all(l.activation == "relu" for l in encoder.layers)

    def test_projection_can_be_disabled_when_dims_match(self):
        encoder, decoder = build_ae_networks(
            128, AeConfig(project_to_input=False), seed=0
        )
        assert decoder.out_dim == 128

    def test_disabled_projection_with_mismatched_dim_is_config_error(self):
        with pytest.raises(ConfigError):
            build_ae_networks(480, AeConfig(project_to_input=False), seed=0)


class TestTraining:
    def test_reconstructs_degenerate_normals_closely(self):
        normals = _constant_normals()
        config = AeConfig(
            encoder_units=(16, 8), decoder_units=(8, 16), epochs=200, patience=200, batch_size=8
        )
        model, _ = train_ae(normals, config, seed=1)
        x = np.stack([fv.x for fv in normals])
        err = np.abs(x - _reconstruction(model, x))
        assert err.max() < 0.01

    def test_loss_descends(self):
        model, trace = train_ae(_near_constant_normals(), SMALL, seed=2)
        assert trace.train_loss[-1] < trace.train_loss[0]
        assert all(np.isfinite(v) for v in trace.train_loss)
        assert all(np.isfinite(v) for v in trace.val_loss)

    def test_seeded_training_is_reproducible(self):
        normals = _near_constant_normals()
        _, trace_a = train_ae(normals, SMALL, seed=3)
        _, trace_b = train_ae(normals, SMALL, seed=3)
        assert trace_a.train_loss == trace_b.train_loss
        assert trace_a.val_loss == trace_b.val_loss

    def test_skipping_discarded_gradients_trains_the_model_the_full_backward_pass_trains(self, monkeypatch):
        rng = np.random.default_rng(9)
        data = _vectors(0.5 + 0.05 * rng.normal(size=(44, 12)))
        config = dataclasses.replace(SMALL, epochs=12)

        def fit():
            model, trace = train_ae(data[:36], config, seed=4, validation=data[36:])
            return json.dumps(encode(model)), dataclasses.asdict(trace)

        fitted = fit()
        monkeypatch.setattr(autoencoder, "backward", lambda net, cache, g, **_: reference_backward(net, cache, g))
        assert fit() == fitted

    def test_validation_within_overfit_band(self):
        rng = np.random.default_rng(5)
        data = _vectors(0.5 + 0.05 * rng.normal(size=(64, 12)))
        model, trace = train_ae(data[:48], SMALL, seed=5, validation=data[48:])
        assert trace.val_loss[-1] <= 2.0 * trace.train_loss[-1] + 1e-9

    def test_early_stopping_returns_the_best_validation_epoch(self):
        rng = np.random.default_rng(5)
        data = _vectors(0.5 + 0.05 * rng.normal(size=(64, 12)))
        config = AeConfig(
            encoder_units=(16, 8), decoder_units=(8, 16), epochs=60, patience=3, batch_size=8, learning_rate=0.05
        )
        model, trace = train_ae(data[:48], config, seed=5, validation=data[48:])
        best = int(np.argmin(trace.val_loss))  # index 0 is the untrained network
        assert 0 < best and len(trace.val_loss) - 1 == best + config.patience < config.epochs
        assert _mean_l1(model.encoder, model.decoder, as_matrix(data[48:])) == min(trace.val_loss)

    def test_empty_input_rejected(self):
        with pytest.raises(TrainingDataError):
            train_ae([], SMALL, seed=0)

    def test_inconsistent_dimensions_rejected(self):
        bad = [
            FeatureVector(x=np.zeros(4), record_id="a", label=ClassLabel.NORMAL),
            FeatureVector(x=np.zeros(5), record_id="b", label=ClassLabel.NORMAL),
        ]
        with pytest.raises(ShapeError):
            train_ae(bad, SMALL, seed=0)

    def test_trace_csv(self, tmp_path):
        _, trace = train_ae(_near_constant_normals(n=16), SMALL, seed=0)
        trace.write_csv(tmp_path / "trace.csv")
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == len(trace.train_loss) + 1


class TestScoring:
    def _trained(self):
        return train_ae(_near_constant_normals(), SMALL, seed=7)[0]

    def test_perfect_reconstruction_scores_zero(self):
        model = self._trained()
        x = np.zeros(model.feature_dim)
        # score of the model's own fixed point: feed the reconstruction's reconstruction error bound
        xhat = _reconstruction(model, x)
        score = ae_scores(model, [x])[0]
        assert score == pytest.approx(np.abs(x - xhat).sum())

    def test_uniform_componentwise_error_sums(self):
        # d components each off by 0.1 must give d * 0.1
        model = self._trained()
        d = model.feature_dim
        x = np.full(d, 0.6)
        xhat = _reconstruction(model, x)
        shifted = xhat + 0.1
        assert np.abs(shifted - xhat).sum() == pytest.approx(0.1 * d)
        assert ae_scores(model, [shifted])[0] == pytest.approx(np.abs(shifted - _reconstruction(model, shifted)).sum())

    def test_scoring_is_order_independent(self):
        model = self._trained()
        rng = np.random.default_rng(11)
        batch = 0.6 + 0.1 * rng.normal(size=(10, model.feature_dim))
        forward_order = [ae_scores(model, [x])[0] for x in batch]
        reverse_order = [ae_scores(model, [x])[0] for x in batch[::-1]][::-1]
        assert forward_order == pytest.approx(reverse_order)
        assert ae_scores(model, _vectors(batch)).tolist() == pytest.approx(forward_order)

    def test_dimension_mismatch_rejected(self):
        model = self._trained()
        with pytest.raises(ShapeError):
            model.scores([np.zeros(model.feature_dim + 1)])


class TestCalibration:
    def test_zero_variance_scores(self):
        assert calibrate_threshold([0.1, 0.1, 0.1], k=1.0) == pytest.approx(0.1)

    def test_population_std_convention(self):
        # mean 1, population std 1 -> tau = 2
        assert calibrate_threshold([0.0, 2.0], k=1.0) == pytest.approx(2.0)

    def test_k_zero_gives_mean(self):
        assert calibrate_threshold([1.0, 3.0, 5.0], k=0.0) == pytest.approx(3.0)

    def test_requires_two_scores(self):
        with pytest.raises(ConfigError):
            calibrate_threshold([0.5], k=1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_training_score_is_refused(self, bad):
        with pytest.raises(TrainingError):
            calibrate_threshold([1.0, bad, 2.0], k=1.0)

    def test_classify_is_strict(self):
        assert classify(1.0, tau=1.0) is ClassLabel.NORMAL
        assert classify(1.0 + 1e-12, tau=1.0) is ClassLabel.ABNORMAL
        assert classify(0.0, tau=0.5) is ClassLabel.NORMAL


def test_model_roundtrip_preserves_scores(tmp_path):
    model, _ = train_ae(_near_constant_normals(n=16), SMALL, seed=9)
    model.tau = 0.123
    save_model(model, tmp_path / "model.json")
    restored = load_model(tmp_path / "model.json")
    x = np.full(model.feature_dim, 0.7)
    assert restored.tau == 0.123
    assert restored.scores([x]).tolist() == model.scores([x]).tolist()
