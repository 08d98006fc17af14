from __future__ import annotations

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from oracles import reference_backward, reference_open

from fetalguard import ganomaly
from fetalguard.autoencoder import AeModel, training_inputs
from fetalguard.config import encode
from fetalguard.errors import ShapeError, TrainingDataError, TrainingError
from fetalguard.ganomaly import (
    GanomalyConfig,
    GanomalyModel,
    build_ganomaly_networks,
    discriminator_loss,
    gan_scores,
    generator_loss,
    train_ganomaly,
)
from fetalguard.experiment import FittedDetector, score_distribution_report
from fetalguard.ingest import ClassLabel
from fetalguard.nn import DenseNetwork, Layer, adam_step, AdamState, forward
from fetalguard.persistence import load_model, save_model
from fetalguard.preprocess import FeatureVector, as_matrix

TINY = GanomalyConfig(
    encoder_units=(16, 8, 4),
    decoder_units=(4, 8, 16),
    discriminator_units=(16, 4, 1),
    iterations_per_epoch=60,
    epochs=5,
    patience=5,
    batch_size=12,
)


def _structured_set(n, dim=24, abnormal=False, seed=0):
    """Baseline plus smooth bumps; abnormal adds a sustained dip."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        x = np.full(dim, rng.uniform(0.55, 0.65))
        for _ in range(2):
            center = int(rng.integers(0, dim))
            width = int(rng.integers(2, 5))
            amp = rng.uniform(-0.08, 0.10)
            lo, hi = max(0, center - width), min(dim, center + width)
            t = np.arange(lo, hi) - center
            x[lo:hi] += amp * 0.5 * (1 + np.cos(np.pi * t / width))
        if abnormal:
            start = int(rng.integers(0, dim - 8))
            x[start : start + 8] -= rng.uniform(0.15, 0.25)
        x += 0.01 * rng.normal(size=dim)
        label = ClassLabel.ABNORMAL if abnormal else ClassLabel.NORMAL
        out.append(FeatureVector(x=x, record_id=f"{'a' if abnormal else 'n'}{i}", label=label))
    return out


def _identity_net(dim):
    return DenseNetwork([Layer(np.eye(dim), np.zeros(dim), "identity")])


def _constant_sigmoid_discriminator(dim, logit):
    # D(x) = sigmoid(logit) regardless of x
    return DenseNetwork([Layer(np.zeros((dim, 1)), np.array([logit]), "sigmoid")])


def _offset_decoder(dim, offset):
    return DenseNetwork([Layer(np.eye(dim), np.full(dim, offset), "identity")])


class TestGeneratorLoss:
    def test_perfect_reconstruction_and_confident_discriminator_give_zero(self):
        dim = 4
        x = np.array([[0.2, 0.4, 0.6, 0.8]])
        loss, *_ = generator_loss(
            x,
            _identity_net(dim),
            _identity_net(dim),
            _identity_net(dim),
            _constant_sigmoid_discriminator(dim, logit=60.0),
            lambda_c=50.0,
            lambda_e=1.0,
            lambda_a=1.0,
        )
        assert loss == pytest.approx(0.0, abs=1e-5)

    def test_contextual_term_scales_by_lambda_c(self):
        # each of 4 components off by 0.05: per-sample L1 = 0.2; lambda_c 50 -> 10
        dim = 4
        x = np.array([[0.5, 0.5, 0.5, 0.5]])
        loss, *_ = generator_loss(
            x,
            _identity_net(dim),
            _offset_decoder(dim, 0.05),
            _identity_net(dim),
            _constant_sigmoid_discriminator(dim, logit=60.0),
            lambda_c=50.0,
            lambda_e=0.0,
            lambda_a=0.0,
        )
        assert loss == pytest.approx(10.0, abs=1e-9)

    def test_adversarial_term_at_half_is_log_two(self):
        dim = 3
        x = np.array([[0.1, 0.2, 0.3]])
        loss, *_ = generator_loss(
            x,
            _identity_net(dim),
            _identity_net(dim),
            _identity_net(dim),
            _constant_sigmoid_discriminator(dim, logit=0.0),
            lambda_c=0.0,
            lambda_e=0.0,
            lambda_a=1.0,
        )
        assert loss == pytest.approx(math.log(2.0), rel=1e-9)

    def test_empty_batch_rejected(self):
        dim = 3
        with pytest.raises(TrainingDataError):
            generator_loss(
                np.zeros((0, dim)),
                _identity_net(dim),
                _identity_net(dim),
                _identity_net(dim),
                _constant_sigmoid_discriminator(dim, 0.0),
                1.0,
                1.0,
                1.0,
            )

    def test_degenerates_to_scaled_reconstruction_objective(self):
        # lambda_e = lambda_a = 0: equals the autoencoder per-batch loss times lambda_c
        cfg = TINY
        e1, dec, e2, dis = build_ganomaly_networks(24, cfg, seed=3)
        batch = np.stack([fv.x for fv in _structured_set(10, seed=9)])
        lam_c = 50.0
        loss, *_ = generator_loss(batch, e1, dec, e2, dis, lam_c, 0.0, 0.0)
        ae_view = AeModel(
            encoder=e1, decoder=dec, feature_dim=24, latent_dim=e1.out_dim, k_sigma=1.0
        )
        from fetalguard.autoencoder import ae_scores

        per_sample = ae_scores(ae_view, [FeatureVector(x=row, record_id=str(i)) for i, row in enumerate(batch)])
        assert loss == pytest.approx(lam_c * per_sample.mean(), rel=1e-12)

    def test_gradient_check_against_finite_differences(self):
        # the objective is piecewise linear in the L1 terms, so coordinates whose
        # perturbation crosses a kink (one-sided slopes disagree) are skipped
        rng = np.random.default_rng(21)
        cfg = GanomalyConfig(
            encoder_units=(5, 3),
            decoder_units=(3, 5),
            discriminator_units=(4, 1),
            batch_size=2,
        )
        e1, dec, e2, dis = build_ganomaly_networks(6, cfg, seed=11)
        batch = rng.uniform(0.2, 0.8, size=(3, 6))
        lam = (2.0, 0.7, 1.3)
        fixed_latents, _ = forward(e1, rng.uniform(0.2, 0.8, size=(3, 6)))

        def total_loss():
            loss, *_ = generator_loss(
                batch, e1, dec, e2, dis, *lam, adversarial_latents=fixed_latents
            )
            return loss

        base = total_loss()
        _, gradients = generator_loss(
            batch, e1, dec, e2, dis, *lam, adversarial_latents=fixed_latents
        )
        ge1, gdec, ge2 = gradients()
        h = 1e-6
        checked = 0
        for net, analytic in ((e1, ge1), (dec, gdec), (e2, ge2)):
            for p, g in zip(net.parameters(), analytic):
                it = np.nditer(p, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = p[idx]
                    p[idx] = orig + h
                    up = total_loss()
                    p[idx] = orig - h
                    down = total_loss()
                    p[idx] = orig
                    right_slope = (up - base) / h
                    left_slope = (base - down) / h
                    if abs(right_slope - left_slope) > 1e-4 * max(1.0, abs(right_slope)):
                        continue
                    numeric = (up - down) / (2 * h)
                    assert numeric == pytest.approx(g[idx], rel=1e-3, abs=1e-6)
                    checked += 1
        assert checked > 50  # the skip rule must not hollow out the check

    def test_the_loss_alone_runs_no_backward_pass(self, monkeypatch):
        cfg = GanomalyConfig(encoder_units=(5, 3), decoder_units=(3, 5), discriminator_units=(4, 1))
        e1, dec, e2, dis = build_ganomaly_networks(6, cfg, seed=5)
        batch = np.random.default_rng(5).uniform(0.2, 0.8, size=(7, 6))
        loss, gradients = generator_loss(batch, e1, dec, e2, dis, 50.0, 1.0, 1.0)
        gradients()

        def no_backward(*args, **kwargs):
            raise AssertionError("the loss ran a backward pass")

        monkeypatch.setattr("fetalguard.ganomaly.backward", no_backward)
        assert generator_loss(batch, e1, dec, e2, dis, 50.0, 1.0, 1.0)[0] == loss

    def test_validation_runs_no_backward_pass(self, monkeypatch):
        import fetalguard.ganomaly as ganomaly

        calls = []
        original = ganomaly.backward

        def counting_backward(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ganomaly, "backward", counting_backward)
        cfg = GanomalyConfig(
            encoder_units=(8, 4), decoder_units=(4, 8), discriminator_units=(8, 1),
            epochs=3, iterations_per_epoch=2, patience=5, batch_size=4,
        )
        normals = _structured_set(12, dim=8, seed=2)
        _, trace = train_ganomaly(normals, cfg, seed=0, validation=normals[:4])
        assert len(trace.val_loss) == 3
        # per iteration: 2 passes per discriminator step, 5 per generator step
        assert len(calls) == cfg.epochs * cfg.iterations_per_epoch * (2 * cfg.k_d + 5 * cfg.k_g)


def test_skipping_discarded_gradients_trains_the_model_the_full_backward_pass_trains(monkeypatch):
    normals = _structured_set(40, seed=6)
    config = dataclasses.replace(TINY, epochs=3, iterations_per_epoch=20)

    def fit():
        model, trace = train_ganomaly(normals[:32], config, seed=8, validation=normals[32:])
        return encode(model), dataclasses.asdict(trace)

    fitted = fit()
    monkeypatch.setattr(ganomaly, "backward", lambda net, cache, g, **_: reference_backward(net, cache, g))
    assert fit() == fitted


class TestDiscriminatorLoss:
    def test_perfect_discrimination_is_near_zero(self):
        dim = 2
        dis = DenseNetwork(
            [Layer(np.array([[80.0], [0.0]]), np.array([-40.0]), "sigmoid")]
        )
        real = np.array([[1.0, 0.0]])  # logit +40 -> p ~ 1
        fake = np.array([[0.0, 0.0]])  # logit -40 -> p ~ 0
        loss, _ = discriminator_loss(real, fake, dis)
        assert loss == pytest.approx(0.0, abs=1e-5)

    def test_indifferent_discriminator_gives_two_log_two(self):
        dim = 3
        dis = _constant_sigmoid_discriminator(dim, logit=0.0)
        loss, _ = discriminator_loss(np.zeros((4, dim)), np.ones((4, dim)), dis)
        assert loss == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_batch_mean_semantics(self):
        dim = 1
        dis = DenseNetwork([Layer(np.array([[1.0]]), np.array([0.0]), "sigmoid")])

        def single(real, fake):
            loss, _ = discriminator_loss(np.array([[real]]), np.array([[fake]]), dis)
            return loss

        a = single(0.9, 0.1)
        b = single(0.2, 0.7)
        both, _ = discriminator_loss(np.array([[0.9], [0.2]]), np.array([[0.1], [0.7]]), dis)
        assert both == pytest.approx((a + b) / 2.0, rel=1e-12)

    def test_mismatched_batch_sizes_rejected(self):
        dis = _constant_sigmoid_discriminator(2, 0.0)
        with pytest.raises(ShapeError):
            discriminator_loss(np.zeros((3, 2)), np.zeros((2, 2)), dis)


class TestTraining:
    def test_update_counts_follow_k_d_and_k_g(self):
        normals = _structured_set(40, seed=1)
        _, trace = train_ganomaly(normals, TINY, seed=2)
        assert trace.generator_updates == 2 * trace.discriminator_updates

    def test_a_fit_moves_every_parameter_array_of_all_four_networks(self):
        normals = _structured_set(40, seed=1)
        net_seed = training_inputs(normals, None, 2)[2]  # the seed train_ganomaly builds its networks from
        initial = build_ganomaly_networks(24, TINY, net_seed)
        model, _ = train_ganomaly(normals, TINY, seed=2)
        trained = (model.encoder1, model.decoder, model.encoder2, model.discriminator)
        for name, before, after in zip(("encoder1", "decoder", "encoder2", "discriminator"), initial, trained):
            for i, (p0, p1) in enumerate(zip(before.parameters(), after.parameters(), strict=True)):
                assert not np.array_equal(p0, p1), f"{name} parameter {i} did not move"

    def test_seeded_runs_produce_identical_traces(self):
        normals = _structured_set(40, seed=4)
        _, a = train_ganomaly(normals, TINY, seed=6)
        _, b = train_ganomaly(normals, TINY, seed=6)
        assert a.l_d == b.l_d
        assert a.l_g == b.l_g

    def test_losses_finite_and_discriminator_near_equilibrium(self):
        normals = _structured_set(100, seed=5)
        _, trace = train_ganomaly(normals, TINY, seed=7, validation=_structured_set(25, seed=8))
        ld = np.array(trace.l_d)
        lg = np.array(trace.l_g)
        assert np.isfinite(ld).all() and np.isfinite(lg).all()
        tail = ld[int(0.9 * ld.size) :]
        assert 0.5 * 2 * math.log(2) <= tail.mean() <= 1.5 * 2 * math.log(2)

    def test_discriminator_update_leaves_generator_untouched(self):
        cfg = TINY
        e1, dec, e2, dis = build_ganomaly_networks(24, cfg, seed=13)
        batch = np.stack([fv.x for fv in _structured_set(12, seed=14)])
        gen_before = [p.copy() for p in e1.parameters() + dec.parameters() + e2.parameters()]
        z, _ = forward(e1, batch)
        generated, _ = forward(dec, z)
        _, grads = discriminator_loss(batch, generated, dis)
        adam_step(dis.parameters(), grads, AdamState.for_params(dis.parameters()))
        gen_after = e1.parameters() + dec.parameters() + e2.parameters()
        for before, after in zip(gen_before, gen_after):
            assert np.array_equal(before, after)

    def test_generator_update_leaves_discriminator_untouched(self):
        cfg = TINY
        e1, dec, e2, dis = build_ganomaly_networks(24, cfg, seed=15)
        batch = np.stack([fv.x for fv in _structured_set(12, seed=16)])
        dis_before = [p.copy() for p in dis.parameters()]
        gen_params = e1.parameters() + dec.parameters() + e2.parameters()
        ge1, gdec, ge2 = generator_loss(batch, e1, dec, e2, dis, 50.0, 1.0, 1.0)[1]()
        adam_step(gen_params, ge1 + gdec + ge2, AdamState.for_params(gen_params))
        for before, after in zip(dis_before, dis.parameters()):
            assert np.array_equal(before, after)

    def test_discriminator_outputs_stay_in_open_interval(self):
        normals = _structured_set(40, seed=17)
        model, _ = train_ganomaly(normals, TINY, seed=18)
        rng = np.random.default_rng(0)
        probes = rng.uniform(-5, 5, size=(50, model.feature_dim))
        p, _ = forward(model.discriminator, probes)
        assert ((p > 0.0) & (p < 1.0)).all()

    def test_empty_input_rejected(self):
        with pytest.raises(TrainingDataError):
            train_ganomaly([], TINY, seed=0)

    def test_a_non_finite_loss_ends_training_naming_its_iteration_and_both_losses(self):
        overflowing = [FeatureVector(x=np.full(24, 1e308), record_id=f"n{i}") for i in range(24)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the overflow is reported by the error alone
            with pytest.raises(TrainingError) as exc:
                train_ganomaly(overflowing, TINY, seed=0)
        message = str(exc.value)
        number = r"[-+]?(nan|inf|[0-9.e+-]+)"
        assert re.fullmatch(
            rf"ganomaly training stopped at iteration 0: non-finite loss \(l_d={number}, l_g={number}\)", message
        ), message
        # the message is all it carries: no loss history travels back from a worker
        assert exc.value.args == (message,) and not vars(exc.value)

    def test_early_stopping_returns_the_best_validation_epoch(self):
        validation = _structured_set(12, seed=2)
        config = GanomalyConfig(
            encoder_units=(16, 8, 4),
            decoder_units=(4, 8, 16),
            discriminator_units=(16, 4, 1),
            iterations_per_epoch=10,
            epochs=30,
            patience=2,
            batch_size=12,
            learning_rate=0.002,
        )
        model, trace = train_ganomaly(_structured_set(40, seed=1), config, seed=0, validation=validation)
        best = int(np.argmin(trace.val_loss))  # index 0 is the first epoch
        assert len(trace.val_loss) == best + 1 + config.patience < config.epochs
        networks = (model.encoder1, model.decoder, model.encoder2, model.discriminator)
        weights = (model.lambda_c, model.lambda_e, model.lambda_a)
        assert generator_loss(as_matrix(validation), *networks, *weights)[0] == min(trace.val_loss)


@pytest.fixture(scope="module")
def trained():
    normals = _structured_set(100, seed=19)
    model, _ = train_ganomaly(normals, TINY, seed=20)
    return model, normals


class TestScoring:

    def test_identity_generator_scores_zero(self):
        dim = 4
        model = GanomalyModel(
            encoder1=_identity_net(dim),
            decoder=_identity_net(dim),
            encoder2=_identity_net(dim),
            discriminator=_constant_sigmoid_discriminator(dim, 0.0),
            lambda_c=50.0,
            lambda_e=1.0,
            lambda_a=1.0,
            feature_dim=dim,
            latent_dim=dim,
            k_sigma=5.0,
        )
        assert model.scores([np.array([0.1, 0.2, 0.3, 0.4])]).tolist() == [0.0]

    def test_abnormal_scores_exceed_normal_scores(self, trained):
        model, normals = trained
        abnormals = _structured_set(25, abnormal=True, seed=21)
        s_normal = gan_scores(model, normals)
        s_abnormal = gan_scores(model, abnormals)
        assert s_abnormal.mean() > s_normal.mean()

    def test_five_sigma_threshold_flags_few_training_normals(self, trained):
        model, normals = trained
        scores = gan_scores(model, normals)
        tau = scores.mean() + 5.0 * scores.std()
        assert (scores > tau).mean() <= 0.04

    def test_identical_parameters_give_identical_scores(self, trained, tmp_path):
        model, normals = trained
        save_model(model, tmp_path / "model.json")
        clone = load_model(tmp_path / "model.json")
        assert clone.scores(normals).tolist() == model.scores(normals).tolist()

    def test_latent_mode_uses_encoder_distance(self, trained):
        model, normals = trained
        data_scores = gan_scores(model, normals)
        model.score_mode = "latent"
        latent_scores = gan_scores(model, normals)
        model.score_mode = "data"
        assert not np.allclose(data_scores, latent_scores)
        # latent mode: identical encoders' outputs compared through the decoder
        z1, _ = forward(model.encoder1, normals[0].x[None, :])
        xhat, _ = forward(model.decoder, z1)
        z2, _ = forward(model.encoder2, xhat)
        assert latent_scores[0] == pytest.approx(np.abs(z1 - z2).sum())

    def test_dimension_mismatch_rejected(self, trained):
        model, _ = trained
        with pytest.raises(ShapeError):
            model.scores([np.zeros(model.feature_dim + 3)])


def _distribution(model, train, test) -> dict:
    """score_distribution_report of a model calibrated on ``train``."""
    train_scores = model.scores(train)
    model.calibrate(train_scores)
    fitted = FittedDetector(model, model.tau, train_scores, None, {"k_sigma": model.k_sigma}, train)
    return score_distribution_report(fitted, test, model.scores(test))


class TestScoreDistributionReport:
    def _model(self):
        normals = _structured_set(60, seed=23)
        model, _ = train_ganomaly(normals, TINY, seed=24)
        return model, normals

    def test_report_counts_match_inputs(self):
        model, normals = self._model()
        test = _structured_set(10, seed=25) + _structured_set(8, abnormal=True, seed=26)
        report = _distribution(model, normals, test)
        assert report["partitions"]["train"]["normal"]["count"] == 60
        assert len(report["partitions"]["train"]["normal"]["scores"]) == 60
        assert report["partitions"]["test"]["abnormal"]["count"] == 8
        assert report["tau"] == model.tau
        assert report["k_sigma"] == model.k_sigma

    def test_absent_class_is_omitted_with_notice(self):
        model, normals = self._model()
        report = _distribution(model, normals, normals[:5])
        assert "abnormal" not in report["partitions"]["train"]
        assert any("abnormal" in n and "train" in n for n in report["notices"])

    def test_degenerate_identical_scores_report_zero_std(self):
        dim = 4
        model = GanomalyModel(
            encoder1=_identity_net(dim),
            decoder=_identity_net(dim),
            encoder2=_identity_net(dim),
            discriminator=_constant_sigmoid_discriminator(dim, 0.0),
            lambda_c=50.0,
            lambda_e=1.0,
            lambda_a=1.0,
            feature_dim=dim,
            latent_dim=dim,
            k_sigma=5.0,
        )
        data = [
            FeatureVector(x=np.zeros(dim), record_id=f"r{i}", label=ClassLabel.NORMAL)
            for i in range(4)
        ]
        report = _distribution(model, data, data)
        assert report["partitions"]["train"]["normal"]["std"] == 0.0

    def test_separable_synthetic_classes_order_their_means(self):
        model, normals = self._model()
        test = _structured_set(12, seed=27) + _structured_set(12, abnormal=True, seed=28)
        report = _distribution(model, normals, test)
        test_part = report["partitions"]["test"]
        assert test_part["normal"]["mean"] < test_part["abnormal"]["mean"]


def test_trace_csv_format(tmp_path):
    normals = _structured_set(30, seed=29)
    _, trace = train_ganomaly(normals, TINY, seed=30)
    trace.write_csv(tmp_path / "trace.csv")
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "iter,l_d,l_g"
    assert len(lines) == len(trace.l_d) + 1


def test_model_json_roundtrip_fields(tmp_path):
    normals = _structured_set(30, seed=31)
    model, _ = train_ganomaly(normals, TINY, seed=32)
    model.tau = 1.5
    save_model(model, tmp_path / "model.json")
    data = reference_open((tmp_path / "model.json").read_bytes())[0]
    assert data["lambda_c"] == 50.0 and data["k_sigma"] == 5.0
    restored = load_model(tmp_path / "model.json")
    assert restored.tau == 1.5
    assert restored.score_mode == "data"
