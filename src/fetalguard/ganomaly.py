"""Adversarially trained encoder-decoder-encoder anomaly detector (GANomaly variant).

The generator (encoder1 -> decoder -> encoder2) minimizes a weighted sum of a
contextual L1 term, a latent L1 term, and the original GAN cross-entropy
adversarial term; the discriminator maximizes its ability to tell real samples
from reconstructions. Updates alternate: k_d discriminator steps then k_g
generator steps, each on freshly sampled minibatches.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar

import numpy as np

from . import autoencoder, nn
from .datasets import bootstrap_resample, normals_only, validation_normals
from .errors import ConfigError, ShapeError, TrainingDataError, TrainingError
from .nn import (
    AdamState,
    DenseNetwork,
    adam_step,
    adversarial_term,
    backward,
    bce_terms,
    forward,
    init_network,
)
from .preprocess import as_matrix

logger = logging.getLogger(__name__)

SCORE_MODES = ("data", "latent")


@dataclass
class GanomalyConfig:
    encoder_units: tuple[int, ...] = (128, 64, 16)
    decoder_units: tuple[int, ...] = (16, 64, 128)
    discriminator_units: tuple[int, ...] = (128, 16, 1)
    leaky_alpha: float = 0.2
    project_to_input: bool = True
    learning_rate: float = 0.0002
    beta1: float = 0.50
    beta2: float = 0.999
    epsilon: float = 1e-8
    lambda_c: float = 50.0
    lambda_e: float = 1.0
    lambda_a: float = 1.0
    k_d: int = 1
    k_g: int = 2
    batch_size: int = 32
    iterations_per_epoch: int = 500
    epochs: int = 40
    patience: int = 25
    k_sigma: float = 5.0
    score_mode: str = "data"

    def __post_init__(self):
        if self.score_mode not in SCORE_MODES:
            raise ConfigError(f"score_mode must be one of {SCORE_MODES}, got {self.score_mode!r}")
        if min(self.lambda_c, self.lambda_e, self.lambda_a) < 0:
            raise ConfigError("loss weights must be nonnegative")
        if self.k_d <= 0 or self.k_g <= 0 or self.batch_size <= 0:
            raise ConfigError("k_d, k_g, and batch_size must be positive")


@dataclass
class GanomalyModel:
    """Trained GANomaly networks; scores, calibrate and to_dict form the shared detector interface."""

    model_type: ClassVar[str] = "ganomaly"
    config_type: ClassVar[type] = GanomalyConfig
    calibration_param: ClassVar[str] = "k_sigma"

    encoder1: DenseNetwork
    decoder: DenseNetwork
    encoder2: DenseNetwork
    discriminator: DenseNetwork
    lambda_c: float
    lambda_e: float
    lambda_a: float
    feature_dim: int
    latent_dim: int
    k_sigma: float
    score_mode: str = "data"
    tau: float | None = None
    optimizer: dict | None = None  # hyperparameters the model was trained with
    preprocess: dict | None = None

    @classmethod
    def fit(cls, config: GanomalyConfig, train_core, validation, pre_validation_size: int, seed: int):
        """Train on the training-core normals bootstrapped to the pre-validation size."""
        fit_items = bootstrap_resample(normals_only(train_core), pre_validation_size, seed)
        model, trace = train_ganomaly(fit_items, config, seed, validation=validation_normals(validation))
        return model, trace, fit_items

    @classmethod
    def from_dict(cls, data: dict) -> "GanomalyModel":
        return model_from_dict(data)

    def scores(self, samples) -> np.ndarray:
        return gan_scores(self, samples)

    def calibrate(self, train_scores) -> float:
        self.tau = autoencoder.calibrate_threshold(train_scores, self.k_sigma)
        return self.tau

    def to_dict(self) -> dict:
        return model_to_dict(self)


@dataclass
class GanTrainingTrace:
    """Per-outer-iteration discriminator/generator losses and epoch boundaries."""

    l_d: list[float] = field(default_factory=list)
    l_g: list[float] = field(default_factory=list)
    epoch_boundaries: list[int] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    discriminator_updates: int = 0
    generator_updates: int = 0

    def write_csv(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "l_d", "l_g"])
            for i, (d, g) in enumerate(zip(self.l_d, self.l_g)):
                writer.writerow([i, repr(d), repr(g)])


def build_ganomaly_networks(
    feature_dim: int, config: GanomalyConfig, seed
) -> tuple[DenseNetwork, DenseNetwork, DenseNetwork, DenseNetwork]:
    """Encoder1, decoder, encoder2, discriminator per config.

    Encoders and decoder use leaky relu; the decoder gets an identity output
    projection back to the input dimension; the discriminator ends in a sigmoid.
    """
    a = config.leaky_alpha
    enc_spec, dec_spec = nn.encoder_decoder_specs(feature_dim, config, "leaky_relu", a)
    dis_spec, dis_prev = nn.chain_spec(feature_dim, config.discriminator_units[:-1], "leaky_relu", a)
    dis_spec.append((dis_prev, config.discriminator_units[-1], "sigmoid", 0.0))

    seeds = nn.as_seed_sequence(seed).spawn(4)
    return (
        init_network(enc_spec, seeds[0]),
        init_network(dec_spec, seeds[1]),
        init_network(enc_spec, seeds[2]),
        init_network(dis_spec, seeds[3]),
    )


def generator_loss(
    batch: np.ndarray,
    encoder1: DenseNetwork,
    decoder: DenseNetwork,
    encoder2: DenseNetwork,
    discriminator: DenseNetwork,
    lambda_c: float,
    lambda_e: float,
    lambda_a: float,
    adversarial_latents: np.ndarray | None = None,
) -> tuple[float, Callable[[], tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]]]:
    """Generator objective on one minibatch -> (loss, gradients).

    The contextual and latent terms are computed on ``batch``; the adversarial
    term -lambda_a * mean log D(g(z)) consumes ``adversarial_latents`` (default:
    this batch's own latents) as fixed decoder inputs, so it trains the decoder
    but not encoder1. Only forward passes run here; calling ``gradients()``
    runs the backward passes and returns the gradients of encoder1, decoder and
    encoder2. The discriminator is frozen: gradients flow through it but are
    discarded.
    """
    x = np.atleast_2d(np.asarray(batch, dtype=float))
    if x.shape[0] == 0:
        raise TrainingDataError("generator batch is empty")
    b = x.shape[0]

    z1, e1_cache = forward(encoder1, x)
    xhat, dec_cache = forward(decoder, z1)
    z2, e2_cache = forward(encoder2, xhat)
    if xhat.shape != x.shape:
        raise ShapeError(f"reconstruction shape {xhat.shape} != input shape {x.shape}")

    contextual = float(np.abs(x - xhat).sum(axis=1).mean())
    latent = float(np.abs(z1 - z2).sum(axis=1).mean())

    z_adv = z1 if adversarial_latents is None else np.atleast_2d(np.asarray(adversarial_latents, dtype=float))
    x_gen, dec_adv_cache = forward(decoder, z_adv)
    p_fake, dis_cache = forward(discriminator, x_gen)
    adv_loss, d_p = adversarial_term(p_fake)
    loss = lambda_c * contextual + lambda_e * latent + lambda_a * adv_loss

    def gradients():
        d_z2 = lambda_e * np.sign(z2 - z1) / b
        e2_grads, d_xhat_latent = backward(encoder2, e2_cache, d_z2)
        d_xhat = lambda_c * np.sign(xhat - x) / b + d_xhat_latent
        dec_grads, d_z1 = backward(decoder, dec_cache, d_xhat)
        d_z1 = d_z1 + lambda_e * np.sign(z1 - z2) / b
        e1_grads, _ = backward(encoder1, e1_cache, d_z1)

        _, d_x_gen = backward(discriminator, dis_cache, lambda_a * d_p)
        dec_adv_grads, _ = backward(decoder, dec_adv_cache, d_x_gen)
        for main, extra in zip(dec_grads, dec_adv_grads):
            main += extra
        return e1_grads, dec_grads, e2_grads

    return loss, gradients


def discriminator_loss(
    batch: np.ndarray, generated: np.ndarray, discriminator: DenseNetwork
) -> tuple[float, list[np.ndarray]]:
    """Cross-entropy discriminator objective with gradients for the discriminator only."""
    real = np.atleast_2d(np.asarray(batch, dtype=float))
    fake = np.atleast_2d(np.asarray(generated, dtype=float))
    if real.shape[0] != fake.shape[0]:
        raise ShapeError(
            f"real batch ({real.shape[0]}) and generated batch ({fake.shape[0]}) differ in size"
        )
    p_real, cache_real = forward(discriminator, real)
    p_fake, cache_fake = forward(discriminator, fake)
    loss, g_real, g_fake = bce_terms(p_real, p_fake)
    grads_real, _ = backward(discriminator, cache_real, g_real)
    grads_fake, _ = backward(discriminator, cache_fake, g_fake)
    return loss, [a + b for a, b in zip(grads_real, grads_fake)]


def train_ganomaly(
    normals,
    config: GanomalyConfig | None = None,
    seed: int = 0,
    validation=None,
) -> tuple[GanomalyModel, GanTrainingTrace]:
    """Alternating adversarial training on normal samples only.

    Per outer iteration: k_d discriminator updates then k_g generator updates,
    each on two freshly drawn minibatches (one providing latents, one providing
    the direct samples). Adam state is kept separately for the generator group
    and the discriminator. Stops early when the generator validation objective
    has not improved for ``patience`` epochs; restores the best snapshot.
    """
    config = config or GanomalyConfig()
    x = as_matrix(normals)
    x_val = as_matrix(validation) if validation else x
    n, d = x.shape
    if x_val.shape[1] != d:
        raise ShapeError("validation dimension differs from training dimension")

    seq = np.random.SeedSequence(seed)
    net_seed, batch_seed = seq.spawn(2)
    e1, dec, e2, dis = build_ganomaly_networks(d, config, net_seed)
    gen_params = e1.parameters() + dec.parameters() + e2.parameters()
    dis_params = dis.parameters()
    opt_g = AdamState.for_params(
        gen_params, config.learning_rate, config.beta1, config.beta2, config.epsilon
    )
    opt_d = AdamState.for_params(
        dis_params, config.learning_rate, config.beta1, config.beta2, config.epsilon
    )
    rng = np.random.default_rng(batch_seed)

    def draw():
        return x[rng.integers(0, n, size=config.batch_size)]

    trace = GanTrainingTrace()
    best_val = np.inf
    best_snapshot = None
    stale = 0

    for epoch in range(config.epochs):
        for _ in range(config.iterations_per_epoch):
            d_losses = []
            for _ in range(config.k_d):
                latents = forward(e1, draw())[0]
                real = draw()
                generated, _ = forward(dec, latents)
                loss_d, grads_dis = discriminator_loss(real, generated, dis)
                adam_step(dis_params, grads_dis, opt_d)
                trace.discriminator_updates += 1
                d_losses.append(loss_d)

            g_losses = []
            for _ in range(config.k_g):
                latents = forward(e1, draw())[0]
                batch = draw()
                loss_g, gradients = generator_loss(
                    batch, e1, dec, e2, dis,
                    config.lambda_c, config.lambda_e, config.lambda_a,
                    adversarial_latents=latents,
                )
                ge1, gdec, ge2 = gradients()
                adam_step(gen_params, ge1 + gdec + ge2, opt_g)
                trace.generator_updates += 1
                g_losses.append(loss_g)

            l_d = float(np.mean(d_losses))
            l_g = float(np.mean(g_losses))
            trace.l_d.append(l_d)
            trace.l_g.append(l_g)
            if not (np.isfinite(l_d) and np.isfinite(l_g)):
                raise TrainingError(
                    "non-finite loss during adversarial training",
                    diagnostics={
                        "iteration": len(trace.l_d) - 1,
                        "l_d": l_d,
                        "l_g": l_g,
                        "trace_l_d": trace.l_d,
                        "trace_l_g": trace.l_g,
                    },
                )
        trace.epoch_boundaries.append(len(trace.l_d))

        val = generator_loss(  # forward terms only: the gradients are never asked for
            x_val, e1, dec, e2, dis, config.lambda_c, config.lambda_e, config.lambda_a
        )[0]
        trace.val_loss.append(val)
        if val < best_val:
            best_val = val
            best_snapshot = [p.copy() for p in gen_params + dis_params]
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                logger.info("ganomaly early stop after epoch %d (best val %.6f)", epoch + 1, best_val)
                break

    if best_snapshot is not None:
        for p, best in zip(gen_params + dis_params, best_snapshot):
            p[...] = best

    model = GanomalyModel(
        encoder1=e1,
        decoder=dec,
        encoder2=e2,
        discriminator=dis,
        lambda_c=config.lambda_c,
        lambda_e=config.lambda_e,
        lambda_a=config.lambda_a,
        feature_dim=d,
        latent_dim=e1.out_dim,
        k_sigma=config.k_sigma,
        score_mode=config.score_mode,
        optimizer=opt_g.to_dict(),
    )
    return model, trace


def gan_scores(model: GanomalyModel, samples) -> np.ndarray:
    """Anomaly scores: reconstruction L1 in data space, or latent L1 in "latent" mode."""
    x = as_matrix(samples)
    if x.shape[1] != model.feature_dim:
        raise ShapeError(f"expected dim {model.feature_dim}, got {x.shape[1]}")
    z1, _ = forward(model.encoder1, x)
    xhat, _ = forward(model.decoder, z1)
    if model.score_mode == "latent":
        z2, _ = forward(model.encoder2, xhat)
        return np.abs(z1 - z2).sum(axis=1)
    return np.abs(x - xhat).sum(axis=1)


def model_to_dict(model: GanomalyModel) -> dict:
    return {
        "model_type": model.model_type,
        "format_version": 1,
        "feature_dim": model.feature_dim,
        "latent_dim": model.latent_dim,
        "lambda_c": model.lambda_c,
        "lambda_e": model.lambda_e,
        "lambda_a": model.lambda_a,
        "tau": model.tau,
        "k_sigma": model.k_sigma,
        "score_mode": model.score_mode,
        "preprocess": model.preprocess,
        "optimizer": model.optimizer,
        "encoder1": nn.network_to_dict(model.encoder1),
        "decoder": nn.network_to_dict(model.decoder),
        "encoder2": nn.network_to_dict(model.encoder2),
        "discriminator": nn.network_to_dict(model.discriminator),
    }


def model_from_dict(data: dict) -> GanomalyModel:
    if data["format_version"] != 1:
        raise ConfigError(f"unsupported ganomaly format version {data['format_version']!r}")
    encoder1 = nn.network_from_dict(data["encoder1"])
    if encoder1.in_dim != data["feature_dim"]:
        raise ConfigError(f"feature_dim {data['feature_dim']} != encoder1 input dim {encoder1.in_dim}")
    return GanomalyModel(
        encoder1=encoder1,
        decoder=nn.network_from_dict(data["decoder"]),
        encoder2=nn.network_from_dict(data["encoder2"]),
        discriminator=nn.network_from_dict(data["discriminator"]),
        lambda_c=data["lambda_c"],
        lambda_e=data["lambda_e"],
        lambda_a=data["lambda_a"],
        feature_dim=data["feature_dim"],
        latent_dim=data["latent_dim"],
        k_sigma=data["k_sigma"],
        score_mode=data.get("score_mode", "data"),
        tau=data["tau"],
        optimizer=data.get("optimizer"),
        preprocess=data.get("preprocess"),
    )
