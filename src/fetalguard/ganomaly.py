"""Adversarially trained encoder-decoder-encoder anomaly detector (GANomaly variant).

The generator (encoder1 -> decoder -> encoder2) minimizes a weighted sum of a
contextual L1 term, a latent L1 term, and the original GAN cross-entropy
adversarial term; the discriminator maximizes its ability to tell real samples
from reconstructions. Updates alternate: k_d discriminator steps then k_g
generator steps, each on freshly sampled minibatches.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, Callable, ClassVar

import numpy as np

from . import autoencoder, nn
from .autoencoder import Beta, Units
from .datasets import bootstrap_resample, normals_only, validation_normals
from .errors import (
    Bound,
    BoundError,
    Checked,
    NonNegativeFloat,
    PositiveFloat,
    PositiveInt,
    ShapeError,
    TrainingDataError,
    TrainingError,
)
from .files import write_csv
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
from .preprocess import PreprocessConfig, as_matrix

logger = logging.getLogger(__name__)

ScoreMode = Annotated[str, Bound(choices=("data", "latent"))]


@dataclass
class GanomalyConfig(Checked):
    encoder_units: Units = (128, 64, 16)
    decoder_units: Units = (16, 64, 128)
    discriminator_units: Units = (128, 16, 1)
    leaky_alpha: Annotated[float, Bound(ge=0, lt=1)] = 0.2
    project_to_input: bool = True
    learning_rate: PositiveFloat = 0.0002
    beta1: Beta = 0.50
    beta2: Beta = 0.999
    epsilon: PositiveFloat = 1e-8
    lambda_c: NonNegativeFloat = 50.0
    lambda_e: NonNegativeFloat = 1.0
    lambda_a: NonNegativeFloat = 1.0
    k_d: PositiveInt = 1
    k_g: PositiveInt = 2
    batch_size: PositiveInt = 32
    iterations_per_epoch: PositiveInt = 500
    epochs: PositiveInt = 40
    patience: PositiveInt = 25
    k_sigma: NonNegativeFloat = 5.0
    score_mode: ScoreMode = "data"

    def __post_init__(self):
        super().__post_init__()
        if not self.discriminator_units or self.discriminator_units[-1] != 1:
            raise BoundError(f"discriminator_units must end in 1 unit, got {list(self.discriminator_units)}")


@dataclass
class GanomalyModel(Checked):
    """Trained GANomaly networks; scores and calibrate form the shared detector interface."""

    model_type: ClassVar[str] = "ganomaly"
    format_version: ClassVar[int] = 2
    past_formats: ClassVar[dict] = {1: {}}  # version -> renamed keys; 1 wrote arrays as JSON numbers
    config_type: ClassVar[type] = GanomalyConfig
    calibration_param: ClassVar[str] = "k_sigma"

    encoder1: DenseNetwork
    decoder: DenseNetwork
    encoder2: DenseNetwork
    discriminator: DenseNetwork
    lambda_c: NonNegativeFloat
    lambda_e: NonNegativeFloat
    lambda_a: NonNegativeFloat
    feature_dim: PositiveInt
    latent_dim: int
    k_sigma: NonNegativeFloat
    score_mode: ScoreMode = "data"
    tau: float | None = None
    optimizer: dict | None = None  # hyperparameters the model was trained with
    preprocess: PreprocessConfig | None = None

    def __post_init__(self):
        super().__post_init__()
        nn.require_dims("encoder1", self.encoder1, self.feature_dim, self.latent_dim)
        nn.require_dims("decoder", self.decoder, self.latent_dim, self.feature_dim)
        nn.require_dims("encoder2", self.encoder2, self.feature_dim, self.latent_dim)
        nn.require_dims("discriminator", self.discriminator, self.feature_dim, 1)

    @classmethod
    def fit(cls, config: GanomalyConfig, train_core, validation, pre_validation_size: int, seed: int):
        """Train on the training-core normals bootstrapped to the pre-validation size."""
        fit_items = bootstrap_resample(normals_only(train_core), pre_validation_size, seed)
        model, trace = train_ganomaly(fit_items, config, seed, validation=validation_normals(validation))
        return model, trace, fit_items

    def scores(self, samples) -> np.ndarray:
        return gan_scores(self, samples)

    def calibrate(self, train_scores) -> float:
        self.tau = autoencoder.calibrate_threshold(train_scores, self.k_sigma)
        return self.tau


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
        rows = ((i, repr(d), repr(g)) for i, (d, g) in enumerate(zip(self.l_d, self.l_g)))
        write_csv(path, ["iter", "l_d", "l_g"], rows)


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
    encoder2. The discriminator is frozen: gradients flow through it, but its
    own are not computed.
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
        e1_grads, _ = backward(encoder1, e1_cache, d_z1, input_grad=False)

        _, d_x_gen = backward(discriminator, dis_cache, lambda_a * d_p, param_grads=False)
        dec_adv_grads, _ = backward(decoder, dec_adv_cache, d_x_gen, input_grad=False)
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
    grads_real, _ = backward(discriminator, cache_real, g_real, input_grad=False)
    grads_fake, _ = backward(discriminator, cache_fake, g_fake, input_grad=False)
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
    and the discriminator. nn.EarlyStopping watches the generator validation objective.
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
    stopper = nn.EarlyStopping(gen_params + dis_params, config.patience)

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
        if stopper.stop(val):
            logger.info("ganomaly early stop after epoch %d (best val %.6f)", epoch + 1, stopper.best_loss)
            break
    stopper.restore()

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
    x = as_matrix(samples)  # forward refuses a dimension other than the encoder's
    if model.score_mode == "data":
        return nn.reconstruction_errors(model.encoder1, model.decoder, x)
    z1, _ = forward(model.encoder1, x)
    xhat, _ = forward(model.decoder, z1)
    z2, _ = forward(model.encoder2, xhat)
    return np.abs(z1 - z2).sum(axis=1)
