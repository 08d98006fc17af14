"""Autoencoder anomaly detector.

Trained on normal samples only by minimizing the mean per-sample L1
reconstruction error; a sample's anomaly score is the L1 distance between
itself and its reconstruction, and the decision threshold is calibrated as
mean + k * std of the training scores.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, ClassVar

import numpy as np

from . import nn
from .datasets import normals_only, validation_normals
from .errors import (
    Bound,
    Checked,
    ConfigError,
    NonNegativeFloat,
    PositiveFloat,
    PositiveInt,
    ShapeError,
    TrainingError,
)
from .files import write_csv
from .nn import AdamState, DenseNetwork, adam_step, backward, forward, init_network
from .preprocess import PreprocessConfig, as_matrix

logger = logging.getLogger(__name__)

Beta = Annotated[float, Bound(ge=0, lt=1)]  # Adam's moment decay; 1 divides by zero in its bias correction
Units = tuple[PositiveInt, ...]  # the widths of a stack of layers


@dataclass
class AeConfig(Checked):
    encoder_units: Units = (128, 64, 16)
    decoder_units: Units = (16, 64, 128)
    project_to_input: bool = True  # append an identity layer mapping back to the input dim
    learning_rate: PositiveFloat = 0.001
    beta1: Beta = 0.99
    beta2: Beta = 0.999
    epsilon: PositiveFloat = 1e-8
    batch_size: PositiveInt = 32
    epochs: PositiveInt = 200
    patience: PositiveInt = 25
    k_sigma: NonNegativeFloat = 1.0  # tau = mean + k_sigma * std of the training scores


@dataclass
class AeModel(Checked):
    """A trained autoencoder; scores and calibrate form the shared detector interface."""

    model_type: ClassVar[str] = "ae"
    format_version: ClassVar[int] = 2
    past_formats: ClassVar[dict] = {1: {}}  # version -> renamed keys; 1 wrote arrays as JSON numbers
    config_type: ClassVar[type] = AeConfig
    calibration_param: ClassVar[str] = "k_sigma"

    encoder: DenseNetwork
    decoder: DenseNetwork
    feature_dim: PositiveInt
    latent_dim: int
    k_sigma: NonNegativeFloat
    tau: float | None = None
    optimizer: dict | None = None  # hyperparameters the model was trained with
    preprocess: PreprocessConfig | None = None

    def __post_init__(self):
        super().__post_init__()
        nn.require_dims("encoder", self.encoder, self.feature_dim, self.latent_dim)
        nn.require_dims("decoder", self.decoder, self.latent_dim, self.feature_dim)

    @classmethod
    def fit(cls, config: AeConfig, train_core, validation, pre_validation_size: int, seed: int):
        """Train on the normals of the training core -> (model, trace, fit items)."""
        fit_items = normals_only(train_core)
        model, trace = train_ae(fit_items, config, seed, validation=validation_normals(validation))
        return model, trace, fit_items

    def scores(self, samples) -> np.ndarray:
        return ae_scores(self, samples)

    def calibrate(self, train_scores) -> float:
        self.tau = calibrate_threshold(train_scores, self.k_sigma)
        return self.tau


@dataclass
class AeTrainingTrace:
    """Full-dataset train/validation loss per epoch; index 0 is pre-training."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)

    def write_csv(self, path: str | Path) -> None:
        rows = ((i, repr(t), repr(v)) for i, (t, v) in enumerate(zip(self.train_loss, self.val_loss)))
        write_csv(path, ["epoch", "train_loss", "val_loss"], rows)


def build_ae_networks(feature_dim: int, config: AeConfig, seed) -> tuple[DenseNetwork, DenseNetwork]:
    """Encoder/decoder stacks per config; relu throughout, identity output projection."""
    enc_spec, dec_spec = nn.encoder_decoder_specs(feature_dim, config, "relu")
    enc_seed, dec_seed = nn.as_seed_sequence(seed).spawn(2)
    return init_network(enc_spec, enc_seed), init_network(dec_spec, dec_seed)


def _mean_l1(encoder: DenseNetwork, decoder: DenseNetwork, x: np.ndarray) -> float:
    return float(nn.reconstruction_errors(encoder, decoder, x).mean())


def train_ae(
    normals,
    config: AeConfig | None = None,
    seed: int = 0,
    validation=None,
) -> tuple[AeModel, AeTrainingTrace]:
    """Train on normal samples with minibatch Adam on the mean L1 reconstruction loss.

    Early stopping (nn.EarlyStopping) counts the untrained weights as epoch 0.
    Raises TrainingError on a non-finite loss.
    """
    config = config or AeConfig()
    x = as_matrix(normals)
    x_val = as_matrix(validation) if validation else x
    n, d = x.shape
    if x_val.shape[1] != d:
        raise ShapeError("validation dimension differs from training dimension")

    net_seed, batch_seed = nn.as_seed_sequence(seed).spawn(2)
    encoder, decoder = build_ae_networks(d, config, net_seed)
    params = encoder.parameters() + decoder.parameters()
    opt = AdamState.for_params(
        params,
        learning_rate=config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
        epsilon=config.epsilon,
    )
    rng = np.random.default_rng(batch_seed)

    trace = AeTrainingTrace()
    trace.train_loss.append(_mean_l1(encoder, decoder, x))
    trace.val_loss.append(_mean_l1(encoder, decoder, x_val))
    stopper = nn.EarlyStopping(params, config.patience, initial_loss=trace.val_loss[0])

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = x[order[start : start + config.batch_size]]
            b = batch.shape[0]
            z, enc_cache = forward(encoder, batch)
            xhat, dec_cache = forward(decoder, z)
            # loss = mean over batch of sum_j |x_j - xhat_j|
            d_xhat = np.sign(xhat - batch) / b
            dec_grads, d_z = backward(decoder, dec_cache, d_xhat)
            enc_grads, _ = backward(encoder, enc_cache, d_z, input_grad=False)
            adam_step(params, enc_grads + dec_grads, opt)

        train_loss = _mean_l1(encoder, decoder, x)
        val_loss = _mean_l1(encoder, decoder, x_val)
        trace.train_loss.append(train_loss)
        trace.val_loss.append(val_loss)
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise TrainingError(
                "non-finite loss during autoencoder training",
                diagnostics={"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss},
            )
        if stopper.stop(val_loss):
            logger.info("autoencoder early stop at epoch %d (best val %.6f)", epoch, stopper.best_loss)
            break
    stopper.restore()

    model = AeModel(
        encoder=encoder,
        decoder=decoder,
        feature_dim=d,
        latent_dim=encoder.out_dim,
        k_sigma=config.k_sigma,
        optimizer=opt.to_dict(),
    )
    return model, trace


def ae_scores(model: AeModel, samples) -> np.ndarray:
    """Anomaly scores: L1 distance between each sample and its reconstruction."""
    return nn.reconstruction_errors(model.encoder, model.decoder, as_matrix(samples))


def calibrate_threshold(training_scores, k: float) -> float:
    """tau = mean + k * population standard deviation of the training scores.

    Raises TrainingError on a non-finite training score.
    """
    scores = np.asarray(training_scores, dtype=float)
    if scores.size < 2:
        raise ConfigError(f"need at least 2 scores to calibrate, got {scores.size}")
    if not np.isfinite(scores).all():
        raise TrainingError("cannot calibrate on a non-finite training score")
    return float(scores.mean() + k * scores.std())
