"""Minimal dense-network machinery: forward, exact backprop, losses, Adam.

Everything runs at double precision on plain numpy arrays. Networks are lists
of affine layers with elementwise activations; only what the detectors need is
implemented (no convolutions, no general autodiff).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Annotated

import numpy as np

from .errors import Bound, Checked, ConfigError, PositiveFloat, ShapeError

ACTIVATIONS = ("relu", "leaky_relu", "sigmoid", "identity")

PROB_EPS = 1e-7  # probability clamp applied before logarithms


@dataclass
class Layer:
    """One affine-then-activation layer; weights are (in_dim, out_dim), or row-major 1-D as a file holds them."""

    weights: np.ndarray
    biases: np.ndarray
    activation: str
    alpha: float = 0.0  # leaky_relu negative slope

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.biases = np.asarray(self.biases, dtype=float)
        self.alpha = float(self.alpha)  # a file may hold it as an integer
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.weights.ndim == 1 and self.biases.size and self.weights.size % self.biases.size == 0:
            self.weights = self.weights.reshape(-1, self.biases.size)
        if self.weights.ndim != 2 or not self.weights.size or self.biases.shape != (self.weights.shape[1],):
            raise ShapeError(
                f"layer shapes inconsistent: weights {self.weights.shape}, biases {self.biases.shape}"
            )

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class DenseNetwork:
    layers: list[Layer]

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("network needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(f"layer dims do not chain: {a.out_dim} -> {b.in_dim}")
        for layer in self.layers:
            if not (np.isfinite(layer.weights).all() and np.isfinite(layer.biases).all()):
                raise ConfigError("network parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def parameters(self) -> list[np.ndarray]:
        """Flat view of parameter arrays, weight then bias per layer."""
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.biases)
        return out


def _activate(name: str, alpha: float, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "leaky_relu":
        if 0.0 < alpha < 1.0:  # the np.where form's values; at alpha 0 they differ at z = +inf
            return np.maximum(z, alpha * z)
        return np.where(z > 0.0, z, alpha * z)
    if name == "sigmoid":
        # split by sign for numerical stability at large |z|
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    return z


def _activation_grad(name: str, alpha: float, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """d activation / dz; not for identity, whose gradient backward passes through unchanged."""
    if name == "relu":
        return z > 0.0
    if name == "leaky_relu":
        return alpha + (z > 0.0) * (1.0 - alpha)  # exactly 1.0 or alpha, for alpha in [0, 1)
    return a * (1.0 - a)  # sigmoid


@dataclass
class ForwardCache:
    """Per-layer intermediates needed for the exact backward pass."""

    inputs: list[np.ndarray]
    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]
    squeeze: bool  # original input was 1-D


def forward(net: DenseNetwork, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Evaluate the network on x (single vector or batch of rows)."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    h = np.atleast_2d(x)
    if h.shape[1] != net.in_dim:
        raise ShapeError(f"input dim {h.shape[1]} != network input dim {net.in_dim}")
    inputs, pres, acts = [], [], []
    for layer in net.layers:
        inputs.append(h)
        z = h @ layer.weights
        z += layer.biases
        a = _activate(layer.activation, layer.alpha, z)
        pres.append(z)
        acts.append(a)
        h = a
    out = h[0] if squeeze else h
    return out, ForwardCache(inputs, pres, acts, squeeze)


def backward(
    net: DenseNetwork,
    cache: ForwardCache,
    output_gradient: np.ndarray,
    *,
    param_grads: bool = True,
    input_grad: bool = True,
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Exact gradients of a scalar loss given dLoss/dOutput.

    Returns (grads, input_gradient). grads mirrors net.parameters(): weight
    gradient then bias gradient per layer. A caller that discards the
    parameter gradients (param_grads=False) gets an empty list, and one that
    discards the input gradient (input_grad=False) gets None; skipping them
    leaves the gradients that are computed bit for bit the same.
    """
    if len(cache.inputs) != len(net.layers):
        raise ShapeError("cache does not match network")
    d = np.atleast_2d(np.asarray(output_gradient, dtype=float))
    if d.shape != cache.activations[-1].shape:
        raise ShapeError(
            f"output gradient shape {d.shape} != output shape {cache.activations[-1].shape}"
        )
    grads: list[np.ndarray] = [np.empty(0)] * (2 * len(net.layers)) if param_grads else []
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        dz = d
        if layer.activation != "identity":
            dz = d * _activation_grad(layer.activation, layer.alpha, cache.pre_activations[i], cache.activations[i])
        if param_grads:
            grads[2 * i] = cache.inputs[i].T @ dz
            grads[2 * i + 1] = dz.sum(axis=0)
        if i == 0 and not input_grad:
            return grads, None
        d = dz @ layer.weights.T
    return grads, d[0] if cache.squeeze else d


def clamp_probabilities(p: np.ndarray) -> np.ndarray:
    return np.clip(np.asarray(p, dtype=float), PROB_EPS, 1.0 - PROB_EPS)


def bce_terms(p_real: np.ndarray, p_fake: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Discriminator loss -mean[log p_real + log(1 - p_fake)] and its gradients.

    Probabilities are clamped to [1e-7, 1 - 1e-7] before the logs; gradients are
    taken at the clamped values.
    """
    p_real = clamp_probabilities(p_real)
    p_fake = clamp_probabilities(p_fake)
    if p_real.shape != p_fake.shape:
        raise ShapeError(f"probability batches differ: {p_real.shape} vs {p_fake.shape}")
    n = p_real.size
    loss = -float(np.log(p_real).sum() + np.log(1.0 - p_fake).sum()) / n
    grad_real = -1.0 / (n * p_real)
    grad_fake = 1.0 / (n * (1.0 - p_fake))
    return loss, grad_real, grad_fake


def adversarial_term(p_fake: np.ndarray) -> tuple[float, np.ndarray]:
    """Generator-side term -mean log p_fake and its gradient."""
    p_fake = clamp_probabilities(p_fake)
    n = p_fake.size
    return -float(np.log(p_fake).sum()) / n, -1.0 / (n * p_fake)


Beta = Annotated[float, Bound(ge=0, lt=1)]  # Adam's moment decay; 1 divides by zero in its bias correction


@dataclass
class AdamHyperparameters(Checked):
    """Adam's hyperparameters, as a trainer's config names them and a model file keeps them."""

    learning_rate: PositiveFloat
    beta1: Beta
    beta2: Beta
    epsilon: PositiveFloat

    @staticmethod
    def of(config) -> AdamHyperparameters:
        """The hyperparameters of a trainer's config, without AdamState's accumulators."""
        return AdamHyperparameters(**{f.name: getattr(config, f.name) for f in fields(AdamHyperparameters)})


@dataclass
class AdamState(AdamHyperparameters):
    """Adam's hyperparameters and its accumulators for a fixed list of parameter arrays."""

    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params, learning_rate=0.001, beta1=0.9, beta2=0.999, epsilon=1e-8):
        m, v = [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params]
        return cls(learning_rate, beta1, beta2, epsilon, m=m, v=v)

    @classmethod
    def for_config(cls, params, config):
        """for_params with the hyperparameters of a trainer's config."""
        return cls.for_params(params, **vars(AdamHyperparameters.of(config)))


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update, applied to the parameter arrays in place."""
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ShapeError("params, grads, and optimizer state differ in length")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)
    return params, state


class EarlyStopping:
    """The lowest validation loss seen, the parameters that gave it, and the epochs since.

    initial_loss makes the current parameters the first candidate. A NaN loss never improves.
    """

    def __init__(self, params: list[np.ndarray], patience: int, initial_loss: float | None = None):
        self.params = params
        self.patience = patience
        self.stale = 0
        self.best_loss = np.inf if initial_loss is None else initial_loss
        self.best_params = None if initial_loss is None else [p.copy() for p in params]

    def stop(self, loss: float) -> bool:
        """Record one epoch's validation loss -> whether patience epochs in a row did not improve."""
        self.stale += 1
        if loss < self.best_loss:
            self.best_loss = loss
            self.best_params = [p.copy() for p in self.params]
            self.stale = 0
        return self.stale >= self.patience

    def restore(self) -> None:
        """Copy the kept parameters, if any, back into the live arrays."""
        for p, best in zip(self.params, self.best_params or []):
            p[...] = best


def reconstruction_errors(encoder: DenseNetwork, decoder: DenseNetwork, x: np.ndarray) -> np.ndarray:
    """L1 distance between each row of x and its reconstruction decoder(encoder(x))."""
    z, _ = forward(encoder, x)
    xhat, _ = forward(decoder, z)
    return np.abs(x - xhat).sum(axis=1)


def as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def init_network(layer_spec, seed) -> DenseNetwork:
    """Build a network from (in_dim, out_dim, activation[, alpha]) tuples.

    Weights are Glorot-uniform, biases zero; deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    layers = []
    for spec in layer_spec:
        in_dim, out_dim, activation = spec[0], spec[1], spec[2]
        alpha = spec[3] if len(spec) > 3 else 0.0
        if in_dim <= 0 or out_dim <= 0:
            raise ConfigError(f"layer dimensions must be positive, got ({in_dim}, {out_dim})")
        bound = np.sqrt(6.0 / (in_dim + out_dim))
        weights = rng.uniform(-bound, bound, size=(in_dim, out_dim))
        layers.append(Layer(weights=weights, biases=np.zeros(out_dim), activation=activation, alpha=alpha))
    return DenseNetwork(layers)


def chain_spec(in_dim: int, units, activation: str, alpha: float = 0.0):
    """Specs of dense layers of the given widths fed from in_dim, and the last width."""
    spec = []
    for out_dim in units:
        spec.append((in_dim, out_dim, activation, alpha))
        in_dim = out_dim
    return spec, in_dim


def encoder_decoder_specs(feature_dim: int, config, activation: str, alpha: float = 0.0):
    """Encoder and decoder specs from config.encoder_units and config.decoder_units.

    The decoder maps back to feature_dim: through an appended identity layer
    when config.project_to_input is set, otherwise its last width must match.
    """
    enc_spec, latent = chain_spec(feature_dim, config.encoder_units, activation, alpha)
    dec_spec, dec_out = chain_spec(latent, config.decoder_units, activation, alpha)
    if config.project_to_input:
        dec_spec.append((dec_out, feature_dim, "identity", 0.0))
    elif dec_out != feature_dim:
        raise ConfigError(
            f"decoder ends at {dec_out} units but inputs have dim {feature_dim}; "
            "enable project_to_input or set feature_dim to match"
        )
    return enc_spec, dec_spec


def require_dims(name: str, net: DenseNetwork, in_dim: int, out_dim: int) -> None:
    if (net.in_dim, net.out_dim) != (in_dim, out_dim):
        raise ConfigError(f"{name} maps {net.in_dim} -> {net.out_dim}, expected {in_dim} -> {out_dim}")
