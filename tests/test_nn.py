from __future__ import annotations

import json
import math
import re
import struct

import numpy as np
import pytest
from oracles import (
    finite_difference_grads,
    random_safe_network,
    reference_activation_grad,
    reference_backward,
    reference_leaky_relu,
)

from fetalguard import nn
from fetalguard.config import decode, encode
from fetalguard.errors import ConfigError, ShapeError
from fetalguard.nn import (
    AdamState,
    DenseNetwork,
    Layer,
    adam_step,
    adversarial_term,
    backward,
    bce_terms,
    forward,
    init_network,
)

EDGE_VALUES = np.array([1.0, -1.0, 0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1e308, -1e308])


def _single_layer(w, b, activation, alpha=0.0):
    return DenseNetwork([Layer(np.array(w, dtype=float), np.array(b, dtype=float), activation, alpha)])


class TestForward:
    def test_identity_layer_passes_input_through(self):
        net = _single_layer(np.eye(3), np.zeros(3), "identity")
        x = np.array([0.3, -1.2, 5.0])
        out, _ = forward(net, x)
        assert np.array_equal(out, x)

    def test_relu_clamps_negative_preactivation(self):
        net = _single_layer([[1.0]], [-1.0], "relu")
        out, _ = forward(net, np.array([0.5]))
        assert out.tolist() == [0.0]

    def test_sigmoid_of_zero_is_half(self):
        net = _single_layer([[0.0]], [0.0], "sigmoid")
        out, _ = forward(net, np.array([123.0]))
        assert out.tolist() == [0.5]

    def test_dimension_mismatch_is_shape_error(self):
        net = _single_layer(np.eye(3), np.zeros(3), "relu")
        with pytest.raises(ShapeError):
            forward(net, np.zeros(4))

    def test_batch_and_single_agree(self):
        net = init_network([(4, 3, "relu"), (3, 2, "sigmoid")], seed=0)
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(5, 4))
        batched, _ = forward(net, batch)
        for i in range(5):
            single, _ = forward(net, batch[i])
            assert np.allclose(single, batched[i])

    def test_forward_is_pure(self):
        net = init_network([(3, 3, "leaky_relu", 0.2)], seed=2)
        x = np.array([1.0, -2.0, 0.5])
        a, _ = forward(net, x)
        b, _ = forward(net, x)
        assert np.array_equal(a, b)


class TestBackward:
    def test_linear_layer_closed_form(self):
        # y = Wx + b, loss = y . g  =>  dW = x g^T (for (in, out) weights), db = g
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        x = rng.normal(size=4)
        g = rng.normal(size=2)
        net = _single_layer(w, b, "identity")
        _, cache = forward(net, x)
        grads, input_grad = backward(net, cache, g)
        assert np.allclose(grads[0], np.outer(x, g))
        assert np.allclose(grads[1], g)
        assert np.allclose(input_grad, w @ g)

    def test_leaky_relu_scales_negative_side_by_alpha(self):
        net = _single_layer([[1.0]], [0.0], "leaky_relu", alpha=0.2)
        _, cache = forward(net, np.array([-3.0]))
        grads, input_grad = backward(net, cache, np.array([1.0]))
        assert input_grad.tolist() == [0.2]
        assert grads[0].tolist() == [[-3.0 * 0.2]]

    def test_stale_cache_is_shape_error(self):
        net_a = init_network([(3, 2, "relu")], seed=0)
        net_b = init_network([(3, 4, "relu"), (4, 2, "relu")], seed=0)
        _, cache = forward(net_a, np.zeros(3))
        with pytest.raises(ShapeError):
            backward(net_b, cache, np.zeros(2))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(25):
        net, x = random_safe_network(rng)
        v = rng.normal(size=net.out_dim)
        _, cache = forward(net, x)
        analytic, _ = backward(net, cache, v)
        numeric = finite_difference_grads(net, x, v)
        for a, n in zip(analytic, numeric):
            denom = max(np.abs(a).max(), np.abs(n).max(), 1e-8)
            assert np.abs(a - n).max() / denom < 1e-4


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    net, x = random_safe_network(rng)
    v = rng.normal(size=net.out_dim)
    _, cache = forward(net, x)
    _, input_grad = backward(net, cache, v)
    h = 1e-5
    numeric = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        up[i] += h
        down = x.copy()
        down[i] -= h
        numeric[i] = ((forward(net, up)[0] * v).sum() - (forward(net, down)[0] * v).sum()) / (2 * h)
    denom = max(np.abs(input_grad).max(), np.abs(numeric).max(), 1e-8)
    assert np.abs(input_grad - numeric).max() / denom < 1e-4


@pytest.mark.parametrize("param_grads, input_grad", [(True, True), (True, False), (False, True), (False, False)])
@pytest.mark.parametrize("rows", [None, 1, 32])
def test_the_gradients_backward_computes_equal_the_full_pass_bit_for_bit(param_grads, input_grad, rows):
    rng = np.random.default_rng(23)
    for activation in ("relu", "leaky_relu", "sigmoid", "identity"):
        net = init_network([(6, 5, activation, 0.2), (5, 4, "leaky_relu", 0.2), (4, 3, "sigmoid")], seed=rows or 0)
        x = rng.normal(size=6 if rows is None else (rows, 6))
        _, cache = forward(net, x)
        g = rng.normal(size=(3,) if rows is None else (rows, 3))
        full_grads, full_input = reference_backward(net, cache, g)
        grads, input_gradient = backward(net, cache, g, param_grads=param_grads, input_grad=input_grad)
        assert [a.tobytes() for a in grads] == ([a.tobytes() for a in full_grads] if param_grads else [])
        if input_grad:
            assert input_gradient.shape == full_input.shape
            assert input_gradient.tobytes() == full_input.tobytes()
        else:
            assert input_gradient is None


def _edge_and_random_values(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.concatenate([EDGE_VALUES, rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, 200)])


@pytest.mark.parametrize("alpha", [0.0, 0.2, 0.5, 0.99])
def test_leaky_relu_and_its_gradient_equal_the_where_forms_bit_for_bit(alpha):
    z = _edge_and_random_values(int(alpha * 100))
    with np.errstate(invalid="ignore"):  # 0 * inf at alpha 0, in both forms
        assert nn._activate("leaky_relu", alpha, z).tobytes() == reference_leaky_relu(alpha, z).tobytes()
    grad = nn._activation_grad("leaky_relu", alpha, z, None)
    assert grad.dtype == np.float64
    assert grad.tobytes() == reference_activation_grad("leaky_relu", alpha, z, None).tobytes()


@pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
def test_a_gradient_times_the_activation_mask_equals_the_float_form_bit_for_bit(activation):
    z = _edge_and_random_values(1)
    d = _edge_and_random_values(2)[::-1].copy()
    with np.errstate(invalid="ignore"):  # inf * 0
        fast = d * nn._activation_grad(activation, 0.2, z, None)
        reference = d * reference_activation_grad(activation, 0.2, z, None)
    assert fast.tobytes() == reference.tobytes()


class TestBceTerms:
    def test_perfect_discriminator_loss_near_zero(self):
        loss, _, _ = bce_terms(np.array([1.0 - 1e-7]), np.array([1e-7]))
        assert loss == pytest.approx(0.0, abs=1e-5)

    def test_half_probabilities_give_two_log_two(self):
        loss, _, _ = bce_terms(np.array([0.5]), np.array([0.5]))
        assert loss == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_generator_term_at_half_is_log_two(self):
        loss, _ = adversarial_term(np.array([0.5]))
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    def test_clamping_keeps_loss_finite(self):
        loss, g_real, g_fake = bce_terms(np.array([0.0]), np.array([1.0]))
        assert np.isfinite(loss)
        assert np.isfinite(g_real).all() and np.isfinite(g_fake).all()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        p_real = rng.uniform(0.1, 0.9, size=4)
        p_fake = rng.uniform(0.1, 0.9, size=4)
        _, g_real, g_fake = bce_terms(p_real, p_fake)
        h = 1e-7
        for i in range(4):
            up = p_real.copy()
            up[i] += h
            down = p_real.copy()
            down[i] -= h
            numeric = (bce_terms(up, p_fake)[0] - bce_terms(down, p_fake)[0]) / (2 * h)
            assert numeric == pytest.approx(g_real[i], rel=1e-5)
            up = p_fake.copy()
            up[i] += h
            down = p_fake.copy()
            down[i] -= h
            numeric = (bce_terms(p_real, up)[0] - bce_terms(p_real, down)[0]) / (2 * h)
            assert numeric == pytest.approx(g_fake[i], rel=1e-5)


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        params = [np.zeros((2, 2)), np.zeros(3)]
        grads = [np.ones((2, 2)), np.ones(3)]
        state = AdamState.for_params(params, learning_rate=0.001, beta1=0.9, beta2=0.999)
        adam_step(params, grads, state)
        for p in params:
            assert np.allclose(p, -0.001, atol=1e-9)
        assert state.step == 1

    def test_zero_gradient_leaves_params_unchanged(self):
        params = [np.full((2,), 3.0)]
        state = AdamState.for_params(params)
        adam_step(params, [np.zeros(2)], state)
        assert params[0].tolist() == [3.0, 3.0]

    def test_identical_runs_are_identical(self):
        def run():
            rng = np.random.default_rng(11)
            params = [rng.normal(size=(3, 3))]
            state = AdamState.for_params(params, learning_rate=0.01)
            for _ in range(20):
                adam_step(params, [rng.normal(size=(3, 3))], state)
            return params[0]

        assert np.array_equal(run(), run())

    def test_degenerates_to_sign_descent_without_momentum(self):
        # beta1 = beta2 = 0, eps -> 0: update magnitude is the learning rate
        params = [np.array([5.0, -2.0])]
        grads = [np.array([0.3, -7.0])]
        state = AdamState.for_params(params, learning_rate=0.01, beta1=0.0, beta2=0.0, epsilon=1e-16)
        adam_step(params, grads, state)
        assert np.allclose(params[0], [5.0 - 0.01, -2.0 + 0.01], atol=1e-9)

    def test_shape_mismatch_rejected(self):
        params = [np.zeros(2)]
        state = AdamState.for_params(params)
        with pytest.raises(ShapeError):
            adam_step(params, [np.zeros(3)], state)


class TestEarlyStopping:
    @staticmethod
    def _epochs(stopper, params, losses):
        """Run one epoch per loss, each setting the parameters to its number -> the epoch that stopped."""
        for epoch, loss in enumerate(losses, start=1):
            for p in params:
                p[...] = epoch
            if stopper.stop(loss):
                return epoch
        return None

    def test_stops_after_patience_epochs_without_improvement(self):
        params = [np.zeros(2)]
        stopper = nn.EarlyStopping(params, patience=2)
        assert self._epochs(stopper, params, [3.0, 2.0, 2.5, 2.0, 1.0]) == 4  # a tie does not improve
        assert stopper.best_loss == 2.0

    def test_an_improvement_restarts_the_count(self):
        params = [np.zeros(2)]
        stopper = nn.EarlyStopping(params, patience=2)
        assert self._epochs(stopper, params, [3.0, 4.0, 2.0, 5.0, 1.0, 6.0, 7.0, 0.0]) == 7

    def test_patience_one_stops_at_the_first_epoch_without_improvement(self):
        params = [np.zeros(2)]
        assert self._epochs(nn.EarlyStopping(params, patience=1), params, [2.0, 1.0, 1.5, 0.5]) == 3

    def test_restore_puts_back_the_best_epoch(self):
        params = [np.zeros((2, 3)), np.zeros(3)]
        stopper = nn.EarlyStopping(params, patience=2)
        assert self._epochs(stopper, params, [3.0, 1.0, 2.0, 2.0]) == 4
        stopper.restore()
        assert all((p == 2.0).all() for p in params)

    def test_restore_with_an_initial_loss_can_put_back_the_initial_parameters(self):
        params = [np.full(3, -1.0)]
        stopper = nn.EarlyStopping(params, patience=3, initial_loss=1.0)
        assert self._epochs(stopper, params, [1.0, 2.0, 1.5]) == 3
        stopper.restore()
        assert (params[0] == -1.0).all()

    def test_restore_with_an_initial_loss_puts_back_a_later_improvement(self):
        params = [np.full(3, -1.0)]
        stopper = nn.EarlyStopping(params, patience=2, initial_loss=1.0)
        assert self._epochs(stopper, params, [2.0, 0.5, 0.7, 0.6]) == 4
        stopper.restore()
        assert (params[0] == 2.0).all()

    def test_without_an_initial_loss_nothing_is_kept_until_an_epoch_improves(self):
        params = [np.zeros(3)]
        stopper = nn.EarlyStopping(params, patience=2)
        assert self._epochs(stopper, params, [math.nan, math.nan]) == 2
        stopper.restore()
        assert (params[0] == 2.0).all()  # nothing was kept, so the last epoch's parameters stay

    @pytest.mark.parametrize("initial_loss", [None, 5.0])
    def test_a_nan_loss_never_becomes_the_best(self, initial_loss):
        params = [np.zeros(3)]
        stopper = nn.EarlyStopping(params, patience=3, initial_loss=initial_loss)
        assert self._epochs(stopper, params, [4.0, math.nan, math.nan, math.nan, 1.0]) == 4
        assert stopper.best_loss == 4.0
        stopper.restore()
        assert (params[0] == 1.0).all()


def test_reconstruction_errors_are_row_l1_distances():
    encoder = _single_layer(np.eye(3), [0.0, 0.0, 0.0], "identity")
    decoder = _single_layer(np.eye(3), [0.5, -1.0, 0.0], "identity")
    x = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    assert nn.reconstruction_errors(encoder, decoder, x).tolist() == [1.5, 1.5]


class TestInitNetwork:
    def test_glorot_bound_and_zero_biases(self):
        net = init_network([(4, 2, "relu")], seed=5)
        bound = math.sqrt(6.0 / (4 + 2))
        assert net.layers[0].weights.shape == (4, 2)
        assert np.abs(net.layers[0].weights).max() <= bound
        assert net.layers[0].biases.tolist() == [0.0, 0.0]

    def test_same_seed_gives_identical_network(self):
        a = init_network([(4, 3, "relu"), (3, 1, "sigmoid")], seed=9)
        b = init_network([(4, 3, "relu"), (3, 1, "sigmoid")], seed=9)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(ConfigError):
            init_network([(0, 3, "relu")], seed=0)

    def test_mismatched_chain_rejected(self):
        with pytest.raises(ShapeError):
            DenseNetwork(
                [
                    Layer(np.zeros((3, 2)), np.zeros(2), "relu"),
                    Layer(np.zeros((4, 1)), np.zeros(1), "relu"),
                ]
            )


def _decoded(data) -> DenseNetwork:
    return decode(DenseNetwork, data, "net")


def test_serialization_roundtrip_is_exact():
    net = init_network([(5, 4, "leaky_relu", 0.2), (4, 1, "sigmoid")], seed=13)
    data = encode(net)
    restored = _decoded(data)
    for a, b in zip(net.layers, restored.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)
        assert a.activation == b.activation and a.alpha == b.alpha
    assert encode(restored) == data


def test_serialization_rejects_unknown_version():
    data = encode(init_network([(2, 1, "relu")], seed=0))
    data["format_version"] = 99  # the model file's format_version covers its networks
    with pytest.raises(ConfigError, match="^unknown key net.format_version; valid keys: layers$"):
        _decoded(data)


def test_a_version_1_network_is_refused():
    net = init_network([(5, 4, "leaky_relu", 0.2), (4, 1, "sigmoid")], seed=13)
    layers = [
        {"activation": l.activation, "alpha": l.alpha, "weights": l.weights.tolist(), "biases": l.biases.tolist()}
        for l in net.layers
    ]  # arrays as nested JSON numbers
    with pytest.raises(ConfigError, match="^unknown key net.format_version; valid keys: layers$"):
        _decoded({"format_version": 1, "layers": layers})
    with pytest.raises(ConfigError, match=r"^net.layers\[0\].weights is not an array reference$"):
        _decoded({"layers": layers})


@pytest.mark.parametrize("array", ["weights", "biases"])
@pytest.mark.parametrize("value", [True, False])
def test_a_boolean_in_place_of_a_layer_array_is_refused(array, value):
    data = encode(init_network([(2, 3, "relu")], seed=0))
    data["layers"][0][array] = value
    with pytest.raises(ConfigError, match=rf"^net.layers\[0\].{array} is not an array reference$"):
        _decoded(data)


@pytest.mark.parametrize("alpha", ["NaN", "Infinity", "-Infinity", "1e400", "true", '"0.2"', "[0.2]"])
def test_a_layer_alpha_that_is_not_a_finite_number_is_refused(alpha):
    data = encode(init_network([(2, 3, "leaky_relu", 0.2)], seed=0))
    data["layers"][0]["alpha"] = json.loads(alpha)
    with pytest.raises(ConfigError, match=r"^net.layers\[0\].alpha: expected a finite number, got "):
        _decoded(data)


@pytest.mark.parametrize("alpha", [0, 1, 0.2])
def test_a_finite_layer_alpha_loads_as_a_float(alpha):
    data = encode(init_network([(2, 3, "leaky_relu", alpha)], seed=0))
    restored = _decoded(data)
    assert type(restored.layers[0].alpha) is float and restored.layers[0].alpha == alpha


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda layer: layer.update(in_dim=True), "unknown key net.layers[0].in_dim"),  # as version 4 stored it
        (lambda layer: layer.update(weights=b""), "weights (0, 3), biases (3,)"),
        (lambda layer: layer.update(weights=bytes(8 * 4)), "weights (4,), biases (3,)"),
        (lambda layer: layer.update(biases=b""), "weights (6,), biases (0,)"),
        (lambda layer: layer.update(weights=[[0.5, 0.5, 0.5]] * 2), "weights is not an array reference"),
        (lambda layer: layer.update(weights=layer["weights"].hex()), "weights is not an array reference"),
        (lambda layer: layer.update(weights=bytes(8 * 7)), "weights (7,), biases (3,)"),
        (lambda layer: layer.update(weights=layer["weights"][:4] + b"\n" + layer["weights"][4:]), "49 bytes"),
        (lambda layer: layer.update(biases=layer["weights"]), "net: layer dims do not chain: 6 -> 3"),
        (lambda layer: layer.update(weights=bytes(8 * 5)), "weights (5,), biases (3,)"),
        (lambda layer: layer.update(biases=struct.pack("<3d", 0, math.nan, 0)), "finite"),
    ],
    # in_dim 0 and in_dim float: weights of no row and of a partial row; no out_dim: biases of zero bytes
    ids=["in_dim bool", "in_dim 0", "in_dim float", "no out_dim", "a list", "a string", "one float long",
         "a line break", "weights for biases", "one float short", "a NaN"],
)
def test_a_malformed_version_2_layer_is_a_config_error(edit, message):
    data = encode(init_network([(2, 3, "relu"), (3, 1, "relu")], seed=0))
    edit(data["layers"][0])
    with pytest.raises(ConfigError, match=re.escape(message)):
        _decoded(data)


def test_loaded_parameters_are_writable_and_train():
    net = init_network([(3, 2, "relu")], seed=0)
    restored = _decoded(encode(net))
    params = restored.parameters()
    assert all(p.flags.writeable and p.flags.c_contiguous and p.dtype == np.float64 for p in params)
    adam_step(params, [np.ones_like(p) for p in params], AdamState.for_params(params))
    assert not np.array_equal(restored.layers[0].weights, net.layers[0].weights)
