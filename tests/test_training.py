"""Loss, regularizer, analytic gradients, Adam, and the training loop."""

import numpy as np
import pytest

from graphdisc.errors import ShapeError
from graphdisc.filters import bank_il_constant
from graphdisc.gnn import Nonlinearity
from graphdisc.graphs import generate_geometric_graph, laplacian, normalize_support
from graphdisc.training import (
    AdamState,
    TrainConfig,
    TrainableModel,
    adam_step,
    il_regularizer,
    init_adam,
    init_model,
    model_backward,
    model_forward,
    mse_loss,
    predict,
    train,
)


@pytest.fixture(scope="module")
def support():
    g = generate_geometric_graph(12, 3, seed=51)
    return normalize_support(laplacian(g))


def two_pass_mse_oracle(pred, target):
    """Independent summation: explicit loop over batch and nodes."""
    total = 0.0
    count = 0
    for b in range(pred.shape[0]):
        for i in range(pred.shape[1]):
            total += (pred[b, i] - target[b, i]) ** 2
            count += 1
    return total / count


def fresh_grid_regularizer(taps, lam_max, weight):
    """il_regularizer with its grid and power matrix rebuilt on every call."""
    grid = np.linspace(0.0, lam_max, 257)
    powers = np.arange(taps.shape[1])
    vals = (taps * powers) @ (grid[None, :] ** powers[:, None])
    abs_vals = np.abs(vals)
    f, g = np.unravel_index(int(np.argmax(abs_vals)), abs_vals.shape)
    grad = np.zeros_like(taps)
    grad[f] = weight * np.sign(vals[f, g]) * powers * grid[g] ** powers
    return weight * float(abs_vals[f, g]), grad


def einsum_reference_backward(model, s, x, target, il_weight):
    """The batch loss and gradients written out directly: shift powers by
    repeated products, one einsum per contraction, and sigma' evaluated at
    the pre-activations rather than read off the activation."""
    powers = [x]
    for _ in range(model.taps.shape[1] - 1):
        powers.append(powers[-1] @ s.entries.T)
    powers = np.stack(powers)
    pre = np.einsum("fk,kbn->fbn", model.taps, powers)
    features = model.sigma.eval(pre)
    pred = np.einsum("f,fbn->bn", model.readout, features)
    diff = pred - target
    dpred = 2.0 * diff / diff.size
    if model.sigma.kind == "tanh":
        sigma_prime = 1.0 - np.tanh(pre) ** 2
    elif model.sigma.kind == "identity":
        sigma_prime = np.ones_like(pre)
    else:
        sigma_prime = np.where(pre >= 0.0, 1.0, model.sigma.slope)
    dpre = model.readout[:, None, None] * dpred[None, :, :] * sigma_prime
    grad_taps = np.einsum("fbn,kbn->fk", dpre, powers)
    grad_taps = grad_taps + fresh_grid_regularizer(model.taps, 1.0, il_weight)[1]
    grad_readout = np.einsum("bn,fbn->f", dpred, features)
    return float(np.mean(diff ** 2)), grad_taps, grad_readout


class TestMseLoss:
    def test_equal_inputs(self):
        x = np.ones((3, 4))
        loss, grad = mse_loss(x, x)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros((3, 4)))

    def test_unit_offset(self):
        pred = np.zeros((2, 5)) + 1.0
        loss, _ = mse_loss(pred, np.zeros((2, 5)))
        assert loss == 1.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        pred, target = rng.standard_normal((2, 7, 9))
        loss, _ = mse_loss(pred, target)
        assert loss == pytest.approx(two_pass_mse_oracle(pred, target), abs=1e-12)

    def test_gradient_formula(self):
        rng = np.random.default_rng(1)
        pred, target = rng.standard_normal((2, 4, 6))
        _, grad = mse_loss(pred, target)
        np.testing.assert_allclose(grad, 2 * (pred - target) / 24, atol=1e-15)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            mse_loss(np.zeros((2, 3)), np.zeros((3, 2)))


class TestIlRegularizer:
    def test_constant_filters(self):
        value, grad = il_regularizer(np.array([[1.0], [-2.0]]), 1.0, 0.01)
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros((2, 1)))

    def test_linear_filter(self):
        value, _ = il_regularizer(np.array([[0.0, 1.0]]), 1.0, 0.01)
        assert value == pytest.approx(0.01)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            taps = rng.uniform(-1, 1, (3, 4))
            weight = 0.05
            _, grad = il_regularizer(taps, 1.0, weight)
            h = 1e-6
            fd = np.zeros_like(taps)
            for idx in np.ndindex(taps.shape):
                up, down = taps.copy(), taps.copy()
                up[idx] += h
                down[idx] -= h
                fd[idx] = (il_regularizer(up, 1.0, weight)[0]
                           - il_regularizer(down, 1.0, weight)[0]) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-9)

    def test_grid_follows_lam_max_and_tap_count(self):
        # the grid and its power matrix are built once per (lam_max, taps);
        # alternating them in one process must never reuse the wrong one
        rng = np.random.default_rng(6)
        values = {}
        for lam_max, n_taps in [(1.0, 3), (2.0, 3), (1.0, 3), (2.0, 4), (0.5, 4), (1.0, 4)]:
            taps = rng.uniform(-1, 1, (3, n_taps))
            value, grad = il_regularizer(taps, lam_max, 0.05)
            expected_value, expected_grad = fresh_grid_regularizer(taps, lam_max, 0.05)
            assert value == expected_value
            np.testing.assert_array_equal(grad, expected_grad)
            values[lam_max] = il_regularizer(np.array([[0.0, 1.0]]), lam_max, 1.0)[0]
        assert values == {1.0: 1.0, 2.0: 2.0, 0.5: 0.5}


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        params = [np.array([1.0, -2.0, 0.5])]
        grads = [np.array([3.0, -0.2, 1e-4])]
        state = init_adam(params, learning_rate=0.1, per_epoch_decay=0.9)
        (updated,), _ = adam_step(state, params, grads)
        np.testing.assert_allclose(updated - params[0],
                                   -0.1 * np.sign(grads[0]), rtol=1e-3)

    def test_zero_gradients_leave_parameters(self):
        params = [np.array([[1.0, 2.0]])]
        state = init_adam(params, 0.01, 0.9)
        for _ in range(5):
            params, state = adam_step(state, params, [np.zeros((1, 2))])
        np.testing.assert_array_equal(params[0], [[1.0, 2.0]])

    def test_deterministic_trajectories(self):
        rng = np.random.default_rng(3)
        grads_seq = [rng.standard_normal((2, 3)) for _ in range(10)]

        def run():
            params = [np.ones((2, 3))]
            state = init_adam(params, 0.05, 0.9)
            for g in grads_seq:
                params, state = adam_step(state, params, [g])
            return params[0]

        np.testing.assert_array_equal(run(), run())

    def test_moments_update_in_place(self):
        params = [np.zeros(3), np.zeros(2)]
        state = init_adam(params, 0.1, 0.9)
        moments = [*state.m, *state.v]
        new_params, returned = adam_step(state, params, [np.ones(3), np.ones(2)])
        assert returned is state and state.t == 1
        assert all(a is b for a, b in zip([*state.m, *state.v], moments))
        np.testing.assert_allclose(state.m[0], 0.1)
        np.testing.assert_array_equal(params[0], np.zeros(3))  # parameters are new arrays
        assert new_params[0] is not params[0]

    def test_shape_mismatch_leaves_state(self):
        params = [np.zeros(3), np.zeros(2)]
        state = init_adam(params, 0.1, 0.9)
        with pytest.raises(ShapeError):
            adam_step(state, params, [np.ones(3), np.ones(4)])
        assert state.t == 0
        np.testing.assert_array_equal(state.m[0], np.zeros(3))

    def test_shape_mismatch(self):
        params = [np.zeros(3)]
        state = init_adam(params, 0.1, 0.9)
        with pytest.raises(ShapeError):
            adam_step(state, params, [np.zeros(4)])

    def test_defaults(self):
        state = init_adam([np.zeros(1)], 0.1, 0.8)
        assert (state.beta1, state.beta2, state.epsilon) == (0.9, 0.999, 1e-8)
        assert state.per_epoch_decay == 0.8
        assert state.t == 0


class TestModelBackward:
    def test_zero_readout_tap_gradients_are_regularizer_only(self, support):
        rng = np.random.default_rng(4)
        model = init_model(3, 3, Nonlinearity.tanh(), seed=4)
        model.readout = np.zeros(3)
        x = rng.standard_normal((5, 12))
        y = np.sign(rng.standard_normal((5, 12)))
        result = model_backward(model, support, x, y, il_weight=0.02)
        _, reg_grad = il_regularizer(model.taps, 1.0, 0.02)
        np.testing.assert_allclose(result.grad_taps, reg_grad, atol=1e-15)

    def test_linear_single_tap_matches_least_squares_gradient(self, support):
        # with identity sigma and taps [1] the model is linear in the
        # readout: pred = sum_f w_f x, so the gradient has a closed form
        rng = np.random.default_rng(5)
        model = TrainableModel(taps=np.ones((2, 1)), readout=rng.standard_normal(2),
                               sigma=Nonlinearity.identity())
        x = rng.standard_normal((6, 12))
        y = rng.standard_normal((6, 12))
        result = model_backward(model, support, x, y, il_weight=0.0)
        pred = model.readout.sum() * x
        closed_form = np.array([
            np.sum(2 * (pred - y) / y.size * x) for _ in range(2)
        ])
        np.testing.assert_allclose(result.grad_readout, closed_form, atol=1e-12)

    @pytest.mark.parametrize("sigma", [Nonlinearity.tanh(), Nonlinearity.identity(),
                                       Nonlinearity.leaky_rectifier(0.2)],
                             ids=["tanh", "identity", "leaky_rectifier"])
    def test_matches_einsum_reference(self, support, sigma):
        rng = np.random.default_rng(7)
        model = init_model(5, 3, sigma, seed=7)
        x = rng.standard_normal((6, 12))
        y = np.sign(rng.standard_normal((6, 12)))
        result = model_backward(model, support, x, y, il_weight=0.01)
        mse, grad_taps, grad_readout = einsum_reference_backward(model, support, x, y, 0.01)
        # the same arithmetic, so equal rather than close
        assert result.mse == mse
        np.testing.assert_array_equal(result.grad_taps, grad_taps)
        np.testing.assert_array_equal(result.grad_readout, grad_readout)

    @pytest.mark.parametrize("trial", range(20))
    def test_gradients_match_finite_differences(self, trial):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(5, 21))
        g = generate_geometric_graph(n, min(3, n - 1), seed=trial)
        s = normalize_support(laplacian(g))
        n_features = int(rng.integers(1, 5))
        n_taps = int(rng.integers(1, 4))
        sigma = [Nonlinearity.tanh(), Nonlinearity.identity(),
                 Nonlinearity.leaky_rectifier(0.2)][trial % 3]
        if trial % 4 == 0:
            sigma = Nonlinearity.identity()
        model = init_model(n_features, n_taps, sigma, seed=trial)
        x = rng.standard_normal((4, n))
        y = np.sign(rng.standard_normal((4, n)))
        il_weight = 0.01 if trial % 2 else 0.0

        result = model_backward(model, s, x, y, il_weight)

        h = 1e-5
        for arr, grad in ((model.taps, result.grad_taps),
                          (model.readout, result.grad_readout)):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = model_backward(model, s, x, y, il_weight).objective
                flat[i] = keep - h
                down = model_backward(model, s, x, y, il_weight).objective
                flat[i] = keep
                fd = (up - down) / (2 * h)
                scale = max(abs(fd), abs(gflat[i]), 1e-6)
                assert abs(fd - gflat[i]) / scale <= 1e-4


class TestTrain:
    def make_data(self, support, n_samples, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n_samples, 12))
        y = np.sign(x @ support.entries.T)
        return x, y

    def test_zero_epochs_returns_model_unchanged(self, support):
        model = init_model(2, 2, Nonlinearity.tanh(), seed=6)
        taps_before = model.taps.copy()
        data = self.make_data(support, 20, 7)
        result = train(model, support, data, data,
                       TrainConfig(epochs=0, batch_size=5, seed=0))
        np.testing.assert_array_equal(result.model.taps, taps_before)
        assert result.history == []

    def test_linear_model_loss_decreases_initially(self, support):
        # linear target on a linear model: effectively least squares
        rng = np.random.default_rng(8)
        x = rng.standard_normal((200, 12))
        y = x @ support.entries.T
        model = init_model(2, 2, Nonlinearity.identity(), seed=9)
        result = train(model, support, (x, y), (x[:40], y[:40]),
                       TrainConfig(epochs=5, batch_size=20, seed=1, il_weight=0.0))
        losses = [rec.train_loss for rec in result.history]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_best_validation_selection(self, support):
        data = self.make_data(support, 100, 10)
        val = self.make_data(support, 30, 11)
        model = init_model(3, 3, Nonlinearity.tanh(), seed=12)
        result = train(model, support, data, val,
                       TrainConfig(epochs=6, batch_size=10, seed=2))
        assert result.best_val_loss <= result.history[-1].val_loss + 1e-15
        returned_val = mse_loss(predict(result.model, support, val[0]), val[1])[0]
        assert returned_val == pytest.approx(result.best_val_loss, abs=1e-15)

    def test_learning_rate_decays_per_epoch(self, support):
        data = self.make_data(support, 40, 13)
        model = init_model(2, 2, Nonlinearity.tanh(), seed=14)
        result = train(model, support, data, data,
                       TrainConfig(epochs=4, batch_size=10,
                                   learning_rate=1e-3, decay=0.5, seed=3))
        rates = [rec.learning_rate for rec in result.history]
        np.testing.assert_allclose(rates, [1e-3, 5e-4, 2.5e-4, 1.25e-4], rtol=1e-12)

    def test_bit_identical_histories(self, support):
        data = self.make_data(support, 60, 15)

        def run():
            model = init_model(2, 3, Nonlinearity.tanh(), seed=16)
            return train(model, support, data, data,
                         TrainConfig(epochs=3, batch_size=10, seed=4))

        a, b = run(), run()
        assert a.history == b.history
        np.testing.assert_array_equal(a.model.taps, b.model.taps)
        np.testing.assert_array_equal(a.model.readout, b.model.readout)

    def test_regularizer_shrinks_il_constant(self, support):
        # statistical trend: with the penalty on, the trained constant is
        # smaller for a majority of seeds
        wins = 0
        for seed in range(5):
            data = self.make_data(support, 150, 20 + seed)
            constants = {}
            for weight in (0.0, 0.01):
                model = init_model(4, 3, Nonlinearity.tanh(), seed=seed)
                result = train(model, support, data, data,
                               TrainConfig(epochs=8, batch_size=5, seed=seed,
                                           il_weight=weight))
                constants[weight] = bank_il_constant(result.model.bank(), 1.0)
            wins += constants[0.01] <= constants[0.0]
        assert wins >= 3


class TestForwardShapes:
    def test_forward_cache_shapes(self, support):
        model = init_model(3, 2, Nonlinearity.tanh(), seed=17)
        x = np.zeros((7, 12))
        cache = model_forward(model, support, x)
        assert cache.shift_powers.shape == (2, 7, 12)
        assert cache.pre_activations.shape == (3, 7, 12)
        assert cache.features.shape == (3, 7, 12)
        assert cache.pred.shape == (7, 12)

    def test_shape_error(self, support):
        model = init_model(2, 2, Nonlinearity.tanh(), seed=18)
        with pytest.raises(ShapeError):
            model_forward(model, support, np.zeros((3, 11)))
