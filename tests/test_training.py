"""Loss, regularizer, analytic gradients, Adam, and the training loop."""

import gc
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from graphdisc import filters, training
from graphdisc.errors import NumericalError, ShapeError
from graphdisc.filters import GRID_POINTS, bank_il_constant, shift_powers
from graphdisc.gnn import Nonlinearity, TrainableModel
from graphdisc.graphs import generate_geometric_graph, laplacian, normalize_support
from graphdisc.training import (
    TrainConfig,
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


def fresh_grid_regularizer(taps, weight):
    """il_regularizer with its grid and power matrix rebuilt on every call."""
    grid = np.linspace(0.0, 1.0, GRID_POINTS)
    powers = np.arange(taps.shape[1])
    vals = (taps * powers) @ (grid[None, :] ** powers[:, None])
    abs_vals = np.abs(vals)
    f, g = np.unravel_index(int(np.argmax(abs_vals)), abs_vals.shape)
    grad = np.zeros_like(taps)
    grad[f] = weight * np.sign(vals[f, g]) * powers * grid[g] ** powers
    return weight * float(abs_vals[f, g]), grad


def regularizer(taps, weight):
    """il_regularizer's value, and its subgradient added into a zeros grad."""
    grad = np.zeros(taps.shape)
    return il_regularizer(taps, weight, grad), grad


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
    grad_taps = grad_taps + fresh_grid_regularizer(model.taps, il_weight)[1]
    grad_readout = np.einsum("bn,fbn->f", dpred, features)
    return float(np.mean(diff ** 2)), grad_taps, grad_readout


def general_contraction_backward(model, s, x, target, il_weight):
    """The (F, B, n) route for any activation: A = sigma(taps @ P), the
    readout gradient A @ dpred and the tap gradient D @ P^T, where D is the
    outer product readout x dpred scaled by sigma'."""
    n_taps = model.taps.shape[1]
    powers = shift_powers(s, x, n_taps).reshape(n_taps, -1)
    act = model.sigma.eval(model.taps @ powers)
    mse, dpred = mse_loss((model.readout @ act).reshape(x.shape), target)
    grad_readout = act @ dpred.reshape(-1)
    dpre = np.multiply.outer(model.readout, dpred.reshape(-1))
    dpre *= model.sigma.output_derivative(act)
    grad_taps = dpre @ powers.T + regularizer(model.taps, il_weight)[1]
    return mse, grad_taps, grad_readout


def backward(model, s, x, target, il_weight):
    """model_backward on the batch x, its shift powers made fresh."""
    return model_backward(model, shift_powers(s, x, model.taps.shape[1]), target, il_weight)


def assert_matches_general_contraction(result, model, s, x, target, il_weight):
    mse, grad_taps, grad_readout = general_contraction_backward(model, s, x, target, il_weight)
    assert result.mse == pytest.approx(mse, rel=1e-12, abs=0.0)
    np.testing.assert_allclose(result.grad_taps, grad_taps, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(result.grad_readout, grad_readout, rtol=1e-12, atol=0.0)


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

    def test_gradient_bits_in_a_fresh_array(self):
        rng = np.random.default_rng(4)
        pred, target = rng.standard_normal((2, 10, 50))
        _, grad = mse_loss(pred, target)
        np.testing.assert_array_equal(grad, 2.0 * (pred - target) / pred.size)
        assert not np.shares_memory(grad, pred) and not np.shares_memory(grad, target)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            mse_loss(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_gradient_bits_of_doubling_then_dividing(self):
        # one division by size / 2 against the two passes 2 * diff, then
        # / size, from subnormal magnitudes to ones whose square overflows
        # (2 * diff does not), and odd sizes
        rng = np.random.default_rng(5)
        for trial in range(300):
            shape = tuple(rng.integers(1, 12, size=2))
            scale = 10.0 ** rng.uniform(-320, 300)
            pred, target = scale * rng.standard_normal((2, *shape))
            with np.errstate(over="ignore"):
                _, grad = mse_loss(pred, target)
            two_pass = pred - target
            two_pass *= 2.0
            two_pass /= two_pass.size
            assert grad.tobytes() == two_pass.tobytes(), (trial, shape, scale)

    def test_int8_target(self):
        rng = np.random.default_rng(6)
        pred = rng.standard_normal((4, 9))
        target = np.where(rng.standard_normal((4, 9)) >= 0, 1, -1).astype(np.int8)
        loss, grad = mse_loss(pred, target)
        float_loss, float_grad = mse_loss(pred, target.astype(np.float64))
        assert loss == float_loss and grad.tobytes() == float_grad.tobytes()

    def test_int8_target_is_not_copied(self):
        # the difference and its square are the only arrays of the set's
        # shape; a float64 copy of the target would be a third
        rng = np.random.default_rng(7)
        pred = rng.standard_normal((200, 50))
        target = np.where(rng.standard_normal((200, 50)) >= 0, 1, -1).astype(np.int8)
        tracemalloc.start()
        try:
            mse_loss(pred, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * pred.nbytes + 2 ** 12


class TestIlRegularizer:
    def test_constant_filters(self):
        value, grad = regularizer(np.array([[1.0], [-2.0]]), 0.01)
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros((2, 1)))

    def test_linear_filter(self):
        value, _ = regularizer(np.array([[0.0, 1.0]]), 0.01)
        assert value == pytest.approx(0.01)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            taps = rng.uniform(-1, 1, (3, 4))
            weight = 0.05
            _, grad = regularizer(taps, weight)
            h = 1e-6
            fd = np.zeros_like(taps)
            for idx in np.ndindex(taps.shape):
                up, down = taps.copy(), taps.copy()
                up[idx] += h
                down[idx] -= h
                fd[idx] = (regularizer(up, weight)[0]
                           - regularizer(down, weight)[0]) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-9)

    def test_value_is_bank_il_constant(self):
        taps = np.random.default_rng(9).uniform(-1, 1, (32, 3))
        value, _ = regularizer(taps, 1.0)
        assert value == bank_il_constant(taps)

    def test_training_uses_the_filters_regularizer(self):
        # one regularizer, defined next to bank_il_constant and its grid
        assert training.il_regularizer is filters.il_regularizer

    def test_grid_follows_lam_max_and_tap_count(self):
        # the grid on [0, 1] and its power matrix are built once per tap
        # count; alternating counts in one process must never reuse the
        # wrong one
        rng = np.random.default_rng(6)
        values = {}
        for n_taps in [3, 4, 3, 2, 4, 3, 2]:
            taps = rng.uniform(-1, 1, (3, n_taps))
            value, grad = regularizer(taps, 0.05)
            expected_value, expected_grad = fresh_grid_regularizer(taps, 0.05)
            assert value == expected_value
            np.testing.assert_array_equal(grad, expected_grad)
            # lambda * (lambda^K)' = K lambda^K peaks at K, at lambda = 1
            values[n_taps] = regularizer(np.eye(n_taps)[-1:], 1.0)[0]
        assert values == {2: 1.0, 3: 2.0, 4: 3.0}

    @pytest.mark.parametrize("n_filters", [1, 32])
    @pytest.mark.parametrize("n_taps", range(1, 7))
    def test_bits_match_fresh_grid(self, n_taps, n_filters):
        rng = np.random.default_rng(40 + n_taps)
        for _ in range(20):
            taps = rng.uniform(-1, 1, (n_filters, n_taps))
            value, grad = regularizer(taps, 0.01)
            expected_value, expected_grad = fresh_grid_regularizer(taps, 0.01)
            assert value == expected_value
            np.testing.assert_array_equal(grad, expected_grad)

    @pytest.mark.parametrize("first_sign", [1.0, -1.0])
    @pytest.mark.parametrize("n_taps", range(2, 7))
    def test_plus_minus_tie_resolves_to_first_index(self, n_taps, first_sign):
        # a filter and its negation reach the same |peak| with opposite
        # signs; the earlier row, whatever its sign, takes the gradient
        rng = np.random.default_rng(50 + n_taps)
        taps = rng.uniform(-1, 1, (32, n_taps)) / 4
        taps[5] = first_sign * rng.uniform(0.5, 1.0, n_taps)
        taps[20] = -taps[5]
        value, grad = regularizer(taps, 0.01)
        expected_value, expected_grad = fresh_grid_regularizer(taps, 0.01)
        assert value == expected_value
        np.testing.assert_array_equal(grad, expected_grad)
        assert np.any(grad[5] != 0.0) and not np.any(np.delete(grad, 5, axis=0))

    def test_adds_into_the_given_rows(self):
        # the subgradient row is added to what grad holds, in place; the
        # other rows keep their values
        rng = np.random.default_rng(12)
        taps = rng.uniform(-1, 1, (4, 3))
        grad = rng.standard_normal((4, 3))
        before = grad.copy()
        value = il_regularizer(taps, 0.05, grad)
        expected_value, expected_grad = fresh_grid_regularizer(taps, 0.05)
        assert value == expected_value
        np.testing.assert_array_equal(grad, before + expected_grad)

    def test_nan_taps_give_a_nan_row(self):
        taps = np.array([[0.1, 0.2], [np.nan, 0.3]])
        grad = np.zeros((2, 2))
        value = il_regularizer(taps, 0.01, grad)
        assert np.isnan(value)
        assert np.all(np.isnan(grad[1])) and not np.any(grad[0])

    @pytest.mark.parametrize("n_filters", [1, 32])
    @pytest.mark.parametrize("n_taps", range(1, 7))
    def test_zero_taps_give_zero_gradient(self, n_taps, n_filters):
        taps = np.zeros((n_filters, n_taps))
        value, grad = regularizer(taps, 0.01)
        expected_value, expected_grad = fresh_grid_regularizer(taps, 0.01)
        assert value == expected_value == 0.0
        np.testing.assert_array_equal(grad, expected_grad)
        np.testing.assert_array_equal(grad, np.zeros((n_filters, n_taps)))


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        params = np.array([1.0, -2.0, 0.5])
        grads = np.array([3.0, -0.2, 1e-4])
        state = init_adam(params, learning_rate=0.1)
        updated = adam_step(state, params, grads)
        np.testing.assert_allclose(updated - params, -0.1 * np.sign(grads), rtol=1e-3)

    def test_zero_gradients_leave_parameters(self):
        params = np.array([[1.0, 2.0]])
        state = init_adam(params, 0.01)
        for _ in range(5):
            params = adam_step(state, params, np.zeros((1, 2)))
        np.testing.assert_array_equal(params, [[1.0, 2.0]])

    def test_deterministic_trajectories(self):
        rng = np.random.default_rng(3)
        grads_seq = [rng.standard_normal((2, 3)) for _ in range(10)]

        def run():
            params = np.ones((2, 3))
            state = init_adam(params, 0.05)
            for g in grads_seq:
                params = adam_step(state, params, g)
            return params

        np.testing.assert_array_equal(run(), run())

    def test_moments_update_in_place(self):
        params = np.zeros(5)
        state = init_adam(params, 0.1)
        m, v = state.m, state.v
        new_params = adam_step(state, params, np.ones(5))
        assert state.t == 1
        assert state.m is m and state.v is v
        np.testing.assert_allclose(state.m, 0.1)
        np.testing.assert_array_equal(params, np.zeros(5))  # parameters are a new array
        assert new_params is not params

    def test_returned_parameters_unchanged_by_next_step(self):
        # the step's temporaries are scratch arrays of the state, never the
        # array a step returned
        rng = np.random.default_rng(8)
        params = rng.standard_normal((2, 6))
        state = init_adam(params, 0.1)
        first = adam_step(state, params, rng.standard_normal((2, 6)))
        kept = first.copy()
        second = adam_step(state, first, rng.standard_normal((2, 6)))
        np.testing.assert_array_equal(first, kept)
        assert not np.shares_memory(second, first)
        assert not any(np.shares_memory(second, a) for a in (state.step, state.denom))

    def test_shape_mismatch_leaves_state(self):
        params = np.zeros(5)
        state = init_adam(params, 0.1)
        with pytest.raises(ShapeError):
            adam_step(state, params, np.ones(7))
        assert state.t == 0
        np.testing.assert_array_equal(state.m, np.zeros(5))

    def test_shape_mismatch(self):
        params = np.zeros(3)
        state = init_adam(params, 0.1)
        with pytest.raises(ShapeError):
            adam_step(state, params, np.zeros(4))

    def test_defaults(self):
        state = init_adam(np.zeros(1), 0.1)
        assert (training.BETA1, training.BETA2, training.EPSILON) == (0.9, 0.999, 1e-8)
        assert (state.t, state.learning_rate) == (0, 0.1)


class TestModelBackward:
    def test_zero_readout_tap_gradients_are_regularizer_only(self, support):
        rng = np.random.default_rng(4)
        model = init_model(3, 3, Nonlinearity.tanh(), seed=4)
        model.readout = np.zeros(3)
        x = rng.standard_normal((5, 12))
        y = np.sign(rng.standard_normal((5, 12)))
        result = backward(model, support, x, y, il_weight=0.02)
        _, reg_grad = regularizer(model.taps, 0.02)
        np.testing.assert_allclose(result.grad_taps, reg_grad, atol=1e-15)

    def test_linear_single_tap_matches_least_squares_gradient(self, support):
        # with identity sigma and taps [1] the model is linear in the
        # readout: pred = sum_f w_f x, so the gradient has a closed form
        rng = np.random.default_rng(5)
        model = TrainableModel(taps=np.ones((2, 1)), readout=rng.standard_normal(2),
                               sigma=Nonlinearity.identity())
        x = rng.standard_normal((6, 12))
        y = rng.standard_normal((6, 12))
        result = backward(model, support, x, y, il_weight=0.0)
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
        result = backward(model, support, x, y, il_weight=0.01)
        mse, grad_taps, grad_readout = einsum_reference_backward(model, support, x, y, 0.01)
        # BLAS blocks and fuses the sums that einsum adds in order, so the
        # two agree to rounding, not bit for bit
        assert result.mse == pytest.approx(mse, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(result.grad_taps, grad_taps, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(result.grad_readout, grad_readout, rtol=1e-12, atol=0.0)

    def test_powers_for_another_tap_count(self, support):
        model = init_model(3, 3, Nonlinearity.tanh(), seed=4)
        powers = shift_powers(support, np.ones((2, 12)), 2)
        with pytest.raises(ShapeError, match="2 shift powers for 3 taps"):
            model_backward(model, powers, np.ones((2, 12)), 0.01)

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

        powers = shift_powers(s, x, n_taps)
        result = model_backward(model, powers, y, il_weight)

        h = 1e-5
        for arr, grad in ((model.taps, result.grad_taps),
                          (model.readout, result.grad_readout)):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = model_backward(model, powers, y, il_weight).objective
                flat[i] = keep - h
                down = model_backward(model, powers, y, il_weight).objective
                flat[i] = keep
                fd = (up - down) / (2 * h)
                scale = max(abs(fd), abs(gflat[i]), 1e-6)
                assert abs(fd - gflat[i]) / scale <= 1e-4


class TestIdentityStep:
    """The identity model's step, taken on the one filter readout @ taps,
    against the general (F, B, n) contraction."""

    @pytest.mark.parametrize("batch", [1, 6])
    @pytest.mark.parametrize("n_taps", [1, 2, 3, 5])
    def test_matches_general_contraction(self, support, n_taps, batch):
        rng = np.random.default_rng(60 + n_taps)
        model = init_model(5, n_taps, Nonlinearity.identity(), seed=61)
        x = rng.standard_normal((batch, 12))
        y = np.sign(rng.standard_normal((batch, 12)))
        result = backward(model, support, x, y, il_weight=0.01)
        assert_matches_general_contraction(result, model, support, x, y, 0.01)

    def spy_steps(self, monkeypatch, support, n_taps):
        """Train an identity model on 23 samples in batches of 5, with each
        step's act argument filled with NaN; return each step's inputs and
        result, and per step whether act was still all NaN after it."""
        steps, untouched = [], []
        original = training.model_backward

        def spy(model, powers, target, il_weight, act=None):
            act.fill(np.nan)
            result = original(model, powers, target, il_weight, act)
            untouched.append(bool(np.isnan(act).all()))
            # powers[0] is the batch itself
            steps.append((model.copy(), powers[0].copy(), target.copy(), il_weight, result))
            return result

        monkeypatch.setattr(training, "model_backward", spy)
        rng = np.random.default_rng(62)
        x = rng.standard_normal((23, 12))
        y = np.sign(x @ support.entries.T)
        model = init_model(4, n_taps, Nonlinearity.identity(), seed=63)
        train([model], support, (x, y), (x[:7], y[:7]),
              TrainConfig(epochs=2, batch_size=5, seed=6))[0]
        monkeypatch.undo()
        return steps, untouched

    @pytest.mark.parametrize("n_taps", [1, 2, 3, 5])
    def test_ragged_batch_in_train_matches_general_contraction(self, support,
                                                               monkeypatch, n_taps):
        steps, _ = self.spy_steps(monkeypatch, support, n_taps)
        assert [len(step[1]) for step in steps] == [5, 5, 5, 5, 3] * 2
        for model, x, y, il_weight, result in steps:
            assert_matches_general_contraction(result, model, support, x, y, il_weight)

    def test_allocates_no_activation_buffers(self, support, monkeypatch):
        # the step forms no activation, so it never writes the one train
        # passes it; the shift powers are made per chunk by train
        _, untouched = self.spy_steps(monkeypatch, support, 3)
        assert untouched == [True] * 10


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
        result = train([model], support, data, data,
                       TrainConfig(epochs=0, batch_size=5, seed=0))[0]
        np.testing.assert_array_equal(result.model.taps, taps_before)
        assert result.history == []

    def test_linear_model_loss_decreases_initially(self, support):
        # linear target on a linear model: effectively least squares
        rng = np.random.default_rng(8)
        x = rng.standard_normal((200, 12))
        y = x @ support.entries.T
        model = init_model(2, 2, Nonlinearity.identity(), seed=9)
        result = train([model], support, (x, y), (x[:40], y[:40]),
                       TrainConfig(epochs=5, batch_size=20, seed=1, il_weight=0.0))[0]
        losses = [rec.train_loss for rec in result.history]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_best_validation_selection(self, support):
        data = self.make_data(support, 100, 10)
        val = self.make_data(support, 30, 11)
        model = init_model(3, 3, Nonlinearity.tanh(), seed=12)
        result = train([model], support, data, val,
                       TrainConfig(epochs=6, batch_size=10, seed=2))[0]
        assert result.best_val_loss <= result.history[-1].val_loss + 1e-15
        returned_val = mse_loss(predict(result.model, support, val[0]), val[1])[0]
        assert returned_val == pytest.approx(result.best_val_loss, abs=1e-15)

    def test_learning_rate_decays_per_epoch(self, support):
        data = self.make_data(support, 40, 13)
        model = init_model(2, 2, Nonlinearity.tanh(), seed=14)
        result = train([model], support, data, data,
                       TrainConfig(epochs=4, batch_size=10,
                                   learning_rate=1e-3, decay=0.5, seed=3))[0]
        rates = [rec.learning_rate for rec in result.history]
        np.testing.assert_allclose(rates, [1e-3, 5e-4, 2.5e-4, 1.25e-4], rtol=1e-12)

    def test_bit_identical_histories(self, support):
        data = self.make_data(support, 60, 15)

        def run():
            model = init_model(2, 3, Nonlinearity.tanh(), seed=16)
            return train([model], support, data, data,
                         TrainConfig(epochs=3, batch_size=10, seed=4))[0]

        a, b = run(), run()
        assert a.history == b.history
        np.testing.assert_array_equal(a.model.taps, b.model.taps)
        np.testing.assert_array_equal(a.model.readout, b.model.readout)

    @pytest.mark.parametrize("sigma", [Nonlinearity.tanh(), Nonlinearity.identity()],
                             ids=["tanh", "identity"])
    def test_diverged_loss_raises(self, support, sigma):
        data = self.make_data(support, 40, 17)
        model = init_model(2, 3, sigma, seed=18)
        with pytest.raises(NumericalError, match="training diverged in epoch 0: "
                                                 "train loss (nan|inf)"):
            train([model], support, data, data, TrainConfig(epochs=3, batch_size=10,
                                                            learning_rate=1e200, seed=7))[0]

    def test_regularizer_shrinks_il_constant(self, support):
        # statistical trend: with the penalty on, the trained constant is
        # smaller for a majority of seeds
        wins = 0
        for seed in range(5):
            data = self.make_data(support, 150, 20 + seed)
            constants = {}
            for weight in (0.0, 0.01):
                model = init_model(4, 3, Nonlinearity.tanh(), seed=seed)
                result = train([model], support, data, data,
                               TrainConfig(epochs=8, batch_size=5, seed=seed,
                                           il_weight=weight))[0]
                constants[weight] = bank_il_constant(result.model.taps)
            wins += constants[0.01] <= constants[0.0]
        assert wins >= 3


class TestGroup:
    """train(models, ...) trains a group in lockstep; each member's result
    is the one it gets trained alone."""

    @staticmethod
    def result_bytes(result):
        return (result.history, result.model.taps.tobytes(), result.model.readout.tobytes(),
                result.best_epoch, result.best_val_loss)

    @staticmethod
    def bank_and_gnn(n_taps, seed):
        return [init_model(4, n_taps, sigma, seed=seed)
                for sigma in (Nonlinearity.identity(), Nonlinearity.tanh())]

    @pytest.mark.parametrize("il_weight", [0.0, 0.01])
    @pytest.mark.parametrize("n_taps", [1, 2, 3, 5])
    def test_member_results_equal_training_alone(self, support, n_taps, il_weight):
        # 23 samples in batches of 5: every epoch ends with a ragged batch of 3
        rng = np.random.default_rng(80 + n_taps)
        x = rng.standard_normal((23, 12))
        y = np.sign(x @ support.entries.T)
        config = TrainConfig(epochs=3, batch_size=5, seed=8, il_weight=il_weight)
        bank, gnn = self.bank_and_gnn(n_taps, 81)
        alone = [self.result_bytes(train([m], support, (x, y), (x[:7], y[:7]), config)[0])
                 for m in (bank, gnn)]
        for order in ([bank, gnn], [gnn, bank]):
            got = train(order, support, (x, y), (x[:7], y[:7]), config)
            expected = alone if order[0] is bank else alone[::-1]
            assert [self.result_bytes(r) for r in got] == expected
            assert [r.model.sigma for r in got] == [m.sigma for m in order]

    @pytest.mark.parametrize("chunk_bytes", [None, 2 * 3 * 5 * 12 * 8])
    def test_int8_labels_give_the_float_labels_bits(self, support, monkeypatch,
                                                      chunk_bytes):
        # 23 samples in batches of 5, in one chunk or in chunks of two
        # batches, with the ragged batch of 3 last
        if chunk_bytes is not None:
            monkeypatch.setattr(training, "CHUNK_BYTES", chunk_bytes)
        x = np.random.default_rng(84).standard_normal((23, 12))
        labels = np.where(x @ support.entries.T >= 0, 1, -1).astype(np.int8)
        config = TrainConfig(epochs=3, batch_size=5, seed=9)
        results = {}
        for dtype in (np.int8, np.float64):
            y = labels.astype(dtype)
            results[dtype] = [self.result_bytes(r) for r in train(
                self.bank_and_gnn(3, 85), support, (x, y), (x[:7], y[:7]), config)]
        assert results[np.int8] == results[np.float64]

    def test_one_step_per_member_and_batch(self, support, monkeypatch):
        calls = []
        original = training.model_backward

        def spy(model, powers, target, il_weight, act=None):
            calls.append((model.sigma.kind, powers.shape[1]))
            return original(model, powers, target, il_weight, act)

        monkeypatch.setattr(training, "model_backward", spy)
        x = np.random.default_rng(82).standard_normal((23, 12))
        train(self.bank_and_gnn(3, 83), support, (x, x), (x, x),
              TrainConfig(epochs=2, batch_size=5, seed=9))
        assert calls == [(kind, b) for b in [5, 5, 5, 5, 3] * 2
                         for kind in ("identity", "tanh")]

    def test_members_left_unchanged(self, support):
        models = self.bank_and_gnn(3, 84)
        kept = [(m.taps.copy(), m.readout.copy()) for m in models]
        x = np.random.default_rng(85).standard_normal((20, 12))
        train(models, support, (x, x), (x, x), TrainConfig(epochs=2, batch_size=5, seed=1))
        for m, (taps, readout) in zip(models, kept):
            assert m.taps.tobytes() == taps.tobytes()
            assert m.readout.tobytes() == readout.tobytes()

    # (F, K+1, readout length) of the two members: another tap count,
    # another filter count, a readout of another length
    @pytest.mark.parametrize("shapes", [((4, 3, 4), (4, 2, 4)), ((4, 3, 4), (5, 3, 5)),
                                        ((4, 3, 4), (4, 3, 5))])
    def test_different_shapes_raise_before_any_step(self, support, monkeypatch, shapes):
        def no_step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(training, "model_backward", no_step)
        models = [TrainableModel(np.ones((f, k)), np.ones(r), Nonlinearity.tanh())
                  for f, k, r in shapes]
        x = np.random.default_rng(87).standard_normal((20, 12))
        with pytest.raises(ShapeError, match="a training group needs one taps and readout shape"):
            train(models, support, (x, x), (x, x), TrainConfig(epochs=2, batch_size=5))

    @pytest.mark.parametrize("learning_rate, decay", [(1e153, 1.0), (1e-3, 1e30)],
                             ids=["same_epoch", "different_epochs"])
    def test_first_divergence_in_lockstep_order_raises(self, support, learning_rate, decay):
        # alone, the tanh model and the identity model diverge in epoch 0
        # with an inf and a nan loss (same_epoch), or in epochs 6 and 5
        # (different_epochs); the group raises the first (epoch, member)
        rng = np.random.default_rng(17)
        x = rng.standard_normal((40, 12))
        y = np.sign(x @ support.entries.T)
        config = TrainConfig(epochs=12, batch_size=10, learning_rate=learning_rate,
                             decay=decay, seed=7)
        gnn, bank = (init_model(2, 3, sigma, seed=18)
                     for sigma in (Nonlinearity.tanh(), Nonlinearity.identity()))
        alone = {}
        for m in (gnn, bank):
            with pytest.raises(NumericalError) as info:
                train([m], support, (x, y), (x, y), config)
            message = str(info.value)
            alone[m.sigma.kind] = (int(message.split()[4].rstrip(":")), message)
        assert alone["tanh"][1] != alone["identity"][1]
        for order in ([gnn, bank], [bank, gnn]):
            first = min((alone[m.sigma.kind][0], i) for i, m in enumerate(order))
            expected = alone[order[first[1]].sigma.kind][1]
            with pytest.raises(NumericalError) as info:
                train(order, support, (x, y), (x, y), config)
            assert str(info.value) == expected
            assert expected.startswith(f"training diverged in epoch {first[0]}: train loss ")


class TestStepBuffers:
    """train passes every step a view of one activation buffer; a step
    called without one makes a fresh array."""

    def record_steps(self, monkeypatch, support, n_train, batch_size):
        """Train with model_backward wrapped; return each call's inputs, its
        result and a copy of the result; weak references to the buffers (the
        act buffer and the chunk of shift powers that the step's act and
        powers are views of); and per call, act's shape, whether it is
        contiguous and a view of the first call's buffer, and whether a
        gradient shares memory with act or the chunk of powers."""
        calls, buffers, views = [], [], []
        original = training.model_backward

        def spy(model, powers, target, il_weight, act=None):
            result = original(model, powers, target, il_weight, act)
            calls.append((model.copy(), powers.copy(), target.copy(), il_weight, result,
                          [np.copy(v) for v in result]))
            buffers.extend([weakref.ref(act.base), weakref.ref(powers.base)])
            aliased = any(np.shares_memory(grad, buf) for grad in result[2:]
                          for buf in (act.base, powers.base))
            views.append((act.shape, act.flags.c_contiguous, act.base is buffers[0](), aliased))
            return result

        monkeypatch.setattr(training, "model_backward", spy)
        rng = np.random.default_rng(30)
        x = rng.standard_normal((n_train, 12))
        y = np.sign(x @ support.entries.T)
        model = init_model(4, 3, Nonlinearity.tanh(), seed=31)
        train([model], support, (x, y), (x[:7], y[:7]),
              TrainConfig(epochs=2, batch_size=batch_size, seed=5))[0]
        monkeypatch.undo()
        return calls, buffers, views

    @staticmethod
    def assert_steps_match_fresh_arrays(calls, support):
        """Each step's powers are those of its batch, and its result is that
        of a fresh-array call on them."""
        for model, powers, y, il_weight, result, _ in calls:
            fresh_powers = shift_powers(support, powers[0], 3)
            np.testing.assert_allclose(powers, fresh_powers, rtol=1e-12, atol=0.0)
            fresh = model_backward(model, fresh_powers, y, il_weight)
            assert result.objective == pytest.approx(fresh.objective, rel=1e-12, abs=0.0)
            np.testing.assert_allclose(result.grad_taps, fresh.grad_taps, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(result.grad_readout, fresh.grad_readout,
                                       rtol=1e-12, atol=0.0)

    def test_step_results_do_not_alias_buffers(self, support, monkeypatch):
        calls, _, views = self.record_steps(monkeypatch, support, 20, 5)
        assert len(calls) == 8
        assert not any(aliased for *_, aliased in views)
        for *_, result, snapshot in calls:
            for got, kept in zip(result, snapshot):
                np.testing.assert_array_equal(got, kept)

    def test_tanh_step_uses_only_the_activation_buffer(self, support, monkeypatch):
        # a ragged last batch takes a shorter, still contiguous, part of it
        _, _, views = self.record_steps(monkeypatch, support, 23, 5)
        assert [view[:3] for view in views] == [((4, b, 12), True, True)
                                                for b in [5, 5, 5, 5, 3] * 2]

    @pytest.mark.parametrize("sigma", [Nonlinearity.tanh(), Nonlinearity.leaky_rectifier(0.2)],
                             ids=["tanh", "leaky_rectifier"])
    def test_act_argument_matches_fresh_array(self, support, sigma):
        rng = np.random.default_rng(34)
        model = init_model(4, 3, sigma, seed=35)
        x = rng.standard_normal((5, 12))
        y = np.sign(rng.standard_normal((5, 12)))
        powers = shift_powers(support, x, 3)
        act = np.full((4, 5, 12), np.nan)
        given, fresh = (model_backward(model, powers, y, 0.01, act),
                        model_backward(model, powers, y, 0.01))
        assert not np.isnan(act).any()
        assert given.objective == fresh.objective
        np.testing.assert_array_equal(given.grad_taps, fresh.grad_taps)
        np.testing.assert_array_equal(given.grad_readout, fresh.grad_readout)

    def test_second_call_leaves_first_results(self, support):
        rng = np.random.default_rng(32)
        model = init_model(4, 3, Nonlinearity.tanh(), seed=33)
        x1, x2 = rng.standard_normal((2, 5, 12))
        y = np.sign(rng.standard_normal((5, 12)))
        powers1, powers2 = shift_powers(support, x1, 3), shift_powers(support, x2, 3)
        first = [predict(model, support, x1), model_forward(model, powers1),
                 *model_backward(model, powers1, y, 0.01)[2:]]
        kept = [a.copy() for a in first]
        predict(model, support, x2)
        model_forward(model, powers2)
        model_backward(model, powers2, y, 0.01)
        for got, expected in zip(first, kept):
            np.testing.assert_array_equal(got, expected)

    def test_ragged_last_batch_matches_fresh_buffers(self, support, monkeypatch):
        # 23 samples in batches of 5: every epoch ends with a batch of 3,
        # and the next epoch goes back to the full-size buffers
        calls, _, _ = self.record_steps(monkeypatch, support, 23, 5)
        assert [c[1].shape[1] for c in calls] == [5, 5, 5, 5, 3] * 2
        self.assert_steps_match_fresh_arrays(calls, support)

    def test_chunk_boundaries(self, support, monkeypatch):
        # a budget of two and a half batches' powers holds two whole
        # batches: 23 samples in batches of 5 make chunks of 10, 10 and 3
        # rows in each epoch
        unchunked, _, _ = self.record_steps(monkeypatch, support, 23, 5)
        chunk_rows = []

        def counting_shift_powers(s, x, n_taps, out=None):
            chunk_rows.append(len(x))
            return shift_powers(s, x, n_taps, out)

        monkeypatch.setattr(training, "CHUNK_BYTES", 5 * 3 * 5 * 12 * 8 // 2)
        monkeypatch.setattr(training, "shift_powers", counting_shift_powers)
        calls, _, _ = self.record_steps(monkeypatch, support, 23, 5)
        # the 7 validation rows fit a chunk, so their powers are remade in
        # the chunk buffer before each validation round
        assert chunk_rows == [7, 10, 10, 3, 7, 10, 10, 3, 7]
        assert [c[1].shape[1] for c in calls] == [5, 5, 5, 5, 3] * 2
        x = np.random.default_rng(30).standard_normal((23, 12))  # as record_steps
        for epoch in (calls[:5], calls[5:]):
            rows = np.concatenate([c[1][0] for c in epoch])
            assert rows.shape == x.shape
            np.testing.assert_array_equal(np.unique(rows, axis=0), np.unique(x, axis=0))
        # the same batches in the same order as with every row in one chunk
        np.testing.assert_array_equal(np.concatenate([c[1][0] for c in calls]),
                                      np.concatenate([c[1][0] for c in unchunked]))
        self.assert_steps_match_fresh_arrays(calls, support)

    def test_validation_larger_than_a_chunk_keeps_its_powers(self, support, monkeypatch):
        # 12 validation rows do not fit a chunk of 10: their powers are made
        # once, before the first step, and kept; the validation losses have
        # the bits of powers remade in the chunk buffer, as they are when
        # every row fits one chunk
        rng = np.random.default_rng(36)
        x = rng.standard_normal((23, 12))
        y = np.sign(x @ support.entries.T)
        config = TrainConfig(epochs=2, batch_size=5, seed=6)

        def histories():
            models = [init_model(4, 3, sigma, seed=37)
                      for sigma in (Nonlinearity.identity(), Nonlinearity.tanh())]
            return [r.history for r in train(models, support, (x, y), (x[:12], y[:12]), config)]

        in_one_chunk = histories()
        chunk_rows = []

        def counting_shift_powers(s, x, n_taps, out=None):
            chunk_rows.append(len(x))
            return shift_powers(s, x, n_taps, out)

        monkeypatch.setattr(training, "CHUNK_BYTES", 5 * 3 * 5 * 12 * 8 // 2)
        monkeypatch.setattr(training, "shift_powers", counting_shift_powers)
        assert histories() == in_one_chunk
        assert chunk_rows == [12] + [10, 10, 3] * 2

    def test_validation_borrows_the_step_activation_buffer(self, support, monkeypatch):
        # every validation chunk's activation is made in the buffer whose
        # leading part every step's activation is; predict makes its own
        steps, chunked = [], []
        original = training.model_forward

        def spy(model, powers, out=None, scratch=None):
            if out is None:
                chunked.append(scratch)
            else:
                steps.append(out)
            return original(model, powers, out, scratch)

        monkeypatch.setattr(training, "model_forward", spy)
        x = np.random.default_rng(38).standard_normal((23, 12))
        model = init_model(4, 3, Nonlinearity.tanh(), seed=39)
        trained = train([model], support, (x, np.sign(x)), (x[:20], np.sign(x[:20])),
                        TrainConfig(epochs=2, batch_size=5, seed=7))[0].model
        assert len(steps) == 10 and len(chunked) == 3
        assert all(np.shares_memory(buf, act) for buf in chunked for act in steps)
        predict(trained, support, x)
        assert len(chunked) == 4 and chunked[-1] is None

    def test_buffers_released_when_train_returns(self, support, monkeypatch):
        _, buffers, _ = self.record_steps(monkeypatch, support, 23, 5)
        assert buffers
        gc.collect()
        assert all(ref() is None for ref in buffers)


class TestThreads:
    def test_concurrent_trains_match_sequential(self, support, monkeypatch):
        # train keeps its state to itself, so four trains running at once in
        # threads give the bits of the same trains run one after another.
        # Each step yields the GIL between its forward pass, which writes
        # the activation, and its backward pass, which reads it, so the
        # threads interleave inside steps.
        rng = np.random.default_rng(70)
        x = rng.standard_normal((100, 12))
        y = np.sign(x @ support.entries.T)

        def run(seed):
            model = init_model(8, 3, Nonlinearity.tanh(), seed=seed)
            result = train([model], support, (x, y), (x[:20], y[:20]),
                           TrainConfig(epochs=3, batch_size=10, seed=seed))[0]
            return result.history, result.model.taps, result.model.readout

        seeds = range(4)
        expected = [run(seed) for seed in seeds]

        def yielding_mse_loss(pred, target):
            time.sleep(0)
            return mse_loss(pred, target)

        monkeypatch.setattr(training, "mse_loss", yielding_mse_loss)
        for _ in range(2):
            barrier = threading.Barrier(len(seeds))

            def after_barrier(seed):
                barrier.wait(timeout=60)
                return run(seed)

            with ThreadPoolExecutor(len(seeds)) as pool:
                got = list(pool.map(after_barrier, seeds))
            for (history, taps, readout), (h, t, r) in zip(got, expected):
                assert history == h
                assert taps.tobytes() == t.tobytes()
                assert readout.tobytes() == r.tobytes()


class TestForwardShapes:
    def test_forward_cache_shapes(self, support):
        # the shapes from the shift powers, with the activation left in out
        model = init_model(3, 2, Nonlinearity.tanh(), seed=17)
        x = np.random.default_rng(17).standard_normal((7, 12))
        powers = shift_powers(support, x, 2)
        act = np.full((3, 7, 12), np.nan)
        pred = model_forward(model, powers, act)
        assert powers.shape == (2, 7, 12)
        assert pred.shape == (7, 12)
        np.testing.assert_array_equal(
            act, np.tanh(model.taps @ powers.reshape(2, -1)).reshape(3, 7, 12))
        np.testing.assert_array_equal(pred, model_forward(model, powers))

    def test_shape_error(self, support):
        model = init_model(2, 2, Nonlinearity.tanh(), seed=18)
        with pytest.raises(ShapeError):
            predict(model, support, np.zeros((3, 11)))

    def test_flat_powers_give_the_same_bits(self, support):
        # model_backward's form: (K+1, B*n) powers and an (F, B*n) out
        model = init_model(4, 3, Nonlinearity.tanh(), seed=19)
        powers = shift_powers(support, np.random.default_rng(19).standard_normal((5, 12)), 3)
        act, flat_act = np.empty((4, 5, 12)), np.empty((4, 60))
        pred = model_forward(model, powers, act)
        flat = model_forward(model, powers.reshape(3, 60), flat_act)
        assert flat.shape == (60,)
        np.testing.assert_array_equal(flat, pred.reshape(-1))
        np.testing.assert_array_equal(flat_act, act.reshape(4, 60))

    @pytest.mark.parametrize("sigma", [Nonlinearity.tanh(), Nonlinearity.identity(),
                                       Nonlinearity.leaky_rectifier(0.1)],
                             ids=["tanh", "identity", "leaky_rectifier"])
    def test_chunked_forward_matches_one_pass(self, support, monkeypatch, sigma):
        # 12 nodes: a group of 4 rows is 48 columns, three 16-column blocks;
        # a budget of two groups' activation takes 23 rows in chunks of 8,
        # 8 and a ragged 7
        model = init_model(8, 3, sigma, seed=21)
        powers = shift_powers(support, np.random.default_rng(21).standard_normal((23, 12)), 3)
        one_pass = filters.contract(model.readout,
                                    sigma.eval(filters.contract(model.taps, powers)))
        chunk_sizes = []

        def recording_contract(w, a, out=None):
            if w.ndim == 2:
                chunk_sizes.append(a.shape[1])
            return filters.contract(w, a, out)

        monkeypatch.setattr(training, "CHUNK_BYTES", 2 * 8 * 4 * 12 * 8 + 8)
        monkeypatch.setattr(training, "contract", recording_contract)
        pred = model_forward(model, powers)
        assert chunk_sizes == [8, 8, 7]
        assert pred.tobytes() == one_pass.tobytes()

    def test_out_that_cannot_be_written_in_place(self, support):
        # no (F, B*n) view of this buffer exists, so the activation could
        # only land in a copy
        model = init_model(4, 3, Nonlinearity.tanh(), seed=20)
        powers = shift_powers(support, np.random.default_rng(20).standard_normal((5, 12)), 3)
        out = np.full((5, 4, 12), np.nan).transpose(1, 0, 2)
        with pytest.raises(ShapeError):
            model_forward(model, powers, out)


    def test_scratch_too_small_for_a_chunk(self, support):
        model = init_model(4, 3, Nonlinearity.tanh(), seed=22)
        powers = shift_powers(support, np.random.default_rng(22).standard_normal((5, 12)), 3)
        scratch = np.full(4 * 5 * 12, np.nan)
        np.testing.assert_array_equal(model_forward(model, powers, scratch=scratch),
                                      model_forward(model, powers))
        with pytest.raises(ShapeError):
            model_forward(model, powers, scratch=scratch[:-1])


class TestMemory:
    """Whole-set passes stay within CHUNK_BYTES of activation. numpy reports
    its arrays to tracemalloc, so a traced peak counts every array a call
    makes; inputs made before tracing are not counted."""

    N_VAL, N_NODES, N_FEATURES = 400, 50, 32
    SLACK = 2 ** 16              # small arrays: parameters, gradients, views

    @pytest.fixture(scope="class")
    def data(self):
        s = normalize_support(laplacian(generate_geometric_graph(self.N_NODES, 5, seed=52)))
        rng = np.random.default_rng(52)
        x = rng.standard_normal((self.N_VAL, self.N_NODES))
        return s, x, np.sign(x @ s.entries.T)

    @staticmethod
    def traced_peak(fn) -> int:
        fn()   # once untraced, so lazy set-up such as the IL grid is not counted
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def whole_set_bytes(self):
        """The set's (K+1, N, n) powers and (N, n) prediction, which a pass
        keeps, plus CHUNK_BYTES of activation."""
        prediction = self.N_VAL * self.N_NODES * 8
        return training.CHUNK_BYTES + 3 * prediction + prediction, prediction

    def test_predict_peak(self, data):
        s, x, _ = data
        model = init_model(self.N_FEATURES, 3, Nonlinearity.tanh(), seed=53)
        bound, _ = self.whole_set_bytes()
        # one pass would form a 5.12 MB (F, N*n) activation
        assert self.traced_peak(lambda: predict(model, s, x)) < bound + self.SLACK

    def test_train_epoch_peak(self, data):
        s, x, y = data
        models = [init_model(self.N_FEATURES, 3, sigma, seed=54)
                  for sigma in (Nonlinearity.identity(), Nonlinearity.tanh())]
        config = TrainConfig(epochs=1, batch_size=10)
        bound, prediction = self.whole_set_bytes()
        # besides: mse_loss's difference and its square, each the size of the
        # prediction, and the step's activation and a chunk of 20 training
        # rows' powers
        step = self.N_FEATURES * 10 * self.N_NODES * 8 + 3 * 20 * self.N_NODES * 8
        peak = self.traced_peak(lambda: train(models, s, (x[:20], y[:20]), (x, y), config))
        assert peak < bound + 2 * prediction + step + self.SLACK

    def test_train_peak_at_the_desk_shape(self, data):
        # 200 validation rows fit the 210-row chunk of training powers, and
        # the step's activation buffer holds a forward chunk, so validation
        # makes no powers or activation of its own; int8 labels, as a
        # replicate's. What is left: the chunk of powers, the activation
        # buffer, the float validation labels, and the prediction with
        # mse_loss's difference and square
        s, x, y = data
        labels = y.astype(np.int8)
        models = [init_model(self.N_FEATURES, 3, sigma, seed=55)
                  for sigma in (Nonlinearity.identity(), Nonlinearity.tanh())]
        config = TrainConfig(epochs=1, batch_size=10)
        n_val, row = 200, self.N_NODES * 8
        chunk_powers = 3 * training.chunk_rows(3 * row, 10) * row
        act = self.N_FEATURES * 16 * row    # a forward chunk: 16 rows, 50 BLAS blocks
        assert chunk_powers // (3 * row) >= n_val
        peak = self.traced_peak(lambda: train(models, s, (x, labels),
                                              (x[:n_val], labels[:n_val]), config))
        assert peak < chunk_powers + act + 4 * n_val * row + self.SLACK
