"""Nonlinearities, filter banks applied to signals, readout, serialization."""

import re

import numpy as np
import pytest

from graphdisc.errors import ConfigurationError, ShapeError
from graphdisc.experiment import ExperimentConfig, run_experiment
from graphdisc.filters import contract, freq_response, save_bank, shift_powers
from graphdisc.gnn import (Nonlinearity, SingleLayerGnn, TrainableModel, bank_forward, load_model,
                          save_model)
from graphdisc.graphs import SupportMatrix, generate_geometric_graph, laplacian, normalize_support
from graphdisc.spectral import eig_sym
from graphdisc.training import TrainConfig, init_model, predict, train

ALL_SIGMAS = [Nonlinearity.tanh(), Nonlinearity.identity(),
              Nonlinearity.leaky_rectifier(0.1), Nonlinearity.leaky_rectifier(0.9)]


@pytest.fixture(scope="module")
def support():
    g = generate_geometric_graph(10, 3, seed=31)
    return normalize_support(laplacian(g))


def readout_of(taps, weights, s, x):
    """The readout of the features taps @ S^k x, through the identity model."""
    return predict(TrainableModel(np.asarray(taps, dtype=np.float64),
                                  np.asarray(weights, dtype=np.float64),
                                  Nonlinearity.identity()), s, x)


def fir_bank(taps, s, x):
    """The (F, n) outputs of an (F, K+1) taps bank, by the FIR routine."""
    return contract(taps, shift_powers(s, x, taps.shape[1]))


def dense_fir(taps, entries, x):
    """Explicit matrix-power evaluation of sum_k h_k S^k x."""
    return sum(h * np.linalg.matrix_power(entries, k) @ x for k, h in enumerate(taps))


class TestNonlinearity:
    @pytest.mark.parametrize("sigma", ALL_SIGMAS, ids=lambda s: s.descriptor())
    def test_derivative_matches_finite_differences(self, sigma):
        # central differences; kink-free sample points for the rectifier
        t = np.linspace(-5, 5, 41) + 0.013
        h = 1e-6
        fd = (sigma.eval(t + h) - sigma.eval(t - h)) / (2 * h)
        np.testing.assert_allclose(sigma.output_derivative(sigma.eval(t)), fd,
                                   rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("sigma", ALL_SIGMAS, ids=lambda s: s.descriptor())
    def test_lipschitz_contraction(self, sigma):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u, v = rng.standard_normal((2, 15)) * 3
            lhs = np.linalg.norm(sigma.eval(u) - sigma.eval(v))
            assert lhs <= np.linalg.norm(u - v) + 1e-12

    @pytest.mark.parametrize("sigma", ALL_SIGMAS, ids=lambda s: s.descriptor())
    def test_strictly_monotone(self, sigma):
        t = np.linspace(-4, 4, 101)
        assert np.all(np.diff(sigma.eval(t)) > 0)

    def test_entrywise(self):
        sigma = Nonlinearity.tanh()
        x = np.array([[0.5, -1.0], [2.0, 0.0]])
        np.testing.assert_array_equal(sigma.eval(x),
                                      np.array([[np.tanh(0.5), np.tanh(-1.0)],
                                                [np.tanh(2.0), 0.0]]))

    @pytest.mark.parametrize("sigma", ALL_SIGMAS, ids=lambda s: s.descriptor())
    def test_overwrite_writes_over_a_float64_array(self, sigma):
        # eval and output_derivative both return their argument, written over
        t = np.linspace(-2, 2, 6).reshape(2, 3)
        x, tanh = t.copy(), sigma.kind == "tanh"
        slope = np.where(x >= 0, 1.0, sigma.slope)
        assert sigma.eval(t) is t
        np.testing.assert_array_equal(t, np.tanh(x) if tanh else x * slope)
        assert sigma.output_derivative(t) is t
        np.testing.assert_array_equal(t, 1.0 - np.tanh(x) ** 2 if tanh else slope)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    @pytest.mark.parametrize("sigma", ALL_SIGMAS, ids=lambda s: s.descriptor())
    def test_overwrite_rejects_other_dtypes(self, sigma, dtype):
        # the result could not be written over t, so no fresh array is
        # returned in its place
        t = np.arange(6, dtype=dtype).reshape(2, 3)
        with pytest.raises(ShapeError):
            sigma.eval(t)
        with pytest.raises(ShapeError):
            sigma.output_derivative(t)
        np.testing.assert_array_equal(t, np.arange(6).reshape(2, 3))

    def test_rejects_bad_slope(self):
        for slope in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError):
                Nonlinearity.leaky_rectifier(slope)

    @pytest.mark.parametrize("kind", ["tanh", "identity"])
    @pytest.mark.parametrize("slope", [0.3, 0.0, 2.0, float("nan")])
    def test_slope_on_a_kind_without_one(self, kind, slope):
        # it would compare unequal to the kind and lose its slope in a model file
        with pytest.raises(ConfigurationError, match=f"{kind} takes no slope"):
            Nonlinearity(kind, slope)
        assert Nonlinearity(kind, 1.0) == Nonlinearity(kind)

    def test_descriptor_round_trip(self):
        for sigma in ALL_SIGMAS:
            back = Nonlinearity.from_descriptor(sigma.descriptor())
            assert back == sigma


class TestBankForward:
    def test_single_identity_filter(self, support):
        x = np.arange(10.0)
        out = fir_bank(np.array([[1.0]]), support, x)
        assert out.shape == (1, 10)
        np.testing.assert_array_equal(out[0], x)

    def test_linearity_across_bank(self, support):
        rng = np.random.default_rng(1)
        bank = rng.uniform(-1, 1, (4, 3))
        x = rng.standard_normal(10)
        np.testing.assert_allclose(fir_bank(bank, support, 2.5 * x),
                                   2.5 * fir_bank(bank, support, x), atol=1e-12)

    def test_matches_per_filter_apply(self, support):
        rng = np.random.default_rng(2)
        taps = rng.uniform(-1, 1, (3, 3))
        x = rng.standard_normal(10)
        out = fir_bank(taps, support, x)
        for f, row in zip(taps, out):
            np.testing.assert_allclose(row, dense_fir(f, support.entries, x), atol=1e-12)

    def test_fir_bank_through_spectrum_matches_support(self, support):
        rng = np.random.default_rng(5)
        bank = rng.uniform(-1, 1, (3, 4))
        x = rng.standard_normal(10)
        spec = eig_sym(support)
        gains = np.array([freq_response(f, spec.eigenvalues) for f in bank])
        np.testing.assert_allclose(bank_forward(gains, spec, x),
                                   fir_bank(bank, support, x), atol=1e-10)

    def test_stacked_signals_keep_their_bits(self, support):
        # a (T, n) stack gives (T, F, n), each slice equal to the 1-D call, and
        # the 1-D call equals one vector-matrix product per filter
        spec = eig_sym(support)
        rng = np.random.default_rng(6)
        gains = rng.uniform(-1, 1, (3, 10))
        x = rng.standard_normal((7, 10))
        stacked = bank_forward(gains, spec, x)
        assert stacked.shape == (7, 3, 10)
        v = spec.eigenvectors
        for xt, out in zip(x, stacked):
            one = bank_forward(gains, spec, xt)
            np.testing.assert_array_equal(out, one)
            np.testing.assert_array_equal(one, np.stack([((xt @ v) * g) @ v.T for g in gains]))


class TestSingleLayerGnn:
    @pytest.mark.parametrize("bank", [np.ones(10), np.ones((1, 2, 10)), np.ones((0, 10)),
                                      np.array([[1.0, np.nan]]), np.array([[np.inf, 1.0]])],
                             ids=["one_dim", "three_dim", "no_row", "nan_gain", "inf_gain"])
    def test_rejects_bank(self, bank):
        with pytest.raises(ConfigurationError):
            SingleLayerGnn(bank=bank, sigma=Nonlinearity.tanh())


class TestGnnForward:
    """sigma applied entrywise to the bank's features, as the verifiers do."""

    def test_identity_sigma_equals_bank(self, support):
        rng = np.random.default_rng(3)
        bank = rng.uniform(-1, 1, (3, 3))
        sigma = Nonlinearity.identity()
        x = rng.standard_normal(10)
        np.testing.assert_array_equal(sigma.eval(fir_bank(bank, support, x)),
                                      fir_bank(bank, support, x))

    def test_zero_input_zero_features(self, support):
        bank = np.array([[0.5, 1.0], [2.0, 0.0]])
        out = Nonlinearity.tanh().eval(fir_bank(bank, support, np.zeros(10)))
        np.testing.assert_array_equal(out, np.zeros((2, 10)))

    def test_tanh_range(self, support):
        # pre-activations stay below tanh's float64 saturation point
        rng = np.random.default_rng(4)
        bank = rng.uniform(-1, 1, (3, 3))
        out = Nonlinearity.tanh().eval(fir_bank(bank, support, rng.standard_normal(10)))
        assert np.all(out > -1.0) and np.all(out < 1.0)


class TestReadout:
    """The readout's per-node weighted feature sum, through predict."""

    def test_single_feature_passthrough(self, support):
        x = np.arange(20.0).reshape(2, 10)
        np.testing.assert_array_equal(readout_of([[1.0]], [1.0], support, x), x)

    def test_indicator_selects_feature(self, support):
        rng = np.random.default_rng(5)
        taps = rng.uniform(-1, 1, (4, 3))
        x = rng.standard_normal((1, 10))
        w = np.zeros(4)
        w[2] = 1.0
        np.testing.assert_array_equal(readout_of(taps, w, support, x)[0],
                                      fir_bank(taps, support, x[0])[2])

    def test_convex_mix_of_identical_features(self, support):
        x = np.linspace(-1, 1, 10).reshape(1, 10)
        np.testing.assert_allclose(readout_of([[1.0], [1.0]], [0.5, 0.5], support, x),
                                   x, atol=1e-15)

    def test_shape_error(self):
        # a warm-start readout that does not match the feature count
        config = ExperimentConfig(n=12, k=3, neighbors=3, features=4, subspace="high",
                                  train=10, val=5, test=5, graphs=1, epochs=0)
        with pytest.raises(ShapeError, match=r"warm-start readout shape \(3,\) != \(4,\)"):
            run_experiment(config, init_readout=np.ones(3))


class TestPipelineEquivariance:
    def test_permutation_equivariance(self, support):
        rng = np.random.default_rng(6)
        bank = rng.uniform(-1, 1, (3, 3))
        sigma = Nonlinearity.tanh()
        readout = rng.standard_normal(3)
        x = rng.standard_normal(10)
        perm = rng.permutation(10)
        P = np.eye(10)[:, perm]
        s_perm = SupportMatrix(P.T @ support.entries @ P)
        out = readout @ sigma.eval(fir_bank(bank, support, x))
        out_perm = readout @ sigma.eval(fir_bank(bank, s_perm, P.T @ x))
        np.testing.assert_allclose(out_perm, P.T @ out, atol=1e-10)


class TestModelSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        taps = rng.uniform(-1, 1, (4, 3))
        readout = rng.standard_normal(4)
        for sigma in (Nonlinearity.tanh(), Nonlinearity.leaky_rectifier(0.25),
                      Nonlinearity.identity()):
            path = tmp_path / "model.txt"
            save_model(TrainableModel(taps, readout, sigma), str(path))
            model = load_model(str(path))
            np.testing.assert_array_equal(model.taps, taps)
            np.testing.assert_array_equal(model.readout, readout)
            assert model.sigma == sigma

    @pytest.mark.parametrize("sigma", ALL_SIGMAS, ids=lambda s: s.descriptor())
    def test_trained_model_round_trip(self, tmp_path, support, sigma):
        # the model train returns is the one a model file holds: written and
        # read back, it predicts the same bits and trains on as before
        rng = np.random.default_rng(8)
        data = (rng.standard_normal((12, 10)), rng.standard_normal((12, 10)))
        config = TrainConfig(epochs=2, batch_size=4)
        (result,) = train([init_model(3, 2, sigma, seed=4)], support, data, data, config, 5)
        path = tmp_path / "model.txt"
        save_model(result.model, str(path))
        model = load_model(str(path))
        assert type(model) is TrainableModel and model.sigma == sigma
        np.testing.assert_array_equal(model.taps, result.model.taps)
        np.testing.assert_array_equal(model.readout, result.model.readout)
        np.testing.assert_array_equal(predict(model, support, data[0]),
                                      predict(result.model, support, data[0]))
        (again,), (fresh,) = (train([m], support, data, data, config, 5)
                              for m in (model, result.model))
        np.testing.assert_array_equal(again.model.taps, fresh.model.taps)
        np.testing.assert_array_equal(again.model.readout, fresh.model.readout)

    def test_file_layout(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(TrainableModel(np.array([[1.0, 0.5]]), np.array([2.0]), Nonlinearity.tanh()),
                   str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "1 2"
        assert lines[-1] == "tanh"

    def test_bank_file_plus_readout_and_sigma_lines(self, tmp_path):
        taps = np.array([[1.0, -0.1], [1e-300, 2.0 / 3.0]])
        save_bank(taps, str(tmp_path / "bank.txt"))
        save_model(TrainableModel(taps, np.array([0.5, -7.0]), Nonlinearity.leaky_rectifier(0.25)),
                   str(tmp_path / "model.txt"))
        bank = (tmp_path / "bank.txt").read_bytes()
        model = (tmp_path / "model.txt").read_bytes()
        assert model == bank + b"0.5 -7\nleaky_rectifier 0.25\n"


class TestLoadModelErrors:
    BANK = "2 2\n1 0\n0 1\n"

    @pytest.mark.parametrize("text, line", [
        (BANK, 4),                                       # no readout line
        (BANK + "0.5 0.5\n", 5),                         # no sigma line
        (BANK + "0.5 0.5\nleaky_rectifier\n", 5),        # slope missing
        (BANK + "0.5\ntanh\n", 4),                       # readout of the wrong length
        (BANK + "0.5 0.5\nsoftplus\n", 5),               # unknown activation
        ("3 2\n1 0\n0 1\n0.5 0.5 0.5\ntanh\n", 4),       # fewer tap lines than the header
        ("0 3\n0.5\ntanh\n", 1),                          # no filter
        ("-2 3\n0.5\ntanh\n", 1),                         # negative filter count
        ("1 0\n0.5\ntanh\n", 1),                          # no tap
        ("2 2\n1 0\n0 nan\n0.5 0.5\ntanh\n", 3),          # a tap that is not finite
        (BANK + "0.5 inf\ntanh\n", 4),                    # a readout weight that is not finite
        (BANK + "0.5 0.5\ntanh 0.3 junk\n", 5),           # extra tokens after tanh
        (BANK + "0.5 0.5\nidentity 0.5\n", 5),            # a slope on the identity
        (BANK + "0.5 0.5\ntanh\ntanh\n", 6),              # a line after the sigma line
    ], ids=["no_readout", "no_sigma", "bare_leaky_rectifier", "readout_length",
            "unknown_sigma", "missing_tap_line", "zero_filters", "negative_filters",
            "zero_taps", "nan_tap", "inf_readout", "tanh_extra_tokens", "identity_slope",
            "trailing_line"])
    def test_names_path_and_line(self, tmp_path, text, line):
        path = tmp_path / "model.txt"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}:{line}: "):
            load_model(str(path))
