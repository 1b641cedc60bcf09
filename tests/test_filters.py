"""FIR and spectral filters, responses and IL constants."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdisc.errors import ConfigurationError, ShapeError
from graphdisc.filters import (
    bank_il_constant,
    contract,
    freq_response,
    load_bank,
    response_grid,
    save_bank,
    shift_powers,
    zero_high_response,
)
from graphdisc.gnn import bank_forward
from graphdisc.graphs import SupportMatrix, generate_geometric_graph, laplacian, normalize_support
from graphdisc.spectral import eig_sym, split_subspace


def dense_filter_oracle(taps, entries, x):
    """Explicit matrix-power evaluation of sum_k h_k S^k x."""
    out = np.zeros_like(np.asarray(x, dtype=np.float64))
    power = np.eye(entries.shape[0])
    for h in taps:
        out = out + h * (power @ x)
        power = power @ entries
    return out


def fir(taps, s, x):
    """The FIR routine: the taps against the shift powers of x."""
    taps = np.asarray(taps, dtype=np.float64)
    return contract(taps, shift_powers(s, x, taps.size))


@pytest.fixture(scope="module")
def small_support():
    g = generate_geometric_graph(12, 3, seed=21)
    return normalize_support(laplacian(g))


class TestApplyFir:
    """sum_k h_k S^k x through shift_powers and contract."""

    def test_identity_filter(self, small_support):
        x = np.arange(12.0)
        np.testing.assert_array_equal(fir([1.0], small_support, x), x)

    def test_single_shift(self, small_support):
        x = np.linspace(-1, 1, 12)
        np.testing.assert_allclose(fir([0.0, 1.0], small_support, x),
                                   small_support.entries @ x, atol=1e-14)

    def test_matches_dense_matrix_power_oracle(self):
        s = SupportMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        x = np.array([1.0, 0.0])
        got = fir([1.0, 2.0, 3.0], s, x)
        expected = dense_filter_oracle([1.0, 2.0, 3.0], s.entries, x)
        np.testing.assert_allclose(got, expected, atol=1e-14)
        np.testing.assert_allclose(got, [4.0, 2.0], atol=1e-14)

    def test_random_cases_match_oracle(self, small_support):
        rng = np.random.default_rng(3)
        for _ in range(5):
            taps = rng.uniform(-1, 1, size=rng.integers(1, 6))
            x = rng.standard_normal(12)
            np.testing.assert_allclose(
                fir(taps, small_support, x),
                dense_filter_oracle(taps, small_support.entries, x),
                atol=1e-12)

    def test_linearity(self, small_support):
        rng = np.random.default_rng(4)
        f = rng.uniform(-1, 1, 4)
        x, y = rng.standard_normal((2, 12))
        a, b = 1.7, -0.3
        combined = fir(f, small_support, a * x + b * y)
        separate = a * fir(f, small_support, x) + b * fir(f, small_support, y)
        np.testing.assert_allclose(combined, separate, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_permutation_equivariance(self, small_support, seed):
        rng = np.random.default_rng(seed)
        f = rng.uniform(-1, 1, 3)
        x = rng.standard_normal(12)
        perm = rng.permutation(12)
        P = np.eye(12)[:, perm]
        s_perm = SupportMatrix(P.T @ small_support.entries @ P)
        np.testing.assert_allclose(fir(f, s_perm, P.T @ x),
                                   P.T @ fir(f, small_support, x), atol=1e-10)

    def test_shape_error(self, small_support):
        with pytest.raises(ShapeError):
            fir([1.0], small_support, np.zeros(5))

    def test_batch_rows_and_bank_rows_match_single_filters(self, small_support):
        # a batch of signals and a bank of taps in one product give each
        # filter's output on each signal
        rng = np.random.default_rng(14)
        taps = rng.uniform(-1, 1, (3, 4))
        x = rng.standard_normal((5, 12))
        out = contract(taps, shift_powers(small_support, x, 4))
        assert out.shape == (3, 5, 12)
        for f, rows in zip(taps, out):
            for xb, row in zip(x, rows):
                np.testing.assert_allclose(row, dense_filter_oracle(f, small_support.entries, xb),
                                           atol=1e-12)


class TestFreqResponse:
    def test_constant(self):
        assert freq_response([1.0, 0.0, 0.0], 0.5) == 1.0

    def test_linear(self):
        assert freq_response([0.0, 1.0], 0.7) == pytest.approx(0.7)

    def test_power_sum_oracle(self):
        taps = [1.0, 2.0, 3.0]
        lam = 2.0
        oracle = sum(h * lam ** k for k, h in enumerate(taps))
        assert oracle == 17.0
        assert freq_response(taps, lam) == pytest.approx(oracle, abs=1e-12)

    def test_vectorized(self):
        grid = np.linspace(0, 1, 7)
        out = freq_response([0.5, -1.0, 2.0], grid)
        oracle = 0.5 - grid + 2.0 * grid ** 2
        np.testing.assert_allclose(out, oracle, atol=1e-14)


class TestApplySpectral:
    """One gains row applied through bank_forward."""

    @pytest.fixture()
    def spec(self, small_support):
        return eig_sym(small_support)

    def test_all_ones_is_identity(self, spec):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(12)
        out = bank_forward([np.ones(12)], spec, x)[0]
        np.testing.assert_allclose(out, x, atol=1e-10)

    def test_matches_fir_path(self, small_support, spec):
        rng = np.random.default_rng(6)
        f = rng.uniform(-1, 1, 4)
        x = rng.standard_normal(12)
        gains = freq_response(f, spec.eigenvalues)
        np.testing.assert_allclose(bank_forward([gains], spec, x)[0],
                                   fir(f, small_support, x), atol=1e-9)

    def test_rank_one_indicator(self, spec):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(12)
        i = 4
        response = np.zeros(12)
        response[i] = 1.0
        out = bank_forward([response], spec, x)[0]
        v = spec.eigenvectors[:, i]
        np.testing.assert_allclose(out, (v @ x) * v, atol=1e-12)


class TestIlConstant:
    """bank_il_constant of a single filter, one row of taps."""

    def test_constant_filter(self):
        assert bank_il_constant([[3.0]], 1.0) == 0.0

    def test_linear_filter(self):
        assert bank_il_constant([[0.0, 1.0]], 1.0) == pytest.approx(1.0)

    def test_quadratic_filter(self):
        # max of |lambda * 2 lambda| on [0, 1] is 2, attained at the endpoint
        assert bank_il_constant([[0.0, 0.0, 1.0]], 1.0) == pytest.approx(2.0)

    def test_tap_scaling(self):
        rng = np.random.default_rng(8)
        taps = rng.uniform(-1, 1, (1, 4))
        base = bank_il_constant(taps, 1.0)
        for c in (-2.5, 0.3):
            assert bank_il_constant(c * taps, 1.0) == pytest.approx(
                abs(c) * base, abs=1e-12)

    def test_rejects_nonpositive_lam_max(self):
        with pytest.raises(ConfigurationError):
            bank_il_constant([[1.0]], 0.0)


class TestBankIlConstant:
    def test_constant_bank(self):
        assert bank_il_constant([[1.0], [-2.0]], 1.0) == 0.0

    def test_max_over_filters(self):
        assert bank_il_constant([[0.0, 1.0], [4.0, 0.0]], 1.0) == pytest.approx(1.0)

    def test_single_filter_bank(self):
        # a one-row bank's constant is max |lambda h'(lambda)| on the grid
        taps = [0.3, -0.6, 0.2]
        grid = response_grid(1.0)
        deriv = np.polynomial.polynomial.polyder(taps)
        oracle = np.max(np.abs(grid * np.polynomial.polynomial.polyval(grid, deriv)))
        assert bank_il_constant([taps], 1.0) == pytest.approx(oracle, abs=1e-15)


class TestZeroHighResponse:
    @pytest.fixture()
    def spec(self, small_support):
        return eig_sym(small_support)

    def test_kills_top_eigenvector(self, spec):
        sf = zero_high_response(spec, 4, np.ones(4))
        out = bank_forward([sf], spec, spec.eigenvectors[:, -1])[0]
        assert np.max(np.abs(out)) <= 1e-12

    def test_keeps_bottom_eigenvector(self, spec):
        sf = zero_high_response(spec, 4, np.ones(4))
        v1 = spec.eigenvectors[:, 0]
        np.testing.assert_allclose(bank_forward([sf], spec, v1)[0], v1, atol=1e-10)

    def test_output_in_low_column_space(self, spec):
        sf = zero_high_response(spec, 4, np.ones(4))
        split = split_subspace(spec, 4)
        rng = np.random.default_rng(11)
        out = bank_forward([sf], spec, rng.standard_normal(12))[0]
        assert np.linalg.norm(split.v_high.T @ out) <= 1e-10

    def test_length_mismatch(self, spec):
        with pytest.raises(ShapeError):
            zero_high_response(spec, 4, np.ones(3))


class TestSpectralEquivalence:
    def test_invariant_on_random_graphs(self):
        # GFT of the shift-domain output equals the response-scaled GFT
        rng = np.random.default_rng(12)
        for seed in range(5):
            n = int(rng.integers(8, 51))
            g = generate_geometric_graph(n, min(5, n - 1), seed=seed)
            s = normalize_support(laplacian(g))
            spec = eig_sym(s)
            f = rng.uniform(-1, 1, rng.integers(1, 5))
            x = rng.standard_normal(n)
            lhs = spec.eigenvectors.T @ fir(f, s, x)
            rhs = freq_response(f, spec.eigenvalues) * (spec.eigenvectors.T @ x)
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(x)


class TestBankSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        taps = rng.uniform(-2, 2, (4, 3))
        path = tmp_path / "bank.txt"
        save_bank(taps, str(path))
        back = load_bank(str(path))
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, taps)

    def test_header(self, tmp_path):
        path = tmp_path / "bank.txt"
        save_bank(np.array([[1.0, 2.0]]), str(path))
        assert path.read_text().split("\n")[0] == "1 2"

    def test_uniform_tap_count_enforced(self, tmp_path):
        path = tmp_path / "bank.txt"
        path.write_text("2 1\n1\n1 2\n")
        with pytest.raises(ConfigurationError,
                           match=f"^{re.escape(str(path))}:3: expected 1 taps, got 2$"):
            load_bank(str(path))


class TestLoadBankErrors:
    @pytest.mark.parametrize("text, line", [
        ("0 3\n1 2 3\n", 1),                # no filter
        ("-2 3\n1 2 3\n", 1),               # negative filter count
        ("3 1\n1\n2\n", 1),                # more filters than lines left
        ("1 0\n1\n", 1),                    # no tap
        ("2 2\n1 0\n0 nan\n", 3),          # a tap that is not finite
        ("2 2\n1 0\n0 1\ngarbage line here\n", 4),  # a line after the taps
    ], ids=["zero_filters", "negative_filters", "filters_past_end", "zero_taps", "nan_tap",
            "trailing_line"])
    def test_names_path_and_line(self, tmp_path, text, line):
        path = tmp_path / "bank.txt"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}:{line}: "):
            load_bank(str(path))
