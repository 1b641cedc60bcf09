"""Symmetric eigendecomposition, eigenbasis transforms, subspace splits, and the
projection of generated inputs."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphdisc.spectral
from graphdisc.cli import main
from graphdisc.errors import ConfigurationError, DegenerateInputError, NumericalError, ShapeError
from graphdisc.experiment import ExperimentConfig, generate_inputs, run_replicate
from graphdisc.gnn import bank_forward
from graphdisc.graphs import SupportMatrix, generate_geometric_graph, laplacian, normalize_support
from graphdisc.spectral import eig_sym, split_subspace


def support(entries: np.ndarray) -> SupportMatrix:
    return SupportMatrix(entries)


def char_poly_roots_2x2(m: np.ndarray) -> np.ndarray:
    """Quadratic-formula oracle for 2x2 symmetric eigenvalues."""
    tr, det = m[0, 0] + m[1, 1], m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = np.sqrt(tr * tr - 4.0 * det)
    return np.sort([(tr - disc) / 2.0, (tr + disc) / 2.0])


def char_poly_roots_3x3(m: np.ndarray) -> np.ndarray:
    """Companion-matrix root oracle for the 3x3 characteristic polynomial."""
    c2 = -np.trace(m)
    c1 = 0.5 * (np.trace(m) ** 2 - np.trace(m @ m))
    c0 = -np.linalg.det(m)
    roots = np.roots([1.0, c2, c1, c0])
    return np.sort(roots.real)


def random_symmetric(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return 0.5 * (m + m.T)


def loop_sign_convention(eigvecs: np.ndarray) -> np.ndarray:
    """The per-column form of eig_sym's sign rule: flip a column whose first
    component above 1e-12 in magnitude is negative."""
    eigvecs = eigvecs.copy()
    for i in range(eigvecs.shape[1]):
        col = eigvecs[:, i]
        significant = np.nonzero(np.abs(col) > 1e-12)[0]
        if significant.size and col[significant[0]] < 0.0:
            eigvecs[:, i] = -col
    return eigvecs


class TestEigSym:
    def test_identity(self):
        spec = eig_sym(support(np.eye(4)))
        np.testing.assert_allclose(spec.eigenvalues, np.ones(4), atol=0.0)
        # sign convention: first significant entry of each column positive
        for i in range(4):
            col = spec.eigenvectors[:, i]
            first = col[np.abs(col) > 1e-12][0]
            assert first > 0

    def test_exchange_matrix_tie_break(self):
        # characteristic polynomial lambda^2 - 1 has roots -1, 1; the
        # magnitude tie resolves by signed value
        spec = eig_sym(support([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_reconstruction_residual(self):
        m = random_symmetric(8, seed=0)
        spec = eig_sym(support(m))
        rebuilt = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
        assert np.max(np.abs(rebuilt - m)) <= 1e-10 * np.max(np.abs(m))

    def test_orthonormality(self):
        m = random_symmetric(12, seed=1)
        spec = eig_sym(support(m))
        gram = spec.eigenvectors.T @ spec.eigenvectors
        assert np.max(np.abs(gram - np.eye(12))) <= 1e-10

    def test_magnitude_ordering(self):
        m = random_symmetric(10, seed=2)
        spec = eig_sym(support(m))
        mags = np.abs(spec.eigenvalues)
        assert np.all(np.diff(mags) >= -1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_2x2_matches_characteristic_polynomial(self, seed):
        m = random_symmetric(2, seed)
        spec = eig_sym(support(m))
        np.testing.assert_allclose(np.sort(spec.eigenvalues),
                                   char_poly_roots_2x2(m), atol=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_3x3_matches_characteristic_polynomial(self, seed):
        m = random_symmetric(3, seed)
        spec = eig_sym(support(m))
        np.testing.assert_allclose(np.sort(spec.eigenvalues),
                                   char_poly_roots_3x3(m), atol=1e-9)

    def test_matches_numpy_on_larger_matrix(self):
        m = random_symmetric(30, seed=3)
        spec = eig_sym(support(m))
        np.testing.assert_allclose(np.sort(spec.eigenvalues),
                                   np.linalg.eigvalsh(m), atol=1e-10)

    def test_rejects_asymmetric(self):
        m = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ConfigurationError):
            eig_sym(support(m))

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(NumericalError, match="did not converge"):
            eig_sym(support(np.eye(3)))

    @pytest.mark.parametrize("n", [12, 20, 50])
    def test_signs_are_the_loop_forms(self, n):
        for seed in range(10):
            s = normalize_support(laplacian(generate_geometric_graph(n, 5, seed=seed)))
            eigvals, eigvecs = np.linalg.eigh(s.entries)
            order = np.lexsort((eigvals, np.abs(eigvals)))
            expected = loop_sign_convention(eigvecs[:, order])
            assert eig_sym(s).eigenvectors.tobytes() == expected.tobytes()

    def test_sign_rule_skips_tiny_leading_components(self, monkeypatch):
        # columns: leading -1e-13 then positive, leading +1e-13 then negative,
        # leading exact zeros then negative, -1e-12 exactly then positive,
        # and no significant component at all
        vecs = np.array([[-1e-13, 1e-13, 0.0, -1e-12, -1e-13],
                         [0.6, -0.8, 0.0, 0.6, 1e-13],
                         [0.8, 0.6, -1.0, 0.8, 0.0],
                         [0.0] * 5,
                         [0.0] * 5])
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.arange(1.0, 6.0), vecs.copy()))
        got = eig_sym(support(np.eye(5))).eigenvectors
        assert got.tobytes() == loop_sign_convention(vecs).tobytes()
        np.testing.assert_array_equal(np.sign(got[1:3, :4]), [[1, 1, 0, 1], [1, -1, 1, 1]])

    def test_normalized_laplacian_spectrum_ends(self):
        for seed in (0, 1, 2):
            g = generate_geometric_graph(30, 5, seed=seed)
            spec = eig_sym(normalize_support(laplacian(g)))
            assert abs(spec.eigenvalues[0]) <= 1e-8
            assert abs(spec.eigenvalues[-1] - 1.0) <= 1e-10


class TestOneDecompositionPerGraph:
    @pytest.fixture()
    def eig_sym_calls(self, monkeypatch):
        """Count eig_sym calls through every graphdisc module that holds it."""
        calls = []
        original = graphdisc.spectral.eig_sym

        def counted(s):
            calls.append(s.n)
            return original(s)

        for name, module in list(sys.modules.items()):
            if name.startswith("graphdisc") and getattr(module, "eig_sym", None) is original:
                monkeypatch.setattr(module, "eig_sym", counted)
        return calls

    def test_run_replicate(self, eig_sym_calls):
        config = ExperimentConfig(n=16, k=4, neighbors=4, features=2, taps=2,
                                  subspace="high", train=8, val=4, test=4,
                                  graphs=1, epochs=0, batch_size=4)
        run_replicate(config, "high", 0)
        assert eig_sym_calls == [16]

    def test_verify_graphs(self, eig_sym_calls, tmp_path, capsys):
        code = main(["verify", "--theorem", "1", "--graphs", "2", "--trials", "1",
                     "--nodes", "12", "--cutoff", "3", "--out", str(tmp_path)])
        assert code == 0
        assert eig_sym_calls == [12, 12]


class TestGft:
    """Analysis V^T x and synthesis V xt with the eigenbasis of a Spectrum."""

    @pytest.fixture()
    def spec(self):
        return eig_sym(support(random_symmetric(9, seed=4)))

    def test_eigenvector_maps_to_basis_vector(self, spec):
        for i in (0, 4, 8):
            out = spec.eigenvectors[:, i] @ spec.eigenvectors
            expected = np.zeros(9)
            expected[i] = 1.0
            np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_parseval(self, spec):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(9)
        assert np.linalg.norm(x @ spec.eigenvectors) == pytest.approx(np.linalg.norm(x),
                                                                      abs=1e-10)

    def test_round_trip(self, spec):
        # an all-ones spectral filter synthesizes the analysis coefficients back
        rng = np.random.default_rng(6)
        v = spec.eigenvectors
        xt = rng.standard_normal(9)
        np.testing.assert_allclose((xt @ v.T) @ v, xt, atol=1e-10)
        x = rng.standard_normal(9)
        np.testing.assert_allclose(bank_forward([np.ones(9)], spec, x)[0], x, atol=1e-10)

    def test_shape_errors(self, spec):
        with pytest.raises(ShapeError):
            bank_forward([np.ones(9)], spec, np.zeros(8))
        with pytest.raises(ShapeError):
            bank_forward([np.ones(8)], spec, np.zeros(9))
        with pytest.raises(ShapeError):
            bank_forward(np.ones(9), spec, np.zeros(9))


class TestSubspaceSplit:
    @pytest.fixture()
    def spec(self):
        return eig_sym(support(random_symmetric(6, seed=7)))

    def test_two_node_split(self):
        spec = eig_sym(support(random_symmetric(2, seed=8)))
        split = split_subspace(spec, 1)
        np.testing.assert_array_equal(split.v_low[:, 0], spec.eigenvectors[:, 0])
        np.testing.assert_array_equal(split.v_high[:, 0], spec.eigenvectors[:, 1])

    def test_top_only_split(self, spec):
        split = split_subspace(spec, 5)
        assert split.v_high.shape == (6, 1)
        np.testing.assert_array_equal(split.v_high[:, 0], spec.eigenvectors[:, 5])

    def test_resolution_of_identity(self, spec):
        split = split_subspace(spec, 2)
        resolved = split.v_low @ split.v_low.T + split.v_high @ split.v_high.T
        assert np.max(np.abs(resolved - np.eye(6))) <= 1e-10

    def test_cross_orthogonality(self, spec):
        split = split_subspace(spec, 3)
        assert np.max(np.abs(split.v_low.T @ split.v_high)) <= 1e-10

    @pytest.mark.parametrize("k", [0, 6, -1, 7])
    def test_rejects_bad_split(self, spec, k):
        with pytest.raises(ConfigurationError):
            split_subspace(spec, k)

    def test_rejects_split_inside_repeated_eigenvalue(self):
        spec = eig_sym(support(np.diag([0.0, 0.0, 1.0, 2.0])))
        with pytest.raises(DegenerateInputError, match=r"split index 1 .* gap there is 0"):
            split_subspace(spec, 1)
        split = split_subspace(spec, 2)
        np.testing.assert_array_equal(split.spectrum.eigenvalues[:split.k], [0.0, 0.0])


class FixedDraw:
    """A generator stand-in whose standard_normal draws copies of one row."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=np.float64)

    def standard_normal(self, shape):
        return np.tile(self.row, (shape[0], 1))


class TestProjectSubspace:
    @pytest.fixture()
    def split(self):
        spec = eig_sym(support(random_symmetric(7, seed=9)))
        return split_subspace(spec, 3), spec

    def test_high_eigenvector_fixed(self, split):
        sp, spec = split
        v_top = spec.eigenvectors[:, -1]
        out = generate_inputs(sp, "high", 1, FixedDraw(v_top))[0]
        assert np.max(np.abs(out - v_top)) <= 1e-10

    def test_orthogonal_input_degenerate(self, split):
        # an input draw orthogonal to the high subspace projects to ~0
        sp, spec = split

        class LowEigenvectorRng:
            def standard_normal(self, shape):
                return np.tile(spec.eigenvectors[:, 0], (shape[0], 1))

        with pytest.raises(DegenerateInputError):
            generate_inputs(sp, "high", 1, LowEigenvectorRng())

    def test_unit_norm_output(self, split):
        sp, _ = split
        out = generate_inputs(sp, "low", 1, np.random.default_rng(10))[0]
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_idempotent(self, seed):
        sp = split_subspace(eig_sym(support(random_symmetric(7, seed=9))), 3)
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(7)
        once = generate_inputs(sp, "high", 1, FixedDraw(w))[0]
        twice = generate_inputs(sp, "high", 1, FixedDraw(once))[0]
        np.testing.assert_allclose(twice, once, atol=1e-10)
