"""Geometric graph construction, Laplacian, normalization, graph shift."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdisc.errors import ConfigurationError, DegenerateInputError, ShapeError
from graphdisc.filters import shift_powers
from graphdisc.graphs import (
    GeometricGraph,
    SupportMatrix,
    _graph_from_positions,
    generate_geometric_graph,
    laplacian,
    load_graph,
    normalize_support,
    save_graph,
)
from graphdisc.spectral import eig_sym


def bfs_connected(weights: np.ndarray) -> bool:
    """Breadth-first-search connectivity oracle on a weight matrix."""
    n = weights.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if weights[i, j] > 0 and j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == n


def loop_knn_weights(positions: np.ndarray, k_neighbors: int) -> np.ndarray:
    """The per-node loop form of the k-NN weights: each node's stable
    argsort, then one exp(-d) per kept neighbour, written both ways."""
    n = positions.shape[0]
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    weights = np.zeros((n, n))
    for i in range(n):
        d = dist[i].copy()
        d[i] = np.inf
        for j in np.argsort(d, kind="stable")[:k_neighbors]:
            w = np.exp(-dist[i, j])
            weights[i, j] = w
            weights[j, i] = w
    return weights


class TestGenerateGeometricGraph:
    def test_two_nodes_single_edge_weight(self):
        # weight recomputed independently from the emitted positions
        g = generate_geometric_graph(2, 1, seed=5)
        d = np.linalg.norm(g.positions[0] - g.positions[1])
        assert g.weights[0, 1] == pytest.approx(np.exp(-d), abs=0.0)
        assert g.weights[1, 0] == g.weights[0, 1]
        assert g.weights[0, 0] == 0.0

    def test_collinear_positions_symmetrize_by_union(self):
        # endpoints both pick the middle node; union makes it degree 2
        positions = np.array([[0.0, 0.5], [0.4, 0.5], [1.0, 0.5]])
        g = _graph_from_positions(positions, 1, seed=0)
        degrees = (g.weights > 0).sum(axis=1)
        assert degrees[1] == 2
        assert g.weights[0, 2] == 0.0

    @pytest.mark.parametrize("n, k", [(12, 3), (20, 5), (50, 5), (120, 5)])
    def test_weights_are_the_loop_forms_bits(self, n, k):
        for seed in range(25):
            positions = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, 2))
            g = _graph_from_positions(positions, k, seed=seed)
            assert g.weights.tobytes() == loop_knn_weights(positions, k).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_distance_ties_match_the_loop_form(self, k):
        # a 5 x 8 lattice: every node has several neighbours at equal
        # distance, and the rows are long enough for an unstable sort to
        # order them differently
        positions = np.array([[x, y] for x in np.arange(5) / 8 for y in np.arange(8) / 8])
        g = _graph_from_positions(positions, k, seed=0)
        assert g.weights.tobytes() == loop_knn_weights(positions, k).tobytes()

    def test_distances_match_the_stacked_form(self):
        # with every other node a neighbour, the weights are exp(-d) of all
        # distances, which must be those of the (n, n, 2) difference array;
        # some positions are repeated, so some distances are 0
        rng = np.random.default_rng(62)
        for _ in range(40):
            n = int(rng.integers(6, 200))
            positions = rng.uniform(0.0, 1.0, size=(n, 2))
            positions[rng.integers(0, n, 3)] = positions[rng.integers(0, n, 3)]
            diff = positions[:, None, :] - positions[None, :, :]
            expected = np.exp(-np.sqrt((diff ** 2).sum(axis=2)))
            np.fill_diagonal(expected, 0.0)
            g = _graph_from_positions(positions, n - 1, seed=0)
            assert g.weights.tobytes() == expected.tobytes()

    def test_generated_graph_is_connected(self):
        g = generate_geometric_graph(50, 5, seed=0)
        assert bfs_connected(g.weights)

    def test_invariants(self):
        g = generate_geometric_graph(30, 4, seed=9)
        np.testing.assert_array_equal(g.weights, g.weights.T)
        assert np.all(np.diag(g.weights) == 0.0)
        assert np.all((g.positions >= 0.0) & (g.positions <= 1.0))
        assert np.all((g.weights > 0).sum(axis=1) >= 4)

    def test_determinism(self):
        a = generate_geometric_graph(20, 3, seed=77)
        b = generate_geometric_graph(20, 3, seed=77)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ConfigurationError):
            generate_geometric_graph(3, 3, seed=0)


class TestLaplacian:
    def test_single_edge(self):
        g = generate_geometric_graph(2, 1, seed=1)
        w = g.weights[0, 1]
        L = laplacian(g)
        np.testing.assert_allclose(L.entries, [[w, -w], [-w, w]], atol=0.0)

    def test_row_sums_vanish(self):
        g = generate_geometric_graph(40, 5, seed=2)
        L = laplacian(g)
        assert np.max(np.abs(L.entries @ np.ones(40))) <= 1e-12 * 40

    def test_positive_semidefinite(self):
        g = generate_geometric_graph(25, 4, seed=3)
        spec = eig_sym(laplacian(g))
        assert np.min(spec.eigenvalues) >= -1e-10

    def test_symmetry_preserved(self):
        g = generate_geometric_graph(30, 5, seed=4)
        L = laplacian(g)
        assert np.max(np.abs(L.entries - L.entries.T)) <= 1e-14


class TestSupportMatrix:
    def test_rejects_nan_entry(self):
        entries = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ConfigurationError, match="non-finite"):
            SupportMatrix(entries)

    def test_accepts_asymmetry_within_tolerance(self):
        entries = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
        s = SupportMatrix(entries)
        assert s.entries[1, 0] == 0.5 + 1e-12


class TestNormalizeSupport:
    def test_rejects_asymmetric(self):
        with pytest.raises(ConfigurationError, match="not symmetric"):
            normalize_support(SupportMatrix(np.array([[0.0, 1.0], [0.5, 0.0]])))

    def test_diagonal(self):
        s = SupportMatrix(np.diag([2.0, 1.0]))
        out = normalize_support(s)
        np.testing.assert_allclose(out.entries, np.diag([1.0, 0.5]), atol=0.0)

    def test_unit_operator_norm(self):
        g = generate_geometric_graph(30, 5, seed=5)
        out = normalize_support(laplacian(g))
        spec = eig_sym(out)
        assert abs(np.max(np.abs(spec.eigenvalues)) - 1.0) <= 1e-10

    def test_scale_invariance(self):
        g = generate_geometric_graph(15, 3, seed=6)
        L = laplacian(g)
        scaled = SupportMatrix(3.7 * L.entries)
        np.testing.assert_allclose(normalize_support(L).entries,
                                   normalize_support(scaled).entries,
                                   atol=1e-14)

    def test_rejects_zero_matrix(self):
        s = SupportMatrix(np.zeros((3, 3)))
        with pytest.raises(DegenerateInputError):
            normalize_support(s)

    def test_symmetry_preserved(self):
        g = generate_geometric_graph(20, 4, seed=7)
        out = normalize_support(laplacian(g))
        assert np.max(np.abs(out.entries - out.entries.T)) <= 1e-14


class TestGraphShift:
    """One-hop aggregation S x: the first shift power of the FIR routine."""

    def test_swap(self):
        s = SupportMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(shift_powers(s, np.array([1.0, 2.0]), 2)[1],
                                      [2.0, 1.0])

    def test_zero_matrix(self):
        s = SupportMatrix(np.zeros((3, 3)))
        np.testing.assert_array_equal(shift_powers(s, np.arange(3.0), 2)[1], np.zeros(3))

    def test_locality(self):
        # zeroing the signal outside node i's neighbourhood leaves [Sx]_i alone
        g = generate_geometric_graph(20, 3, seed=8)
        s = laplacian(g)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(20)
        i = 7
        mask = s.entries[i] != 0
        x_local = np.where(mask, x, 0.0)
        assert shift_powers(s, x, 2)[1, i] == pytest.approx(
            shift_powers(s, x_local, 2)[1, i], abs=1e-12)

    def test_shape_error(self):
        g = generate_geometric_graph(5, 2, seed=9)
        with pytest.raises(ShapeError):
            shift_powers(laplacian(g), np.zeros(4), 2)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        g = generate_geometric_graph(n, 3, seed=seed)
        s = laplacian(g)
        x = rng.standard_normal(n)
        perm = rng.permutation(n)
        P = np.eye(n)[:, perm]
        s_perm = SupportMatrix(P.T @ s.entries @ P)
        left = shift_powers(s_perm, P.T @ x, 2)[1]
        right = P.T @ shift_powers(s, x, 2)[1]
        np.testing.assert_allclose(left, right, atol=1e-12)


class TestGraphSerialization:
    def test_round_trip_exact(self, tmp_path):
        g = generate_geometric_graph(25, 4, seed=13)
        path = tmp_path / "graph.txt"
        save_graph(g, str(path))
        back = load_graph(str(path))
        assert back.n == g.n
        assert back.k_neighbors == g.k_neighbors
        assert back.seed == g.seed
        np.testing.assert_array_equal(back.positions, g.positions)
        np.testing.assert_array_equal(back.weights, g.weights)

    def test_header_and_triplets(self, tmp_path):
        g = generate_geometric_graph(4, 2, seed=3)
        path = tmp_path / "graph.txt"
        save_graph(g, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0].split() == ["4", "2", "3"]
        n_edges = int((g.weights > 0).sum() // 2)
        assert len(lines) == 1 + 4 + n_edges
        for line in lines[5:]:
            i, j, _ = line.split()
            assert int(i) < int(j)


class TestLoadGraphErrors:
    @pytest.mark.parametrize("text, line", [
        ("", 1),                                   # empty file
        ("3 2 0\n0.1 0.2\n", 1),                  # truncated positions: the header's n is too large
        ("3 2\n", 1),                              # short header
        ("2 1 0\n0.1 0.2\n0.3 x\n", 3),           # position that does not parse
        ("2 1 0\n0.1 0.2\n0.3 0.4\n0 1\n", 4),    # edge without a weight
        ("2 1 0\n0.1 0.2\n0.3 0.4\n0 -1 0.5\n", 4),  # node index out of range
        ("2 1 0\n0.1 0.2\n0.3 0.4\n0 1 0\n", 4),     # zero weight
        ("2 1 0\n0.1 0.2\n0.3 0.4\n0 1 -0.5\n", 4),  # negative weight
        ("2 1 0\n0.1 0.2\n0.3 0.4\n0 1 nan\n", 4),   # NaN weight
        ("2 1 0\n0.1 0.2\n0.3 0.4\n0 1 inf\n", 4),   # infinite weight
        ("2 1 0\n0.1 0.2\n0.3 0.4\n1 1 0.5\n", 4),   # self-loop
        ("1000000000000 5 0\n0.1 0.2\n", 1),          # more nodes than lines left
        ("-1 1 0\n0.1 0.2\n", 1),                      # negative node count
        ("2 1 0\nnan 0.2\n0.3 0.4\n", 2),               # NaN position
        ("2 1 0\n0.1 0.2\n0.3 -inf\n", 3),              # infinite position
        ("2 1 0\n0.1 0.2\n0.3 0.4\n0 1 0.5\n1 0 0.7\n", 5),  # edge repeated as `j i w`
        ("2 -4 0\n0.1 0.2\n0.3 0.4\n", 1),              # neighbour count below 1
        ("2 1 -9\n0.1 0.2\n0.3 0.4\n", 1),              # negative seed
    ], ids=["empty", "truncated", "header", "position", "edge", "node_index", "zero_weight",
            "negative_weight", "nan_weight", "inf_weight", "self_loop", "huge_header",
            "negative_header", "nan_position", "inf_position", "repeated_edge",
            "zero_neighbors", "negative_seed"])
    def test_names_path_and_line(self, tmp_path, text, line):
        path = tmp_path / "graph.txt"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}:{line}: "):
            load_graph(str(path))
