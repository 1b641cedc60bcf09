"""Geometric random graphs and their support matrices.

Functions:

generate_geometric_graph: k-nearest-neighbour graph on uniform points in the
    unit square, with weights exp(-distance)
laplacian: weighted combinatorial Laplacian D - A as a SupportMatrix
normalize_support: divide a support matrix by its largest-magnitude eigenvalue
graph_shift: one application of the support matrix to a signal
save_graph / load_graph: plain-text graph serialization

Classes:

GeometricGraph: node positions plus symmetric nonnegative weights
SupportMatrix: symmetric matrix with an explicit sparsity mask
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, ShapeError, read_text


def _frozen(a: np.ndarray) -> np.ndarray:
    """Return a read-only float64 copy; instances share nothing mutable."""
    out = np.array(a, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GeometricGraph:
    """A geometric random graph: positions in [0,1]^2 and symmetric weights."""

    n: int
    positions: np.ndarray       # (n, 2)
    weights: np.ndarray         # (n, n), symmetric, zero diagonal
    k_neighbors: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "positions", _frozen(self.positions))
        object.__setattr__(self, "weights", _frozen(self.weights))


@dataclass(frozen=True)
class SupportMatrix:
    """Symmetric matrix that respects a sparsity pattern.

    entries[i, j] is zero wherever sparsity_mask[i, j] is False; the diagonal
    is always permitted. Raises ConfigurationError if an entry is not finite
    or the asymmetry max |A - A^T| exceeds 1e-10.
    """

    n: int
    entries: np.ndarray         # (n, n) float64, symmetric
    sparsity_mask: np.ndarray   # (n, n) bool

    def __post_init__(self):
        entries = _frozen(self.entries)
        if not np.all(np.isfinite(entries)):
            raise ConfigurationError("support matrix has a non-finite entry")
        asym = float(np.max(np.abs(entries - entries.T))) if entries.size else 0.0
        if asym > 1e-10:
            raise ConfigurationError(f"matrix is not symmetric (max |A - A^T| = {asym:.3e})")
        object.__setattr__(self, "entries", entries)
        mask = np.array(self.sparsity_mask, dtype=bool)
        mask.flags.writeable = False
        object.__setattr__(self, "sparsity_mask", mask)


def generate_geometric_graph(n: int, k_neighbors: int, seed: int) -> GeometricGraph:
    """Drop n points uniformly on [0,1]^2 and connect each to its k nearest.

    The neighbour relation is symmetrized by union, so degrees can exceed
    k_neighbors. Edge weight is exp(-d) for Euclidean distance d. Distance
    ties are broken by lower node index, making the output a pure function
    of (n, k_neighbors, seed).
    """
    if n <= k_neighbors:
        raise ConfigurationError(
            f"need n > k_neighbors, got n={n}, k_neighbors={k_neighbors}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    positions = rng.uniform(0.0, 1.0, size=(n, 2))
    return _graph_from_positions(positions, k_neighbors, seed)


def _graph_from_positions(positions: np.ndarray, k_neighbors: int, seed: int) -> GeometricGraph:
    """k-NN construction from explicit positions (also the test hook)."""
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))

    weights = np.zeros((n, n))
    for i in range(n):
        d = dist[i].copy()
        d[i] = np.inf
        # argsort is stable, so equal distances resolve to the lower index
        nearest = np.argsort(d, kind="stable")[:k_neighbors]
        for j in nearest:
            w = np.exp(-dist[i, j])
            weights[i, j] = w
            weights[j, i] = w
    return GeometricGraph(n=n, positions=positions, weights=weights,
                          k_neighbors=k_neighbors, seed=int(seed))


def laplacian(g: GeometricGraph) -> SupportMatrix:
    """Weighted combinatorial Laplacian D - A of the graph."""
    degrees = g.weights.sum(axis=1)
    entries = np.diag(degrees) - g.weights
    entries = 0.5 * (entries + entries.T)
    mask = (g.weights > 0.0) | np.eye(g.n, dtype=bool)
    return SupportMatrix(n=g.n, entries=entries, sparsity_mask=mask)


def normalize_support(s: SupportMatrix) -> SupportMatrix:
    """Divide the entries by the largest-magnitude eigenvalue.

    The result has operator norm 1. Raises DegenerateInputError for the
    all-zero matrix.
    """
    if not np.any(s.entries):
        raise DegenerateInputError("cannot normalize the all-zero matrix")
    lam_max = float(np.max(np.abs(np.linalg.eigvalsh(s.entries))))
    return SupportMatrix(n=s.n, entries=s.entries / lam_max,
                         sparsity_mask=s.sparsity_mask)


def graph_shift(s: SupportMatrix, x: np.ndarray) -> np.ndarray:
    """One-hop aggregation S @ x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != s.n:
        raise ShapeError(f"signal has length {x.shape[-1]}, support is {s.n}x{s.n}")
    return x @ s.entries.T


def save_graph(g: GeometricGraph, path: str) -> None:
    """Write a graph as text: `n k seed`, n position lines, `i j w` triplets."""
    lines = [f"{g.n} {g.k_neighbors} {g.seed}"]
    for x, y in g.positions:
        lines.append(f"{x:.17g} {y:.17g}")
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.weights[i, j] > 0.0:
                lines.append(f"{i} {j} {g.weights[i, j]:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path: str) -> GeometricGraph:
    """Inverse of save_graph."""
    tokens = read_text(path).split("\n")
    header = tokens[0].split()
    n, k_neighbors, seed = int(header[0]), int(header[1]), int(header[2])
    positions = np.empty((n, 2))
    for i in range(n):
        x, y = tokens[1 + i].split()
        positions[i] = (float(x), float(y))
    weights = np.zeros((n, n))
    for line in tokens[1 + n:]:
        if not line.strip():
            continue
        si, sj, sw = line.split()
        i, j, w = int(si), int(sj), float(sw)
        weights[i, j] = w
        weights[j, i] = w
    return GeometricGraph(n=n, positions=positions, weights=weights,
                          k_neighbors=k_neighbors, seed=seed)
