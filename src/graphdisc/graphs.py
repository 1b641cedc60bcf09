"""Geometric random graphs and their support matrices.

Functions:

generate_geometric_graph: k-nearest-neighbour graph on uniform points in the
    unit square, with weights exp(-distance)
laplacian: weighted combinatorial Laplacian D - A as a SupportMatrix
normalize_support: divide a support matrix by its largest-magnitude eigenvalue
save_graph / load_graph: plain-text graph serialization

Classes:

GeometricGraph: node positions plus symmetric nonnegative weights
SupportMatrix: finite symmetric matrix
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, LineReader, NumericalError, write_lines


def _frozen(a: np.ndarray) -> np.ndarray:
    """Return a read-only float64 copy; instances share nothing mutable."""
    out = np.array(a, dtype=np.float64)
    out.flags.writeable = False
    return out


def _require_symmetric(a: np.ndarray, what: str) -> None:
    """Raise ConfigurationError naming `what` if max |A - A^T| exceeds 1e-10."""
    asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if asym > 1e-10:
        raise ConfigurationError(f"{what} is not symmetric (max |A - A^T| = {asym:.3e})")


@dataclass(frozen=True)
class GeometricGraph:
    """A geometric random graph: positions in [0,1]^2 and symmetric weights.

    Raises ConfigurationError naming the defect for positions that are not
    a finite (n, 2) array, and for weights that are not a finite,
    nonnegative (n, n) array with a zero diagonal and symmetric to 1e-10
    (SupportMatrix's check): laplacian of any other weights is not a graph
    Laplacian.
    """

    n: int
    positions: np.ndarray       # (n, 2)
    weights: np.ndarray         # (n, n), symmetric, zero diagonal
    k_neighbors: int
    seed: int

    def __post_init__(self):
        positions, weights = _frozen(self.positions), _frozen(self.weights)
        for name, a, shape in (("positions", positions, (self.n, 2)),
                               ("weights", weights, (self.n, self.n))):
            if a.shape != shape:
                raise ConfigurationError(f"graph {name} have shape {a.shape}, expected {shape}")
            if not np.all(np.isfinite(a)):
                raise ConfigurationError(f"graph {name} have a non-finite entry")
        if np.any(weights < 0.0):
            raise ConfigurationError(
                f"graph weights have a negative entry, {float(weights.min())}")
        loops = np.flatnonzero(np.diagonal(weights))
        if loops.size:
            raise ConfigurationError(f"graph weights have a self-loop at node {loops[0]}")
        _require_symmetric(weights, "graph weight matrix")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class SupportMatrix:
    """Symmetric n x n matrix, the shift operator of a graph.

    Raises ConfigurationError if an entry is not finite or the asymmetry
    max |A - A^T| exceeds 1e-10.
    """

    entries: np.ndarray         # (n, n) float64, symmetric

    def __post_init__(self):
        entries = _frozen(self.entries)
        if not np.all(np.isfinite(entries)):
            raise ConfigurationError("support matrix has a non-finite entry")
        _require_symmetric(entries, "matrix")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def generate_geometric_graph(n: int, k_neighbors: int, seed: int) -> GeometricGraph:
    """Drop n points uniformly on [0,1]^2 and connect each to its k nearest.

    The neighbour relation is symmetrized by union, so degrees can exceed
    k_neighbors. Edge weight is exp(-d) for Euclidean distance d. Distance
    ties are broken by lower node index, making the output a pure function
    of (n, k_neighbors, seed).
    """
    if k_neighbors < 1:
        raise ConfigurationError(f"k_neighbors must be at least 1, got {k_neighbors}")
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
    dx = positions[:, 0, None] - positions[None, :, 0]
    dy = positions[:, 1, None] - positions[None, :, 1]
    dist = np.sqrt(dx * dx + dy * dy)

    d = dist.copy()
    np.fill_diagonal(d, np.inf)
    # argsort is stable, so equal distances resolve to the lower index
    cols = np.argsort(d, axis=1, kind="stable")[:, :k_neighbors].ravel()
    rows = np.repeat(np.arange(n), k_neighbors)
    # dist is exactly symmetric, so both writes of an edge hold one value
    w = np.exp(-dist[rows, cols])
    weights = np.zeros((n, n))
    weights[rows, cols] = w
    weights[cols, rows] = w
    return GeometricGraph(n=n, positions=positions, weights=weights,
                          k_neighbors=k_neighbors, seed=int(seed))


def laplacian(g: GeometricGraph) -> SupportMatrix:
    """Weighted combinatorial Laplacian D - A of the graph."""
    degrees = g.weights.sum(axis=1)
    entries = np.diag(degrees) - g.weights
    entries = 0.5 * (entries + entries.T)
    return SupportMatrix(entries)


def normalize_support(s: SupportMatrix) -> SupportMatrix:
    """Divide the entries by the largest-magnitude eigenvalue.

    The result has operator norm 1. Raises DegenerateInputError for the
    all-zero matrix and NumericalError if LAPACK fails to converge.
    """
    if not np.any(s.entries):
        raise DegenerateInputError("cannot normalize the all-zero matrix")
    try:
        eigvals = np.linalg.eigvalsh(s.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigenvalue solve failed: {exc}") from exc
    norm = float(np.max(np.abs(eigvals)))
    return SupportMatrix(s.entries / norm)


def save_graph(g: GeometricGraph, path: str) -> None:
    """Write a graph as text: `n k seed`, n position lines, `i j w` triplets."""
    lines = [f"{g.n} {g.k_neighbors} {g.seed}"]
    for x, y in g.positions:
        lines.append(f"{x:.17g} {y:.17g}")
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.weights[i, j] > 0.0:
                lines.append(f"{i} {j} {g.weights[i, j]:.17g}")
    write_lines(path, lines)


def load_graph(path: str) -> GeometricGraph:
    """Inverse of save_graph. A missing or malformed line raises
    ConfigurationError naming the path and the line, as do a neighbour
    count below 1 or a negative seed in the header, a node count
    above the number of lines left for positions, a position that is not
    finite, a self-loop, an edge listed twice (in either order), and an
    edge weight that is not finite and positive."""
    lines = LineReader(path)
    with lines.line("`n k seed`") as tokens:
        n, k_neighbors, seed = (int(t) for t in tokens)
        if k_neighbors < 1:
            raise ConfigurationError(f"k_neighbors must be at least 1, got {k_neighbors}")
        if seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {seed}")
        # checked before allocating, so a huge n cannot exhaust memory
        if not 0 <= n <= lines.remaining:
            raise ConfigurationError(f"node count {n} is not between 0 and the "
                                     f"{lines.remaining} lines after the header")
        positions = np.empty((n, 2))
    for i in range(n):
        with lines.line("a node position `x y`") as tokens:
            x, y = tokens
            positions[i] = (float(x), float(y))
            if not np.all(np.isfinite(positions[i])):
                raise ConfigurationError(f"node position must be finite, got {x} {y}")
    weights = np.zeros((n, n))
    while lines.remaining:
        with lines.line("an edge `i j w`") as tokens:
            si, sj, sw = tokens
            i, j, w = int(si), int(sj), float(sw)
            if not (0 <= i < n and 0 <= j < n):
                raise ConfigurationError(f"edge {i} {j} names a node outside 0..{n - 1}")
            if i == j:
                raise ConfigurationError(f"self-loop at node {i}")
            if weights[i, j]:
                raise ConfigurationError(f"edge {i} {j} is listed twice")
            # the comparisons are False for NaN, so NaN is rejected too
            if not 0.0 < w < np.inf:
                raise ConfigurationError(f"edge weight must be finite and positive, got {w}")
            weights[i, j] = w
            weights[j, i] = w
    return GeometricGraph(n=n, positions=positions, weights=weights,
                          k_neighbors=k_neighbors, seed=seed)
