"""Symmetric eigendecomposition, subspace splits and projections.

Functions:

eig_sym: full eigendecomposition of a symmetric support matrix (LAPACK eigh)
split_subspace: partition the basis at a sorted index k
project_subspace: orthogonal projection onto the low or high subspace

Classes:

Spectrum: eigenvalues sorted by ascending magnitude plus orthonormal basis
SubspaceSplit: a Spectrum and the index k that cuts it into V_low / V_high

Eigenvalues are ordered by ascending |lambda| with ties broken by ascending
signed value; each eigenvector is flipped so its first significant component
is positive. Both conventions make downstream coefficients reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, NumericalError, ShapeError
from .graphs import SupportMatrix, _frozen

SPLIT_GAP_RTOL = 1e-10   # relative to max |lambda|: a smaller gap at the split is a tie


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition S = V diag(eigenvalues) V^T."""

    eigenvalues: np.ndarray   # (n,), |l_1| <= ... <= |l_n|
    eigenvectors: np.ndarray  # (n, n), column i pairs with eigenvalues[i]

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _frozen(self.eigenvalues))
        object.__setattr__(self, "eigenvectors", _frozen(self.eigenvectors))

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class SubspaceSplit:
    """A Spectrum partitioned at sorted index k: V_low holds its k
    lowest-magnitude eigenvectors, V_high the rest, as read-only copies.
    Build one with split_subspace, which checks k."""

    spectrum: Spectrum
    k: int
    v_low: np.ndarray = field(init=False)    # (n, k)
    v_high: np.ndarray = field(init=False)   # (n, n-k)

    def __post_init__(self):
        v = self.spectrum.eigenvectors
        object.__setattr__(self, "v_low", _frozen(v[:, :self.k]))
        object.__setattr__(self, "v_high", _frozen(v[:, self.k:]))

    @property
    def n(self) -> int:
        return self.spectrum.n


def eig_sym(s: SupportMatrix) -> Spectrum:
    """Eigendecomposition of a symmetric support matrix.

    SupportMatrix guarantees finite, symmetric entries. Raises
    NumericalError if LAPACK fails to converge.
    """
    try:
        eigvals, eigvecs = np.linalg.eigh(s.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolve failed: {exc}") from exc

    # ascending |lambda|, ties by ascending signed value
    order = np.lexsort((eigvals, np.abs(eigvals)))
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    # first significant component of each eigenvector is positive
    # (a column with no significant component has first 0 and is kept)
    first = (np.abs(eigvecs) > 1e-12).argmax(axis=0)
    flip = eigvecs[first, np.arange(eigvecs.shape[1])] < -1e-12
    eigvecs[:, flip] = -eigvecs[:, flip]

    return Spectrum(eigenvalues=eigvals, eigenvectors=eigvecs)


def split_subspace(spec: Spectrum, k: int) -> SubspaceSplit:
    """Partition the eigenbasis into the k lowest-magnitude modes and the rest.

    A split inside a repeated eigenvalue, |lambda_k - lambda_{k-1}| at most
    SPLIT_GAP_RTOL * max |lambda|, raises DegenerateInputError: the two
    subspaces would depend on an arbitrary basis of that eigenspace.
    """
    if not 0 < k < spec.n:
        raise ConfigurationError(f"split index must satisfy 0 < k < {spec.n}, got {k}")
    lam = spec.eigenvalues
    gap = abs(float(lam[k] - lam[k - 1]))
    if gap <= SPLIT_GAP_RTOL * float(np.max(np.abs(lam))):
        raise DegenerateInputError(
            f"split index {k} falls inside a repeated eigenvalue: the gap there is {gap:.3e}")
    return SubspaceSplit(spec, k)


def project_subspace(split: SubspaceSplit, w: np.ndarray, which: str) -> np.ndarray:
    """Project w onto the chosen subspace: "low" (span of v_low) or "high"
    (span of v_high)."""
    w = np.asarray(w, dtype=np.float64)
    if which == "low":
        basis = split.v_low
    elif which == "high":
        basis = split.v_high
    else:
        raise ConfigurationError(f"which must be 'low' or 'high', got {which!r}")
    if w.shape[-1] != split.n:
        raise ShapeError(f"signal has length {w.shape[-1]}, basis is {split.n}")
    return (w @ basis) @ basis.T
