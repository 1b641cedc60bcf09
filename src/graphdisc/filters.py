"""FIR graph filters, filter banks, and spectral-domain filters.

An FIR filter is a polynomial in the support matrix, applied by iterated
one-hop shifts. Its frequency response is the same polynomial evaluated at
each eigenvalue. A SpectralFilter instead prescribes the per-eigenvalue
gains directly, which is the only way to make a response exactly zero on a
set of eigenvalues (a low-degree polynomial cannot vanish on n - k distinct
points).

The integral-Lipschitz constant of a filter is estimated as the maximum of
|lambda * h'(lambda)| over a uniform grid, using the exact polynomial
derivative; the same grid defines the cutoff frequency, the smallest grid
value above which the response derivative stays below a given eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError, read_text
from .graphs import SupportMatrix, _frozen
from .spectral import Spectrum

GRID_POINTS = 257


@dataclass(frozen=True)
class FirFilter:
    """Polynomial filter with taps h_0..h_K."""

    taps: np.ndarray  # (K+1,)

    def __post_init__(self):
        taps = np.atleast_1d(np.asarray(self.taps, dtype=np.float64))
        if taps.size == 0:
            raise ConfigurationError("a filter needs at least one tap")
        if not np.all(np.isfinite(taps)):
            raise ConfigurationError("filter taps must be finite")
        object.__setattr__(self, "taps", _frozen(taps))

    @property
    def order(self) -> int:
        return self.taps.size - 1


@dataclass(frozen=True)
class FilterBank:
    """F parallel FIR filters with a uniform tap count."""

    filters: tuple[FirFilter, ...]

    def __post_init__(self):
        filters = tuple(self.filters)
        if not filters:
            raise ConfigurationError("a bank needs at least one filter")
        length = filters[0].taps.size
        if any(f.taps.size != length for f in filters):
            raise ConfigurationError("all filters in a bank must have the same tap count")
        object.__setattr__(self, "filters", filters)

    @property
    def size(self) -> int:
        return len(self.filters)

    @property
    def taps_matrix(self) -> np.ndarray:
        return np.stack([f.taps for f in self.filters])


@dataclass(frozen=True)
class SpectralFilter:
    """Per-eigenvalue gains h(lambda_i) for one fixed Spectrum."""

    response: np.ndarray  # (n,)

    def __post_init__(self):
        response = np.asarray(self.response, dtype=np.float64)
        if not np.all(np.isfinite(response)):
            raise ConfigurationError("spectral response must be finite")
        object.__setattr__(self, "response", _frozen(response))


def apply_fir(f: FirFilter, s: SupportMatrix, x: np.ndarray) -> np.ndarray:
    """Filter output sum_k h_k S^k x, computed by iterated shifts."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != s.n:
        raise ShapeError(f"signal has length {x.shape[-1]}, support is {s.n}x{s.n}")
    out = f.taps[0] * x
    z = x
    for h_k in f.taps[1:]:
        z = z @ s.entries.T
        out = out + h_k * z
    return out


def freq_response(f: FirFilter, lam) -> np.ndarray | float:
    """Polynomial response sum_k h_k lam^k (Horner), scalar or vectorized."""
    lam = np.asarray(lam, dtype=np.float64)
    acc = np.full_like(lam, f.taps[-1])
    for h_k in f.taps[-2::-1]:
        acc = acc * lam + h_k
    return float(acc) if acc.ndim == 0 else acc


def _derivative_taps(taps: np.ndarray) -> np.ndarray:
    """Taps of h'(lambda); [0] for a constant filter."""
    if taps.size == 1:
        return np.zeros(1)
    return taps[1:] * np.arange(1, taps.size)


def response_grid(lam_max: float) -> np.ndarray:
    """The uniform evaluation grid on [0, lam_max]."""
    return np.linspace(0.0, lam_max, GRID_POINTS)


def il_constant(f: FirFilter, lam_max: float) -> float:
    """Integral-Lipschitz constant estimate max |lambda h'(lambda)| on the grid."""
    if lam_max <= 0:
        raise ConfigurationError(f"lam_max must be positive, got {lam_max}")
    grid = response_grid(lam_max)
    deriv = FirFilter(_derivative_taps(f.taps))
    return float(np.max(np.abs(grid * freq_response(deriv, grid))))


def bank_il_constant(b: FilterBank, lam_max: float) -> float:
    """Largest il_constant across the bank."""
    return max(il_constant(f, lam_max) for f in b.filters)


def cutoff_frequency(f: FirFilter, eps: float, lam_max: float) -> float:
    """Smallest grid value above which |h'(lambda)| < eps everywhere.

    Scans the uniform grid on [0, lam_max]; returns the smallest grid value
    lam* such that every grid point strictly greater than lam* has
    |h'(lambda)| < eps. If the response never flattens this is lam_max.
    """
    if eps <= 0:
        raise ConfigurationError(f"eps must be positive, got {eps}")
    grid = response_grid(lam_max)
    deriv = FirFilter(_derivative_taps(f.taps))
    flat = np.abs(freq_response(deriv, grid)) < eps
    violations = np.nonzero(~flat)[0]
    if violations.size == 0:
        return float(grid[0])
    return float(grid[violations[-1]])


def zero_high_response(spec: Spectrum, k: int, low_profile: np.ndarray) -> SpectralFilter:
    """Spectral filter equal to low_profile on the k lowest modes, zero above.

    This realizes exactly the response shape the discriminability theorems
    hypothesize for the protected filter.
    """
    if not 0 < k < spec.n:
        raise ConfigurationError(f"split index must satisfy 0 < k < {spec.n}, got {k}")
    low_profile = np.asarray(low_profile, dtype=np.float64)
    if low_profile.shape != (k,):
        raise ShapeError(f"low_profile must have length {k}, got {low_profile.shape}")
    response = np.zeros(spec.n)
    response[:k] = low_profile
    return SpectralFilter(response=response)


def save_bank(bank: FilterBank, path: str) -> None:
    """Write a bank as text: `F K+1` then one tap line per filter."""
    lines = [f"{bank.size} {bank.filters[0].taps.size}"]
    lines += [" ".join(f"{t:.17g}" for t in f.taps) for f in bank.filters]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_bank_head(path: str) -> tuple[FilterBank, list[str]]:
    """The bank at the head of a save_bank file and the nonblank lines after it."""
    lines = [ln for ln in read_text(path).split("\n") if ln.strip()]
    n_filters, n_taps = (int(t) for t in lines[0].split())
    filters = []
    for ln in lines[1:1 + n_filters]:
        taps = np.array([float(t) for t in ln.split()])
        if taps.size != n_taps:
            raise ConfigurationError(f"expected {n_taps} taps per line in {path}")
        filters.append(FirFilter(taps))
    return FilterBank(filters=tuple(filters)), lines[1 + n_filters:]


def load_bank(path: str) -> FilterBank:
    """Inverse of save_bank."""
    return read_bank_head(path)[0]
