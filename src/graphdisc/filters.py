"""FIR graph filters, filter banks, and zero-high spectral gains.

An FIR filter is a polynomial in the support matrix, sum_k h_k S^k x, held
as its taps h_0..h_K; a bank of F such filters is an (F, K+1) float64 taps
array, one filter per row. A filter is computed one way only: shift_powers
stacks S^k x for k = 0..K, written by K products with S, and contract takes
the taps (one filter or a whole bank) against that stack in one product.
Dataset targets and the training step both filter this way. The
frequency response is the same polynomial evaluated at each eigenvalue.
zero_high_response instead prescribes the per-eigenvalue gains directly,
which is the only way to make a response exactly zero on a set of
eigenvalues (a low-degree polynomial cannot vanish on n - k distinct
points).

The integral-Lipschitz constant of a filter is estimated as the maximum of
|lambda * h'(lambda)| over a uniform grid, using the exact polynomial
derivative.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, LineReader, ShapeError, write_lines
from .graphs import SupportMatrix
from .spectral import Spectrum

GRID_POINTS = 257


def shift_powers(s: SupportMatrix, x: np.ndarray, n_taps: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """S^k x for k = 0..n_taps-1 and every signal of x (..., n): shape
    (n_taps,) + x.shape, written into out when given."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != s.n:
        raise ShapeError(f"signal has length {x.shape[-1]}, support is {s.n}x{s.n}")
    powers = np.empty((n_taps,) + x.shape) if out is None else out
    powers[0] = x
    for k in range(1, n_taps):
        np.matmul(powers[k - 1], s.entries.T, out=powers[k])
    return powers


def contract(w: np.ndarray, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_j w[..., j] a[j]: w (F, J) or (J,) against a (J, ...), as one
    2-D product on the reshaped a, written into out when given. With the
    taps as w and shift_powers as a, this is the FIR filter output."""
    shape = w.shape[:-1] + a.shape[1:]
    flat = None if out is None else out.reshape(w.shape[:-1] + (-1,))
    return np.matmul(w, a.reshape(a.shape[0], -1), out=flat).reshape(shape)


def freq_response(taps: np.ndarray, lam) -> np.ndarray | float:
    """Polynomial response sum_k h_k lam^k of the taps h_0..h_K (Horner),
    scalar or vectorized."""
    taps = np.asarray(taps, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    acc = np.full_like(lam, taps[-1])
    for h_k in taps[-2::-1]:
        acc = acc * lam + h_k
    return float(acc) if acc.ndim == 0 else acc


def response_grid(lam_max: float) -> np.ndarray:
    """The uniform evaluation grid on [0, lam_max]."""
    return np.linspace(0.0, lam_max, GRID_POINTS)


@lru_cache(maxsize=16)
def _grid_powers(lam_max: float, n_taps: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents 0..K and the read-only (K+1, G) matrix lambda^k on the grid."""
    if lam_max <= 0:
        raise ConfigurationError(f"lam_max must be positive, got {lam_max}")
    powers = np.arange(n_taps)
    lam_pow = response_grid(lam_max)[None, :] ** powers[:, None]
    powers.flags.writeable = lam_pow.flags.writeable = False
    return powers, lam_pow


def _il_response(taps: np.ndarray, lam_max: float) -> np.ndarray:
    """lambda h_f'(lambda) = sum_k k h_fk lambda^k on the grid, for each row
    of the (F, K+1) taps: one (F, K+1) @ (K+1, G) product."""
    powers, lam_pow = _grid_powers(float(lam_max), taps.shape[1])
    return (taps * powers) @ lam_pow


def bank_il_constant(taps: np.ndarray, lam_max: float) -> float:
    """Integral-Lipschitz constant estimate: the largest max |lambda h_f'(lambda)|
    on the grid over the rows of an (F, K+1) taps array."""
    taps = np.asarray(taps, dtype=np.float64)
    return float(np.max(np.abs(_il_response(taps, lam_max))))


def zero_high_response(spec: Spectrum, k: int, low_profile: np.ndarray) -> np.ndarray:
    """The (n,) gains equal to low_profile on the k lowest modes, zero above.

    This realizes exactly the response shape the discriminability theorems
    hypothesize for the protected filter.
    """
    if not 0 < k < spec.n:
        raise ConfigurationError(f"split index must satisfy 0 < k < {spec.n}, got {k}")
    low_profile = np.asarray(low_profile, dtype=np.float64)
    if low_profile.shape != (k,):
        raise ShapeError(f"low_profile must have length {k}, got {low_profile.shape}")
    gains = np.zeros(spec.n)
    gains[:k] = low_profile
    return gains


def bank_lines(taps: np.ndarray) -> list[str]:
    """The lines of an (F, K+1) taps matrix as a bank: `F K+1` then one
    tap line per filter. read_bank_head reads them back."""
    return ([f"{taps.shape[0]} {taps.shape[1]}"]
            + [" ".join(f"{t:.17g}" for t in row) for row in taps])


def save_bank(taps: np.ndarray, path: str) -> None:
    """Write an (F, K+1) taps matrix as a bank file."""
    write_lines(path, bank_lines(taps))


def read_bank_head(path: str) -> tuple[np.ndarray, LineReader]:
    """The (F, K+1) taps at the head of a save_bank file, and the reader of
    the lines after it.

    This is where a bank from outside the program is checked: a header
    with F below 1 or above the lines left, or K+1 below 1, a tap line of
    the wrong length and a tap that is not finite raise ConfigurationError
    naming the path and the line.
    """
    lines = LineReader(path)
    with lines.line("`F K+1`") as tokens:
        n_filters, n_taps = (int(t) for t in tokens)
        if not 1 <= n_filters <= lines.remaining:
            raise ConfigurationError(f"filter count {n_filters} is not between 1 and the "
                                     f"{lines.remaining} lines after the header")
        if n_taps < 1:
            raise ConfigurationError(f"a filter needs at least one tap, got {n_taps}")
    taps = np.array([lines.floats(n_taps, "taps") for _ in range(n_filters)])
    return taps, lines


def load_bank(path: str) -> np.ndarray:
    """Inverse of save_bank: the (F, K+1) taps array. A line after the taps
    raises ConfigurationError naming the path and the line."""
    taps, lines = read_bank_head(path)
    lines.end()
    return taps
