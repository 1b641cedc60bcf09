"""Pointwise nonlinearities, filter banks applied to signals, model files.

A single-layer GNN applies a bank of filters to one input signal
(bank_forward) and passes each feature through a scalar nonlinearity
entrywise. An FIR bank is its (F, K+1) taps array; a bank may instead be
a sequence of SpectralFilter. The readout, an (F,) array, combines the F
features per node with weights shared across nodes (no bias); training
applies it (training.predict).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConfigurationError, ShapeError
from .filters import (
    SpectralFilter,
    contract,
    freq_response,
    read_bank_head,
    save_bank,
    shift_powers,
)
from .graphs import SupportMatrix
from .spectral import Spectrum

# a taps array, or a sequence of taps rows and spectral filters (applied
# through a Spectrum); iterating a bank yields its filters either way
Bank = Union[np.ndarray, Sequence[Union[np.ndarray, SpectralFilter]]]


@dataclass(frozen=True)
class Nonlinearity:
    """Entrywise scalar activation: strictly monotone and Lipschitz.

    kind is "tanh", "identity", or "leaky_rectifier"; slope only applies to
    the leaky rectifier and must lie in (0, 1) so the function stays
    strictly monotone. The identity's eval returns its float64 input array
    itself, not a copy.
    """

    kind: str
    slope: float = 1.0

    def __post_init__(self):
        if self.kind not in ("tanh", "identity", "leaky_rectifier"):
            raise ConfigurationError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind == "leaky_rectifier" and not 0.0 < self.slope < 1.0:
            raise ConfigurationError(
                f"leaky rectifier slope must be in (0, 1), got {self.slope}"
            )

    @classmethod
    def tanh(cls) -> "Nonlinearity":
        return cls(kind="tanh")

    @classmethod
    def identity(cls) -> "Nonlinearity":
        return cls(kind="identity")

    @classmethod
    def leaky_rectifier(cls, slope: float) -> "Nonlinearity":
        return cls(kind="leaky_rectifier", slope=slope)

    def eval(self, t: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """sigma(t) entrywise; with overwrite it is written over t."""
        t = np.asarray(t, dtype=np.float64)
        out = t if overwrite else None
        if self.kind == "tanh":
            return np.tanh(t, out=out)
        if self.kind == "identity":
            return t
        return np.multiply(t, np.where(t >= 0.0, 1.0, self.slope), out=out)

    def output_derivative(self, out: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """sigma' at the points where sigma returned out, read off out.

        1 - out^2 for tanh, and 1 or the slope by the sign of out for the
        leaky rectifier, so sigma is never evaluated again. With overwrite,
        the tanh derivative is written over out instead of a new array.
        """
        out = np.asarray(out, dtype=np.float64)
        if self.kind == "tanh":
            deriv = np.square(out, out=out if overwrite else None)
            return np.subtract(1.0, deriv, out=deriv)
        if self.kind == "identity":
            return np.ones_like(out)
        return np.where(out >= 0.0, 1.0, self.slope)

    def backprop(self, grad: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Scale grad in place by sigma' where sigma returned out, and
        return it; the identity leaves grad untouched. out is scratch
        afterwards: tanh overwrites it with sigma'."""
        if self.kind != "identity":
            grad *= self.output_derivative(out, overwrite=True)
        return grad

    def descriptor(self) -> str:
        if self.kind == "leaky_rectifier":
            return f"leaky_rectifier {self.slope:.17g}"
        return self.kind

    @classmethod
    def from_descriptor(cls, text: str) -> "Nonlinearity":
        """Inverse of descriptor; a slope on any kind but leaky_rectifier, a
        missing slope and any further token raise ConfigurationError."""
        kind, *params = text.split()
        if kind == "leaky_rectifier" and len(params) == 1:
            return cls.leaky_rectifier(float(params[0]))
        if params or kind == "leaky_rectifier":
            raise ConfigurationError("expected tanh, identity or leaky_rectifier <slope>, "
                                     f"got {text!r}")
        return cls(kind=kind)


@dataclass(frozen=True)
class SingleLayerGnn:
    """A filter bank followed by an entrywise nonlinearity."""

    bank: Bank
    sigma: Nonlinearity

    def __post_init__(self):
        if not isinstance(self.bank, np.ndarray):
            object.__setattr__(self, "bank", tuple(self.bank))
            if len(self.bank) == 0:
                raise ConfigurationError("a GNN needs at least one filter")


def spectral_gains(bank: Bank, spec: Spectrum) -> list[np.ndarray]:
    """Each filter's response on the eigenvalues of spec, one (n,) array each.

    A SpectralFilter gives its prescribed gains and an FIR filter its
    polynomial evaluated at the eigenvalues.
    """
    return [f.response if isinstance(f, SpectralFilter) else
            freq_response(f, spec.eigenvalues) for f in bank]


def bank_forward(bank: Bank, s_or_spec, x: np.ndarray) -> np.ndarray:
    """Stack of F filtered signals, shape (F, n); no nonlinearity.

    Through a SupportMatrix an FIR bank (a taps array) is applied in the shift
    domain by the FIR routine of filters, and x may also be a batch
    (B, n). Through a Spectrum any mix of FIR and spectral filters is
    applied in the eigenbasis, V diag(gains) V^T x per filter.
    """
    x = np.asarray(x, dtype=np.float64)
    if isinstance(s_or_spec, SupportMatrix):
        if not isinstance(bank, np.ndarray):
            raise ConfigurationError("a spectral bank is applied through a Spectrum")
        return contract(bank, shift_powers(s_or_spec, x, bank.shape[1]))
    if not isinstance(s_or_spec, Spectrum):
        raise ConfigurationError("a bank is applied through a SupportMatrix or a Spectrum")
    spec = s_or_spec
    if x.shape[-1] != spec.n:
        raise ShapeError(f"signal has length {x.shape[-1]}, basis is {spec.n}")
    gains = spectral_gains(bank, spec)
    if any(g.shape[0] != spec.n for g in gains):
        raise ShapeError(f"a spectral response does not match the basis size {spec.n}")
    xt = x @ spec.eigenvectors
    # one product per filter: a single stacked matmul rounds differently
    return np.stack([(xt * g) @ spec.eigenvectors.T for g in gains])


def save_model(taps: np.ndarray, readout: np.ndarray, sigma: Nonlinearity,
               path: str) -> None:
    """Bank text format of the (F, K+1) taps, plus one line of the (F,)
    readout weights and one sigma descriptor line."""
    save_bank(taps, path)
    with open(path, "a") as fh:
        fh.write(" ".join(f"{w:.17g}" for w in readout) + "\n")
        fh.write(sigma.descriptor() + "\n")


def load_model(path: str) -> tuple[np.ndarray, np.ndarray, Nonlinearity]:
    """Inverse of save_model: (taps, readout, sigma). A missing or malformed
    line, as read_bank_head checks it, a readout weight that is not finite
    and extra tokens on the sigma line raise ConfigurationError naming the
    path and the line."""
    taps, lines = read_bank_head(path)
    readout = lines.floats(taps.shape[0], "readout weights")
    with lines.line("a sigma line: tanh, identity or leaky_rectifier <slope>") as tokens:
        sigma = Nonlinearity.from_descriptor(" ".join(tokens))
    return taps, readout, sigma
