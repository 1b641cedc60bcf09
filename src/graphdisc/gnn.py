"""Pointwise nonlinearities, spectral banks applied to signals, model files.

A single-layer GNN applies a bank of filters to one input signal
(bank_forward) and passes each feature through a scalar nonlinearity
entrywise. Here a bank is its (F, n) gains array on one Spectrum, one row
per filter; an FIR filter's row is freq_response(taps, spec.eigenvalues).
A model file holds an FIR bank, its (F, K+1) taps array, and the readout,
an (F,) array that combines the F features per node with weights shared
across nodes (no bias); training applies it (training.predict).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError
from .filters import read_bank_head, save_bank
from .graphs import _frozen
from .spectral import Spectrum


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
    """A spectral bank, its (F, n) gains array, followed by an entrywise
    nonlinearity. A bank that is not 2-D, has no row or has a gain that is
    not finite raises ConfigurationError."""

    bank: np.ndarray
    sigma: Nonlinearity

    def __post_init__(self):
        bank = _frozen(self.bank)
        if bank.ndim != 2 or bank.shape[0] == 0:
            raise ConfigurationError(
                f"a GNN bank is an (F, n) gains array with F >= 1, got shape {bank.shape}")
        if not np.all(np.isfinite(bank)):
            raise ConfigurationError("spectral gains must be finite")
        object.__setattr__(self, "bank", bank)


def bank_forward(gains: np.ndarray, spec: Spectrum, x: np.ndarray) -> np.ndarray:
    """Stack of F filtered signals, shape (F, n); no nonlinearity.

    Row f of the (F, n) gains is applied in the eigenbasis of spec,
    V diag(gains[f]) V^T x.
    """
    x = np.asarray(x, dtype=np.float64)
    gains = np.asarray(gains, dtype=np.float64)
    if x.shape[-1] != spec.n:
        raise ShapeError(f"signal has length {x.shape[-1]}, basis is {spec.n}")
    if gains.ndim != 2 or gains.shape[1] != spec.n:
        raise ShapeError(f"gains have shape {gains.shape}, expected (F, {spec.n})")
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
    line, as read_bank_head checks it, a readout weight that is not finite,
    extra tokens on the sigma line and any line after it raise
    ConfigurationError naming the path and the line."""
    taps, lines = read_bank_head(path)
    readout = lines.floats(taps.shape[0], "readout weights")
    with lines.line("a sigma line: tanh, identity or leaky_rectifier <slope>") as tokens:
        sigma = Nonlinearity.from_descriptor(" ".join(tokens))
    lines.end()
    return taps, readout, sigma
