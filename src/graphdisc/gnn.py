"""Pointwise nonlinearities, spectral banks applied to signals, model files.

A single-layer GNN applies a bank of filters to one input signal
(bank_forward) and passes each feature through a scalar nonlinearity
entrywise. Here a bank is its (F, n) gains array on one Spectrum, one row
per filter; an FIR filter's row is freq_response(taps, spec.eigenvalues).
TrainableModel, the one trained-model type, holds an FIR bank's (F, K+1)
taps, the readout ((F,) weights shared by all nodes, no bias) and the
activation; training makes it and a model file (save_model) holds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError, write_lines
from .filters import bank_lines, read_bank_head
from .graphs import _frozen
from .spectral import Spectrum


def _float64_target(t) -> np.ndarray:
    """t itself, when it is a float64 array that a result can be written over."""
    if not (isinstance(t, np.ndarray) and t.dtype == np.float64):
        raise ShapeError("an activation is written over a float64 array, got "
                         f"{getattr(t, 'dtype', type(t).__name__)}")
    return t


@dataclass(frozen=True)
class Nonlinearity:
    """Entrywise scalar activation: strictly monotone and Lipschitz.

    kind is "tanh", "identity", or "leaky_rectifier"; slope only applies to
    the leaky rectifier and must lie in (0, 1) so the function stays
    strictly monotone, and the other kinds take none (a slope other than
    1.0 raises ConfigurationError). eval and output_derivative write their
    result over their argument, a float64 array (ShapeError for any other),
    and return it.
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
        if self.kind != "leaky_rectifier" and self.slope != 1.0:
            raise ConfigurationError(f"{self.kind} takes no slope, got {self.slope}")

    @classmethod
    def tanh(cls) -> "Nonlinearity":
        return cls(kind="tanh")

    @classmethod
    def identity(cls) -> "Nonlinearity":
        return cls(kind="identity")

    @classmethod
    def leaky_rectifier(cls, slope: float) -> "Nonlinearity":
        return cls(kind="leaky_rectifier", slope=slope)

    def eval(self, t: np.ndarray) -> np.ndarray:
        """sigma(t) entrywise, written over t."""
        t = _float64_target(t)
        if self.kind == "tanh":
            return np.tanh(t, out=t)
        if self.kind == "identity":
            return t
        return np.multiply(t, np.where(t >= 0.0, 1.0, self.slope), out=t)

    def output_derivative(self, out: np.ndarray) -> np.ndarray:
        """sigma' at the points where sigma returned out, read off out and
        written over it.

        1 - out^2 for tanh, and 1 or the slope by the sign of out for the
        leaky rectifier, so sigma is never evaluated again.
        """
        out = _float64_target(out)
        if self.kind == "tanh":
            np.square(out, out=out)
            return np.subtract(1.0, out, out=out)
        if self.kind == "identity":
            out.fill(1.0)
            return out
        out[...] = np.where(out >= 0.0, 1.0, self.slope)
        return out

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
    """Filtered signals, no nonlinearity: x of shape (..., n) gives (..., F, n).

    Row f of the (F, n) gains is applied in the eigenbasis of spec,
    V diag(gains[f]) V^T x, so a 1-D x gives (F, n) and a (T, n) stack of
    signals gives (T, F, n). Every signal is filtered by the same products,
    whatever else is stacked with it: its result carries the same bits.
    """
    x = np.asarray(x, dtype=np.float64)
    gains = np.asarray(gains, dtype=np.float64)
    if x.shape[-1] != spec.n:
        raise ShapeError(f"signal has length {x.shape[-1]}, basis is {spec.n}")
    if gains.ndim != 2 or gains.shape[1] != spec.n:
        raise ShapeError(f"gains have shape {gains.shape}, expected (F, {spec.n})")
    v = spec.eigenvectors
    # each (1, n) slice is one vector-matrix product (gemv), as for a 1-D x;
    # a (T, n) @ (n, n) matrix product would round differently
    xt = x[..., None, :] @ v
    return ((xt * gains)[..., None, :] @ v.T)[..., 0, :]


@dataclass
class TrainableModel:
    """Bank taps (F x (K+1)), readout weights (F,), and the activation."""

    taps: np.ndarray
    readout: np.ndarray
    sigma: Nonlinearity

    def copy(self) -> "TrainableModel":
        return TrainableModel(self.taps.copy(), self.readout.copy(), self.sigma)


def save_model(model: TrainableModel, path: str) -> None:
    """Bank text format of the taps, plus one line of the readout weights
    and one sigma descriptor line."""
    readout_line = " ".join(f"{w:.17g}" for w in model.readout)
    write_lines(path, bank_lines(model.taps) + [readout_line, model.sigma.descriptor()])


def load_model(path: str) -> TrainableModel:
    """Inverse of save_model. A missing or malformed line, as read_bank_head
    checks it, a readout weight that is not finite, extra tokens on the
    sigma line and any line after it raise ConfigurationError naming the
    path and the line."""
    taps, lines = read_bank_head(path)
    readout = lines.floats(taps.shape[0], "readout weights")
    with lines.line("a sigma line: tanh, identity or leaky_rectifier <slope>") as tokens:
        sigma = Nonlinearity.from_descriptor(" ".join(tokens))
    lines.end()
    return TrainableModel(taps, readout, sigma)
