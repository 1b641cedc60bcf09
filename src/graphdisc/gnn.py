"""Pointwise nonlinearities, single-layer GNN forward map, readout.

The forward map applies a bank of filters to one input signal and passes
each feature through a scalar nonlinearity entrywise. The readout combines
the F features per node with weights shared across nodes (no bias).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConfigurationError, ShapeError
from .filters import (
    FilterBank,
    SpectralFilter,
    apply_fir,
    freq_response,
    read_bank_head,
    save_bank,
)
from .graphs import SupportMatrix, _frozen
from .spectral import Spectrum

Bank = Union[FilterBank, Sequence[SpectralFilter]]


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

    def eval(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "tanh":
            return np.tanh(t)
        if self.kind == "identity":
            return t
        return np.where(t >= 0.0, t, self.slope * t)

    def derivative(self, t: np.ndarray) -> np.ndarray:
        return self.output_derivative(self.eval(t))

    def output_derivative(self, out: np.ndarray) -> np.ndarray:
        """sigma' at the points where sigma returned out, read off out.

        1 - out^2 for tanh, and 1 or the slope by the sign of out for the
        leaky rectifier, so sigma is never evaluated again.
        """
        out = np.asarray(out, dtype=np.float64)
        if self.kind == "tanh":
            deriv = np.square(out)
            return np.subtract(1.0, deriv, out=deriv)
        if self.kind == "identity":
            return np.ones_like(out)
        return np.where(out >= 0.0, 1.0, self.slope)

    def backprop(self, grad: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Scale grad in place by sigma' where sigma returned out, and
        return it; the identity leaves grad untouched."""
        if self.kind != "identity":
            grad *= self.output_derivative(out)
        return grad

    def descriptor(self) -> str:
        if self.kind == "leaky_rectifier":
            return f"leaky_rectifier {self.slope:.17g}"
        return self.kind

    @classmethod
    def from_descriptor(cls, text: str) -> "Nonlinearity":
        parts = text.split()
        if parts[0] == "leaky_rectifier":
            return cls.leaky_rectifier(float(parts[1]))
        return cls(kind=parts[0])


@dataclass(frozen=True)
class SingleLayerGnn:
    """A filter bank followed by an entrywise nonlinearity."""

    bank: Bank
    sigma: Nonlinearity

    def __post_init__(self):
        if not isinstance(self.bank, FilterBank):
            object.__setattr__(self, "bank", tuple(self.bank))
            if len(self.bank) == 0:
                raise ConfigurationError("a GNN needs at least one filter")

    @property
    def size(self) -> int:
        return len(bank_filters(self.bank))


@dataclass(frozen=True)
class Readout:
    """Single-tap readout: per-node weighted sum of the F features."""

    weights: np.ndarray  # (F,)

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        if not np.all(np.isfinite(weights)):
            raise ConfigurationError("readout weights must be finite")
        object.__setattr__(self, "weights", _frozen(weights))


def bank_filters(bank: Bank) -> tuple:
    """The filters of a bank, whether a FilterBank or a plain sequence."""
    return bank.filters if isinstance(bank, FilterBank) else tuple(bank)


def spectral_gains(bank: Bank, spec: Spectrum) -> list[np.ndarray]:
    """Each filter's response on the eigenvalues of spec, one (n,) array each.

    A SpectralFilter gives its prescribed gains and an FIR filter its
    polynomial evaluated at the eigenvalues.
    """
    return [f.response if isinstance(f, SpectralFilter) else
            freq_response(f, spec.eigenvalues) for f in bank_filters(bank)]


def bank_forward(bank: Bank, s_or_spec, x: np.ndarray) -> np.ndarray:
    """Stack of F filtered signals, shape (F, n); no nonlinearity.

    Through a SupportMatrix an FIR FilterBank is applied in the shift
    domain. Through a Spectrum any mix of FIR and spectral filters is
    applied in the eigenbasis, V diag(gains) V^T x per filter.
    """
    x = np.asarray(x, dtype=np.float64)
    if isinstance(s_or_spec, SupportMatrix):
        if not isinstance(bank, FilterBank):
            raise ConfigurationError("a spectral bank is applied through a Spectrum")
        return np.stack([apply_fir(f, s_or_spec, x) for f in bank.filters])
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


def gnn_forward(gnn: SingleLayerGnn, s_or_spec, x: np.ndarray) -> np.ndarray:
    """sigma applied entrywise to every filtered feature, shape (F, n)."""
    return gnn.sigma.eval(bank_forward(gnn.bank, s_or_spec, x))


def readout_apply(r: Readout, features: np.ndarray) -> np.ndarray:
    """Weighted feature sum per node: sum_f w_f feature_f."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] != r.weights.shape[0]:
        raise ShapeError(
            f"{features.shape[0]} features but {r.weights.shape[0]} readout weights"
        )
    return np.tensordot(r.weights, features, axes=(0, 0))


def save_model(bank: FilterBank, readout: Readout, sigma: Nonlinearity, path: str) -> None:
    """Bank text format plus one readout line and one sigma descriptor line."""
    save_bank(bank, path)
    with open(path, "a") as fh:
        fh.write(" ".join(f"{w:.17g}" for w in readout.weights) + "\n")
        fh.write(sigma.descriptor() + "\n")


def load_model(path: str) -> tuple[FilterBank, Readout, Nonlinearity]:
    """Inverse of save_model."""
    bank, rest = read_bank_head(path)
    readout = Readout(np.array([float(t) for t in rest[0].split()]))
    return bank, readout, Nonlinearity.from_descriptor(rest[1])
