"""Loss, integral-Lipschitz regularization, analytic gradients, Adam.

The trainable object is a bank of FIR taps, an entrywise activation and a
single-tap readout; with tanh it is the single-layer GNN, with the identity
activation the plain filter bank.

One training step on a batch x of shape (B, n):

- shift powers S^k x, k = 0..K, written in place by K products with S;
- forward: pre-activations sum_k h_k S^k x, the activation, and the
  readout sum_f w_f sigma(.), each contraction one einsum;
- backward: the readout gradient contracts the features with d(loss)/d(pred);
  the tap gradient contracts d(loss)/d(pre-activation) with the cached
  shift powers. sigma' is read off the cached activation
  (Nonlinearity.backprop), so no activation is evaluated twice;
- the regularizer's subgradient at the filter and grid point where the
  integral-Lipschitz constant is attained. Its grid and power matrix are
  built once per (lam_max, tap count);
- one Adam update of a single vector holding taps and readout, with the
  moments updated in place.

train computes the validation set's shift powers once; training batches
get fresh powers every step, which keeps memory at one batch.

Everything here is deterministic given the seeds in TrainConfig: shuffling,
initialization, and the optimizer never consult global state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .filters import FilterBank, FirFilter, bank_il_constant, response_grid
from .gnn import Nonlinearity
from .graphs import SupportMatrix


@dataclass
class TrainableModel:
    """Bank taps (F x (K+1)), readout weights (F,), and the activation."""

    taps: np.ndarray
    readout: np.ndarray
    sigma: Nonlinearity

    def copy(self) -> "TrainableModel":
        return TrainableModel(self.taps.copy(), self.readout.copy(), self.sigma)

    def bank(self) -> FilterBank:
        return FilterBank(filters=tuple(FirFilter(row) for row in self.taps))


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 10
    learning_rate: float = 1e-3
    decay: float = 0.9
    il_weight: float = 0.01
    seed: int = 0


@dataclass
class AdamState:
    """First/second moment accumulators, shaped like the parameter list."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    per_epoch_decay: float = 0.9


def init_model(n_features: int, n_taps: int, sigma: Nonlinearity,
               seed: int) -> TrainableModel:
    """Per-layer fan-in init: taps uniform on +-1/sqrt(K+1), readout on
    +-1/sqrt(F)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    taps = rng.uniform(-1.0, 1.0, size=(n_features, n_taps)) / np.sqrt(n_taps)
    readout = rng.uniform(-1.0, 1.0, size=n_features) / np.sqrt(n_features)
    return TrainableModel(taps=taps, readout=readout, sigma=sigma)


def init_adam(params: list[np.ndarray], learning_rate: float,
              per_epoch_decay: float) -> AdamState:
    return AdamState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        t=0,
        learning_rate=learning_rate,
        per_epoch_decay=per_epoch_decay,
    )


def adam_step(state: AdamState, params: list[np.ndarray],
              grads: list[np.ndarray]) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update; returns new parameters and the state.

    The moments and the step count are updated in place, so the returned
    state is `state` itself; the parameters are new arrays.
    """
    if len(params) != len(grads):
        raise ShapeError("parameter and gradient lists differ in length")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    state.t += 1
    beta1, beta2 = state.beta1, state.beta2
    bias1, bias2 = 1.0 - beta1 ** state.t, 1.0 - beta2 ** state.t
    new_params = []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        g2 = (1.0 - beta2) * g
        g2 *= g
        v += g2
        step = m / bias1
        step *= state.learning_rate
        denom = v / bias2
        np.sqrt(denom, out=denom)
        denom += state.epsilon
        step /= denom
        new_params.append(p - step)
    return new_params, state


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over batch and nodes of the squared error, plus d(loss)/d(pred)."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    # np.mean's sum and division, without its Python-level overhead
    loss = float(np.add.reduce(np.square(diff), axis=None)) / diff.size
    return loss, 2.0 * diff / diff.size


@lru_cache(maxsize=16)
def _grid_powers(lam_max: float, n_taps: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents 0..K and the read-only (K+1, G) matrix lambda^k on the grid."""
    powers = np.arange(n_taps)
    lam_pow = response_grid(lam_max)[None, :] ** powers[:, None]
    powers.flags.writeable = lam_pow.flags.writeable = False
    return powers, lam_pow


def il_regularizer(taps: np.ndarray, lam_max: float,
                   weight: float) -> tuple[float, np.ndarray]:
    """weight * max_{f, grid} |lambda h_f'(lambda)| with its subgradient.

    The gradient flows only to the filter and grid point attaining the
    maximum (ties resolve to the first flattened index) through
    d/dh_k [lambda h'(lambda)] = k lambda^k.
    """
    taps = np.asarray(taps, dtype=np.float64)
    powers, lam_pow = _grid_powers(float(lam_max), taps.shape[1])
    # lambda * h'(lambda) = sum_k k h_k lambda^k
    vals = (taps * powers) @ lam_pow                    # (F, G)
    f_star, g_star = divmod(int(np.argmax(np.abs(vals))), vals.shape[1])
    peak = float(vals[f_star, g_star])

    grad = np.zeros_like(taps)
    grad[f_star] = weight * np.sign(peak) * powers * lam_pow[:, g_star]
    return weight * abs(peak), grad


class ForwardCache(NamedTuple):
    shift_powers: np.ndarray     # (K+1, B, n)
    pre_activations: np.ndarray  # (F, B, n)
    features: np.ndarray         # (F, B, n)
    pred: np.ndarray             # (B, n)


def _shift_powers(s: SupportMatrix, x: np.ndarray, n_taps: int) -> np.ndarray:
    """S^k x for k = 0..n_taps-1 and every signal of x (B, n): (K+1, B, n)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != s.n:
        raise ShapeError(f"signals have length {x.shape[1]}, support is {s.n}x{s.n}")
    powers = np.empty((n_taps,) + x.shape)
    powers[0] = x
    for k in range(1, n_taps):
        np.matmul(powers[k - 1], s.entries.T, out=powers[k])
    return powers


# The contractions stay einsums: BLAS (reshape + @) fuses multiply-adds and
# sums in another order, which moves every trained result in the last bits.

def _forward(model: TrainableModel, powers: np.ndarray) -> ForwardCache:
    """Forward pass from the shift powers (K+1, B, n) of a batch."""
    pre = np.einsum("fk,kbn->fbn", model.taps, powers)
    features = model.sigma.eval(pre)
    pred = np.einsum("f,fbn->bn", model.readout, features)
    return ForwardCache(powers, pre, features, pred)


def model_forward(model: TrainableModel, s: SupportMatrix,
                  x: np.ndarray) -> ForwardCache:
    """Batched forward pass; x has shape (B, n)."""
    return _forward(model, _shift_powers(s, x, model.taps.shape[1]))


def predict(model: TrainableModel, s: SupportMatrix, x: np.ndarray) -> np.ndarray:
    return model_forward(model, s, x).pred


class BackwardResult(NamedTuple):
    mse: float
    objective: float            # mse + regularizer
    grad_taps: np.ndarray       # (F, K+1)
    grad_readout: np.ndarray    # (F,)


def model_backward(model: TrainableModel, s: SupportMatrix, x: np.ndarray,
                   target: np.ndarray, il_weight: float,
                   lam_max: float = 1.0) -> BackwardResult:
    """Loss and analytic gradients for taps and readout on one batch."""
    cache = model_forward(model, s, x)
    mse, dpred = mse_loss(cache.pred, target)

    grad_readout = np.einsum("bn,fbn->f", dpred, cache.features)
    dpre = np.einsum("f,bn->fbn", model.readout, dpred)   # the outer product
    model.sigma.backprop(dpre, cache.features)
    grad_taps = np.einsum("fbn,kbn->fk", dpre, cache.shift_powers)

    reg, reg_grad = il_regularizer(model.taps, lam_max, il_weight)
    return BackwardResult(
        mse=mse,
        objective=mse + reg,
        grad_taps=grad_taps + reg_grad,
        grad_readout=grad_readout,
    )


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    il_constant: float
    learning_rate: float


@dataclass(frozen=True)
class TrainResult:
    model: TrainableModel
    best_val_loss: float
    history: list[EpochRecord] = field(repr=False)


def train(model: TrainableModel, s: SupportMatrix,
          train_set: tuple[np.ndarray, np.ndarray],
          val_set: tuple[np.ndarray, np.ndarray],
          config: TrainConfig, lam_max: float = 1.0) -> TrainResult:
    """Minibatch Adam with per-epoch learning-rate decay.

    Returns the model snapshot with the best validation loss and the full
    per-epoch history. With zero epochs the input model is returned as is.
    """
    x_train, y_train = train_set
    x_val, y_val = val_set
    model = model.copy()
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
    # Adam steps one vector holding taps and readout: half the array calls
    # of stepping them apart, with the same arithmetic per entry
    n_tap_params = model.taps.size
    params = np.concatenate([model.taps.ravel(), model.readout])
    state = init_adam([params], config.learning_rate, config.decay)

    val_powers = _shift_powers(s, x_val, model.taps.shape[1])

    def val_mse() -> float:
        return mse_loss(_forward(model, val_powers).pred, y_val)[0]

    best = model.copy()
    best_val = val_mse()
    history: list[EpochRecord] = []

    for epoch in range(config.epochs):
        order = rng.permutation(x_train.shape[0])
        batch_losses = []
        for start in range(0, x_train.shape[0], config.batch_size):
            idx = order[start:start + config.batch_size]
            result = model_backward(model, s, x_train[idx], y_train[idx],
                                    config.il_weight, lam_max)
            grads = np.concatenate([result.grad_taps.ravel(), result.grad_readout])
            (params,), state = adam_step(state, [params], [grads])
            model.taps = params[:n_tap_params].reshape(model.taps.shape)
            model.readout = params[n_tap_params:]
            batch_losses.append(result.mse)

        epoch_val = val_mse()
        history.append(EpochRecord(
            epoch=epoch,
            train_loss=float(np.mean(batch_losses)),
            val_loss=epoch_val,
            il_constant=bank_il_constant(model.bank(), lam_max),
            learning_rate=state.learning_rate,
        ))
        if epoch_val < best_val:
            best_val = epoch_val
            best = model.copy()
        state.learning_rate *= config.decay

    return TrainResult(model=best, best_val_loss=best_val, history=history)
