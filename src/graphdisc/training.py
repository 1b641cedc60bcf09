"""Loss, integral-Lipschitz regularization, analytic gradients, Adam.

The trainable object is a bank of FIR taps, an entrywise activation and a
single-tap readout; with tanh it is the single-layer GNN, with the identity
activation the plain filter bank. Gradients are fully analytic: the readout gradient comes from
feature inner products, the tap gradients from cached shift powers, and the
regularizer contributes a subgradient at the grid point where the
integral-Lipschitz constant is attained.

Everything here is deterministic given the seeds in TrainConfig: shuffling,
initialization, and the optimizer never consult global state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    """One bias-corrected Adam update; returns new parameters and state."""
    if len(params) != len(grads):
        raise ShapeError("parameter and gradient lists differ in length")
    t = state.t + 1
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        new_params.append(p - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon))
        new_m.append(m)
        new_v.append(v)
    return new_params, replace(state, m=new_m, v=new_v, t=t)


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over batch and nodes of the squared error, plus d(loss)/d(pred)."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff ** 2))
    return loss, 2.0 * diff / diff.size


def il_regularizer(taps: np.ndarray, lam_max: float,
                   weight: float) -> tuple[float, np.ndarray]:
    """weight * max_{f, grid} |lambda h_f'(lambda)| with its subgradient.

    The gradient flows only to the filter and grid point attaining the
    maximum (ties resolve to the first flattened index) through
    d/dh_k [lambda h'(lambda)] = k lambda^k.
    """
    taps = np.asarray(taps, dtype=np.float64)
    n_taps = taps.shape[1]
    grid = response_grid(lam_max)
    powers = np.arange(n_taps)
    # lambda * h'(lambda) = sum_k k h_k lambda^k
    lam_pow = grid[None, :] ** powers[:, None]          # (K+1, G)
    vals = (taps * powers) @ lam_pow                    # (F, G)
    abs_vals = np.abs(vals)
    flat_idx = int(np.argmax(abs_vals))
    f_star, g_star = np.unravel_index(flat_idx, abs_vals.shape)
    value = float(abs_vals[f_star, g_star])

    grad = np.zeros_like(taps)
    sign = np.sign(vals[f_star, g_star])
    grad[f_star] = weight * sign * powers * grid[g_star] ** powers
    return weight * value, grad


class ForwardCache(NamedTuple):
    shift_powers: np.ndarray     # (K+1, B, n)
    pre_activations: np.ndarray  # (F, B, n)
    features: np.ndarray         # (F, B, n)
    pred: np.ndarray             # (B, n)


def model_forward(model: TrainableModel, s: SupportMatrix,
                  x: np.ndarray) -> ForwardCache:
    """Batched forward pass; x has shape (B, n)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != s.n:
        raise ShapeError(f"signals have length {x.shape[1]}, support is {s.n}x{s.n}")
    n_taps = model.taps.shape[1]
    powers = np.empty((n_taps,) + x.shape)
    powers[0] = x
    for k in range(1, n_taps):
        powers[k] = powers[k - 1] @ s.entries.T
    pre = np.einsum("fk,kbn->fbn", model.taps, powers)
    features = model.sigma.eval(pre)
    pred = np.einsum("f,fbn->bn", model.readout, features)
    return ForwardCache(powers, pre, features, pred)


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
    dpre = model.readout[:, None, None] * dpred[None, :, :]
    dpre *= model.sigma.derivative(cache.pre_activations)  # in place: one array fewer
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
    state = init_adam([model.taps, model.readout], config.learning_rate,
                      config.decay)

    def val_mse() -> float:
        return mse_loss(predict(model, s, x_val), y_val)[0]

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
            (model.taps, model.readout), state = adam_step(
                state, [model.taps, model.readout],
                [result.grad_taps, result.grad_readout],
            )
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
        state = replace(state, learning_rate=state.learning_rate * config.decay)

    return TrainResult(model=best, best_val_loss=best_val, history=history)
