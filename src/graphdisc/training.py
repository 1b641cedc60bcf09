"""Loss, integral-Lipschitz regularization, analytic gradients, Adam.

The trainable object is a bank of FIR taps, an entrywise activation and a
single-tap readout; with tanh it is the single-layer GNN, with the identity
activation the plain filter bank.

One training step on a batch of shape (B, n) takes P, the (K+1, B*n)
matrix of its shift powers S^k x, and forms the (F, B*n) activation A:

- forward: A = sigma(taps @ P) with sigma applied in place, and the
  prediction readout @ A, both by filters.contract;
- backward: the readout gradient A @ d(loss)/d(pred); then sigma' (read
  off A, overwriting it) gives the tap gradient
  readout x (sigma'(A) @ (P * d(loss)/d(pred))^T), which forms no
  (F, B*n) array besides A;
- the regularizer's subgradient at the filter and grid point where the
  integral-Lipschitz constant is attained, on the grid powers cached in
  filters;
- one Adam update of a single vector holding taps and readout, with the
  moments updated in place.

The identity model takes a shorter step. A linear bank followed by a
linear readout is one filter, w = readout @ taps, so its step forms no A:
the prediction is w @ P, g = P @ d(loss)/d(pred) is a (K+1)-vector, the
readout gradient is taps @ g and the tap gradient the outer product
readout x g. Validation and predict still form A for every activation.

The shift powers do not depend on the parameters, so train makes them
ahead of the steps: it walks each epoch's shuffled order in chunks of
whole batches, as many as fit in CHUNK_BYTES of powers, and per chunk
gathers the rows once and writes their powers (filters.shift_powers) into
one buffer that lives for the train call; each step takes its batch as a
view of that buffer. Batch order and composition do not depend on the
chunk size.

Every contraction is one 2-D BLAS product on a reshaped view. Inside
train, A is a buffer keyed by shape and reused for every step (a ragged
last batch gets its own), so a step allocates no (F, B, n) array; the
buffers are dropped when train returns, and nothing model_backward,
model_forward or predict returns is one of them. Outside train each call
gets fresh arrays. train computes the validation set's shift powers once,
and each epoch's integral-Lipschitz constant from the taps with the
regularizer's product (filters.bank_il_constant). An epoch whose train or
validation loss is not finite raises NumericalError; overflow on the way
there raises no warning. The result records the best epoch, or -1 when no
epoch improved on the validation loss of the initial model.

Everything here is deterministic given the seeds in TrainConfig: shuffling,
initialization, and the optimizer never consult global state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ShapeError
from .filters import _grid_powers, _il_response, bank_il_constant, contract, shift_powers
from .gnn import Nonlinearity
from .graphs import SupportMatrix

# Bytes of training-set shift powers train makes at once: a chunk holds as
# many whole batches as fit, and at least one.
CHUNK_BYTES = 2 ** 18


@dataclass
class TrainableModel:
    """Bank taps (F x (K+1)), readout weights (F,), and the activation."""

    taps: np.ndarray
    readout: np.ndarray
    sigma: Nonlinearity

    def copy(self) -> "TrainableModel":
        return TrainableModel(self.taps.copy(), self.readout.copy(), self.sigma)


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
    """First/second moment accumulators, shaped like the parameters."""

    m: np.ndarray
    v: np.ndarray
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


def init_adam(params: np.ndarray, learning_rate: float,
              per_epoch_decay: float) -> AdamState:
    return AdamState(
        m=np.zeros_like(params),
        v=np.zeros_like(params),
        t=0,
        learning_rate=learning_rate,
        per_epoch_decay=per_epoch_decay,
    )


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """One bias-corrected Adam update; returns the new parameters.

    The moments and the step count of state are updated in place; the
    parameters are a new array.
    """
    if params.shape != grads.shape:
        raise ShapeError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
    state.t += 1
    beta1, beta2 = state.beta1, state.beta2
    bias1, bias2 = 1.0 - beta1 ** state.t, 1.0 - beta2 ** state.t
    m, v = state.m, state.v
    m *= beta1
    m += (1.0 - beta1) * grads
    v *= beta2
    g2 = (1.0 - beta2) * grads
    g2 *= grads
    v += g2
    step = m / bias1
    step *= state.learning_rate
    denom = v / bias2
    np.sqrt(denom, out=denom)
    denom += state.epsilon
    step /= denom
    return params - step


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


def il_regularizer(taps: np.ndarray, lam_max: float,
                   weight: float) -> tuple[float, np.ndarray]:
    """weight * max_{f, grid} |lambda h_f'(lambda)| with its subgradient.

    The gradient flows only to the filter and grid point attaining the
    maximum (ties resolve to the first flattened index) through
    d/dh_k [lambda h'(lambda)] = k lambda^k.
    """
    taps = np.asarray(taps, dtype=np.float64)
    vals = _il_response(taps, lam_max)                  # (F, G)
    powers, lam_pow = _grid_powers(float(lam_max), taps.shape[1])
    # argmax(|vals|) without forming |vals|: the first maximum or the first
    # minimum, whichever is larger in magnitude, and the earlier on a tie
    i_max, i_min = int(vals.argmax()), int(vals.argmin())
    top, bottom = vals.flat[i_max], -vals.flat[i_min]
    i_peak = i_max if top > bottom else i_min if bottom > top else min(i_max, i_min)
    f_star, g_star = divmod(i_peak, vals.shape[1])
    peak = float(vals[f_star, g_star])

    grad = np.zeros(taps.shape)
    grad[f_star] = weight * np.sign(peak) * powers * lam_pow[:, g_star]
    return weight * abs(peak), grad


class ForwardCache(NamedTuple):
    shift_powers: np.ndarray     # (K+1, B, n)
    pre_activations: np.ndarray  # (F, B, n)
    features: np.ndarray         # (F, B, n)
    pred: np.ndarray             # (B, n)


# The step's work array (the activation) keyed by name and shape. train sets
# a dict here for its duration and drops it when it returns; None means
# fresh arrays on every call.
_step_buffers: dict | None = None


def _buffer(name: str, shape: tuple[int, ...]) -> np.ndarray:
    if _step_buffers is None:
        return np.empty(shape)
    key = (name, shape)
    if key not in _step_buffers:
        _step_buffers[key] = np.empty(shape)
    return _step_buffers[key]


def _forward(model: TrainableModel, powers: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """The prediction (B, n) from the shift powers (K+1, B, n) of a batch.
    The activation (F, B, n) is left in out when given."""
    act = model.sigma.eval(contract(model.taps, powers, out), overwrite=True)
    return contract(model.readout, act)


def model_forward(model: TrainableModel, s: SupportMatrix,
                  x: np.ndarray) -> ForwardCache:
    """Batched forward pass; x has shape (B, n)."""
    powers = shift_powers(s, x, model.taps.shape[1])
    pre = contract(model.taps, powers)
    features = model.sigma.eval(pre)
    return ForwardCache(powers, pre, features, contract(model.readout, features))


def predict(model: TrainableModel, s: SupportMatrix, x: np.ndarray) -> np.ndarray:
    return _forward(model, shift_powers(s, x, model.taps.shape[1]))


class BackwardResult(NamedTuple):
    mse: float
    objective: float            # mse + regularizer
    grad_taps: np.ndarray       # (F, K+1)
    grad_readout: np.ndarray    # (F,)


def model_backward(model: TrainableModel, powers: np.ndarray, target: np.ndarray,
                   il_weight: float, lam_max: float = 1.0) -> BackwardResult:
    """Loss and analytic gradients for taps and readout on one batch, from
    its shift powers (K+1, B, n) as filters.shift_powers makes them.

    The identity model is the one filter readout @ taps, so its step works
    on (K+1)-vectors and forms no (F, B, n) array; any other activation
    forms only A."""
    n_features, n_taps = model.taps.shape
    if powers.shape[0] != n_taps:
        raise ShapeError(f"{powers.shape[0]} shift powers for {n_taps} taps")
    powers2d = powers.reshape(n_taps, -1)
    if model.sigma.kind == "identity":
        mse, dpred = mse_loss(contract(model.readout @ model.taps, powers), target)
        g = powers2d @ dpred.reshape(-1)
        grad_readout = model.taps @ g
        grad_taps = np.multiply.outer(model.readout, g)
    else:
        act = _buffer("act", (n_features,) + powers.shape[1:])
        mse, dpred = mse_loss(_forward(model, powers, act), target)
        act2d, dpred1d = act.reshape(n_features, -1), dpred.reshape(-1)
        grad_readout = act2d @ dpred1d
        deriv = model.sigma.output_derivative(act2d, overwrite=True)
        grad_taps = deriv @ (powers2d * dpred1d).T
        grad_taps *= model.readout[:, None]

    reg, reg_grad = il_regularizer(model.taps, lam_max, il_weight)
    grad_taps += reg_grad
    return BackwardResult(
        mse=mse,
        objective=mse + reg,
        grad_taps=grad_taps,
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
    best_epoch: int             # -1: no epoch improved on the initial model
    history: list[EpochRecord] = field(repr=False)


def train(model: TrainableModel, s: SupportMatrix,
          train_set: tuple[np.ndarray, np.ndarray],
          val_set: tuple[np.ndarray, np.ndarray],
          config: TrainConfig, lam_max: float = 1.0) -> TrainResult:
    """Minibatch Adam with per-epoch learning-rate decay.

    Returns the model snapshot with the best validation loss, its epoch
    (-1 for the input model) and the full per-epoch history. With zero
    epochs the input model is returned as is.
    An epoch whose train or validation loss is not finite raises
    NumericalError naming the epoch and the loss.
    """
    global _step_buffers
    outer_buffers, _step_buffers = _step_buffers, {}
    try:
        # overflow on the way to a diverged loss is reported by the loss
        # check in _train, not as a warning from the step that overflowed
        with np.errstate(over="ignore", invalid="ignore"):
            return _train(model, s, train_set, val_set, config, lam_max)
    finally:
        _step_buffers = outer_buffers


def _train(model: TrainableModel, s: SupportMatrix,
           train_set: tuple[np.ndarray, np.ndarray],
           val_set: tuple[np.ndarray, np.ndarray],
           config: TrainConfig, lam_max: float) -> TrainResult:
    x_train, y_train = train_set
    x_val, y_val = val_set
    model = model.copy()
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
    # Adam steps one vector holding taps and readout: half the array calls
    # of stepping them apart, with the same arithmetic per entry
    n_tap_params = model.taps.size
    params = np.concatenate([model.taps.ravel(), model.readout])
    state = init_adam(params, config.learning_rate, config.decay)

    n_taps, batch = model.taps.shape[1], config.batch_size
    val_powers = shift_powers(s, x_val, n_taps)

    def val_mse() -> float:
        return mse_loss(_forward(model, val_powers), y_val)[0]

    best, best_epoch = model.copy(), -1
    best_val = val_mse()
    history: list[EpochRecord] = []

    n_train, n = x_train.shape
    chunk = max(1, CHUNK_BYTES // (n_taps * batch * n * 8)) * batch   # rows
    chunk_powers = np.empty((n_taps, min(chunk, n_train), n))

    for epoch in range(config.epochs):
        order = rng.permutation(n_train)
        batch_losses = []
        for c0 in range(0, n_train, chunk):
            idx = order[c0:c0 + chunk]
            powers = shift_powers(s, x_train[idx], n_taps, chunk_powers[:, :idx.size])
            targets = y_train[idx]
            for b0 in range(0, idx.size, batch):
                result = model_backward(model, powers[:, b0:b0 + batch],
                                        targets[b0:b0 + batch], config.il_weight, lam_max)
                grads = np.concatenate([result.grad_taps.ravel(), result.grad_readout])
                params = adam_step(state, params, grads)
                model.taps = params[:n_tap_params].reshape(model.taps.shape)
                model.readout = params[n_tap_params:]
                batch_losses.append(result.mse)

        train_loss, epoch_val = float(np.mean(batch_losses)), val_mse()
        if not (np.isfinite(train_loss) and np.isfinite(epoch_val)):
            raise NumericalError(f"training diverged in epoch {epoch}: train loss "
                                 f"{train_loss}, validation loss {epoch_val}")
        history.append(EpochRecord(
            epoch=epoch,
            train_loss=train_loss,
            val_loss=epoch_val,
            il_constant=bank_il_constant(model.taps, lam_max),
            learning_rate=state.learning_rate,
        ))
        if epoch_val < best_val:
            best_val, best_epoch = epoch_val, epoch
            best = model.copy()
        state.learning_rate *= config.decay

    return TrainResult(model=best, best_val_loss=best_val, best_epoch=best_epoch,
                       history=history)
