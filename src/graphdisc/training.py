"""Loss, integral-Lipschitz regularization, analytic gradients, Adam.

The trainable object is a bank of FIR taps, an entrywise activation and a
single-tap readout; with tanh it is the single-layer GNN, with the identity
activation the plain filter bank.

One training step on a batch of shape (B, n) takes P, the (K+1, B*n)
matrix of its shift powers S^k x, and forms the (F, B*n) activation A:

- forward (model_forward): A = sigma(taps @ P) with sigma applied in
  place, and the prediction readout @ A;
- backward: the readout gradient A @ d(loss)/d(pred); then sigma' (read
  off A, overwriting it) gives the tap gradient
  readout x (sigma'(A) @ (P * d(loss)/d(pred))^T), which forms no
  (F, B*n) array besides A; both gradients go into one fresh vector;
- the regularizer (il_regularizer): its subgradient, one row added into
  the tap gradient at the filter and grid point where the
  integral-Lipschitz constant is attained, on the grid values that
  filters._il_response makes for bank_il_constant too.

The identity model takes a shorter step. A linear bank followed by a
linear readout is one filter, w = readout @ taps, so its step forms no A:
the prediction is w @ P, g = P @ d(loss)/d(pred) is a (K+1)-vector, the
readout gradient is taps @ g and the tap gradient the outer product
readout x g. model_forward is the one forward pass of every other step,
of the per-epoch validation and of predict, and forms A for every
activation.

train trains a group of G models with one taps shape in lockstep: they
share the batches (one permutation per epoch), the shift powers and the
activation buffer. Per batch each model takes its step and its gradient
becomes row i of a (G, P) array; one Adam update, with the moments updated
in place, then steps the (G, P) parameter array, whose rows hold each
model's taps and readout (the models' arrays are views of them). Every
operation on a model's row is the one it gets trained alone, so each
member's result keeps its bits in any group.

The shift powers do not depend on the parameters, so train makes them
ahead of the steps: it walks each epoch's shuffled order in chunks of
whole batches, as many as fit in CHUNK_BYTES of powers, and per chunk
gathers the rows once and writes their powers (filters.shift_powers) into
one buffer that lives for the train call; each step takes its batch as a
view of that buffer. Batch order and composition do not depend on the
chunk size.

Every contraction is one 2-D BLAS product on a reshaped view. train owns
one activation buffer, sized for a full batch, and passes each step its
leading (F, B, n) part as model_backward's act argument (a ragged last
batch takes a shorter, still contiguous, part), so a step allocates no
(F, B, n) array. Called without act, a step makes a fresh one. Nothing
model_backward, model_forward or predict returns is a buffer, and no
module state changes, so separate train calls may run in separate
threads. train computes the validation set's shift powers once,
and each epoch's integral-Lipschitz constant from the taps with the
regularizer's product (filters.bank_il_constant). An epoch whose train or
validation loss is not finite raises NumericalError, for the first model
of the group in that epoch; overflow on the way there raises no warning.
Each model's result records its best epoch, or -1 when no epoch improved
on the validation loss of the initial model.

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

# normalize_support scales every shift to operator norm 1, so the
# integral-Lipschitz grid of training runs over [0, 1]
LAM_MAX = 1.0

# Adam's moment decay rates and the denominator's guard
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


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


def init_model(n_features: int, n_taps: int, sigma: Nonlinearity,
               seed: int) -> TrainableModel:
    """Per-layer fan-in init: taps uniform on +-1/sqrt(K+1), readout on
    +-1/sqrt(F)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    taps = rng.uniform(-1.0, 1.0, size=(n_features, n_taps)) / np.sqrt(n_taps)
    readout = rng.uniform(-1.0, 1.0, size=n_features) / np.sqrt(n_features)
    return TrainableModel(taps=taps, readout=readout, sigma=sigma)


def init_adam(params: np.ndarray, learning_rate: float) -> AdamState:
    return AdamState(m=np.zeros_like(params), v=np.zeros_like(params), t=0,
                     learning_rate=learning_rate)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """One bias-corrected Adam update; returns the new parameters.

    The moments and the step count of state are updated in place; the
    parameters are a new array.
    """
    if params.shape != grads.shape:
        raise ShapeError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
    state.t += 1
    bias1, bias2 = 1.0 - BETA1 ** state.t, 1.0 - BETA2 ** state.t
    m, v = state.m, state.v
    m *= BETA1
    m += (1.0 - BETA1) * grads
    v *= BETA2
    g2 = (1.0 - BETA2) * grads
    g2 *= grads
    v += g2
    step = m / bias1
    step *= state.learning_rate
    denom = v / bias2
    np.sqrt(denom, out=denom)
    denom += EPSILON
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


def il_regularizer(taps: np.ndarray, lam_max: float, weight: float,
                   grad: np.ndarray) -> float:
    """Add the regularizer's subgradient into the (F, K+1) grad and return
    weight * max_{f, grid} |lambda h_f'(lambda)|, that is weight times
    bank_il_constant, from the same filters._il_response values.

    The subgradient is one row: it flows only to the filter and grid point
    attaining the maximum (ties resolve to the first flattened index)
    through d/dh_k [lambda h'(lambda)] = k lambda^k.
    """
    vals = _il_response(taps, lam_max)                  # (F, G)
    powers, lam_pow = _grid_powers(float(lam_max), taps.shape[1])
    # argmax(|vals|) without forming |vals|: the first maximum or the first
    # minimum, whichever is larger in magnitude, and the earlier on a tie
    i_max, i_min = int(vals.argmax()), int(vals.argmin())
    top, bottom = vals.flat[i_max], -vals.flat[i_min]
    i_peak = i_max if top > bottom else i_min if bottom > top else min(i_max, i_min)
    f_star, g_star = divmod(i_peak, vals.shape[1])
    peak = float(vals[f_star, g_star])
    grad[f_star] += weight * np.sign(peak) * powers * lam_pow[:, g_star]
    return weight * abs(peak)


def model_forward(model: TrainableModel, powers: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The prediction (B, n) from the shift powers (K+1, B, n) of a batch.
    The activation is left in out when given, as (F, B, n) or (F, B*n)."""
    act = model.sigma.eval(contract(model.taps, powers, out), overwrite=True)
    return contract(model.readout, act)


def predict(model: TrainableModel, s: SupportMatrix, x: np.ndarray) -> np.ndarray:
    return model_forward(model, shift_powers(s, x, model.taps.shape[1]))


class BackwardResult(NamedTuple):
    mse: float
    objective: float            # mse + regularizer
    grad_taps: np.ndarray       # (F, K+1), a view of grads
    grad_readout: np.ndarray    # (F,), a view of grads
    grads: np.ndarray           # (F*(K+1) + F,): the tap gradient, then the readout's


def model_backward(model: TrainableModel, powers: np.ndarray, target: np.ndarray,
                   il_weight: float, act: np.ndarray | None = None) -> BackwardResult:
    """Loss and analytic gradients for taps and readout on one batch, from
    its shift powers (K+1, B, n) as filters.shift_powers makes them.

    The identity model is the one filter readout @ taps, so its step works
    on (K+1)-vectors and forms no (F, B, n) array; any other activation
    forms only A, in act (F, B, n) when given and in a fresh array
    otherwise. Both gradients are written into one fresh vector, laid out
    as train's Adam step takes the parameters."""
    n_features, n_taps = model.taps.shape
    if powers.shape[0] != n_taps:
        raise ShapeError(f"{powers.shape[0]} shift powers for {n_taps} taps")
    powers2d = powers.reshape(n_taps, -1)
    grads = np.empty(n_features * (n_taps + 1))
    grad_taps = grads[:-n_features].reshape(n_features, n_taps)
    grad_readout = grads[-n_features:]
    if model.sigma.kind == "identity":
        pred = (model.readout @ model.taps) @ powers2d
        mse, dpred = mse_loss(pred.reshape(powers.shape[1:]), target)
        g = powers2d @ dpred.reshape(-1)
        np.matmul(model.taps, g, out=grad_readout)
        np.multiply.outer(model.readout, g, out=grad_taps)
    else:
        act2d = (np.empty((n_features, powers2d.shape[1])) if act is None
                 else act.reshape(n_features, -1))
        # model_forward and mse_loss, looked up at call time, run before the
        # backward pass, which reads A back from act2d
        mse, dpred = mse_loss(model_forward(model, powers, act2d), target)
        dpred1d = dpred.reshape(-1)
        np.matmul(act2d, dpred1d, out=grad_readout)
        deriv = model.sigma.output_derivative(act2d, overwrite=True)
        np.matmul(deriv, (powers2d * dpred1d).T, out=grad_taps)
        grad_taps *= model.readout[:, None]

    reg = il_regularizer(model.taps, LAM_MAX, il_weight, grad_taps)
    return BackwardResult(mse, mse + reg, grad_taps, grad_readout, grads)


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


def train(models: list[TrainableModel], s: SupportMatrix,
          train_set: tuple[np.ndarray, np.ndarray],
          val_set: tuple[np.ndarray, np.ndarray],
          config: TrainConfig) -> list[TrainResult]:
    """Minibatch Adam with per-epoch learning-rate decay, for a group of
    models with one taps shape, trained in lockstep on the same batches.

    Returns one result per model, in order: the snapshot with the best
    validation loss, its epoch (-1 for the input model) and the full
    per-epoch history, each the same as training that model alone. With
    zero epochs the input models are returned as they are. Models of
    different shapes raise ShapeError before any step. An epoch whose train
    or validation loss is not finite raises NumericalError naming the epoch
    and the loss, for the first such model of that epoch.
    """
    x_train, y_train = train_set
    x_val, y_val = val_set
    shapes = sorted({(m.taps.shape, m.readout.shape) for m in models})
    if len(shapes) != 1:
        raise ShapeError(f"a training group needs one taps and readout shape, got {shapes}")
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
    # Adam steps one (G, P) array, row i holding model i's taps and readout:
    # one update per batch for the whole group, with the same arithmetic
    # per entry as stepping each model apart
    (n_features, n_taps), batch = models[0].taps.shape, config.batch_size
    params = np.stack([np.concatenate([m.taps.ravel(), m.readout]) for m in models])
    grads = np.empty_like(params)
    state = init_adam(params, config.learning_rate)
    members = [TrainableModel(row[:-n_features].reshape(n_features, n_taps),
                              row[-n_features:], m.sigma) for row, m in zip(params, models)]

    val_powers = shift_powers(s, x_val, n_taps)

    def val_mse(model: TrainableModel) -> float:
        return mse_loss(model_forward(model, val_powers), y_val)[0]

    n_train, n = x_train.shape
    chunk = max(1, CHUNK_BYTES // (n_taps * batch * n * 8)) * batch   # rows
    chunk_powers = np.empty((n_taps, min(chunk, n_train), n))
    # every step's activation is a leading, contiguous part of this buffer
    act = np.empty(n_features * min(batch, n_train) * n)
    histories: list[list[EpochRecord]] = [[] for _ in members]

    # overflow on the way to a diverged loss is reported by the loss check
    # below, not as a warning from the step that overflowed
    with np.errstate(over="ignore", invalid="ignore"):
        best = [m.copy() for m in members]
        best_val = [val_mse(m) for m in members]
        best_epoch = [-1] * len(members)
        for epoch in range(config.epochs):
            order = rng.permutation(n_train)
            batch_losses: list[list[float]] = [[] for _ in members]
            for c0 in range(0, n_train, chunk):
                idx = order[c0:c0 + chunk]
                powers = shift_powers(s, x_train[idx], n_taps, chunk_powers[:, :idx.size])
                targets = y_train[idx]
                for b0 in range(0, idx.size, batch):
                    b = min(batch, idx.size - b0)
                    step_powers, step_targets = powers[:, b0:b0 + b], targets[b0:b0 + b]
                    step_act = act[:n_features * b * n].reshape(n_features, b, n)
                    for i, model in enumerate(members):
                        # by module attribute and positionally, so a tracer
                        # that rebinds model_backward sees and can count
                        # every step
                        result = model_backward(model, step_powers, step_targets,
                                                config.il_weight, step_act)
                        grads[i] = result.grads
                        batch_losses[i].append(result.mse)
                    # written back in place, so the members' views follow
                    params[...] = adam_step(state, params, grads)

            for i, model in enumerate(members):
                train_loss, epoch_val = float(np.mean(batch_losses[i])), val_mse(model)
                if not (np.isfinite(train_loss) and np.isfinite(epoch_val)):
                    raise NumericalError(f"training diverged in epoch {epoch}: train loss "
                                         f"{train_loss}, validation loss {epoch_val}")
                histories[i].append(EpochRecord(
                    epoch=epoch,
                    train_loss=train_loss,
                    val_loss=epoch_val,
                    il_constant=bank_il_constant(model.taps, LAM_MAX),
                    learning_rate=state.learning_rate,
                ))
                if epoch_val < best_val[i]:
                    best_val[i], best_epoch[i] = epoch_val, epoch
                    best[i] = model.copy()
            state.learning_rate *= config.decay

    return [TrainResult(model=m, best_val_loss=v, best_epoch=e, history=h)
            for m, v, e, h in zip(best, best_val, best_epoch, histories)]
