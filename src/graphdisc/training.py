"""Loss, integral-Lipschitz regularization, analytic gradients, Adam.

The trainable object is gnn.TrainableModel: a bank of FIR taps, an
entrywise activation and a single-tap readout; with tanh it is the
single-layer GNN, with the identity activation the plain filter bank.

One training step on a batch of shape (B, n) takes P, the (K+1, B*n)
matrix of its shift powers S^k x, and forms the (F, B*n) activation A:

- forward (model_forward): A = sigma(taps @ P) with sigma applied in
  place, and the prediction readout @ A;
- backward: the readout gradient A @ d(loss)/d(pred); then sigma' (read
  off A, overwriting it) gives the tap gradient
  readout x (sigma'(A) @ (P * d(loss)/d(pred))^T), which forms no
  (F, B*n) array besides A; both gradients go into one fresh vector;
- the regularizer (il_regularizer, which lives in filters next to
  bank_il_constant and its grid on [0, 1]): its subgradient, one row
  added into the tap gradient at the filter and grid point where the
  integral-Lipschitz constant is attained.

The identity model takes a shorter step. A linear bank followed by a
linear readout is one filter, w = readout @ taps, so its step forms no A:
the prediction is w @ P, g = P @ d(loss)/d(pred) is a (K+1)-vector, the
readout gradient is taps @ g and the tap gradient the outer product
readout x g. model_forward is the one forward pass of every other step,
of the per-epoch validation and of predict, and forms A for every
activation: a step's A in one pass, into the buffer it is given, and a
whole set's A a chunk of rows at a time (below).

train trains a group of G models with one taps shape in lockstep: they
share the batches (one permutation per epoch), the shift powers and the
activation buffer. Per batch each model takes its step and its gradient
becomes row i of a (G, P) array; one Adam update, with the moments updated
in place and its two per-entry temporaries written into scratch arrays of
the call's AdamState, then steps the (G, P) parameter array, whose rows
hold each model's taps and readout (the models' arrays are views of them).
Every operation on a model's row is the one it gets trained alone, so each
member's result keeps its bits in any group.

The shift powers do not depend on the parameters, so train makes them
ahead of the steps: it walks each epoch's shuffled order in chunks of
whole batches, as many as fit in CHUNK_BYTES of powers, and per chunk
gathers the rows once and writes their powers (filters.shift_powers) into
one buffer that lives for the train call, and gathers their labels as
float64; each step takes its batch as a view of both. Batch order and
composition do not depend on the chunk size.

Every other pass over a whole set is bounded the same way, with the rows
per chunk from one helper, chunk_rows: model_forward without out (the
per-epoch validation and predict) makes the activation of one chunk of
rows at a time in one buffer of at most CHUNK_BYTES, and
experiment.generate_target makes the shift powers of one chunk of rows at
a time. So no pass forms an (F, N*n) activation, and labelling a set
forms no (3, N, n) stack of its shift powers.

The per-epoch validation borrows train's buffers, idle between epochs:
its chunk activations go in the step's activation buffer (model_forward's
scratch) and, when the set fits, its shift powers in the chunk buffer
(train gives the size rule). predict makes its own buffer.

Every contraction is one 2-D BLAS product on a reshaped view; the step
hands model_forward the (K+1, B*n) powers and the (F, B*n) activation, so
its products need no reshape. train owns one activation buffer, sized for
the larger of a full batch and one validation chunk (forward_rows), and
passes each step its leading (F, B, n) part as model_backward's act
argument (a ragged last batch takes a shorter, still contiguous, part),
so a step allocates no (F, B, n) array. Called without act, a step makes
a fresh one. Nothing model_backward, model_forward or predict returns is
a buffer, the Adam scratch belongs to one train call, and no module state
changes, so separate train calls may run in separate threads. train
computes each epoch's integral-Lipschitz constant from the taps with the
regularizer's product (filters.bank_il_constant). An epoch whose train or
validation loss is not finite raises NumericalError, for the first model
of the group in that epoch; overflow on the way there raises no warning.
Each model's result records its best epoch, or -1 when no epoch improved
on the validation loss of the initial model.

Everything here is deterministic given its seeds, init_model's and
train's: shuffling, initialization, and the optimizer never consult global
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, NumericalError, ShapeError
from .filters import bank_il_constant, contract, il_regularizer, shift_powers
from .gnn import Nonlinearity, TrainableModel
from .graphs import SupportMatrix

# Bytes a pass over a whole set makes at once: train's chunk of training-set
# shift powers, a forward chunk's activation, a target chunk's shift powers
CHUNK_BYTES = 2 ** 18

# BLAS product kernels take up to 16 columns at a time and can round a
# narrower block at the end of a product their own way, so a forward chunk
# but the last is a whole number of 16-column blocks wide: its products
# then round as in one pass
BLAS_BLOCK = 16


def chunk_rows(row_bytes: int, multiple: int = 1) -> int:
    """Rows per chunk of a pass whose rows take row_bytes each: as many
    whole groups of `multiple` rows as fit in CHUNK_BYTES, and at least
    one group."""
    return max(1, CHUNK_BYTES // (row_bytes * multiple)) * multiple


# Adam's moment decay rates and the denominator's guard
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


# per annotation of a config field, the types its values may have and
# their name; a bool is neither a count nor a rate
FIELD_TYPES = {"int": ((int, np.integer), "an integer"),
               "float": ((int, float, np.integer, np.floating), "a real number"),
               "str": ((str,), "a string")}


@dataclass
class TrainConfig:
    """The settings of a train call; experiment.ExperimentConfig inherits them."""

    epochs: int = 40
    batch_size: int = 10
    learning_rate: float = 1e-3
    decay: float = 0.9
    il_weight: float = 0.01

    def validate(self) -> None:
        """Raise ConfigurationError naming the first field, of this class
        or a subclass, whose value has the wrong type, then the first of
        this class's fields out of range."""
        for setting in fields(self):
            value = getattr(self, setting.name)
            accepted, kind = FIELD_TYPES[setting.type]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ConfigurationError(f"{setting.name} must be {kind}, got {value!r}")
        if self.epochs < 0:
            raise ConfigurationError("epochs must be nonnegative")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        # the comparisons are False for NaN, so NaN is rejected too
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigurationError(
                f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not 0.0 < self.decay <= 1.0:
            raise ConfigurationError(f"decay must be in (0, 1], got {self.decay}")
        if not 0.0 <= self.il_weight < np.inf:
            raise ConfigurationError(
                f"il_weight must be finite and nonnegative, got {self.il_weight}")


@dataclass
class AdamState:
    """First/second moment accumulators, shaped like the parameters, and
    adam_step's two scratch arrays of that shape."""

    m: np.ndarray
    v: np.ndarray
    t: int
    learning_rate: float
    step: np.ndarray = field(init=False, repr=False)
    denom: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.step, self.denom = np.empty_like(self.m), np.empty_like(self.m)


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

    The moments and the step count of state are updated in place, and the
    per-entry temporaries are state's scratch arrays; the parameters are a
    new array.
    """
    if params.shape != grads.shape:
        raise ShapeError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
    state.t += 1
    bias1, bias2 = 1.0 - BETA1 ** state.t, 1.0 - BETA2 ** state.t
    m, v, step, denom = state.m, state.v, state.step, state.denom
    m *= BETA1
    np.multiply(1.0 - BETA1, grads, out=step)
    m += step
    v *= BETA2
    np.multiply(1.0 - BETA2, grads, out=denom)
    denom *= grads
    v += denom
    np.divide(m, bias1, out=step)
    step *= state.learning_rate
    np.divide(v, bias2, out=denom)
    np.sqrt(denom, out=denom)
    denom += EPSILON
    step /= denom
    return params - step


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over batch and nodes of the squared error, plus d(loss)/d(pred).
    An integer target (experiment's int8 labels) is subtracted as it is,
    with the bits of its float64 cast and no float copy of it."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    # np.mean's sum and division, without its Python-level overhead
    loss = float(np.add.reduce(np.square(diff), axis=None)) / diff.size
    # d(loss)/d(pred) = 2.0 * diff / diff.size, formed in diff itself in one
    # division: halving the size is exact, and so is doubling diff unless it
    # overflows, which a finite loss rules out
    diff /= diff.size / 2
    return loss, diff


def forward_rows(n_features: int, width: int) -> int:
    """Rows per chunk of model_forward's chunked form, for F = n_features
    and rows of `width` nodes: the most whose (F, rows*width) activation
    fits CHUNK_BYTES, a whole number of BLAS_BLOCK columns wide (and at
    least the smallest such group of rows)."""
    return chunk_rows(n_features * width * 8, BLAS_BLOCK // math.gcd(width, BLAS_BLOCK))


def model_forward(model: TrainableModel, powers: np.ndarray,
                  out: np.ndarray | None = None,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """The prediction (B, n) from the shift powers (K+1, B, n) of a batch,
    or (B*n,) from the 2-D (K+1, B*n) powers.

    With out, the training step's form, the activation is made in one pass
    and left in out, as (F, B, n) or (F, B*n); an out that cannot be
    viewed as (F, B*n) raises ShapeError.

    Without out, the form of the validation and test sets, the rows are
    walked in chunks of forward_rows rows: each chunk's (F, rows*n)
    activation goes into the leading part of one buffer and each chunk
    writes its rows of the prediction; 2-D powers are one row, one pass.
    The buffer is scratch when given, a 1-D array of at least
    F*min(forward_rows, B)*n entries (train lends the per-epoch validation
    its step activation buffer), and otherwise one local to the call, as
    for predict; a smaller scratch raises ShapeError. The prediction has
    the bits of one pass except in two corners, where OpenBLAS rounds a
    product's last columns by the size of the whole product: the last four
    columns when B*n mod 8 is 4 to 7 and 3*F*B*n exceeds 10^6 (one pass
    would take the large-matrix kernel), and a last chunk narrower than
    four columns (n < 4)."""
    if out is not None:
        act = model.sigma.eval(contract(model.taps, powers, out))
        return contract(model.readout, act)
    by_rows = powers.reshape(powers.shape[0], -1, powers.shape[-1])   # (K+1, B, n)
    n_features, (n_rows, width) = model.taps.shape[0], by_rows.shape[1:]
    rows = forward_rows(n_features, width)
    pred = np.empty((n_rows, width))
    act = np.empty(n_features * min(rows, n_rows) * width) if scratch is None else scratch
    for r0 in range(0, n_rows, rows):
        chunk = by_rows[:, r0:r0 + rows]
        chunk_act = contract(model.taps, chunk, act[:n_features * chunk[0].size])
        contract(model.readout, model.sigma.eval(chunk_act), pred[r0:r0 + rows])
    return pred.reshape(powers.shape[1:])


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
        # backward pass, which reads A back from act2d; on the 2-D powers
        # every product is made on the arrays as they are
        pred = model_forward(model, powers2d, act2d)
        mse, dpred = mse_loss(pred.reshape(powers.shape[1:]), target)
        dpred1d = dpred.reshape(-1)
        np.matmul(act2d, dpred1d, out=grad_readout)
        deriv = model.sigma.output_derivative(act2d)
        np.matmul(deriv, (powers2d * dpred1d).T, out=grad_taps)
        grad_taps *= model.readout[:, None]

    reg = il_regularizer(model.taps, il_weight, grad_taps)
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
          config: TrainConfig, seed: int) -> list[TrainResult]:
    """Minibatch Adam with per-epoch learning-rate decay, for a group of
    models with one taps shape, trained in lockstep on the same batches.
    seed fixes the batches: each epoch's shuffle comes from
    SeedSequence((seed, 1)).

    The labels may be of any numeric dtype (experiment makes them int8):
    each chunk's gathered training labels are cast to float64 once, beside
    the chunk's shift powers, since a mixed subtraction in every step is
    slower; the validation labels go to mse_loss as they are.

    Each validation round borrows the training buffers: its chunk
    activations are made in the step's activation buffer, and a validation
    set with no more rows than the chunk of training shift powers (200 of
    210 at the desk and paper presets) has its powers remade in that chunk
    before each round. A larger one (100 of 50 in perfbench/large_graph.cfg)
    has them made once per call and kept, since remaking them every round
    costs more time than they hold memory. The last chunk's float labels
    are released before each round.

    Returns one result per model, in order: the snapshot with the best
    validation loss, its epoch (-1 for the input model) and the full
    per-epoch history, each the same as training that model alone. With
    zero epochs the input models are returned as they are. An invalid
    config (TrainConfig.validate) raises ConfigurationError and models of
    different shapes raise ShapeError, both before any step. An epoch
    whose train or validation loss is not finite raises NumericalError
    naming the epoch and the loss, for the first such model of that epoch.
    """
    config.validate()
    x_train, y_train = train_set
    x_val, y_val = val_set
    shapes = sorted({(m.taps.shape, m.readout.shape) for m in models})
    if len(shapes) != 1:
        raise ShapeError(f"a training group needs one taps and readout shape, got {shapes}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    # Adam steps one (G, P) array, row i holding model i's taps and readout:
    # one update per batch for the whole group, with the same arithmetic
    # per entry as stepping each model apart
    (n_features, n_taps), batch = models[0].taps.shape, config.batch_size
    params = np.stack([np.concatenate([m.taps.ravel(), m.readout]) for m in models])
    grads = np.empty_like(params)
    state = init_adam(params, config.learning_rate)
    members = [TrainableModel(row[:-n_features].reshape(n_features, n_taps),
                              row[-n_features:], m.sigma) for row, m in zip(params, models)]

    n_train, n = x_train.shape
    chunk = chunk_rows(n_taps * n * 8, batch)
    chunk_powers = np.empty((n_taps, min(chunk, n_train), n))
    # validation borrows these buffers (see the docstring), so the
    # activation buffer holds the larger of a batch and a forward chunk
    n_val = len(x_val)
    remake_val = n_val <= chunk_powers.shape[1]
    val_powers = chunk_powers[:, :n_val] if remake_val else shift_powers(s, x_val, n_taps)
    act = np.empty(n_features * n * max(min(batch, n_train),
                                        min(forward_rows(n_features, n), n_val)))
    histories: list[list[EpochRecord]] = [[] for _ in members]

    def val_losses() -> list[float]:
        if remake_val:
            shift_powers(s, x_val, n_taps, val_powers)
        return [mse_loss(model_forward(m, val_powers, scratch=act), y_val)[0] for m in members]

    # overflow on the way to a diverged loss is reported by the loss check
    # below, not as a warning from the step that overflowed
    with np.errstate(over="ignore", invalid="ignore"):
        best = [m.copy() for m in members]
        best_val = val_losses()
        best_epoch = [-1] * len(members)
        for epoch in range(config.epochs):
            order = rng.permutation(n_train)
            batch_losses: list[list[float]] = [[] for _ in members]
            for c0 in range(0, n_train, chunk):
                idx = order[c0:c0 + chunk]
                powers = shift_powers(s, x_train[idx], n_taps, chunk_powers[:, :idx.size])
                targets = y_train[idx].astype(np.float64, copy=False)
                for b0 in range(0, idx.size, batch):
                    b = min(batch, idx.size - b0)
                    step_powers, step_targets = powers[:, b0:b0 + b], targets[b0:b0 + b]
                    # every step's activation is a leading, contiguous part of act
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
            # the last chunk's float labels (step_targets is a view of them)
            # are not held through the validation round
            targets = step_targets = None

            for i, (model, epoch_val) in enumerate(zip(members, val_losses())):
                train_loss = float(np.mean(batch_losses[i]))
                if not (np.isfinite(train_loss) and np.isfinite(epoch_val)):
                    raise NumericalError(f"training diverged in epoch {epoch}: train loss "
                                         f"{train_loss}, validation loss {epoch_val}")
                histories[i].append(EpochRecord(
                    epoch=epoch,
                    train_loss=train_loss,
                    val_loss=epoch_val,
                    il_constant=bank_il_constant(model.taps),
                    learning_rate=state.learning_rate,
                ))
                if epoch_val < best_val[i]:
                    best_val[i], best_epoch[i] = epoch_val, epoch
                    best[i] = model.copy()
            state.learning_rate *= config.decay

    return [TrainResult(model=m, best_val_loss=v, best_epoch=e, history=h)
            for m, v, e, h in zip(best, best_val, best_epoch, histories)]
