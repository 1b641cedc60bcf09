"""End-to-end synthetic regression experiment over eigenvalue subspaces.

A replicate draws a geometric graph, adopts its eigenvalue-normalized
Laplacian as the shift operator, generates inputs confined to the low or
high part of the spectrum (or the full space), labels them with the sign of
a random quadratic polynomial in the shift, and trains a linear filter-bank
model and a tanh GNN on identical data from identical initial parameters.
run_experiment returns the replicates; emit_report works out every number
it writes from them: each subspace and model's mean test error and 95%
half-width, the relative gaps and the trained banks' IL constants.

Settings: ExperimentConfig extends training.TrainConfig, whose five
training settings it inherits rather than declares, and run_replicate
hands train its own config with the replicate's init seed.

Memory: a set is labelled a chunk of rows at a time (generate_target, with
training.chunk_rows) and the test prediction is made in chunks
(training.model_forward), so a replicate forms no whole-set activation and
no whole-set stack of the targets' shift powers. The labels are int8, one
byte per entry rather than float64's eight; train casts the training
labels to float64 a chunk at a time, and mse_loss subtracts the others as
they are; -1 and +1 are exact in both types. Each set of inputs is one
(N, n) array, projected (in one pass: it rounds by the row count) and
normalized in place in its draw, so training, not the dataset build, sets
a replicate's memory peak. run_replicate drops the split (the spectrum
and both bases) once the dataset is built.

Determinism: every replicate derives its RNG streams from
SeedSequence((master_seed, mode_index, graph_index)), and emit_report
reduces over the replicates in their order, so results do not depend on how
many worker processes ran them, nor on BLAS's thread count.

Workers: the process pool is imported inside run_experiment, and only when
it starts workers, so loading graphdisc, `verify` and a one-worker `run`
never import multiprocessing. The workers are spawned, not forked, while
the BLAS thread-count variables read 1, so N workers keep N threads busy
rather than N times BLAS's default; a program read from stdin cannot
spawn them and gets a ConfigurationError. This module is loaded by the
CLI's `run` only, not when the CLI is imported.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (GRAPHDISC_ERRORS, ConfigurationError, DegenerateInputError, ShapeError,
                     make_dir, write_lines)
from .filters import bank_il_constant, contract, shift_powers
from .gnn import Nonlinearity
from .graphs import GeometricGraph, SupportMatrix, generate_geometric_graph, laplacian, normalize_support
from .spectral import SubspaceSplit, eig_sym, split_subspace
from .training import (TrainConfig, TrainResult, chunk_rows, init_model, mse_loss, predict,
                       train)

MODES = ("low", "high", "full")
MODE_INDEX = {"low": 0, "high": 1, "full": 2}
MODEL_NAMES = ("filter_bank", "gnn")


@dataclass
class ExperimentConfig(TrainConfig):
    """Settings for the subspace regression experiment; the training
    settings (epochs, batch_size, learning_rate, decay, il_weight) are
    TrainConfig's, and seed is the master seed of every replicate.

    `k` is the size of the nondiscriminable band: the k largest-magnitude
    eigenvalues sit above the cutoff (the upper quintile at the defaults),
    so the spectrum splits at index n - k. High-subspace inputs live in
    those top k modes; low-subspace inputs in the remaining n - k.
    """

    n: int = 50
    k: int = 10
    neighbors: int = 5
    features: int = 32
    taps: int = 3
    subspace: str = "all"          # low | high | full | all
    train: int = 8000
    val: int = 200
    test: int = 200
    graphs: int = 30
    seed: int = 0

    @property
    def split_index(self) -> int:
        return self.n - self.k

    def validate(self) -> None:
        super().validate()   # every field's type, then the training settings' ranges
        if not 0 < self.k < self.n:
            raise ConfigurationError(f"need 0 < k < n, got k={self.k}, n={self.n}")
        if self.subspace not in MODES + ("all",):
            raise ConfigurationError(f"unknown subspace {self.subspace!r}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")
        for name in ("n", "neighbors", "features", "taps", "train", "val", "test", "graphs"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.neighbors >= self.n:
            raise ConfigurationError(
                f"need neighbors < n, got neighbors={self.neighbors}, n={self.n}")

    def modes(self) -> tuple[str, ...]:
        return MODES if self.subspace == "all" else (self.subspace,)


# the keys of a `run --config` file
CONFIG_KEYS = set(ExperimentConfig.__dataclass_fields__)


class Dataset(NamedTuple):
    train: tuple[np.ndarray, np.ndarray]
    val: tuple[np.ndarray, np.ndarray]
    test: tuple[np.ndarray, np.ndarray]


def generate_inputs(split: SubspaceSplit, mode: str, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    """count unit-norm Gaussian inputs confined to the requested subspace:
    one (count, n) draw, projected in one pass (its second product written
    into the draw) and divided by its row norms in place, a chunk of rows
    at a time; each row's norm is its own reduction, so chunks keep its bits."""
    if mode not in MODES:
        raise ConfigurationError(f"unknown input mode {mode!r}")
    w = rng.standard_normal((count, split.n))
    if mode != "full":
        basis = split.v_low if mode == "low" else split.v_high
        np.matmul(w @ basis, basis.T, out=w)
    rows = chunk_rows(split.n * 8)
    for r0 in range(0, count, rows):
        block = w[r0:r0 + rows]
        norms = np.linalg.norm(block, axis=1, keepdims=True)
        if np.any(norms < 1e-12):
            raise DegenerateInputError(f"degenerate {mode} input draw")
        block /= norms
    return w


def generate_target(s_norm: SupportMatrix, x: np.ndarray,
                    c: np.ndarray) -> np.ndarray:
    """sign(c0 x + c1 S x + c2 S^2 x) entrywise, with sign(0) = +1, for x
    of shape (n,) or (N, n), as an int8 array of -1 and +1.

    The rows of x are taken in chunks whose shift powers fit CHUNK_BYTES,
    made in one reused buffer. The products with S round by the chunk's
    row count, so a value can differ from the one-pass value in its last
    bits; only its sign is kept.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (3,):
        raise ShapeError(f"expected three coefficients, got shape {c.shape}")
    x = np.asarray(x, dtype=np.float64)
    by_rows = x.reshape(-1, x.shape[-1])
    n_rows, n = by_rows.shape
    rows = chunk_rows(3 * n * 8)
    powers = np.empty((3, min(rows, n_rows), n))
    y = np.empty(by_rows.shape, dtype=np.int8)
    for r0 in range(0, n_rows, rows):
        chunk = by_rows[r0:r0 + rows]
        value = contract(c, shift_powers(s_norm, chunk, 3, powers[:, :len(chunk)]))
        y[r0:r0 + rows] = np.where(value >= 0.0, np.int8(1), np.int8(-1))
    return y.reshape(x.shape)


def build_dataset(s_norm: SupportMatrix, split: SubspaceSplit, mode: str,
                  counts: tuple[int, int, int], coeffs: np.ndarray,
                  rng: np.random.Generator) -> Dataset:
    """Disjoint train/val/test sets with i.i.d. inputs and shared coefficients."""
    parts = []
    for count in counts:
        x = generate_inputs(split, mode, count, rng)
        y = generate_target(s_norm, x, coeffs)
        parts.append((x, y))
    return Dataset(train=parts[0], val=parts[1], test=parts[2])


@dataclass(frozen=True)
class ReplicateOutput:
    graph_index: int
    subspace: str
    graph: GeometricGraph
    train_time: float                   # the one lockstep train call, both models
    test_mse: dict[str, float]          # model name -> test error
    trained: dict[str, TrainResult] = field(repr=False)   # model name -> result


def run_replicate(config: ExperimentConfig, mode: str, graph_index: int,
                  graph: GeometricGraph | None = None,
                  init_taps: np.ndarray | None = None,
                  init_readout: np.ndarray | None = None) -> ReplicateOutput:
    """One graph replicate: data, both models, test metrics.

    Passing `graph` replaces the generated graph (the RNG streams stay tied
    to the replicate index); init_taps/init_readout warm-start both models.
    run_experiment checks the graph's node count and the warm-start shapes.
    """
    root = np.random.SeedSequence((config.seed, MODE_INDEX[mode], graph_index))
    ss_graph, ss_data, ss_init = root.spawn(3)

    if graph is None:
        graph_seed = int(ss_graph.generate_state(1, np.uint64)[0])
        graph = generate_geometric_graph(config.n, config.neighbors, graph_seed)
    s_norm = normalize_support(laplacian(graph))
    split = split_subspace(eig_sym(s_norm), config.split_index)

    data_rng = np.random.default_rng(ss_data)
    coeffs = data_rng.uniform(-1.0, 1.0, size=3)
    dataset = build_dataset(s_norm, split, mode,
                            (config.train, config.val, config.test),
                            coeffs, data_rng)
    # the inputs were the split's last use: its spectrum and both bases are
    # not held through training, the replicate's memory peak
    del split

    init_seed = int(ss_init.generate_state(1, np.uint64)[0])

    # both models start from the same parameters: the GNN is a tanh copy
    linear = init_model(config.features, config.taps, Nonlinearity.identity(), seed=init_seed)
    for part, init in (("taps", init_taps), ("readout", init_readout)):
        if init is not None:
            setattr(linear, part, init.copy())
    gnn = linear.copy()
    gnn.sigma = Nonlinearity.tanh()
    models = [linear, gnn]

    # both models train in lockstep on the same batches: one call, one time
    start = time.perf_counter()
    results = train(models, s_norm, dataset.train, dataset.val, config, init_seed)
    elapsed = time.perf_counter() - start

    trained = dict(zip(MODEL_NAMES, results))
    return ReplicateOutput(
        graph_index=graph_index,
        subspace=mode,
        graph=graph,
        train_time=elapsed,
        test_mse={name: mse_loss(predict(result.model, s_norm, dataset.test[0]),
                                 dataset.test[1])[0] for name, result in trained.items()},
        trained=trained,
    )


def _replicate_star(args) -> ReplicateOutput:
    _config, mode, graph_index = args[:3]
    try:
        return run_replicate(*args)
    except GRAPHDISC_ERRORS as exc:
        raise type(exc)(f"replicate {mode} graph {graph_index}: {exc}") from exc


def _relative_gap(filter_mean: float, gnn_mean: float) -> float:
    """filter/gnn - 1; inf when only the GNN's mean error is 0, and 0 when
    both are."""
    if gnn_mean == 0.0:
        return 0.0 if filter_mean == 0.0 else float("inf")
    return filter_mean / gnn_mean - 1.0


# BLAS thread counts a spawned worker reads when it loads numpy
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread():
    """Set every BLAS_THREAD_VARS to 1 while the block runs, then restore
    them; this process's BLAS, already loaded, keeps its thread count."""
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _check_spawnable_main(workers: int) -> None:
    """Raise ConfigurationError when spawned workers could not start: each
    re-runs the main program from its file (unless it ran with -m), and a
    program read from stdin has none."""
    main = sys.modules["__main__"]
    path = getattr(main, "__file__", None)
    if getattr(main, "__spec__", None) is None and path is not None and not os.path.isfile(path):
        raise ConfigurationError(
            f"{workers} worker processes cannot start: each re-runs the main program "
            f"from its file, and {path} is not a file; run from a file or with one job")


def run_experiment(config: ExperimentConfig, jobs: int = 1,
                   graph: GeometricGraph | None = None,
                   init_taps: np.ndarray | None = None,
                   init_readout: np.ndarray | None = None) -> tuple[ReplicateOutput, ...]:
    """Every replicate of every requested subspace, in subspace then graph
    order, each with its graph, train time, test errors and the training
    result of each model.

    Replicates run in min(jobs, replicates) spawned worker processes, each
    with one BLAS thread, or in this process when that is 1; the
    replicates are the same for any jobs.

    A fixed graph's node count and the warm-start shapes, (features, taps)
    and (features,), are checked before any replicate starts. A replicate
    that raises a graphdisc.errors exception aborts the run with an
    exception of the same type whose message starts with the replicate's
    subspace and graph index.
    """
    config.validate()
    if graph is not None and config.graphs != 1:
        raise ConfigurationError("a fixed graph implies exactly one replicate")
    if graph is not None and graph.n != config.n:
        raise ConfigurationError(f"loaded graph has {graph.n} nodes, config expects {config.n}")
    for part, init, shape in (("taps", init_taps, (int(config.features), int(config.taps))),
                              ("readout", init_readout, (int(config.features),))):
        if init is not None and init.shape != shape:
            raise ShapeError(f"warm-start {part} shape {init.shape} != {shape}")

    tasks = [(config, mode, g, graph, init_taps, init_readout)
             for mode in config.modes() for g in range(config.graphs)]
    # the pool forks all its workers at the first submit, so never more
    # than there are replicates
    workers = min(jobs, len(tasks))
    if workers > 1:
        # only a multi-worker run needs multiprocessing, so only it loads it
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        _check_spawnable_main(workers)
        with _one_blas_thread(), ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            return tuple(pool.map(_replicate_star, tasks))
    return tuple(_replicate_star(t) for t in tasks)


def emit_report(replicates: tuple[ReplicateOutput, ...], out_dir: str) -> list[str]:
    """Write summary.csv, runs.csv, and per-run history CSVs; print a table.

    Everything is worked out here from the replicates: per subspace (in
    their order) and model, the mean test error over the N graphs, the 95%
    half-width 1.96 s / sqrt(N) (s the sample standard deviation; 0 for
    one graph) and N; each subspace's relative gap (_relative_gap); and,
    in runs.csv, each trained bank's bank_il_constant.

    Returns the list of written paths. Numbers are written with 17
    significant digits so a round-trip parse reproduces them exactly.
    """
    make_dir(out_dir)
    written = []

    modes = dict.fromkeys(out.subspace for out in replicates)
    summary = {}    # (subspace, model) -> (mean_error, ci_halfwidth, n_graphs)
    for mode in modes:
        for name in MODEL_NAMES:
            values = [out.test_mse[name] for out in replicates if out.subspace == mode]
            ci = (1.96 * float(np.std(values, ddof=1)) / np.sqrt(len(values))
                  if len(values) > 1 else 0.0)
            summary[mode, name] = (float(np.mean(values)), ci, len(values))

    path = os.path.join(out_dir, "summary.csv")
    lines = ["subspace,model,mean_error,ci_halfwidth,n_graphs"]
    for (mode, name), (mean, ci, count) in summary.items():
        lines.append(f"{mode},{name},{mean:.17g},{ci:.17g},{count}")
    write_lines(path, lines)
    written.append(path)

    path = os.path.join(out_dir, "runs.csv")
    lines = ["subspace,model,graph,test_mse,il_constant,wall_time_s"]
    for out in replicates:
        for name, result in out.trained.items():
            lines.append(f"{out.subspace},{name},{out.graph_index},"
                         f"{out.test_mse[name]:.17g},"
                         f"{bank_il_constant(result.model.taps):.17g},{out.train_time:.6f}")
    write_lines(path, lines)
    written.append(path)

    for out in replicates:
        for name, result in out.trained.items():
            path = os.path.join(out_dir,
                                f"history_{out.subspace}_{name}_g{out.graph_index}.csv")
            lines = ["epoch,train_loss,val_loss,il_constant,learning_rate"]
            for rec in result.history:
                lines.append(f"{rec.epoch},{rec.train_loss:.17g},{rec.val_loss:.17g},"
                             f"{rec.il_constant:.17g},{rec.learning_rate:.17g}")
            write_lines(path, lines)
            written.append(path)

    print(f"{'subspace':<10}{'model':<14}{'mean_error':>14}{'ci_95':>12}{'graphs':>8}")
    for (mode, name), (mean, ci, count) in summary.items():
        print(f"{mode:<10}{name:<14}{mean:>14.6f}{ci:>12.6f}{count:>8}")
    for mode in modes:
        gap = _relative_gap(summary[mode, "filter_bank"][0], summary[mode, "gnn"][0])
        print(f"relative gap ({mode}): filter/gnn - 1 = {gap:+.3f}")
    return written
