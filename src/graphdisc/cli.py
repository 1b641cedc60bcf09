"""Command-line interface.

Subcommands:

  run       the synthetic regression experiment (summary.csv, runs.csv,
            per-run history CSVs)
  verify    the randomized discriminability suites (text report plus one
            trial CSV per suite)
  gradcheck analytic gradients against central finite differences

Configuration may come from a key-value text file (`key = value`, `#`
comments); explicit flags override file values, which override the preset.

An invalid input (a graphdisc.errors exception) prints one line,
`graphdisc: error: <message>`, to stderr and exits 2; a failed verification
or gradient check exits 1. Warnings and notes go to stderr too, as
`graphdisc: warning: ...` and `graphdisc: note: ...`.

Start-up: importing this module loads numpy and the modules every command
uses (errors, graphs, spectral, filters, gnn). Each command imports the
rest itself when it runs: `run` (and reading a config file) loads
experiment and training, `verify` loads discriminability, `gradcheck`
loads training. A traced function is still looked up on its module when
it is called.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GRAPHDISC_ERRORS, ConfigurationError, make_dir, read_text, write_lines
from .filters import load_bank, save_bank, shift_powers
from .gnn import Nonlinearity, load_model, save_model
from .graphs import generate_geometric_graph, laplacian, load_graph, normalize_support, save_graph
from .spectral import eig_sym, split_subspace

PRESETS = {
    "paper": {},   # the paper's settings are ExperimentConfig's defaults
    "desk": dict(graphs=10, train=2000, epochs=20),
}


def load_config_file(path: str) -> dict:
    """Parse `key = value` lines; `#` starts a comment. A key may be set once."""
    from .experiment import CONFIG_KEYS, ExperimentConfig

    values, line_of = {}, {}
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected `key = value`")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        if key in line_of:
            raise ConfigurationError(
                f"{path}:{lineno}: key {key!r} already set on line {line_of[key]}")
        line_of[key] = lineno
        field_type = ExperimentConfig.__dataclass_fields__[key].type
        parse = {"int": int, "float": float}.get(field_type, str)
        try:
            values[key] = parse(text)
        except ValueError:
            raise ConfigurationError(
                f"{path}:{lineno}: {key} expects {field_type}, got {text!r}") from None
    return values


def build_config(args: argparse.Namespace):
    """The run's ExperimentConfig: the preset, then the config file, then the flags."""
    from .experiment import CONFIG_KEYS, ExperimentConfig

    values = dict(PRESETS[args.preset])
    if args.config:
        values.update(load_config_file(args.config))
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    config = ExperimentConfig(**values)
    config.validate()
    return config


def cmd_run(args: argparse.Namespace) -> int:
    from .experiment import emit_report, run_experiment

    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be at least 1, got {args.jobs}")
    if args.load_model and args.load_bank:
        raise ConfigurationError("--load-model and --load-bank both set the warm-start taps; "
                                 "give one of them")
    config = build_config(args)

    graph = None
    if args.load_graph:
        graph = load_graph(args.load_graph)
        if config.graphs != 1:
            print("graphdisc: note: --load-graph fixes the graph, forcing --graphs 1",
                  file=sys.stderr)
            config.graphs = 1

    init_taps = init_readout = None
    if args.load_model:
        model = load_model(args.load_model)
        # the model warm-starts the GNN, which run trains with tanh
        if model.sigma.kind != "tanh":
            raise ConfigurationError(f"{args.load_model}: the model's activation is "
                                     f"{model.sigma.descriptor()}, but run trains a tanh GNN")
        init_taps, init_readout = model.taps, model.readout
    elif args.load_bank:
        init_taps = load_bank(args.load_bank)

    make_dir(args.out)  # before training, so a bad --out fails at once
    replicates = run_experiment(config, jobs=args.jobs, graph=graph,
                                init_taps=init_taps, init_readout=init_readout)
    written = emit_report(replicates, args.out)
    if config.epochs > 0:
        for out in replicates:
            for name, result in out.trained.items():
                if result.best_epoch == -1:
                    print(f"graphdisc: warning: replicate {out.subspace} graph "
                          f"{out.graph_index} {name}: no epoch improved on the "
                          "initial model", file=sys.stderr)

    # the files in --out are counted; the others may lie anywhere, so they are named
    extra = []
    first = replicates[0]
    if args.dump_graph:
        save_graph(first.graph, args.dump_graph)
        extra.append(args.dump_graph)
    gnn = first.trained["gnn"].model
    if args.save_bank:
        save_bank(gnn.taps, args.save_bank)
        extra.append(args.save_bank)
    if args.save_model:
        save_model(gnn, args.save_model)
        extra.append(args.save_model)
    print(", ".join([f"wrote: {len(written)} files in {args.out}", *extra]))
    return 0


def _verify_graph(args: argparse.Namespace, graph_index: int):
    seed = int(np.random.SeedSequence((args.seed, graph_index)).generate_state(1, np.uint64)[0])
    g = generate_geometric_graph(args.nodes, args.neighbors, seed)
    return split_subspace(eig_sym(normalize_support(laplacian(g))), args.cutoff)


def _tanh_verifier_gnn(split, rng):
    from .discriminability import verifier_gnn

    return verifier_gnn(split, Nonlinearity.tanh(), full_band_filters=1, rng=rng)


def _all_zero_high_gnn(split, rng):
    from .discriminability import all_zero_high_gnn

    return all_zero_high_gnn(split, Nonlinearity.tanh(), n_filters=2, rng=rng)


@dataclass(frozen=True)
class VerifySuite:
    """One `verify --theorem` suite: its verifier, the GNN it runs on, and
    its summary line."""

    name: str            # verify_<name>.csv
    # the disc verifier's name, looked up at call time, so a tracer that
    # rebinds it sees the call
    verifier: str
    build_gnn: Callable  # (split, rng) -> SingleLayerGnn
    summary: str         # filled with format(trials=..., **report.counts)


VERIFY_SUITES = {
    "1": VerifySuite("theorem1", "verify_theorem1", _tanh_verifier_gnn,
                     "{trials} trials, {counterexamples} counterexamples"),
    "2": VerifySuite("theorem2", "verify_theorem2_forward", _tanh_verifier_gnn,
                     "agreement {agreements}/{trials}, discriminated {discriminated}, "
                     "worst margin {worst_margin:.3e}"),
    "cor1": VerifySuite("corollary1", "verify_corollary1", _all_zero_high_gnn,
                        "{trials} trials, {verdict_mismatches} verdict mismatches"),
    "cor2": VerifySuite("corollary2", "verify_corollary2", _tanh_verifier_gnn,
                        "subset violations {subset_violations}, strictness witnesses "
                        "{strictness_witnesses}, probe residual > 1e-6 on "
                        "{probe_above_threshold}/{probe_draws} draws"),
}


def cmd_verify(args: argparse.Namespace) -> int:
    from . import discriminability as disc

    for flag, value in (("graphs", args.graphs), ("trials", args.trials)):
        if value < 1:
            raise ConfigurationError(f"--{flag} must be at least 1, got {value}")
    if args.seed < 0:
        raise ConfigurationError(f"--seed must be nonnegative, got {args.seed}")
    make_dir(args.out)
    suites = VERIFY_SUITES.values() if args.theorem == "all" else [VERIFY_SUITES[args.theorem]]
    graphs = [_verify_graph(args, g) for g in range(args.graphs)]
    # checked once the graph checks have passed, and before any suite writes
    if VERIFY_SUITES["cor2"] in suites and args.nodes - args.cutoff < 2:
        raise ConfigurationError(
            "corollary 2 needs more than one unprotected mode, got --nodes "
            f"{args.nodes} and --cutoff {args.cutoff}")
    failed = False

    for suite in suites:
        columns = []
        lines = []
        probe_files = 0
        for g, split in enumerate(graphs):
            rng = np.random.default_rng(
                np.random.SeedSequence((args.seed, g, 1)))
            gnn = suite.build_gnn(split, rng)
            rep = getattr(disc, suite.verifier)(split, gnn, args.trials, rng)
            lines.append(f"graph {g}: " + suite.summary.format(trials=rep.trials, **rep.counts))
            if rep.probe_residuals is not None:
                write_lines(os.path.join(args.out, f"cor2_probe_g{g}.csv"),
                            ["draw,residual"] + [f"{i},{r:.17g}" for i, r
                                                 in enumerate(rep.probe_residuals)])
                probe_files += 1
            columns.append(rep.columns)
            failed = failed or not rep.passed

        csv_path = os.path.join(args.out, f"verify_{suite.name}.csv")
        disc.write_trial_csv(columns, csv_path)
        print(f"== {suite.name} ({args.graphs} graphs x {args.trials} trials) ==")
        for line in lines:
            print("  " + line)
        print(f"  trial log: {csv_path}"
              + (f" (+ {probe_files} probe files)" if probe_files else ""))

    print("verification " + ("FAILED" if failed else "passed"))
    return 1 if failed else 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    from .training import init_model, model_backward

    if args.trials < 1:
        raise ConfigurationError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise ConfigurationError(f"--seed must be nonnegative, got {args.seed}")
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    worst = 0.0
    failures = 0
    for trial in range(args.trials):
        n = int(rng.integers(4, 21))
        n_features = int(rng.integers(1, 5))
        n_taps = int(rng.integers(1, 4))
        neighbors = min(3, n - 1)
        g = generate_geometric_graph(n, neighbors,
                                     int(rng.integers(0, 2 ** 62)))
        s = normalize_support(laplacian(g))
        sigma = Nonlinearity.tanh() if trial % 2 == 0 else Nonlinearity.leaky_rectifier(0.1)
        if trial % 3 == 0:
            sigma = Nonlinearity.identity()
        model = init_model(n_features, n_taps, sigma,
                           seed=int(rng.integers(0, 2 ** 62)))
        x = rng.standard_normal((5, n))
        y = np.sign(rng.standard_normal((5, n)))
        il_weight = 0.01 if trial % 2 == 0 else 0.0

        powers = shift_powers(s, x, n_taps)
        result = model_backward(model, powers, y, il_weight)
        error = _fd_error(model, powers, y, il_weight, result)
        worst = max(worst, error)
        ok = error <= 1e-4
        failures += 0 if ok else 1
        print(f"config {trial:3d}: n={n:2d} F={n_features} taps={n_taps} "
              f"sigma={sigma.kind:<15} max rel err {error:.3e} "
              f"{'ok' if ok else 'FAIL'}")
    print(f"gradcheck worst relative error: {worst:.3e}")
    return 1 if failures else 0


def _fd_error(model, powers, y, il_weight, result) -> float:
    """Max relative error of a TrainableModel's analytic vs central-difference
    gradients."""
    from .training import model_backward

    h = 1e-5
    worst = 0.0

    def objective() -> float:
        return model_backward(model, powers, y, il_weight).objective

    for arr, grad in ((model.taps, result.grad_taps),
                      (model.readout, result.grad_readout)):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = objective()
            flat[i] = keep - h
            down = objective()
            flat[i] = keep
            fd = (up - down) / (2.0 * h)
            scale = max(abs(fd), abs(gflat[i]), 1e-6)
            worst = max(worst, abs(fd - gflat[i]) / scale)
    return worst


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after."""
    parser = argparse.ArgumentParser(
        prog="graphdisc",
        description="Graph filter banks vs single-layer GNNs: training "
                    "experiment and discriminability verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the subspace regression experiment")
    run.add_argument("--preset", choices=sorted(PRESETS), default="desk")
    run.add_argument("--subspace", choices=["low", "high", "full", "all"])
    run.add_argument("--seed", type=int)
    run.add_argument("--out", default="results")
    run.add_argument("--graphs", type=int)
    run.add_argument("--epochs", type=int)
    run.add_argument("--batch-size", dest="batch_size", type=int)
    run.add_argument("--il-weight", dest="il_weight", type=float)
    run.add_argument("--train", type=int)
    run.add_argument("--val", type=int)
    run.add_argument("--test", type=int)
    run.add_argument("--config", help="key-value config file; flags override it")
    run.add_argument("--jobs", type=int, default=1,
                     help="worker processes for replicates (at least 1), one BLAS thread each")
    run.add_argument("--dump-graph", help="write the first replicate's graph")
    run.add_argument("--load-graph", help="run on a saved graph (one replicate)")
    run.add_argument("--save-bank", help="write the first replicate's trained GNN bank")
    run.add_argument("--load-bank", help="warm-start taps from a bank file")
    run.add_argument("--save-model", help="write the first replicate's trained GNN")
    run.add_argument("--load-model", help="warm-start taps and readout from a model file")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="randomized discriminability suites")
    verify.add_argument("--theorem", choices=[*VERIFY_SUITES, "all"],
                        default="all")
    verify.add_argument("--trials", type=int, default=200)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--graphs", type=int, default=1)
    verify.add_argument("--nodes", type=int, default=20)
    verify.add_argument("--cutoff", type=int, default=4,
                        help="protected low-mode count k")
    verify.add_argument("--neighbors", type=int, default=5)
    verify.add_argument("--out", default="results")
    verify.set_defaults(func=cmd_verify)

    grad = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    grad.add_argument("--trials", type=int, default=20)
    grad.add_argument("--seed", type=int, default=0)
    grad.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except GRAPHDISC_ERRORS as exc:
        print(f"graphdisc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
