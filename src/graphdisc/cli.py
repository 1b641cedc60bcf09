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
or gradient check exits 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import discriminability as disc
from .errors import GRAPHDISC_ERRORS, ConfigurationError, make_dir, read_text
from .experiment import MODEL_NAMES, ExperimentConfig, emit_report, run_experiment
from .filters import load_bank, save_bank, shift_powers
from .gnn import Nonlinearity, load_model, save_model
from .graphs import generate_geometric_graph, laplacian, load_graph, normalize_support, save_graph
from .spectral import eig_sym, split_subspace
from .training import TrainableModel, init_model, model_backward

PRESETS = {
    "paper": dict(graphs=30, train=8000, val=200, test=200, epochs=40),
    "desk": dict(graphs=10, train=2000, val=200, test=200, epochs=20),
}

CONFIG_KEYS = {f.name for f in ExperimentConfig.__dataclass_fields__.values()}


def load_config_file(path: str) -> dict:
    """Parse `key = value` lines; `#` starts a comment."""
    values = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected `key = value`")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        field_type = ExperimentConfig.__dataclass_fields__[key].type
        parse = {"int": int, "float": float}.get(field_type, str)
        try:
            values[key] = parse(text)
        except ValueError:
            raise ConfigurationError(
                f"{path}:{lineno}: {key} expects {field_type}, got {text!r}") from None
    return values


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    values = dict(PRESETS[args.preset]) if args.preset else {}
    if args.config:
        values.update(load_config_file(args.config))
    for key in ("subspace", "seed", "graphs", "epochs", "batch_size",
                "il_weight", "train", "val", "test"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    config = ExperimentConfig(**values)
    config.validate()
    return config


def cmd_run(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be at least 1, got {args.jobs}")
    config = build_config(args)

    graph = None
    if args.load_graph:
        graph = load_graph(args.load_graph)
        if config.graphs != 1:
            print("note: --load-graph fixes the graph, forcing --graphs 1")
            config.graphs = 1

    init_taps = init_readout = None
    if args.load_model:
        init_taps, init_readout, _sigma = load_model(args.load_model)
    elif args.load_bank:
        init_taps = load_bank(args.load_bank)

    make_dir(args.out)  # before training, so a bad --out fails at once
    outputs: list = []
    report = run_experiment(config, jobs=args.jobs, graph=graph,
                            init_taps=init_taps, init_readout=init_readout,
                            keep_outputs=outputs)
    written = emit_report(report, args.out)
    if config.epochs > 0:
        for out in outputs:
            for name in MODEL_NAMES:
                if out.best_epochs[name] == -1:
                    print(f"graphdisc: warning: replicate {out.subspace} graph "
                          f"{out.graph_index} {name}: no epoch improved on the "
                          "initial model", file=sys.stderr)

    first = outputs[0]
    if args.dump_graph:
        save_graph(first.graph, args.dump_graph)
        written.append(args.dump_graph)
    gnn = first.models["gnn"]
    if args.save_bank:
        save_bank(gnn.taps, args.save_bank)
        written.append(args.save_bank)
    if args.save_model:
        save_model(gnn.taps, gnn.readout, gnn.sigma, args.save_model)
        written.append(args.save_model)
    print("wrote: " + ", ".join(written))
    return 0


def _verify_graph(args: argparse.Namespace, graph_index: int):
    seed = int(np.random.SeedSequence((args.seed, graph_index)).generate_state(1, np.uint64)[0])
    g = generate_geometric_graph(args.nodes, args.neighbors, seed)
    spec = eig_sym(normalize_support(laplacian(g)))
    split = split_subspace(spec, args.cutoff)
    return spec, split


def _tanh_verifier_gnn(spec, k, rng):
    return disc.verifier_gnn(spec, k, Nonlinearity.tanh(), full_band_filters=1, rng=rng)


def _write_probe_file(rep, out_dir: str, g: int) -> str:
    path = os.path.join(out_dir, f"cor2_probe_g{g}.csv")
    with open(path, "w") as fh:
        fh.write("draw,residual\n")
        for i, r in enumerate(rep.probe_residuals):
            fh.write(f"{i},{r:.17g}\n")
    return path


@dataclass(frozen=True)
class VerifySuite:
    """One `verify --theorem` suite: how to run it on a graph and report it."""

    name: str                                    # verify_<name>.csv
    build_gnn: Callable                          # (spec, k, rng) -> SingleLayerGnn
    # (spec, split, gnn, trials, rng) -> report; calls the disc verifier by
    # attribute at call time, so a tracer that rebinds it sees the call
    run: Callable
    passed: Callable                             # report -> bool
    summary: Callable                            # report -> line
    write_extra: Callable | None = None          # (report, out dir, graph) -> path


VERIFY_SUITES = {
    "1": VerifySuite(
        name="theorem1",
        build_gnn=_tanh_verifier_gnn,
        run=lambda *args: disc.verify_theorem1(*args),
        passed=lambda rep: rep.counterexamples == 0,
        summary=lambda rep: f"{rep.trials} trials, {rep.counterexamples} counterexamples",
    ),
    "2": VerifySuite(
        name="theorem2",
        build_gnn=_tanh_verifier_gnn,
        run=lambda *args: disc.verify_theorem2_forward(*args),
        passed=lambda rep: rep.agreement_rate == 1.0,
        summary=lambda rep: (f"agreement {rep.agreements}/{rep.trials}, "
                             f"discriminated {rep.discriminated}, "
                             f"worst margin {rep.worst_margin:.3e}"),
    ),
    "cor1": VerifySuite(
        name="corollary1",
        build_gnn=lambda spec, k, rng: disc.all_zero_high_gnn(
            spec, k, Nonlinearity.tanh(), n_filters=2, rng=rng),
        run=lambda *args: disc.verify_corollary1(*args),
        passed=lambda rep: rep.verdict_mismatches == 0,
        summary=lambda rep: f"{rep.trials} trials, {rep.verdict_mismatches} verdict mismatches",
    ),
    "cor2": VerifySuite(
        name="corollary2",
        build_gnn=_tanh_verifier_gnn,
        run=lambda *args: disc.verify_corollary2(*args),
        passed=lambda rep: (rep.subset_violations == 0
                            and rep.strictness_witnesses >= 1
                            and rep.probe_above_threshold >= 0.95 * rep.probe_draws),
        summary=lambda rep: (f"subset violations {rep.subset_violations}, "
                             f"strictness witnesses {rep.strictness_witnesses}, "
                             f"probe residual > 1e-6 on "
                             f"{rep.probe_above_threshold}/{rep.probe_draws} draws"),
        write_extra=_write_probe_file,
    ),
}


def cmd_verify(args: argparse.Namespace) -> int:
    for flag, value in (("graphs", args.graphs), ("trials", args.trials)):
        if value < 1:
            raise ConfigurationError(f"--{flag} must be at least 1, got {value}")
    make_dir(args.out)
    suites = VERIFY_SUITES.values() if args.theorem == "all" else [VERIFY_SUITES[args.theorem]]
    failed = False

    for suite in suites:
        rows = []
        lines = []
        extra_paths = []
        for g in range(args.graphs):
            spec, split = _verify_graph(args, g)
            rng = np.random.default_rng(
                np.random.SeedSequence((args.seed, g, 1)))
            gnn = suite.build_gnn(spec, args.cutoff, rng)
            rep = suite.run(spec, split, gnn, args.trials, rng)
            lines.append(f"graph {g}: {suite.summary(rep)}")
            if suite.write_extra:
                extra_paths.append(suite.write_extra(rep, args.out, g))
            base = len(rows)
            rows.extend(replace(r, trial=base + r.trial) for r in rep.rows)
            failed = failed or not suite.passed(rep)

        csv_path = os.path.join(args.out, f"verify_{suite.name}.csv")
        disc.write_trial_csv(rows, csv_path)
        print(f"== {suite.name} ({args.graphs} graphs x {args.trials} trials) ==")
        for line in lines:
            print("  " + line)
        print(f"  trial log: {csv_path}"
              + (f" (+ {len(extra_paths)} probe files)" if extra_paths else ""))

    print("verification " + ("FAILED" if failed else "passed"))
    return 1 if failed else 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ConfigurationError(f"--trials must be at least 1, got {args.trials}")
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


def _fd_error(model: TrainableModel, powers, y, il_weight, result) -> float:
    """Max relative error of analytic vs central-difference gradients."""
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


def main(argv: list[str] | None = None) -> int:
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
                     help="worker processes for replicates (at least 1)")
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

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GRAPHDISC_ERRORS as exc:
        print(f"graphdisc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
