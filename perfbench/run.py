"""graphdisc benchmark: closed-loop CLI workloads with checked outputs.

    python3 perfbench/run.py --workload desk_replicate --seed 0 --seconds 30 --trace 0

All three workloads, untraced then traced, in one command:

    for w in desk_replicate large_graph verify_suites; do for t in 0 1; do
      python3 perfbench/run.py --workload $w --seed 0 --seconds 30 --trace $t; done; done

`python3 perfbench/smoke.py` checks the benchmark itself at toy sizes.

Run it from the root of a source checkout: the program is imported from
`src/`, nothing needs installing. Each operation ("op") calls
`graphdisc.cli.main` in-process with the workload's CLI commands (one for
`run`, one per suite for `verify`), all with the op's seed. The loop is
closed with one client: the next op starts when the previous one has
finished, and ops start until the next one would end past `--seconds`.
Op seeds are drawn from `--seed`; the program sees only CLI arguments.

Before the timed loop each run makes one untimed warm-up op on the
workload's fixed reference seed and compares its numbers with
`perfbench/setup.json` (relative tolerance REFERENCE_RTOL). Every timed op
is checked too: a `run` op must exit 0 and write a summary.csv with one
high-subspace row per model whose test MSE is finite, positive and below
MSE_CEILING; each command of a `verify` op must exit 0 and print
`verification passed`. An op that raises or fails its check counts as
failed and the run goes on. A failed check, a reference mismatch or a
traced/untraced mismatch makes `correct` false; an op that raises counts in
`failed` only.

`verify --theorem cor2` is not part of any workload: on some seeds
(17, 22 and 51 of 0-59) its overdetermined probe raises brentq's
`ValueError: f(a) and f(b) must have different signs`, and a workload must
not have failing ops. Every verify_suites run instead replays seed 17,
untimed, and prints on an information line whether it still raises.

Times drift with the shared host's speed, by up to half within a minute.
So each run times `calibrate()`, a fixed Python-and-numpy kernel that
does not touch graphdisc, before and after every set-up spawn and every
op, and scales each of those intervals by CALIBRATION_S / (the mean of the
two calibrations around it). The timed metrics therefore read seconds on a
machine where that kernel takes CALIBRATION_S; the raw wall times are
printed on information lines.

--trace 0 reports the end-to-end metrics with tracing off: setup_s (median
time for a fresh interpreter to import graphdisc.cli), op_s.p50 (median
latency of the ops that passed), items_per_s (train samples x epochs x 2
models, or suites x trials, of the ops that passed, per second of op
time) and peak_rss_mb. Information lines add wall_s, failed_frac with its
counts, the latency tail, and high_gap for run workloads. --trace 1 runs
every op twice, untraced and traced (alternating which goes first), checks
that both write byte-identical result files, and reports per-layer metrics
from the traced copies (see spans.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it, starting with `#`, are
information only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_FILE = BENCH / "setup.json"

# One BLAS thread: the workloads are single-client closed loops, and the
# machine's other cores stay free for the rest of the system. Set before
# numpy is first imported, here and in the set-up interpreters.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

SETUP_SPAWNS = 7        # fresh interpreters timed per run; setup_s is their median
CALIBRATION_S = 0.0015  # nominal calibrate() time the timed metrics are scaled to
MIN_OPS = 3             # timed ops (op pairs when traced) per run, whatever --seconds says
REFERENCE_RTOL = 1e-6   # replacing the training einsums by matmuls moved no digit
# The all-zero predictor scores exactly 1 on the +-1 targets. Trained models
# land near or below it (large_graph's 4-epoch models score about 0.87), so
# this ceiling flags a broken run without flagging a weak one.
MSE_CEILING = 1.25
VERIFY_SUITES = {"1": "theorem1", "2": "theorem2", "cor1": "corollary1"}
VERIFY_TRIALS = 400
# A verify command that raises brentq's ValueError at commit 899afd9.
KNOWN_DEFECT = ("verify", "--theorem", "cor2", "--graphs", "1", "--trials", "200",
                "--seed", "17")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[tuple[str, ...], ...]   # one op; --seed and --out are appended
    items_per_op: int          # train samples x epochs x 2 models, or suites x trials
    reference_seed: int | None = None

    @property
    def kind(self) -> str:
        return self.commands[0][0]

    def argvs(self, seed: int, out_dir: Path) -> list[list[str]]:
        return [[*command, "--seed", str(seed), "--out", str(out_dir)]
                for command in self.commands]


WORKLOADS = {w.name: w for w in (
    Workload(
        "desk_replicate",
        "one desk replicate of the paper's high-subspace experiment; "
        "small dispatch-bound training steps, about 95% of the time in training",
        (("run", "--preset", "desk", "--subspace", "high", "--graphs", "1",
          "--jobs", "1"),),
        items_per_op=2000 * 20 * 2,
        reference_seed=0,
    ),
    Workload(
        "large_graph",
        "n=120 graph: the Jacobi eigensolve (run twice per graph) dominates "
        "and training steps are wider than on desk_replicate",
        (("run", "--config", "perfbench/large_graph.cfg", "--graphs", "1",
          "--jobs", "1"),),
        items_per_op=500 * 4 * 2,
        reference_seed=0,
    ),
    Workload(
        "verify_suites",
        "discriminability suites theorem 1, theorem 2 and corollary 1, no "
        "training; corollary 2 is left out while its brentq crash stands",
        tuple(("verify", "--theorem", suite, "--graphs", "1",
               "--trials", str(VERIFY_TRIALS)) for suite in VERIFY_SUITES),
        items_per_op=len(VERIFY_SUITES) * VERIFY_TRIALS,
        reference_seed=0,
    ),
)}


def pin_to_one_cpu() -> None:
    """Keep this process and the interpreters it starts on one CPU.

    Calibrations then measure the CPU the timed work ran on; on a shared
    host each CPU's speed drifts on its own.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def import_program():
    """Import graphdisc.cli from this checkout's src/, or exit nonzero."""
    if not (SRC / "graphdisc" / "cli.py").is_file():
        sys.exit(f"perfbench: no graphdisc sources under {SRC}; "
                 "run from the root of a graphdisc checkout")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import graphdisc.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "graphdisc":
        sys.exit(f"perfbench: imported graphdisc from {cli.__file__}, not {SRC}")
    return cli


def op_seeds(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2 ** 31)


def calibrate() -> float:
    """Seconds the machine now takes for a fixed Python-and-numpy kernel.

    The median of a few repetitions of an interpreter loop and small
    matrix products with tanh, the mix of work graphdisc does.
    """
    import numpy as np

    a = np.linspace(-1.0, 1.0, 2500).reshape(50, 50)
    x = np.linspace(0.0, 1.0, 500).reshape(10, 50)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(12000):
            acc += (i * 7) % 13
        y = x
        for _ in range(120):
            y = np.tanh(y @ a * 0.1) + x
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Op:
    seed: int
    seconds: float
    error: str | None      # exception type, "exit N" or "check: ..."; None if ok
    summary: dict[str, tuple[float, int]] | None = None   # run ops that passed

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def check_failed(self) -> bool:
        return self.error is not None and self.error.startswith("check")


def read_summary(out_dir: Path) -> dict[str, tuple[float, int]]:
    """summary.csv rows as {"subspace.model": (mean_error, n_graphs)}."""
    lines = (out_dir / "summary.csv").read_text().splitlines()[1:]
    rows = {}
    for line in lines:
        subspace, model, mean, _ci, n_graphs = line.split(",")
        rows[f"{subspace}.{model}"] = (float(mean), int(n_graphs))
    return rows


def check_output(rows: dict[str, tuple[float, int]] | None,
                 stdouts: list[str]) -> str | None:
    """Why the op's output is wrong, or None if it passes.

    `rows` is the summary of a run op, None for a verify op.
    """
    if rows is None:
        missing = sum("verification passed" not in out for out in stdouts)
        return f"{missing} commands without 'verification passed'" if missing else None
    if sorted(rows) != ["high.filter_bank", "high.gnn"]:
        return f"summary rows {sorted(rows)}"
    for key, (mse, n_graphs) in rows.items():
        if n_graphs != 1 or not (math.isfinite(mse) and 0.0 < mse < MSE_CEILING):
            return f"{key}: mse {mse!r} over {n_graphs} graphs"
    return None


def run_command(cli, argv: list[str]) -> tuple[str | None, str]:
    """(error or None, stdout) of one in-process CLI command."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        error = None if code == 0 else f"exit {code}"
    except (Exception, SystemExit) as exc:   # an op boundary: record and go on
        error = f"{type(exc).__name__}: {exc}"
    return error, buf.getvalue()


def run_op(cli, workload: Workload, seed: int, out_dir: Path) -> Op:
    shutil.rmtree(out_dir, ignore_errors=True)
    stdouts = []
    error = None
    start = time.perf_counter()
    for argv in workload.argvs(seed, out_dir):
        error, stdout = run_command(cli, argv)
        stdouts.append(stdout)
        if error is not None:
            break
    elapsed = time.perf_counter() - start
    if error is not None:
        print(f"# op seed {seed} raised {error}", file=sys.stderr)
        return Op(seed, elapsed, error.split(":")[0])
    try:
        rows = read_summary(out_dir) if workload.kind == "run" else None
        reason = check_output(rows, stdouts)
    except (OSError, ValueError) as exc:
        reason = f"unreadable output: {exc}"
    if reason is not None:
        print(f"# op seed {seed} failed its check: {reason}", file=sys.stderr)
        return Op(seed, elapsed, f"check: {reason}")
    return Op(seed, elapsed, None, rows)


def scaled(seconds: list[float], cals: list[float]) -> list[float]:
    """Intervals at the nominal machine speed; cals[i] and cals[i + 1] bracket the i-th."""
    return [t * CALIBRATION_S / (0.5 * (before + after))
            for t, before, after in zip(seconds, cals, cals[1:])]


def closed_loop(seconds: float, step) -> tuple[list, list[float]]:
    """Call step(i) while the next call is expected to end within `seconds`.

    Returns the results and the calibrations made before, between and
    after the calls.
    """
    results, durations, cals = [], [], [calibrate()]
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step(len(results)))
        durations.append(time.perf_counter() - t0)
        cals.append(calibrate())
        elapsed = time.perf_counter() - start
        if len(results) >= MIN_OPS and elapsed + statistics.median(durations) > seconds:
            return results, cals


def reference_values(workload: Workload, out_dir: Path) -> dict[str, float]:
    """The numbers of an op compared against setup.json."""
    if workload.kind == "run":
        return {key: mse for key, (mse, _n) in read_summary(out_dir).items()}
    values = {}
    for suite in VERIFY_SUITES.values():
        rows = [line.split(",") for line in
                (out_dir / f"verify_{suite}.csv").read_text().splitlines()[1:]]
        values[f"{suite}.in_d_h"] = float(sum(int(r[1]) for r in rows))
        values[f"{suite}.in_d_phi"] = float(sum(int(r[2]) for r in rows))
        values[f"{suite}.mean_residual_low_gnn"] = statistics.fmean(float(r[4]) for r in rows)
    return values


def check_reference(cli, workload: Workload, out_dir: Path) -> bool:
    """Warm-up op on the reference seed; True when it matches setup.json."""
    if workload.reference_seed is None:
        return True
    op = run_op(cli, workload, workload.reference_seed, out_dir)
    expected = json.loads(SETUP_FILE.read_text())["workloads"][workload.name]["reference"]
    if not op.ok:
        print(f"# reference op failed: {op.error}")
        return False
    got = reference_values(workload, out_dir)
    bad = [key for key in expected
           if key not in got or not math.isclose(got[key], expected[key],
                                                 rel_tol=REFERENCE_RTOL, abs_tol=1e-300)]
    for key in bad:
        print(f"# reference mismatch {key}: got {got.get(key)!r}, want {expected[key]!r}")
    return not bad


def time_setup() -> tuple[float, float]:
    """Median time, scaled and raw, of fresh interpreters importing graphdisc.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, cals = [], [calibrate()]
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import graphdisc.cli"],
                       cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)
        cals.append(calibrate())
    return statistics.median(scaled(times, cals)), statistics.median(times)


def report_known_defect(cli, workload: Workload) -> None:
    """Replay KNOWN_DEFECT, untimed, and say whether it still fails."""
    if workload.kind != "verify":
        return
    out_dir = OUT / workload.name / "known_defect"
    shutil.rmtree(out_dir, ignore_errors=True)
    error, _ = run_command(cli, [*KNOWN_DEFECT, "--out", str(out_dir)])
    print(f"# known defect: graphdisc {' '.join(KNOWN_DEFECT)} "
          + (f"fails: {error}" if error else "now passes"))


def high_gap(workload: Workload, ops: list[Op]) -> float | None:
    """Pooled filter-bank over GNN mean test MSE, minus 1, on run ops."""
    if workload.kind != "run":
        return None
    bank = [op.summary["high.filter_bank"][0] for op in ops if op.ok]
    gnn = [op.summary["high.gnn"][0] for op in ops if op.ok]
    return statistics.fmean(bank) / statistics.fmean(gnn) - 1.0 if gnn else None


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of p90/p99/p99.9 with at least 10 values beyond it."""
    best = None
    for p in (90.0, 99.0, 99.9):
        beyond = int(len(values) * (1.0 - p / 100.0))
        if beyond >= 10:
            best = (p, sorted(values)[-beyond - 1])
    return best


def report_ops(workload: Workload, ops: list[Op]) -> None:
    """Information lines: op counts, failures, latency tail, throughput names."""
    failed = [op for op in ops if not op.ok]
    kinds = Counter(op.error for op in failed)
    print(f"# ops: {len(ops)} attempted, {len(failed)} failed"
          + (f" ({', '.join(f'{k} x{v}' for k, v in kinds.items())})" if kinds else ""))
    print(f"# failed_frac: {len(failed) / len(ops):.4f} ({len(failed)} of {len(ops)})")
    ok_times = [op.seconds for op in ops if op.ok]
    wall = sum(op.seconds for op in ops)
    print(f"# wall_s: {wall:.4f} s over {len(ops)} ops (raw)")
    if ok_times:
        print(f"# op_s (raw): p50 {statistics.median(ok_times):.4f} s, "
              f"min {min(ok_times):.4f} s, max {max(ok_times):.4f} s")
    tail = tail_percentile(ok_times)
    print(f"# op_s tail (raw): p{tail[0]:g} {tail[1]:.4f} s" if tail else
          f"# op_s tail: no percentile above p50 has 10 ops beyond it ({len(ok_times)} ok ops)")
    name = "train_samples_per_s" if workload.kind == "run" else "verify_trials_per_s"
    print(f"# {name} (raw): {workload.items_per_op * len(ok_times) / wall:.1f} 1/s")
    gap = high_gap(workload, ops)
    if gap is not None:
        print(f"# high_gap: {gap:+.4f} (filter bank / GNN mean test MSE - 1, "
              f"pooled over {len(ok_times)} ops)")


def measure_untraced(cli, workload: Workload, seed: int, seconds: float) -> dict:
    setup_s, setup_raw = time_setup()
    print(f"# setup_s (raw): {setup_raw:.4f} s")
    report_known_defect(cli, workload)
    out_dir = OUT / workload.name / "op"
    reference_ok = check_reference(cli, workload, out_dir)
    seeds = op_seeds(seed)
    ops, cals = closed_loop(seconds, lambda i: run_op(cli, workload, next(seeds), out_dir))
    report_ops(workload, ops)

    print(f"# calibrate(): median {statistics.median(cals) * 1e3:.4f} ms "
          f"(nominal {CALIBRATION_S * 1e3:g} ms)")
    op_times = scaled([op.seconds for op in ops], cals)
    ok_times = [t for op, t in zip(ops, op_times) if op.ok]
    if not ok_times:
        sys.exit("perfbench: every op failed; no latency to report")
    wall = sum(op_times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (statistics.median(ok_times), "s"),
        "items_per_s": (workload.items_per_op * len(ok_times) / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    correct = reference_ok and not any(op.check_failed for op in ops)
    return result(correct, ops, metrics)


def result_files(out_dir: Path) -> dict[str, bytes]:
    """Every result file except runs.csv, whose wall_time_s column varies."""
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.name != "runs.csv"}


def measure_traced(cli, workload: Workload, seed: int, seconds: float) -> dict:
    from spans import CALLS_ONLY_SPANS, LATENCY_SPANS, LAYERS, SPAN_NAMES, Tracer

    tracer = Tracer()
    dirs = {False: OUT / workload.name / "untraced", True: OUT / workload.name / "traced"}
    report_known_defect(cli, workload)
    reference_ok = check_reference(cli, workload, dirs[False])
    seeds = op_seeds(seed)
    mismatches = []

    def pair(i: int) -> tuple[Op, Op]:
        s = next(seeds)
        ops, files = {}, {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed():
                    ops[traced] = run_op(cli, workload, s, dirs[traced])
            else:
                ops[traced] = run_op(cli, workload, s, dirs[traced])
            files[traced] = result_files(dirs[traced])
        if files[False] != files[True] or ops[False].error != ops[True].error:
            mismatches.append(s)
            print(f"# op seed {s}: traced and untraced results differ")
        return ops[False], ops[True]

    pairs, _ = closed_loop(seconds, pair)
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    report_ops(workload, plain)
    tracer.save(str(OUT / workload.name / "spans.npz"))

    spans = tracer.summary()
    n_ops = len(traced)
    metrics = {}
    for name in SPAN_NAMES:
        row = spans[name]
        metrics[f"{name}.calls"] = (row["calls"] / n_ops, "count/op")
        if name in CALLS_ONLY_SPANS:
            continue
        metrics[f"{name}.self_s"] = (row["self_s"] / n_ops, "s/op")
        metrics[f"{name}.total_s"] = (row["total_s"] / n_ops, "s/op")
        if name in LATENCY_SPANS:
            metrics[f"{name}.p50_us"] = (row["p50_us"], "us")
            metrics[f"{name}.p99_us"] = (row["p99_us"], "us")
    graphs_built = spans["graphs.generate_geometric_graph"]["calls"]
    metrics["spectral.eig_sym.calls_per_graph"] = (
        spans["spectral.eig_sym"]["calls"] / graphs_built if graphs_built else 0.0,
        "count/graph")
    backward_s = spans["training.model_backward"]["total_s"]
    metrics["training.model_backward.gflop_s_computed"] = (
        tracer.backward_flops / backward_s / 1e9 if backward_s else 0.0,
        "GFLOP/s")
    traced_wall = spans["cli.main"]["total_s"]
    for layer, fns in LAYERS.items():
        if all(f"{layer}.{fn}" in CALLS_ONLY_SPANS for fn in fns):
            continue
        own = sum(spans[f"{layer}.{fn}"]["self_s"] for fn in fns)
        metrics[f"layer.{layer}.self_frac"] = (own / traced_wall, "ratio")
    metrics["trace_overhead_frac"] = (
        sum(op.seconds for op in traced) / sum(op.seconds for op in plain) - 1.0, "ratio")
    gap = high_gap(workload, plain)
    metrics["experiment.high_gap"] = (0.0 if gap is None else gap, "ratio")

    correct = (reference_ok and not mismatches
               and not any(op.check_failed for op in plain + traced))
    return result(correct, plain + traced, metrics)


def result(correct: bool, ops: list[Op], metrics: dict[str, tuple[float, str]]) -> dict:
    return {
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def describe_machine() -> None:
    import numpy
    import scipy

    print(f"# python {platform.python_version()}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, {os.cpu_count()} cpus, "
          f"BLAS threads {THREAD_ENV['OPENBLAS_NUM_THREADS']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    cli = import_program()
    pin_to_one_cpu()
    describe_machine()
    workload = WORKLOADS[args.workload]
    for command in workload.commands:
        print(f"# workload {workload.name}: graphdisc {' '.join(command)} --seed <op seed>")
    print(f"# seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    measure = measure_traced if args.trace else measure_untraced
    print(json.dumps(measure(cli, workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
