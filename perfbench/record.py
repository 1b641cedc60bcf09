"""Write perfbench/setup.json: machine, workloads, reference values, layers.

    python3 perfbench/record.py

Run it from the root of a git checkout of graphdisc on the measuring
machine. It runs each workload's reference op once and stores its numbers,
which every benchmark run then compares against its own warm-up op.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import run


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    os.chdir(run.ROOT)
    cli = run.import_program()   # sets the BLAS thread count before numpy loads
    import numpy
    import scipy

    from spans import LAYER_EFFECTS, LAYERS

    setup = {
        "machine": {
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": "{name} {version}".format(
                **numpy.show_config("dicts")["Build Dependencies"]["blas"]),
            "blas_threads": run.THREAD_ENV,
            "commit": git_commit(),
        },
        "reference_rtol": run.REFERENCE_RTOL,
        "op_seeds": "op i of a run uses the i-th random.Random(--seed).randrange(2**31); "
                    "no seed is excluded",
        "calibration_s": run.CALIBRATION_S,
        "known_defect": ["graphdisc", *run.KNOWN_DEFECT],
        "workloads": {},
        "layers": {layer: {"spans": [f"{layer}.{fn}" for fn in fns],
                           "moves": LAYER_EFFECTS[layer]}
                   for layer, fns in LAYERS.items()},
    }
    for workload in run.WORKLOADS.values():
        out_dir = run.OUT / workload.name / "reference"
        op = run.run_op(cli, workload, workload.reference_seed, out_dir)
        if not op.ok:
            sys.exit(f"{workload.name}: reference op failed: {op.error}")
        entry = {
            "why": workload.why,
            "commands": [["graphdisc", *command, "--seed", "<op seed>", "--out", "<op dir>"]
                         for command in workload.commands],
            "items_per_op": workload.items_per_op,
            "reference_seed": workload.reference_seed,
            "reference": run.reference_values(workload, out_dir),
        }
        for command in workload.commands:
            if "--config" in command:
                path = run.ROOT / command[command.index("--config") + 1]
                entry["config"] = path.read_text().splitlines()
        setup["workloads"][workload.name] = entry
        print(f"{workload.name}: reference op {op.seconds:.3f} s")

    run.SETUP_FILE.write_text(json.dumps(setup, indent=2) + "\n")
    print(f"wrote {run.SETUP_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
