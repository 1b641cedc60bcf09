"""Smoke test of the benchmark itself, at toy sizes.

    python3 perfbench/smoke.py

Runs toy `run` and `verify` workloads through the benchmark's own untraced
and traced measurements and checks that every end-to-end and per-layer
metric named in BENCHMARK.json is emitted with its unit, and that an op
that raises is counted in `failed` instead of ending the run. Takes about
fifteen seconds; exits 1 with a message on the first failed check.
"""

from __future__ import annotations

import json
import sys

import run

TOY_CONFIG = """\
n = 12
k = 3
neighbors = 3
features = 4
taps = 3
subspace = high
train = 50
val = 50
test = 50
epochs = 3
batch_size = 10
"""


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"smoke: {message}")


def metric_units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    cli = run.import_program()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect({w["name"]: w["why"] for w in bench["workloads"]}
           == {w.name: w.why for w in run.WORKLOADS.values()},
           "BENCHMARK.json workloads differ from run.WORKLOADS")

    work = run.OUT / "smoke"
    work.mkdir(parents=True, exist_ok=True)
    config = work / "toy.cfg"
    config.write_text(TOY_CONFIG)
    toys = (
        run.Workload("toy_run", "toy", (("run", "--config", str(config),
                                         "--graphs", "1", "--jobs", "1"),),
                     items_per_op=50 * 3 * 2),
        run.Workload("toy_verify", "toy",
                     tuple(("verify", "--theorem", suite, "--graphs", "1", "--trials", "6",
                            "--nodes", "12", "--cutoff", "3") for suite in run.VERIFY_SUITES),
                     items_per_op=len(run.VERIFY_SUITES) * 6),
    )
    for toy in toys:
        for measure, names in ((run.measure_untraced, end_to_end),
                               (run.measure_traced, per_layer)):
            result = measure(cli, toy, 0, 0.5)
            expect(metric_units(result) == names,
                   f"{toy.name} {measure.__name__}: metrics or units differ from "
                   "BENCHMARK.json")
            expect(result["correct"] and result["failed"] == 0,
                   f"{toy.name} {measure.__name__}: {result}")

    original = cli.main
    calls = 0

    def flaky(argv):
        nonlocal calls
        calls += 1
        if calls % 2 == 0:
            raise RuntimeError("injected failure")
        return original(argv)

    cli.main = flaky
    try:
        result = run.measure_untraced(cli, toys[0], 0, 0.5)
    finally:
        cli.main = original
    expect(result["attempted"] >= run.MIN_OPS, f"raising ops ended the run: {result}")
    expect(result["failed"] == result["attempted"] // 2,
           f"raising ops not counted as failed: {result}")
    expect(result["correct"], "a raising op must count as failed, not as a wrong output")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
