"""The benchmark's span tracer (perfbench/spans.py) still fits the program.

The tracer rebinds the functions it times by module attribute and counts
each training step's flops from model_backward's positional arguments. A
toy `run` and a toy `verify` of every suite under it must exit 0, record
training steps, one call per traced verifier and some filtering, and leave
no traced name without calls beyond those listed as dead; a program change
that breaks `perfbench/run.py --trace 1`, or moves work off a traced name,
fails here.
"""

import sys
from pathlib import Path

import pytest

from graphdisc import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's smoke and spans modules, imported from perfbench/."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import smoke
    import spans
    yield smoke, spans
    for name in ("smoke", "run", "spans"):
        sys.modules.pop(name, None)


def traced_toy_run_and_verify(smoke, spans, tmp_path):
    """Exit codes of a toy `run` and a toy `verify` of every suite, and the
    tracer that recorded them."""
    config = tmp_path / "toy.cfg"
    config.write_text(smoke.TOY_CONFIG)
    tracer = spans.Tracer()
    with tracer.installed():
        run_code = cli.main(["run", "--config", str(config), "--graphs", "1", "--jobs", "1",
                             "--out", str(tmp_path / "run")])
        verify_code = cli.main(["verify", "--theorem", "all", "--graphs", "1", "--trials", "6",
                                "--nodes", "12", "--cutoff", "3", "--out", str(tmp_path / "verify")])
    return (run_code, verify_code), tracer


def test_traced_toy_run_and_verify(perfbench, tmp_path, capsys):
    smoke, spans = perfbench
    codes, tracer = traced_toy_run_and_verify(smoke, spans, tmp_path)
    assert codes == (0, 0)
    summary = tracer.summary()
    assert summary["training.model_backward"]["calls"] > 0
    for name in spans.LAYERS["discriminability"]:
        if name.startswith("verify_"):
            assert summary[f"discriminability.{name}"]["calls"] == 1
    assert summary["gnn.bank_forward"]["calls"] > 0
    assert tracer.backward_flops > 0


# traced names that no command calls; each is to be deleted with its span,
# so the check is a subset, not an equality
DEAD_SPANS = ("discriminability.pair_in_d_phi", "discriminability.secant_report",
              "discriminability.sample_pair_in_d_h")


def test_no_other_span_reads_zero_calls(perfbench, tmp_path, capsys):
    smoke, spans = perfbench
    codes, tracer = traced_toy_run_and_verify(smoke, spans, tmp_path)
    assert codes == (0, 0)
    dead = {name for name, row in tracer.summary().items() if row["calls"] == 0}
    assert dead <= set(DEAD_SPANS), sorted(dead - set(DEAD_SPANS))
