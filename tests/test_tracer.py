"""The benchmark's span tracer (perfbench/spans.py) still fits the program.

The tracer rebinds the functions it times by module attribute and counts
each training step's flops from model_backward's positional arguments. A
toy `run` and a toy `verify` of every suite under it must exit 0, record
training steps, one call per traced verifier and some filtering; a program
change that breaks `perfbench/run.py --trace 1` fails here.
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


def test_traced_toy_run_and_verify(perfbench, tmp_path, capsys):
    smoke, spans = perfbench
    config = tmp_path / "toy.cfg"
    config.write_text(smoke.TOY_CONFIG)
    tracer = spans.Tracer()
    with tracer.installed():
        run_code = cli.main(["run", "--config", str(config), "--graphs", "1", "--jobs", "1",
                             "--out", str(tmp_path / "run")])
        verify_code = cli.main(["verify", "--theorem", "all", "--graphs", "1", "--trials", "6",
                                "--nodes", "12", "--cutoff", "3", "--out", str(tmp_path / "verify")])
    assert (run_code, verify_code) == (0, 0)
    summary = tracer.summary()
    assert summary["training.model_backward"]["calls"] > 0
    for name in spans.LAYERS["discriminability"]:
        if name.startswith("verify_"):
            assert summary[f"discriminability.{name}"]["calls"] == 1
    assert summary["gnn.bank_forward"]["calls"] > 0
    assert tracer.backward_flops > 0
