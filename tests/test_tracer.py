"""The benchmark's span tracer (perfbench/spans.py) still fits the program.

The tracer rebinds the functions it times by module attribute and counts
each training step's flops from model_backward's positional arguments. A
toy `run` and a toy `verify` of every suite under it must exit 0, record
training steps, one call per traced verifier and some filtering, and leave
no traced name without calls beyond those listed as dead; a program change
that breaks `perfbench/run.py --trace 1`, or moves work off a traced name,
fails here. The functions behind the dead spans must stay caller-free, so
that they go with their spans.
"""

import io
import re
import sys
import tokenize
from pathlib import Path

import pytest

from graphdisc import cli

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
PACKAGE = TESTS.parent / "src" / "graphdisc"


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


def name_sites(source: str, names: tuple[str, ...]) -> list[tuple[int, str]]:
    """(line, name) of each name or string token of the source that holds
    one of the names as a word, except the name a `def` binds."""
    sites, previous = [], None
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in (tokenize.NAME, tokenize.STRING) and previous != "def":
            sites += [(token.start[0], name) for name in names
                      if re.search(rf"\b{name}\b", token.string)]
        previous = token.string
    return sites


def test_dead_spans_have_no_caller():
    # each dead span's function may appear in the package only where it is
    # defined, and in no test module but this one
    names = tuple(span.rsplit(".", 1)[1] for span in DEAD_SPANS)
    paths = sorted(PACKAGE.glob("*.py")) + sorted(
        path for path in TESTS.glob("*.py") if path.name != Path(__file__).name)
    sites = [f"{path.parent.name}/{path.name}:{line}: {name}" for path in paths
             for line, name in name_sites(path.read_text(), names)]
    assert sites == []


def test_the_scan_sees_a_caller():
    source = ("def helper():\n    pass\n# helper\nhelper()\n"
              "getattr(module, 'helper')\nmy_helper = 1\n")
    assert name_sites(source, ("helper",)) == [(4, "helper"), (5, "helper")]
