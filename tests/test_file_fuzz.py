"""Fuzz tests of the text parsers: graph, bank, model and config files.

Whatever a file holds, loading it either raises ConfigurationError or
returns a value that saves and loads back to itself. The generated files
stay small: at most a handful of nodes, filters, taps and lines.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdisc.cli import load_config_file
from graphdisc.errors import ConfigurationError
from graphdisc.experiment import CONFIG_KEYS
from graphdisc.filters import load_bank, save_bank
from graphdisc.gnn import load_model, save_model
from graphdisc.graphs import load_graph, save_graph

SMALL = st.integers(-1, 6)
NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(lambda v: f"{v:.17g}"),
    st.integers(-3, 9).map(str),
    st.sampled_from(["0", "-0", "1e999", "1e-320", "nan", "+2", "1_0", "0x1"]),
)
JUNK = st.sampled_from(["", "x", "=", "#", "-", "tanh", "identity", "leaky_rectifier",
                        "graphs", "subspace", "\t", "é", " ", "\x00"])
TOKEN = st.one_of(NUMBER, JUNK)
SOUP_LINE = st.lists(TOKEN, max_size=4).map(" ".join)
SIGMA_LINE = st.one_of(
    st.sampled_from(["tanh", "identity", "leaky_rectifier 0.25", "leaky_rectifier",
                     "leaky_rectifier 1.5", "leaky_rectifier nan", "softplus", "tanh extra"]),
    SOUP_LINE,
)


def numbers(draw, count):
    return " ".join(draw(NUMBER) for _ in range(count))


def perturbed(draw, lines):
    """The lines, or the lines with one dropped, replaced or added."""
    how = draw(st.sampled_from(["keep", "drop", "replace", "append"]))
    if how != "keep" and lines:
        i = draw(st.integers(0, len(lines) - 1))
        if how == "drop":
            del lines[i]
        elif how == "replace":
            lines[i] = draw(SOUP_LINE)
    if how == "append":
        lines.append(draw(SOUP_LINE))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n", "\r\n"]))


def bank_lines(draw):
    n_filters, n_taps = draw(SMALL), draw(SMALL)
    lines = [f"{n_filters} {n_taps}"]
    for _ in range(draw(st.integers(0, max(n_filters, 0) + 1))):
        lines.append(numbers(draw, max(n_taps + draw(st.integers(-1, 1)), 0)))
    return lines, n_filters


@st.composite
def graph_texts(draw):
    n = draw(SMALL)
    lines = [f"{n} {draw(SMALL)} {draw(SMALL)}"]
    lines += [numbers(draw, 2) for _ in range(draw(st.integers(0, max(n, 0) + 1)))]
    lines += [f"{draw(SMALL)} {draw(SMALL)} {draw(NUMBER)}"
              for _ in range(draw(st.integers(0, 6)))]
    return perturbed(draw, lines)


@st.composite
def bank_texts(draw):
    return perturbed(draw, bank_lines(draw)[0])


@st.composite
def model_texts(draw):
    lines, n_filters = bank_lines(draw)
    lines.append(numbers(draw, max(n_filters + draw(st.integers(-1, 1)), 0)))
    lines.append(draw(SIGMA_LINE))
    return perturbed(draw, lines)


@st.composite
def config_texts(draw):
    key = st.one_of(st.sampled_from(sorted(CONFIG_KEYS)), JUNK)
    value = st.one_of(NUMBER, JUNK, st.sampled_from(["low", "all", "a=b", "4 # note"]))
    lines = [draw(st.sampled_from(["{} = {}", "{}={}", "{} {}", "# {} = {}"])).format(
        draw(key), draw(value)) for _ in range(draw(st.integers(0, 6)))]
    return perturbed(draw, lines)


def graph_round_trip(path, back_path):
    g = load_graph(path)
    save_graph(g, back_path)
    back = load_graph(back_path)
    assert (back.n, back.k_neighbors, back.seed) == (g.n, g.k_neighbors, g.seed)
    np.testing.assert_array_equal(back.positions, g.positions)
    np.testing.assert_array_equal(back.weights, g.weights)


def bank_round_trip(path, back_path):
    taps = load_bank(path)
    save_bank(taps, back_path)
    np.testing.assert_array_equal(load_bank(back_path), taps)


def model_round_trip(path, back_path):
    model = load_model(path)
    save_model(model, back_path)
    back = load_model(back_path)
    np.testing.assert_array_equal(back.taps, model.taps)
    np.testing.assert_array_equal(back.readout, model.readout)
    assert back.sigma == model.sigma


def config_round_trip(path, back_path):
    values = load_config_file(path)
    with open(back_path, "w") as fh:
        fh.write("".join(f"{key} = {value!r}\n" if isinstance(value, float) else
                         f"{key} = {value}\n" for key, value in values.items()))
    # repr, so that a NaN value compares equal to itself
    assert repr(load_config_file(back_path)) == repr(values)


PARSERS = {
    "graph": (graph_texts(), graph_round_trip),
    "bank": (bank_texts(), bank_round_trip),
    "model": (model_texts(), model_round_trip),
    "config": (config_texts(), config_round_trip),
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    return str(base / "in.txt"), str(base / "back.txt")


def loads_or_rejects(data: bytes, round_trip, paths) -> None:
    path, back_path = paths
    with open(path, "wb") as fh:
        fh.write(data)
    try:
        round_trip(path, back_path)
    except ConfigurationError:
        pass


@pytest.mark.parametrize("kind", sorted(PARSERS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_near_valid_text(kind, data, paths):
    texts, round_trip = PARSERS[kind]
    loads_or_rejects(data.draw(texts).encode("utf-8"), round_trip, paths)


@pytest.mark.parametrize("kind", sorted(PARSERS))
@settings(max_examples=20, deadline=None)
@given(text=st.one_of(st.text(max_size=40), st.lists(SOUP_LINE, max_size=6).map("\n".join)))
def test_arbitrary_text(kind, text, paths):
    loads_or_rejects(text.encode("utf-8"), PARSERS[kind][1], paths)


@pytest.mark.parametrize("kind", sorted(PARSERS))
@settings(max_examples=20, deadline=None)
@given(data=st.binary(max_size=40))
def test_arbitrary_bytes(kind, data, paths):
    loads_or_rejects(data, PARSERS[kind][1], paths)
