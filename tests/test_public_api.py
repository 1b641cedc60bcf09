"""The names the graphdisc package exports."""

import graphdisc

DELETED = ("apply_fir", "il_constant", "graph_shift", "gnn_forward", "readout_apply",
           "gft", "igft", "generate_input", "FirFilter", "FilterBank", "Readout")
SUBMODULES = ("cli", "discriminability", "errors", "experiment", "filters", "gnn",
              "graphs", "spectral", "training")


def test_every_listed_name_resolves():
    assert len(set(graphdisc.__all__)) == len(graphdisc.__all__)
    for name in graphdisc.__all__:
        assert getattr(graphdisc, name) is not None, name


def test_no_deleted_name_or_submodule_is_exported():
    exported = set(graphdisc.__all__)
    assert not exported & set(DELETED)
    assert not exported & set(SUBMODULES)
    for name in DELETED:
        assert not hasattr(graphdisc, name), name

