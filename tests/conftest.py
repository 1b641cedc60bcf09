"""Fixtures shared by the test modules."""

import pytest

from graphdisc.graphs import SupportMatrix, laplacian, normalize_support
from graphdisc.spectral import eig_sym, split_subspace


@pytest.fixture(scope="session")
def split_of():
    """A factory: split_of(graph, k) is the SubspaceSplit at index k of a
    GeometricGraph's normalized Laplacian, or of a SupportMatrix as given."""
    def build(graph, k):
        if not isinstance(graph, SupportMatrix):
            graph = normalize_support(laplacian(graph))
        return split_subspace(eig_sym(graph), k)
    return build
