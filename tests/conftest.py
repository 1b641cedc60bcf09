"""Fixtures shared by the test modules."""

import numpy as np
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


@pytest.fixture(scope="session")
def pinned_build():
    """The failure message of a test that pins exact result bits: the
    build they were recorded on beside the running one. Another BLAS build
    can round some products another way with no fault in the program."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return (f"pinned on numpy 2.4.6 with scipy-openblas 0.3.31; running numpy "
            f"{np.__version__} with {blas.get('name', 'an unknown BLAS')} "
            f"{blas.get('version', '')}".rstrip())
