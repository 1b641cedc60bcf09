"""Graph filter banks, single-layer GNNs, and discriminability verification."""

from .errors import ConfigurationError, DegenerateInputError, NumericalError, ShapeError
from .filters import (
    SpectralFilter,
    bank_il_constant,
    cutoff_frequency,
    freq_response,
    load_bank,
    save_bank,
    zero_high_response,
)
from .gnn import Nonlinearity, SingleLayerGnn, bank_forward, load_model, save_model
from .graphs import (
    GeometricGraph,
    SupportMatrix,
    generate_geometric_graph,
    laplacian,
    load_graph,
    normalize_support,
    save_graph,
)
from .spectral import Spectrum, SubspaceSplit, eig_sym, project_subspace, split_subspace

__all__ = [
    "ConfigurationError", "DegenerateInputError", "NumericalError", "ShapeError",
    "SpectralFilter", "bank_il_constant", "cutoff_frequency",
    "freq_response", "load_bank", "save_bank", "zero_high_response",
    "Nonlinearity", "SingleLayerGnn", "bank_forward", "load_model", "save_model",
    "GeometricGraph", "SupportMatrix", "generate_geometric_graph", "laplacian",
    "load_graph", "normalize_support", "save_graph",
    "Spectrum", "SubspaceSplit", "eig_sym", "project_subspace", "split_subspace",
]
