"""Graph filter banks, single-layer GNNs, and discriminability verification."""

from .errors import ConfigurationError, DegenerateInputError, NumericalError, ShapeError
from .filters import (
    bank_il_constant,
    freq_response,
    load_bank,
    save_bank,
    zero_high_response,
)
from .gnn import Nonlinearity, SingleLayerGnn, TrainableModel, bank_forward, load_model, save_model
from .graphs import (
    GeometricGraph,
    SupportMatrix,
    generate_geometric_graph,
    laplacian,
    load_graph,
    normalize_support,
    save_graph,
)
from .spectral import Spectrum, SubspaceSplit, eig_sym, split_subspace

__all__ = [
    "ConfigurationError", "DegenerateInputError", "NumericalError", "ShapeError",
    "bank_il_constant", "freq_response", "load_bank", "save_bank", "zero_high_response",
    "Nonlinearity", "SingleLayerGnn", "TrainableModel", "bank_forward", "load_model", "save_model",
    "GeometricGraph", "SupportMatrix", "generate_geometric_graph", "laplacian",
    "load_graph", "normalize_support", "save_graph",
    "Spectrum", "SubspaceSplit", "eig_sym", "split_subspace",
]
