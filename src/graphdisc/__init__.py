"""Graph filter banks, single-layer GNNs, and discriminability verification."""

from .errors import ConfigurationError, DegenerateInputError, NumericalError, ShapeError
from .filters import (
    FilterBank,
    FirFilter,
    SpectralFilter,
    apply_fir,
    bank_il_constant,
    cutoff_frequency,
    freq_response,
    il_constant,
    load_bank,
    save_bank,
    zero_high_response,
)
from .gnn import (
    Nonlinearity,
    Readout,
    SingleLayerGnn,
    bank_forward,
    gnn_forward,
    load_model,
    readout_apply,
    save_model,
)
from .graphs import (
    GeometricGraph,
    SupportMatrix,
    generate_geometric_graph,
    graph_shift,
    laplacian,
    load_graph,
    normalize_support,
    save_graph,
)
from .spectral import (
    Spectrum,
    SubspaceSplit,
    eig_sym,
    gft,
    igft,
    project_subspace,
    split_subspace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
