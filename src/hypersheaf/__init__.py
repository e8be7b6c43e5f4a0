"""Complex Hermitian Laplacians and sheaf diffusion networks for directed hypergraphs."""

from .hypergraph import (
    DirectedGraph,
    DirectedHypergraph,
    Hyperedge,
    from_directed_graph,
    incidence_counts,
    read_hypergraph,
    validate,
    write_hypergraph,
)
from .sheaf import (
    SheafAssignment,
    SheafConfig,
    build_fixed_sheaf,
    directional_coefficient,
)
from .blockmatrix import BlockComplexMatrix
from .laplacian import (
    LaplacianBundle,
    apply_laplacian,
    build_degree_matrices,
    build_incidence,
    build_laplacian,
    entrywise_block,
)
from .spectral import (
    EnergyReport,
    SpectrumReport,
    dirichlet_energy,
    hermitian_eigenvalues,
    spectrum_report,
    verify_spectral_suite,
)
from .reference import reference_laplacian
from .data import (
    LabeledDataset,
    SyntheticConfig,
    degree_features,
    generate_synthetic,
    read_dataset,
    split,
    write_dataset,
)
from .model import (
    ModelConfig,
    ModelState,
    TrainingBudget,
    TrainResult,
    complex_layer_norm,
    complex_relu,
    forward,
    init_state,
    loss_and_gradients,
    predict_sheaf,
    train,
)

__version__ = "0.1.0"
