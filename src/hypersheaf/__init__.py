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


def _pin_malloc_thresholds() -> None:
    """Fix glibc's malloc thresholds at the ceiling its own adaptive rule reaches.

    glibc serves a block above its mmap threshold with fresh pages and gives
    free heap top above its trim threshold back to the system, and raises
    both as the process frees large blocks.  The signal-sized temporaries of
    the ``Z^dagger Z`` kernel (each run's gathered signal rows, 1.4 MB per
    half in all at 2,700 incidences, d = 2, 16 columns; the phased signal
    stacks, 0.3 MB at 300 vertices) therefore land on fresh pages in some
    processes and on reused heap in others, by what each has freed before:
    on a 2-core Xeon one ``apply_laplacian`` of that size took 0.6 ms with
    3 page faults pinned and 4.1 ms with about 1,400 at glibc's initial
    thresholds.  Pinned, every process reuses its heap, at the cost of
    keeping up to 64 MiB of freed heap.  Thresholds set through glibc's
    ``MALLOC_*_THRESHOLD_`` variables are left as they are.
    """
    import ctypes, os, sys  # here, so the package namespace stays clean

    if not sys.platform.startswith("linux") or any(
        f"MALLOC_{name}_THRESHOLD_" in os.environ for name in ("MMAP", "TRIM")
    ):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's ceiling on 64-bit
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: twice that, as glibc pairs them


_pin_malloc_thresholds()
