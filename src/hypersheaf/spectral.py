"""Spectra of Hermitian operators and numerical verification of their guarantees.

Eigenvalues of a complex Hermitian ``k x k`` matrix are computed through the
real symmetric ``2k x 2k`` embedding ``[[Re, -Im], [Im, Re]]``, whose spectrum
is that of the original matrix with every eigenvalue doubled; the doubled
ascending list is thinned by taking every other entry.  The verification
suite takes that spectrum from LAPACK (``np.linalg.eigvalsh``);
``hermitian_eigenvalues`` still takes it from the cyclic Jacobi solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blockmatrix import DENSE_EXPORT_CAP
from .hypergraph import DirectedHypergraph, Hyperedge, format_hypergraph
# read as spectral.jacobi_eigh by perfbench/tests/test_smoke.py::test_tracer_wraps_every_lookup_and_restores_it;
# hermitian_eigenvalues stays on it only for that test, until ROADMAP item 1 re-points it
from .jacobi import jacobi_eigh
from .laplacian import LaplacianBundle, apply_laplacian, build_laplacian
from .sheaf import SheafAssignment, SheafConfig, build_fixed_sheaf

__all__ = [
    "SpectrumReport",
    "EnergyReport",
    "hermitian_eigenvalues",
    "hermitian_defect",
    "spectrum_report",
    "dirichlet_energy",
    "verify_spectral_suite",
    "SpectralCheckReport",
    "CHECK_NAMES",
    "random_hypergraph",
    "random_instance",
]

HERMITIAN_INPUT_TOL = 1e-8
PSD_TOL = 1e-8
SPECTRUM_BOUND_TOL = 1e-8
PAIRING_TOL = 1e-9
# The guarantees checked by verify_spectral_suite; realness applies at q = 0 only.
CHECK_NAMES = ("hermitian", "pairing", "psd", "bound", "dirichlet", "realness")


def hermitian_defect(M: np.ndarray) -> float:
    """``max |M - M^dagger|`` entry-wise."""
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return 0.0
    return float(np.max(np.abs(M - M.conj().T)))


def real_embedding(M: np.ndarray) -> np.ndarray:
    """The real symmetric ``2k x 2k`` matrix ``[[Re M, -Im M], [Im M, Re M]]``."""
    M = np.asarray(M, dtype=complex)
    return np.block([[M.real, -M.imag], [M.imag, M.real]])


def hermitian_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Sorted real eigenvalues of a complex Hermitian matrix.

    Requires ``hermitian_defect(M) <= 1e-8`` and dimension at most
    ``DENSE_EXPORT_CAP``.  The embedded spectrum carries each value twice;
    every other entry of the ascending list is returned.
    """
    M = np.asarray(M, dtype=complex)
    k = M.shape[0]
    if M.shape != (k, k):
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if k > DENSE_EXPORT_CAP:
        raise ValueError(f"dimension {k} exceeds the dense cap of {DENSE_EXPORT_CAP}")
    defect = hermitian_defect(M)
    if defect > HERMITIAN_INPUT_TOL:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > {HERMITIAN_INPUT_TOL:g}")
    if k == 0:
        return np.zeros(0)
    doubled = jacobi_eigh(real_embedding(M))
    return doubled[::2].copy()


@dataclass
class SpectrumReport:
    """Sorted eigenvalues of a Hermitian operator plus basic diagnostics."""

    eigenvalues: np.ndarray
    hermitian_defect: float

    @property
    def min_eig(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max_eig(self) -> float:
        return float(self.eigenvalues[-1])

    def is_psd_at(self, tol: float = PSD_TOL) -> bool:
        return self.min_eig >= -tol


def spectrum_report(M: np.ndarray) -> SpectrumReport:
    return SpectrumReport(hermitian_eigenvalues(M), hermitian_defect(M))


@dataclass
class EnergyReport:
    """Dirichlet energy evaluated two independent ways."""

    quadratic_form: float
    sum_form: float
    imag_residual: float

    @property
    def relative_gap(self) -> float:
        return abs(self.quadratic_form - self.sum_form) / max(1.0, abs(self.quadratic_form))


def dirichlet_energy(
    H: DirectedHypergraph,
    A: SheafAssignment,
    bundle: LaplacianBundle,
    x: np.ndarray,
) -> EnergyReport:
    """Evaluate ``x^dagger L_N x`` and the per-hyperedge squared-difference sum.

    The sum form is

        (1/2) sum_e (1/delta_e) sum_{u != v in e}
            || vecF_u D_u^{-1/2} x_u - vecF_v D_v^{-1/2} x_v ||^2

    and must match the quadratic form to rounding error for the normalized
    operator.
    """
    if not bundle.normalized:
        raise ValueError("Dirichlet energy is defined for the normalized Laplacian")
    n, d = bundle.n, bundle.d
    x = np.asarray(x, dtype=complex).reshape(n * d)
    quad = np.vdot(x, apply_laplacian(bundle, x))
    xs = x.reshape(n, d)
    scaled = np.einsum("uab,ub->ua", bundle.dv_inv_sqrt, xs)
    total = 0.0
    for j, e in enumerate(H.hyperedges):
        members = e.members
        proj = {u: (A.coefficient(u, j) * A.map_for(u, j)) @ scaled[u] for u in members}
        for a_i, u in enumerate(members):
            for v in members[a_i + 1 :]:
                diff = proj[u] - proj[v]
                total += float(np.real(np.vdot(diff, diff))) / e.degree
    return EnergyReport(
        quadratic_form=float(quad.real),
        sum_form=total,
        imag_residual=abs(float(quad.imag)),
    )


# --- randomized verification ---------------------------------------------------


@dataclass
class SpectralCheckReport:
    """Pass/fail record of the spectral guarantees on one instance."""

    hermitian_defect: float
    pairing_gap: float
    min_eig: float
    max_eig: float
    dirichlet_gap: float
    max_imag_at_q0: float | None
    q: float
    failures: list[str] = field(default_factory=list)
    instance_dump: str | None = None
    # pass/fail of each check in CHECK_NAMES that applies to the instance
    checks: dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures


def serialize_instance(H: DirectedHypergraph, A: SheafAssignment, note: str = "") -> str:
    """Text form of an instance (hypergraph file format plus sheaf config) for replay."""
    header = f"# sheaf q={A.config.q} d={A.config.d} shape={A.config.map_shape} {note}".rstrip()
    return header + "\n" + format_hypergraph(H)


def verify_spectral_suite(
    H: DirectedHypergraph,
    A: SheafAssignment,
    *,
    rng: np.random.Generator | None = None,
) -> SpectralCheckReport:
    """Check one instance against every spectral guarantee of the normalized operator.

    Verifies: Hermitian defect below 1e-10, exact pairing of the embedded
    spectrum, positive semidefiniteness, the unit upper bound on the
    spectrum, agreement of the two Dirichlet energy forms, and realness of
    the operator at ``q = 0``.  The spectrum is LAPACK ``eigvalsh`` of the
    real embedding, so the pairing check compares the doubled values pair by
    pair.

    The energy forms must agree to ``max(1e-9, eps * max_u cond(D_u))``
    relative (``eps`` the float64 machine epsilon): ``L_N`` takes
    ``D_u^{-1/2} D_u D_u^{-1/2} = I`` as exact, which rounding only makes
    good to about ``eps * cond(D_u)``; below ``cond`` 4.5e6 it is 1e-9.
    """
    rng = rng or np.random.default_rng(0)
    bundle = build_laplacian(H, A, normalized=True)
    dense = bundle.L.to_dense()
    failures: list[str] = []
    checks = {c: True for c in CHECK_NAMES if c != "realness" or A.config.q == 0.0}

    def fail(check: str, detail: str) -> None:
        checks[check] = False
        failures.append(f"{check}: {detail}")

    defect = hermitian_defect(dense)
    if defect > 1e-10:
        fail("hermitian", f"defect {defect:.3e} > 1e-10")

    doubled = np.linalg.eigvalsh(real_embedding(dense))
    pairing_gap = float(np.max(np.abs(doubled[::2] - doubled[1::2]))) if dense.size else 0.0
    if pairing_gap > PAIRING_TOL:
        fail("pairing", f"embedded spectrum gap {pairing_gap:.3e} > {PAIRING_TOL:g}")
    eigs = doubled[::2]

    min_eig = float(eigs[0])
    max_eig = float(eigs[-1])
    if min_eig < -PSD_TOL:
        fail("psd", f"min eigenvalue {min_eig:.3e} < -{PSD_TOL:g}")
    if max_eig > 1.0 + SPECTRUM_BOUND_TOL:
        fail("bound", f"max eigenvalue {max_eig:.10f} > 1 + {SPECTRUM_BOUND_TOL:g}")

    x = rng.standard_normal(dense.shape[0]) + 1j * rng.standard_normal(dense.shape[0])
    energy = dirichlet_energy(H, A, bundle, x)
    energy_tol = max(1e-9, np.finfo(float).eps * float(np.linalg.cond(bundle.D_V).max()))
    if energy.relative_gap > energy_tol:
        gap = f"energy form gap {energy.relative_gap:.3e}"
        fail("dirichlet", f"{gap} > tolerance max(1e-9, eps * cond(D_u)) = {energy_tol:.3g}")
    if energy.quadratic_form < -1e-9:
        fail("dirichlet", f"energy {energy.quadratic_form:.3e} is negative")

    max_imag = None
    if "realness" in checks:
        max_imag = bundle.L.max_abs_imag()
        if max_imag > 1e-12:
            fail("realness", f"q=0 imaginary part {max_imag:.3e} > 1e-12")

    return SpectralCheckReport(
        hermitian_defect=defect,
        pairing_gap=pairing_gap,
        min_eig=min_eig,
        max_eig=max_eig,
        dirichlet_gap=energy.relative_gap,
        max_imag_at_q0=max_imag,
        q=A.config.q,
        failures=failures,
        instance_dump=serialize_instance(H, A) if failures else None,
        checks=checks,
    )


def random_hypergraph(
    rng: np.random.Generator,
    n_range: tuple[int, int],
    m_range: tuple[int, int],
    directed_fraction: float,
) -> DirectedHypergraph:
    """Sample a random hypergraph with hyperedges of 2 to 6 members.

    Each hyperedge is directed with probability ``directed_fraction``.
    Every vertex is guaranteed at least one incidence (isolated vertices
    would make the normalized operator undefined).
    """
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    m = int(rng.integers(m_range[0], m_range[1] + 1))
    edges = []
    for _ in range(m):
        directed = rng.random() < directed_fraction and n >= 2
        size = int(rng.integers(2, min(n, 6) + 1))
        members = rng.choice(n, size=size, replace=False)
        if directed:
            cut = int(rng.integers(1, size))
            edges.append(Hyperedge(tuple(members[:cut]), tuple(members[cut:])))
        else:
            edges.append(Hyperedge(tuple(members)))
    covered = set()
    for e in edges:
        covered.update(e.members)
    for u in range(n):
        if u not in covered:
            j = int(rng.integers(0, len(edges)))
            e = edges[j]
            if e.is_undirected or rng.random() < 0.5:
                edges[j] = Hyperedge(e.tail + (u,), e.head)
            else:
                edges[j] = Hyperedge(e.tail, e.head + (u,))
    return DirectedHypergraph(n, tuple(edges))


def random_instance(
    rng: np.random.Generator,
    *,
    n_range: tuple[int, int] = (4, 16),
    m_range: tuple[int, int] = (2, 12),
    d_choices: tuple[int, ...] = (1, 2, 3, 4),
    q_choices: tuple[float, ...] = (0.0, 0.05, 0.1, 0.25),
    map_shapes: tuple[str, ...] = ("trivial", "diagonal", "full"),
    directed_fraction: float = 0.6,
) -> tuple[DirectedHypergraph, SheafAssignment]:
    """Sample a :func:`random_hypergraph` with a random sheaf on top."""
    H = random_hypergraph(rng, n_range, m_range, directed_fraction)
    config = SheafConfig(
        q=float(rng.choice(q_choices)),
        d=int(rng.choice(d_choices)),
        map_shape=str(rng.choice(map_shapes)),
    )
    A = build_fixed_sheaf(H, config, rng_seed=int(rng.integers(0, 2**31)))
    return H, A
