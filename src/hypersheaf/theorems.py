"""Randomized matrix-equality suites for the operator-recovery guarantees.

Each suite builds the block Laplacian on one side and an independently
constructed published operator on the other, then reports the maximum
entry-wise deviation over randomized instances.  The counterexample check
exercises the prior flipped-sign operator on a fixed four-vertex instance
where it loses positive semidefiniteness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypergraph import DirectedHypergraph, Hyperedge
from .laplacian import build_laplacian
from .reference import reference_laplacian
from .sheaf import IncidenceStructure, SheafAssignment, SheafConfig, build_fixed_sheaf
from .spectral import hermitian_eigenvalues, random_hypergraph

__all__ = [
    "TheoremResult",
    "check_sheaf_graph_reduction",
    "check_magnetic_reduction",
    "check_zhou_reduction",
    "check_gedi_reduction",
    "check_counterexample",
    "flipped_sign_psd_failures",
    "run_all_theorem_checks",
    "counterexample_hypergraph",
    "COUNTEREXAMPLE_MATRIX",
]

MATRIX_EQUALITY_TOL = 1e-10


@dataclass
class TheoremResult:
    name: str
    trials: int
    max_deviation: float
    tolerance: float = MATRIX_EQUALITY_TOL

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: max deviation {self.max_deviation:.3e} "
            f"over {self.trials} trials (tol {self.tolerance:g})"
        )


def _random_undirected_two_uniform(rng, n_max=10):
    n = int(rng.integers(3, n_max + 1))
    m = int(rng.integers(2, 9))
    edges = []
    for _ in range(m):
        u, v = rng.choice(n, size=2, replace=False)
        edges.append(Hyperedge((int(u), int(v))))
    return DirectedHypergraph(n, tuple(edges))


def check_sheaf_graph_reduction(trials: int = 50, seed: int = 0) -> TheoremResult:
    """Undirected 2-uniform case: the block Laplacian is half the graph sheaf
    Laplacian, and half of ``D - A`` under the trivial sheaf."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        H = _random_undirected_two_uniform(rng)
        d = int(rng.integers(1, 4))
        q = float(rng.uniform(0.0, 0.25))
        sheaf = build_fixed_sheaf(
            H, SheafConfig(q=q, d=d, map_shape="full"), rng_seed=int(rng.integers(2**31))
        )
        ours = build_laplacian(H, sheaf).dense()
        ref = reference_laplacian("sheaf_graph", hypergraph=H, sheaf=sheaf)
        worst = max(worst, float(np.max(np.abs(ours - 0.5 * ref))))

        trivial = build_fixed_sheaf(H, SheafConfig(q=q, d=1, map_shape="trivial"))
        ours1 = build_laplacian(H, trivial).dense()
        classical = reference_laplacian("classical_graph", hypergraph=H)
        worst = max(worst, float(np.max(np.abs(ours1 - 0.5 * classical))))
    return TheoremResult("sheaf/classical graph reduction (2-uniform undirected)", trials, worst)


def _random_mixed_simple_graph(rng, n_max=10):
    """Simple mixed graph as a 2-uniform hypergraph: one edge per vertex pair."""
    n = int(rng.integers(3, n_max + 1))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    k = int(rng.integers(2, min(len(pairs), 9) + 1))
    edges = []
    for u, v in pairs[:k]:
        roll = rng.random()
        if roll < 1 / 3:
            edges.append(Hyperedge((u, v)))
        elif roll < 2 / 3:
            edges.append(Hyperedge((u,), (v,)))
        else:
            edges.append(Hyperedge((v,), (u,)))
    return DirectedHypergraph(n, tuple(edges))


def _magnet_scaled_sheaf(H: DirectedHypergraph, q: float) -> SheafAssignment:
    # sqrt(2) on undirected incidences, 1 on directed: the scaling under which
    # the 2-uniform block Laplacian matches the phase-encoded graph operator.
    s = IncidenceStructure.build(H)
    undirected = np.array([e.is_undirected for e in H.hyperedges], dtype=bool)[s.inc_edge]
    maps = np.where(undirected, np.sqrt(2.0), 1.0).reshape(-1, 1, 1)
    config = SheafConfig(q=q, d=1, map_shape="full")
    return SheafAssignment.over(s, config, maps)


def check_magnetic_reduction(
    trials: int = 50, seed: int = 0, q_values: tuple[float, ...] = (0.0, 0.1, 0.25)
) -> TheoremResult:
    """Mixed simple 2-uniform case: equality with the phase-encoded operator for
    each q, and with its sign-based variant at q = 1/4."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        H = _random_mixed_simple_graph(rng)
        for q in q_values:
            ours = build_laplacian(H, _magnet_scaled_sheaf(H, q)).dense()
            ref = reference_laplacian("magnetic", hypergraph=H, q=q)
            worst = max(worst, float(np.max(np.abs(ours - ref))))
        ours_q = build_laplacian(H, _magnet_scaled_sheaf(H, 0.25)).dense()
        sign_ref = reference_laplacian("sign_magnetic", hypergraph=H)
        worst = max(worst, float(np.max(np.abs(ours_q - sign_ref))))
    return TheoremResult("magnetic / sign-magnetic reduction (2-uniform mixed)", trials, worst)


def check_zhou_reduction(trials: int = 50, seed: int = 0) -> TheoremResult:
    """Trivial sheaf: the normalized operator equals the classical normalized
    hypergraph Laplacian (q = 0 on directed instances; any q once direction
    is absent)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        directed = t % 2 == 0
        H = random_hypergraph(rng, (4, 10), (2, 8), 0.6 if directed else 0.0)
        q = 0.0 if directed else float(rng.uniform(0.0, 0.25))
        sheaf = build_fixed_sheaf(H, SheafConfig(q=q, d=1, map_shape="trivial"))
        ours = build_laplacian(H, sheaf, normalized=True).dense()
        ref = reference_laplacian("zhou", hypergraph=H)
        worst = max(worst, float(np.max(np.abs(ours - ref))))
    return TheoremResult("normalized hypergraph reduction (trivial sheaf)", trials, worst)


def check_gedi_reduction(trials: int = 50, seed: int = 0) -> TheoremResult:
    """Trivial sheaf at q = 1/4: the normalized operator equals the generalized
    directed hypergraph Laplacian in its scalar expansion."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        H = random_hypergraph(rng, (4, 10), (2, 8), 0.6)
        sheaf = build_fixed_sheaf(H, SheafConfig(q=0.25, d=1, map_shape="trivial"))
        ours = build_laplacian(H, sheaf, normalized=True).dense()
        ref = reference_laplacian("gedi", hypergraph=H)
        worst = max(worst, float(np.max(np.abs(ours - ref))))
    return TheoremResult("generalized directed reduction (trivial sheaf, q=1/4)", trials, worst)


# --- the four-vertex counterexample ------------------------------------------

COUNTEREXAMPLE_MATRIX = np.array(
    [
        [1 / 3, -1 / 3, -1 / 3, 0.0],
        [-1 / 3, 2 / 3, -2 / 3, -1 / 3],
        [-1 / 3, -2 / 3, 2 / 3, -1 / 3],
        [0.0, -1 / 3, -1 / 3, 1 / 3],
    ]
)


def counterexample_hypergraph() -> DirectedHypergraph:
    """Two overlapping undirected triples on four vertices."""
    return DirectedHypergraph(4, (Hyperedge((0, 1, 2)), Hyperedge((1, 2, 3))))


@dataclass
class CounterexampleReport:
    matrix: np.ndarray
    matrix_deviation: float
    eigenvalues: np.ndarray
    min_eig: float

    @property
    def reproduces_non_psd(self) -> bool:
        return self.matrix_deviation <= 1e-12 and self.min_eig < -1e-9


def check_counterexample() -> CounterexampleReport:
    """Build the prior flipped-sign operator on the four-vertex instance.

    The operator matches the fixed reference matrix exactly and has a
    strictly negative eigenvalue, so it is not positive semidefinite.
    """
    H = counterexample_hypergraph()
    sheaf = build_fixed_sheaf(H, SheafConfig(q=0.0, d=1, map_shape="trivial"))
    M = reference_laplacian("duta_linear", hypergraph=H, sheaf=sheaf)
    deviation = float(np.max(np.abs(M - COUNTEREXAMPLE_MATRIX)))
    eigs = hermitian_eigenvalues(M)
    return CounterexampleReport(M, deviation, eigs, float(eigs[0]))


def flipped_sign_psd_failures(trials: int = 100, seed: int = 0) -> tuple[int, int]:
    """Count PSD failures of the prior operator on random covered instances.

    Returns ``(failures, trials)``.  The failure count is positive in general
    but zero when instances are restricted to the 2-uniform undirected case.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(trials):
        H = random_hypergraph(rng, (4, 10), (2, 8), 0.0)
        sheaf = build_fixed_sheaf(
            H, SheafConfig(q=0.0, d=1, map_shape="trivial"), rng_seed=int(rng.integers(2**31))
        )
        M = reference_laplacian("duta_linear", hypergraph=H, sheaf=sheaf)
        if hermitian_eigenvalues(M)[0] < -1e-8:
            failures += 1
    return failures, trials


def run_all_theorem_checks(trials: int = 50, seed: int = 0) -> list[TheoremResult]:
    if trials <= 0:
        return []
    return [
        check_sheaf_graph_reduction(trials, seed),
        check_magnetic_reduction(trials, seed + 1),
        check_zhou_reduction(trials, seed + 2),
        check_gedi_reduction(trials, seed + 3),
    ]
