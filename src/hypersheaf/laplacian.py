"""Assembly of the complex Hermitian hypergraph Laplacian and its signless form.

Every incidence ``k = (u, e)`` carries one complex ``d x d`` factor block

    Z_k = delta_e^{-1/2} S_k F_k [D_u^{-1/2}]

(``S_k`` the directional phase, ``D_u = sum_e F^T F`` the real degree block,
the bracketed root only in the normalized case).  Stacked, the blocks form
the factor ``Z`` of the signless operator, and

    L   = D_V - Z^dagger Z     (unnormalized)
    L_N = I - Z^dagger Z       (normalized)

``Z`` is the operator's only stored form.  :class:`IncidenceStructure` fixes
the canonical incidence order once per hypergraph; :func:`signless_apply` is
the one vectorised ``Z^dagger Z`` kernel and :func:`dense_factor` the one
dense export of ``Z``.  ``LaplacianBundle.L`` assembles the block-sparse
``L`` from conjugate products of ``Z`` when first read, so it is Hermitian
to rounding error by construction.  Hyperedges carry unit weight, the
only weight the spectral guarantees cover (see :mod:`.hypergraph`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .autodiff import SegmentPlan
from .blockmatrix import BlockComplexMatrix
from .hypergraph import DirectedHypergraph
from .jacobi import jacobi_eigh
from .sheaf import SheafAssignment, tail_coefficient

__all__ = [
    "NodeSignal",
    "IncidenceStructure",
    "LaplacianBundle",
    "incidence_maps",
    "signless_apply",
    "factor_apply",
    "factor_adjoint_apply",
    "dense_factor",
    "build_incidence",
    "build_degree_matrices",
    "build_laplacian",
    "apply_laplacian",
    "entrywise_block",
    "format_dense_matrix",
    "parse_dense_matrix",
]

# A node signal is a complex array of shape (n*d,) or (n*d, f).
NodeSignal = np.ndarray

DEGREE_JITTER = 1e-8
# Off-diagonal stopping tolerance of the Jacobi solve behind D_V^{-1/2}.  Its
# error in the inverse square root grows like tol * cond(D_u), so the
# solver's looser default (1e-12) would cost up to 1e-8 relative at
# cond 1e4; one more quadratically converging sweep brings it to rounding.
INV_SQRT_TOL = 1e-14


@dataclass
class IncidenceStructure:
    """Canonical incidence order of one hypergraph (edge by edge, tails before
    heads) with the index plans that every factor-based path shares."""

    n: int
    m: int
    inc_node: np.ndarray
    inc_edge: np.ndarray
    inc_is_tail: np.ndarray
    delta: np.ndarray
    node_plan: SegmentPlan
    edge_plan: SegmentPlan

    @classmethod
    def build(cls, H: DirectedHypergraph) -> "IncidenceStructure":
        nodes, edges, tails = [], [], []
        for u, e, role in H.incidences():
            nodes.append(u)
            edges.append(e)
            tails.append(role == "tail")
        inc_node = np.asarray(nodes, dtype=np.int64)
        inc_edge = np.asarray(edges, dtype=np.int64)
        return cls(
            n=H.num_vertices,
            m=H.num_hyperedges,
            inc_node=inc_node,
            inc_edge=inc_edge,
            inc_is_tail=np.asarray(tails, dtype=bool),
            delta=np.array([float(e.degree) for e in H.hyperedges]),
            node_plan=SegmentPlan.build(inc_node, H.num_vertices),
            edge_plan=SegmentPlan.build(inc_edge, H.num_hyperedges),
        )

    def phases(self, q: float) -> np.ndarray:
        """Per-incidence directional coefficient ``S_k`` (complex, unit modulus)."""
        return np.where(self.inc_is_tail, tail_coefficient(q), 1.0 + 0.0j)


def incidence_maps(structure: IncidenceStructure, A: SheafAssignment) -> np.ndarray:
    """``A``'s real restriction maps as an ``(I, d, d)`` array in canonical order."""
    keys = list(zip(structure.inc_node.tolist(), structure.inc_edge.tolist()))
    A.check_roles(dict(zip(keys, np.where(structure.inc_is_tail, "tail", "head").tolist())))
    d = A.config.d
    return np.asarray([A.maps[k] for k in keys], dtype=float).reshape(-1, d, d)


def _block_apply(Z: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Per-incidence ``Z_k X_k``; ``Z`` ``(I, d)`` holds diagonal blocks."""
    return Z[:, :, None] * X if Z.ndim == 2 else Z @ X


def factor_apply(structure: IncidenceStructure, Z: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The edge half ``Z X`` ``(m, d, f)`` of :func:`signless_apply`."""
    return structure.edge_plan.apply(_block_apply(Z, X[structure.inc_node]))


def factor_adjoint_apply(structure: IncidenceStructure, Z: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The node half ``Z^dagger Y`` ``(n, d, f)`` of :func:`signless_apply`."""
    Zh = np.conj(Z) if Z.ndim == 2 else np.conj(np.swapaxes(Z, 1, 2))
    return structure.node_plan.apply(_block_apply(Zh, Y[structure.inc_edge]))


def signless_apply(structure: IncidenceStructure, Z: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``Z^dagger Z X`` for factor blocks ``Z`` and a signal ``X`` ``(n, d, f)``.

    ``Z`` is ``(I, d, d)``, or ``(I, d)`` for diagonal blocks, which are then
    applied elementwise.  Gather, per-incidence ``Z``, edge segment-sum,
    gather, per-incidence ``Z^H``, node segment-sum.
    """
    return factor_adjoint_apply(structure, Z, factor_apply(structure, Z, X))


def dense_factor(structure: IncidenceStructure, Z: np.ndarray) -> np.ndarray:
    """``Z`` as a dense ``(m d) x (n d)`` matrix; every ``(e, u)`` pair occurs once."""
    d = Z.shape[1]
    out = np.zeros((structure.m, d, structure.n, d), dtype=complex)
    out[structure.inc_edge, :, structure.inc_node, :] = Z
    return out.reshape(structure.m * d, structure.n * d)


def _degree_blocks(structure: IncidenceStructure, F: np.ndarray) -> np.ndarray:
    return structure.node_plan.apply(np.swapaxes(F, 1, 2) @ F)


def build_incidence(H: DirectedHypergraph, A: SheafAssignment) -> BlockComplexMatrix:
    """Block incidence matrix: block ``(e, u)`` is ``S * F`` for each incidence."""
    structure = IncidenceStructure.build(H)
    blocks = structure.phases(A.config.q)[:, None, None] * incidence_maps(structure, A)
    items = zip(structure.inc_edge.tolist(), structure.inc_node.tolist(), blocks)
    return BlockComplexMatrix(structure.m, structure.n, A.config.d, items)


def build_degree_matrices(
    H: DirectedHypergraph, A: SheafAssignment
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(D_V, D_E)``: per-vertex real degree blocks and hyperedge degrees.

    ``D_u = sum_{e : u in e} F^T F`` is real because the unit-modulus
    directional phases cancel in the conjugate product.
    """
    structure = IncidenceStructure.build(H)
    return _degree_blocks(structure, incidence_maps(structure, A)), structure.delta


def _spd_inverse_sqrt(
    D_V: np.ndarray, map_shape: str, *, strict: bool, jitter: float
) -> np.ndarray:
    """Inverse square roots of the symmetric PSD degree blocks.

    Diagonal and trivial sheaves use element-wise roots; full maps go through
    a symmetric eigendecomposition.  In strict mode a singular block raises
    with the vertex index; otherwise ``jitter`` is added to every diagonal
    before inversion.
    """
    n, d, _ = D_V.shape
    out = np.zeros_like(D_V)
    for u in range(n):
        block = D_V[u]
        if not strict:
            block = block + jitter * np.eye(d)
        if map_shape in ("trivial", "diagonal"):
            diag = np.diag(block).copy()
            if strict and np.any(diag <= 0.0):
                raise ValueError(
                    f"degree block of vertex {u} is singular; enable jitter or fix the instance"
                )
            out[u] = np.diag(1.0 / np.sqrt(diag))
        else:
            w, V = jacobi_eigh(block, compute_vectors=True, tol=INV_SQRT_TOL)
            if strict and np.any(w <= 0.0):
                raise ValueError(
                    f"degree block of vertex {u} is singular; enable jitter or fix the instance"
                )
            out[u] = (V / np.sqrt(w)) @ V.T
    return out


@dataclass
class LaplacianBundle:
    """The Laplacian kept as its factor ``Z``; ``L`` is assembled on first access only."""

    hypergraph: DirectedHypergraph
    sheaf: SheafAssignment
    structure: IncidenceStructure
    Z: np.ndarray
    D_V: np.ndarray
    normalized: bool
    dv_inv_sqrt: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.structure.n

    @property
    def d(self) -> int:
        return self.sheaf.config.d

    @functools.cached_property
    def L(self) -> BlockComplexMatrix:
        """Block-sparse ``diag - Z^dagger Z``, assembled on first access.

        Block ``(u, v)`` sums ``conj(Z_k)^T Z_l`` over every ordered pair of
        incidences ``k = (u, e)``, ``l = (v, e)`` of one hyperedge; canonical
        order keeps those of ``e`` contiguous from ``edge_plan.starts``.
        """
        s, n, d = self.structure, self.n, self.d
        first = s.edge_plan.starts[s.inc_edge]
        size = np.diff(s.edge_plan.starts, append=len(s.inc_edge))[s.inc_edge]
        left = np.repeat(np.arange(len(size)), size)
        right = np.arange(len(left)) + np.repeat(first - np.cumsum(size) + size, size)
        blocks = -(np.conj(np.swapaxes(self.Z[left], 1, 2)) @ self.Z[right])
        diag = np.broadcast_to(np.eye(d), (n, d, d)) if self.normalized else self.D_V
        pairs = zip(s.inc_node[left].tolist(), s.inc_node[right].tolist(), blocks)
        return BlockComplexMatrix(n, n, d, [*pairs, *zip(range(n), range(n), diag)])


def build_laplacian(
    H: DirectedHypergraph,
    A: SheafAssignment,
    normalized: bool = False,
    *,
    strict: bool = True,
    jitter: float = DEGREE_JITTER,
) -> LaplacianBundle:
    """Factor ``L = D_V - Z^dagger Z`` or its normalized form ``L_N = I - Z^dagger Z``."""
    structure = IncidenceStructure.build(H)
    F = incidence_maps(structure, A)
    D_V = _degree_blocks(structure, F)

    scale = structure.phases(A.config.q) / np.sqrt(structure.delta[structure.inc_edge])
    Z = scale[:, None, None] * F
    dv_inv_sqrt = None
    if normalized:
        dv_inv_sqrt = _spd_inverse_sqrt(D_V, A.config.map_shape, strict=strict, jitter=jitter)
        Z = Z @ dv_inv_sqrt[structure.inc_node]
    return LaplacianBundle(H, A, structure, Z, D_V, normalized, dv_inv_sqrt)


def apply_laplacian(bundle: LaplacianBundle, x: NodeSignal) -> NodeSignal:
    """Matrix-free ``L x = D_V x - Z^dagger Z x`` (``x - Z^dagger Z x`` when normalized).

    Never assembles ``bundle.L``: the factor goes through
    :func:`signless_apply`.
    """
    n, d = bundle.n, bundle.d
    arr = np.asarray(x, dtype=complex)
    flat_input = arr.ndim == 1
    if flat_input:
        arr = arr[:, None]
    if arr.shape[0] != n * d:
        raise ValueError(f"signal has {arr.shape[0]} rows, expected {n * d}")
    xs = arr.reshape(n, d, -1)
    diag = xs if bundle.normalized else bundle.D_V @ xs
    result = (diag - signless_apply(bundle.structure, bundle.Z, xs)).reshape(n * d, -1)
    return result[:, 0] if flat_input else result


def entrywise_block(
    H: DirectedHypergraph, A: SheafAssignment, u: int, v: int
) -> np.ndarray:
    """One ``d x d`` block of the unnormalized Laplacian, evaluated entry-wise.

    Independent of the product-form assembly: the diagonal branch sums
    ``(1 - 1/delta_e) F^T F`` and the off-diagonal branch sums the phased
    ``-(1/delta_e) conj(S_u) S_v F_u^T F_v`` over shared hyperedges.
    """
    for w in (u, v):
        if not (0 <= w < H.num_vertices):
            raise ValueError(f"vertex {w} out of range")
    d = A.config.d
    block = np.zeros((d, d), dtype=complex)
    for j, e in enumerate(H.hyperedges):
        members = e.members
        if u == v:
            if u not in members:
                continue
            F = A.map_for(u, j)
            block += (1.0 - 1.0 / e.degree) * (F.T @ F)
        else:
            if u not in members or v not in members:
                continue
            phase = np.conj(A.coefficient(u, j)) * A.coefficient(v, j)
            block -= (phase / e.degree) * (A.map_for(u, j).T @ A.map_for(v, j))
    return block


# --- dense text export -------------------------------------------------------


def format_dense_matrix(M: np.ndarray) -> str:
    """One row per line, entries as ``re+imj`` tokens, for diffing against oracles."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    lines = []
    for row in M:
        lines.append(" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row))
    return "\n".join(lines) + "\n"


def parse_dense_matrix(text: str) -> np.ndarray:
    rows = []
    for ln in text.splitlines():
        if ln.strip():
            rows.append([complex(tok) for tok in ln.split()])
    return np.asarray(rows, dtype=complex)
