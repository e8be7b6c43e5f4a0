"""Assembly of the complex Hermitian hypergraph Laplacian and its signless form.

Every incidence ``k = (u, e)`` carries one complex ``d x d`` factor block

    Z_k = w_k M_k,   w_k = S_k delta_e^{-1/2},   M_k = F_k [D_u^{-1/2}]

(``S_k`` the unit-modulus directional phase, ``F_k`` the real restriction
map, ``D_u = sum_e F^T F`` the real degree block, the bracketed root only in
the normalized case, shared with the model in :func:`_spd_inverse_sqrt`).
Stacked, the blocks form the factor ``Z``, and

    L   = D_V - Z^dagger Z     (unnormalized)
    L_N = I - Z^dagger Z       (normalized)

The operator is stored as its real blocks ``M`` alone; the scalar weights
``w`` come from :meth:`IncidenceStructure.weights`.  :class:`IncidenceStructure`
fixes the canonical incidence order once per hypergraph, and
:func:`signless_apply` is the one vectorised ``Z^dagger Z`` kernel: full
blocks run as real batched products on the float view of the signal, scaled
by ``w`` per incidence.  The complex ``Z`` is formed only by
:func:`_factor_blocks`, for the dense export :func:`dense_factor` and for
``LaplacianBundle.L``, which assembles the block-sparse ``L`` from
conjugate products of ``Z`` when first read, so it is Hermitian to rounding
error by construction.  Hyperedges carry unit weight, the only weight the
spectral guarantees cover (see :mod:`.hypergraph`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .autodiff import SegmentPlan, _product
from .blockmatrix import BlockComplexMatrix
from .hypergraph import DirectedHypergraph
# read as laplacian.jacobi_eigh by perfbench/tests/test_smoke.py::test_tracer_wraps_every_lookup_and_restores_it
from .jacobi import jacobi_eigh  # noqa: F401
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

DEGREE_EPS = 1e-8  # degree-block jitter that keeps an isolated vertex's root finite


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

    def weights(self, q: float) -> np.ndarray:
        """Per-incidence complex weight ``w_k = S_k delta_e^{-1/2}``, so ``Z_k = w_k M_k``."""
        return self.phases(q) / np.sqrt(self.delta[self.inc_edge])


def incidence_maps(structure: IncidenceStructure, A: SheafAssignment) -> np.ndarray:
    """``A``'s real restriction maps as an ``(I, d, d)`` array in canonical order."""
    keys = list(zip(structure.inc_node.tolist(), structure.inc_edge.tolist()))
    A.check_roles(dict(zip(keys, np.where(structure.inc_is_tail, "tail", "head").tolist())))
    d = A.config.d
    return np.asarray([A.maps[k] for k in keys], dtype=float).reshape(-1, d, d)


def _block_apply(w: np.ndarray, M: np.ndarray, X: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Per-incidence ``w_k M_k X_k``, or ``conj(w_k) M_k^T X_k`` when ``adjoint``.

    Diagonal blocks ``(I, d)`` apply ``w M`` elementwise.  Full blocks run one
    real batched product (on the float view of a complex ``X``), then scale
    by ``w``.
    """
    if M.ndim == 2:
        Z = w[:, None] * M
        return (np.conj(Z) if adjoint else Z)[:, :, None] * X
    if adjoint:
        w, M = np.conj(w), np.swapaxes(M, 1, 2)
    out = _product(M, X)
    if out.dtype.kind != "c":
        return w[:, None, None] * out
    out *= w[:, None, None]  # in place: no second signal-sized temporary
    return out


def _factor_blocks(w: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The complex factor blocks ``Z_k = w_k M_k`` ``(I, d, d)``; diagonal ``M`` is expanded."""
    if M.ndim == 2:
        return (w[:, None] * M)[:, :, None] * np.eye(M.shape[1])
    return w[:, None, None] * M


def factor_apply(
    structure: IncidenceStructure, w: np.ndarray, M: np.ndarray, X: np.ndarray
) -> np.ndarray:
    """The edge half ``Z X`` ``(m, d, f)`` of :func:`signless_apply`."""
    return structure.edge_plan.apply(_block_apply(w, M, X[structure.inc_node]))


def factor_adjoint_apply(
    structure: IncidenceStructure, w: np.ndarray, M: np.ndarray, Y: np.ndarray
) -> np.ndarray:
    """The node half ``Z^dagger Y`` ``(n, d, f)`` of :func:`signless_apply`."""
    return structure.node_plan.apply(_block_apply(w, M, Y[structure.inc_edge], adjoint=True))


def signless_apply(
    structure: IncidenceStructure, w: np.ndarray, M: np.ndarray, X: np.ndarray
) -> np.ndarray:
    """``Z^dagger Z X`` for factor blocks ``Z_k = w_k M_k`` and a signal ``X`` ``(n, d, f)``.

    ``w`` is the ``(I,)`` complex weight of :meth:`IncidenceStructure.weights`;
    ``M`` is real, ``(I, d, d)``, or ``(I, d)`` for diagonal blocks.  ``X`` is
    real or complex.  Gather, per-incidence ``Z``, edge segment-sum, gather,
    per-incidence ``Z^H``, node segment-sum.
    """
    return factor_adjoint_apply(structure, w, M, factor_apply(structure, w, M, X))


def dense_factor(structure: IncidenceStructure, w: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``Z`` as a dense ``(m d) x (n d)`` matrix; every ``(e, u)`` pair occurs once."""
    d = M.shape[1]
    out = np.zeros((structure.m, d, structure.n, d), dtype=complex)
    out[structure.inc_edge, :, structure.inc_node, :] = _factor_blocks(w, M)
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


def _spd_inverse_sqrt(D: np.ndarray, *, jitter: float = 0.0) -> tuple[np.ndarray, ...]:
    """Inverse square roots ``V diag(w^{-1/2}) V^T`` of symmetric PSD blocks ``(n, d, d)``.

    One batched ``eigh`` of ``D + jitter I = V diag(w) V^T``; returns the roots,
    ``w`` and ``V``.  A block with ``w <= 0`` (at ``jitter == 0``, a singular
    one) raises, naming the lowest such vertex.
    """
    w, V = np.linalg.eigh(D + jitter * np.eye(D.shape[-1]))
    singular = np.flatnonzero(np.any(w <= 0.0, axis=1))
    if singular.size:
        raise ValueError(
            f"degree block of vertex {singular[0]} is singular; enable jitter or fix the instance"
        )
    return (V / np.sqrt(w)[:, None, :]) @ np.swapaxes(V, 1, 2), w, V


@dataclass
class LaplacianBundle:
    """The Laplacian kept as the real factor blocks ``M`` of ``Z = w M``; ``L`` is
    assembled on first access only."""

    hypergraph: DirectedHypergraph
    sheaf: SheafAssignment
    structure: IncidenceStructure
    M: np.ndarray
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
    def w(self) -> np.ndarray:
        """Per-incidence complex weights of the factor, ``Z_k = w_k M_k``."""
        return self.structure.weights(self.sheaf.config.q)

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
        Z = _factor_blocks(self.w, self.M)
        blocks = -(np.conj(np.swapaxes(Z[left], 1, 2)) @ Z[right])
        diag = np.broadcast_to(np.eye(d), (n, d, d)) if self.normalized else self.D_V
        pairs = zip(s.inc_node[left].tolist(), s.inc_node[right].tolist(), blocks)
        return BlockComplexMatrix(n, n, d, [*pairs, *zip(range(n), range(n), diag)])


def build_laplacian(
    H: DirectedHypergraph,
    A: SheafAssignment,
    normalized: bool = False,
    *,
    jitter: float = 0.0,
) -> LaplacianBundle:
    """Factor ``L = D_V - Z^dagger Z`` or its normalized form ``L_N = I - Z^dagger Z``.

    ``jitter >= 0`` is added to every degree block before its inverse root."""
    if not (np.isfinite(jitter) and jitter >= 0.0):
        raise ValueError(f"jitter must be finite and non-negative, got {jitter}")
    structure = IncidenceStructure.build(H)
    F = incidence_maps(structure, A)
    D_V = _degree_blocks(structure, F)

    M, dv_inv_sqrt = F, None
    if normalized:
        dv_inv_sqrt = _spd_inverse_sqrt(D_V, jitter=jitter)[0]
        M = F @ dv_inv_sqrt[structure.inc_node]
    return LaplacianBundle(H, A, structure, M, D_V, normalized, dv_inv_sqrt)


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
    result = (diag - signless_apply(bundle.structure, bundle.w, bundle.M, xs)).reshape(n * d, -1)
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
