"""Assembly of the complex Hermitian hypergraph Laplacian and its signless form.

Every incidence ``k = (u, e)`` carries one complex ``d x d`` factor block

    Z_k = w_k M_k,   w_k = S_k delta_e^{-1/2},   M_k = F_k [D_u^{-1/2}]

(``S_k`` the unit-modulus directional phase, ``F_k`` the real restriction
map, ``D_u = sum_e F^T F`` the real degree block, the bracketed root only in
the normalized case, shared with the model in :func:`_spd_inverse_sqrt`).
Stacked, the blocks form the factor ``Z``, and

    L   = D_V - Z^dagger Z     (unnormalized)
    L_N = I - Z^dagger Z       (normalized)

The operator is stored as its real blocks ``M`` alone, in the order of the
hypergraph's :class:`~.sheaf.IncidenceStructure`, which a sheaf built on it
holds, and the charge ``q``.  :class:`Factor` is the one vectorised
``Z^dagger Z`` kernel, prepared once per operator: ``delta_e^{-1/2}`` is
folded into the real blocks, the tail phase rides on the signal, and the
``(I, d, d)`` blocks run as one real product per run of equal-length
hyperedges or vertices on the float view of the signal, each segment's
blocks side by side, so ``w`` is never formed per incidence.  The complex ``Z`` is formed only
by :attr:`Factor.blocks`, for the dense export :meth:`LaplacianBundle.dense`
and the block-sparse ``LaplacianBundle.L``; both sum ``conj(Z_k)^T Z_l``
over the pairs of incidences of each hyperedge, so they are Hermitian to
rounding error by construction.  Hyperedges carry unit weight, the only
weight the spectral guarantees cover (see :mod:`.hypergraph`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .autodiff import SegmentPlan, _float_view
from .blockmatrix import BlockComplexMatrix, _check_dense_cap
from .hypergraph import DirectedHypergraph
# read as laplacian.jacobi_eigh by perfbench/tests/test_smoke.py::test_tracer_wraps_every_lookup_and_restores_it
from .jacobi import jacobi_eigh  # noqa: F401
from .sheaf import IncidenceStructure, SheafAssignment, tail_coefficient

__all__ = [
    "NodeSignal",
    "LaplacianBundle",
    "Factor",
    "incidence_maps",
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


def incidence_maps(structure: IncidenceStructure, A: SheafAssignment) -> np.ndarray:
    """``A.maps`` as stored, once ``A`` is checked to cover exactly the incidences of
    ``structure`` in their roles: ``A`` is built over that structure, or over an equal one."""
    if A.structure is not structure:
        _check_same_incidences(A.structure, structure)
    return A.maps


def _check_same_incidences(sheaf: IncidenceStructure, hypergraph: IncidenceStructure) -> None:
    arrays = [(s.inc_node, s.inc_edge, s.inc_is_tail) for s in (sheaf, hypergraph)]
    if all(np.array_equal(a, b) for a, b in zip(*arrays)):  # both in canonical order: the same incidences
        return
    ours, theirs = ({(u, e): t for u, e, t in zip(*(a.tolist() for a in s))} for s in arrays)
    if ours.keys() != theirs.keys() or len(sheaf.inc_node) != len(hypergraph.inc_node):
        extra, missing = sorted(ours.keys() - theirs.keys()), sorted(theirs.keys() - ours.keys())
        raise ValueError(f"sheaf/hypergraph incidence mismatch: missing={missing[:4]} extra={extra[:4]}")
    key = next(k for k, tail in theirs.items() if ours[k] != tail)
    role = ("head", "tail")
    raise ValueError(f"incidence {key} stored as {role[ours[key]]}, hypergraph says {role[theirs[key]]}")


class Factor:
    """The factor ``Z``, ``Z_k = w_k M_k``, ``w_k = S_k delta_e^{-1/2}``, prepared once for repeated products.

    ``M`` ``(I, d, d)`` is kept in canonical order as passed (any other shape raises
    ``ValueError``), and ``delta_e^{-1/2}`` is folded into the prepared blocks.  No per-incidence
    product is formed: a hyperedge's (edge half) or a vertex's (node half) ``L`` blocks lie side
    by side as one real ``d x (L d)`` matrix, and one ``np.matmul`` per run of equal-length
    segments multiplies it with the segment's stacked signal rows on the float view.  The phase
    ``phi = tail_coefficient(q)`` rides on the signal: the edge half reads its rows from
    ``[X; phi X]`` and the node half from ``[Y; conj(phi) Y]``, tails from the phased half, so
    tails and heads sum inside one product, and each run gathers its own rows just before it.
    """

    def __init__(self, structure: IncidenceStructure, q: float, M: np.ndarray):
        num_inc = len(structure.inc_node)
        if M.shape != (num_inc,) + M.shape[-1:] * 2:
            raise ValueError(f"factor blocks M must have shape ({num_inc}, d, d), got {M.shape}")
        self.structure, self.q, self.M = structure, q, M
        self.phase = tail_coefficient(q)
        scaled = M / np.sqrt(structure.delta)[structure.inc_edge, None, None]
        # each segment's delta_e^{-1/2} M_k^T (edge half) or delta_e^{-1/2} M_k (node half) stacked;
        # take writes a C-order stack, so that the run views share its memory
        edge, node = structure.edge_plan, structure.node_plan
        self._edge = _run_views(np.swapaxes(scaled, 1, 2).take(edge.major, axis=0), edge, structure.edge_gather)
        self._node = _run_views(scaled.take(node.major, axis=0), node, structure.node_gather)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """``Z X`` ``(m, d, f)`` for a real or complex signal ``X`` ``(n, d, f)``."""
        s = self.structure
        return _run_products(self._edge, _phased(X, self.phase), s.m, s.edge_plan.rank)

    def block_gradient(self, Y: np.ndarray, X: np.ndarray) -> np.ndarray:
        """``Re(conj(w_k) Y_{e_k} X_{u_k}^H)`` ``(I, d, d)``, the gradient of ``Re <Y, Z X>`` in ``M``,
        for ``Y`` ``(m, d, f)`` and ``X`` ``(n, d, f)``.  That is ``delta_e^{-1/2} Re(Y_e (S_k X_u)^H)``,
        so per run of ``edge_plan`` one real product multiplies each segment's rows, gathered from
        ``[X; phi X]`` as :meth:`apply` gathers them, with its scaled ``Y_e`` on the float views."""
        s, d = self.structure, self.M.shape[-1]
        v = _float_view(_phased(X, self.phase))
        P = np.empty_like(Y, dtype=complex)  # delta_e^{-1/2} Y_e, segments in run order
        P[s.edge_plan.rank] = Y / np.sqrt(s.delta)[:, None, None]
        P = _float_view(P)
        out = np.empty((len(s.inc_node), d, d))  # (S_k X_{u_k}) (delta_e^{-1/2} Y_e)^H per row, transposed
        for lo, hi, first, end in s.edge_plan.runs:
            rows = v.take(s.edge_gather[first:end], axis=0)
            rows = rows.reshape(hi - lo, (end - first) // (hi - lo) * d, v.shape[-1])
            np.matmul(rows, np.swapaxes(P[lo:hi], 1, 2), out=out[first:end].reshape(rows.shape[:2] + (d,)))
        return np.swapaxes(out.take(s.edge_row, axis=0), 1, 2)

    def adjoint(self, Y: np.ndarray) -> np.ndarray:
        """``Z^dagger Y`` ``(n, d, f)`` for ``Y`` ``(m, d, f)``."""
        s = self.structure
        return _run_products(self._node, _phased(Y, np.conj(self.phase)), s.n, s.node_plan.rank)

    def gram(self, X: np.ndarray) -> np.ndarray:
        """``Z^dagger Z X``: the signless operator applied to ``X`` ``(n, d, f)``."""
        return self.adjoint(self.apply(X))

    @property
    def blocks(self) -> np.ndarray:
        """The complex blocks ``Z_k = w_k M_k`` ``(I, d, d)``, ``w`` from ``structure.weights(q)``."""
        return self.structure.weights(self.q)[:, None, None] * self.M


def _phased(v: np.ndarray, phase: complex) -> np.ndarray:
    """The complex stack ``[v; phase v]`` ``(2 r, ...)`` of ``v`` ``(r, ...)``: row ``r + i`` is
    ``phase v_i``, the row that a tail incidence reads."""
    out = np.empty((2 * len(v),) + v.shape[1:], dtype=np.result_type(v, phase))
    out[: len(v)] = v
    np.multiply(v, phase, out=out[len(v):])
    return out


def _run_views(stacked: np.ndarray, plan: SegmentPlan, gather: np.ndarray) -> tuple:
    """Per run of ``plan``, its segments ``lo:hi``, the rows of the signal stack that it reads
    (its slice of ``gather``) and its segments' blocks side by side as a ``(segments, d, L d)``
    view of ``stacked`` ``(I, d, d)`` (rows in ``plan.major`` order), each matrix the transpose of
    its segment's ``L d x d`` stack: no copy."""
    d = stacked.shape[-1]
    return tuple(
        (lo, hi, gather[first:end], stacked[first:end].reshape(hi - lo, (end - first) // (hi - lo) * d, d).swapaxes(1, 2))
        for lo, hi, first, end in plan.runs
    )


def _run_products(runs: tuple, stack: np.ndarray, num_segments: int, rank: np.ndarray) -> np.ndarray:
    """Segment sums of ``blocks_k stack[gather_k]`` over the :func:`_run_views` ``runs``, read out
    in ``rank`` order: per run, the rows it reads are gathered from the float view of the complex
    ``stack`` and multiplied with the side-by-side blocks in one real product, so each sum is
    formed inside its product and no gather spans the whole signal."""
    v = _float_view(stack)
    out = np.empty((num_segments,) + v.shape[1:])
    for lo, hi, index, blocks in runs:
        np.matmul(blocks, v.take(index, axis=0).reshape(hi - lo, blocks.shape[-1], v.shape[-1]), out=out[lo:hi])
    return out[rank].view(complex)


def _degree_blocks(structure: IncidenceStructure, F: np.ndarray) -> np.ndarray:
    # a contiguous F^T keeps the stacked product off numpy's strided loop; the values are the same
    return structure.node_plan.apply(np.ascontiguousarray(np.swapaxes(F, 1, 2)) @ F)


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
    """The Laplacian kept as the real factor blocks ``M`` of ``Z = w M``; :meth:`dense`
    exports it, and the block-sparse ``L`` is assembled on first access only."""

    sheaf: SheafAssignment
    structure: IncidenceStructure
    M: np.ndarray
    D_V: np.ndarray
    normalized: bool
    dv_inv_sqrt: np.ndarray | None = None
    dv_eigenvalues: np.ndarray | None = None  # ascending, per block of D_V + jitter I, when normalized

    @property
    def n(self) -> int:
        return self.structure.n

    @property
    def d(self) -> int:
        return self.sheaf.config.d

    @functools.cached_property
    def factor(self) -> Factor:
        """The prepared factor ``Z_k = w_k M_k`` at the sheaf's ``q``."""
        return Factor(self.structure, self.sheaf.config.q, self.M)

    @functools.cached_property
    def L(self) -> BlockComplexMatrix:
        """Block-sparse ``diag - Z^dagger Z``, assembled on first access; block ``(u, v)``
        sums ``conj(Z_k)^T Z_l`` over the pairs ``structure.edge_pairs`` with ``k = (u, e)``,
        ``l = (v, e)``.  Kept for the benchmark's block checks; :meth:`dense` exports."""
        s, n, d = self.structure, self.n, self.d
        left, right = s.edge_pairs
        Z = self.factor.blocks
        blocks = -(np.conj(np.swapaxes(Z[left], 1, 2)) @ Z[right])
        diag = np.broadcast_to(np.eye(d), (n, d, d)) if self.normalized else self.D_V
        pairs = zip(s.inc_node[left].tolist(), s.inc_node[right].tolist(), blocks)
        return BlockComplexMatrix(n, n, d, [*pairs, *zip(range(n), range(n), diag)])

    def dense(self) -> np.ndarray:
        """``diag - Z^dagger Z`` as a dense ``(n d) x (n d)`` matrix, from the pair blocks of
        :attr:`L` without its dict: one stable sort by ``(u, v)`` and one ``reduceat`` sum
        the pairs that share a block.  The cap is checked before any work."""
        s, n, d = self.structure, self.n, self.d
        _check_dense_cap(n * d, n * d)
        left, right = s.edge_pairs
        key = s.inc_node[left] * n + s.inc_node[right]
        order = key.argsort(kind="stable")
        key, left, right = key[order], left[order], right[order]
        first = np.empty(len(key), dtype=bool)  # the first pair of each block; cheaper than np.diff
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        starts = first.nonzero()[0]
        Z, out = self.factor.blocks, np.zeros((n, d, n, d), dtype=complex)
        sums = np.add.reduceat(np.conj(np.swapaxes(Z[left], 1, 2)) @ Z[right], starts)
        out[key[starts] // n, :, key[starts] % n, :] = -sums
        out[np.arange(n), :, np.arange(n), :] += np.eye(d) if self.normalized else self.D_V
        return out.reshape(n * d, n * d)


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

    M, dv_inv_sqrt, dv_eigenvalues = F, None, None
    if normalized:
        dv_inv_sqrt, dv_eigenvalues, _ = _spd_inverse_sqrt(D_V, jitter=jitter)
        M = F @ dv_inv_sqrt[structure.inc_node]
    return LaplacianBundle(A, structure, M, D_V, normalized, dv_inv_sqrt, dv_eigenvalues)


def apply_laplacian(bundle: LaplacianBundle, x: NodeSignal) -> NodeSignal:
    """Matrix-free ``L x = D_V x - Z^dagger Z x`` (``x - Z^dagger Z x`` when normalized).

    Never assembles the operator: the product goes through ``bundle.factor``.
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
    result = (diag - bundle.factor.gram(xs)).reshape(n * d, -1)
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
