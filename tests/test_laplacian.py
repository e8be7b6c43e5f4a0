import gc
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersheaf import laplacian, sheaf
from hypersheaf.autodiff import Tape
from hypersheaf.blockmatrix import DENSE_EXPORT_CAP, BlockComplexMatrix
from hypersheaf.data import SyntheticConfig, generate_synthetic
from hypersheaf.hypergraph import DirectedHypergraph, Hyperedge
from hypersheaf.laplacian import (
    DEGREE_EPS,
    Factor,
    _degree_blocks,
    _spd_inverse_sqrt,
    apply_laplacian,
    build_degree_matrices,
    build_incidence,
    build_laplacian,
    entrywise_block,
    format_dense_matrix,
    parse_dense_matrix,
)
from hypersheaf.model import _diagonal_blocks
from hypersheaf.sheaf import IncidenceStructure, SheafAssignment, SheafConfig, build_fixed_sheaf, directional_coefficient
from hypersheaf.spectral import random_hypergraph, random_instance
from hypersheaf.theorems import counterexample_hypergraph


def dense_laplacian_oracle(H, A, normalized=False):
    """Brute-force dense assembly straight from the defining product.

    Builds the full incidence matrix entry by entry with explicit phase
    coefficients, then forms ``D_V - B^dagger D_E^{-1} B`` (or the
    normalized variant) with plain dense algebra.  Shares no code with the
    block assembly it checks.
    """
    n, m, d = H.num_vertices, H.num_hyperedges, A.config.d
    B = np.zeros((m * d, n * d), dtype=complex)
    for j, e in enumerate(H.hyperedges):
        for u in e.members:
            coeff = directional_coefficient(H, u, j, A.config.q)
            B[j * d : (j + 1) * d, u * d : (u + 1) * d] = coeff * A.map_for(u, j)
    D_E = np.kron(np.diag([1.0 / e.degree for e in H.hyperedges]), np.eye(d))
    D_V = np.zeros((n * d, n * d))
    for j, e in enumerate(H.hyperedges):
        for u in e.members:
            F = A.map_for(u, j)
            D_V[u * d : (u + 1) * d, u * d : (u + 1) * d] += F.T @ F
    Q = B.conj().T @ D_E @ B
    if not normalized:
        return D_V - Q
    w, V = np.linalg.eigh(D_V)
    Dinv = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
    return np.eye(n * d) - Dinv @ Q @ Dinv


def appendix_instance(d=1, q=0.0, shape="trivial", seed=0):
    H = counterexample_hypergraph()
    A = build_fixed_sheaf(H, SheafConfig(q=q, d=d, map_shape=shape), rng_seed=seed)
    return H, A


def test_incidence_reduces_to_binary_at_q0():
    H, A = appendix_instance()
    B = build_incidence(H, A).to_dense()
    expected = np.array([[1, 1, 1, 0], [0, 1, 1, 1]], dtype=complex)
    np.testing.assert_array_equal(B, expected)


def test_incidence_directed_edge_quarter_charge():
    H = DirectedHypergraph(2, (Hyperedge((0,), (1,)),))
    A = build_fixed_sheaf(H, SheafConfig(q=0.25, d=1))
    B = build_incidence(H, A).to_dense()
    np.testing.assert_allclose(B, [[-1j, 1.0]])


def test_incidence_empty_hypergraph():
    H = DirectedHypergraph(3, ())
    A = build_fixed_sheaf(H, SheafConfig(q=0.1, d=2))
    B = build_incidence(H, A)
    assert B.shape == (0, 6)
    assert B.num_blocks == 0


def test_degree_matrices_on_appendix_instance():
    H, A = appendix_instance()
    D_V, D_E = build_degree_matrices(H, A)
    np.testing.assert_allclose(D_V[:, 0, 0], [1, 2, 2, 1])
    np.testing.assert_allclose(D_E, [3, 3])


def test_degree_single_edge():
    H = DirectedHypergraph(3, (Hyperedge((0, 1, 2)),))
    A = build_fixed_sheaf(H, SheafConfig(q=0.0, d=1))
    _, D_E = build_degree_matrices(H, A)
    np.testing.assert_allclose(D_E, [3.0])


def test_degree_block_of_diagonal_map_is_squared():
    H = DirectedHypergraph(2, (Hyperedge((0, 1)),))
    maps = {(0, 0): np.diag([2.0, -0.5]), (1, 0): np.eye(2)}
    roles = {(0, 0): "tail", (1, 0): "tail"}
    A = SheafAssignment(SheafConfig(q=0.0, d=2, map_shape="diagonal"), maps, roles)
    D_V, _ = build_degree_matrices(H, A)
    np.testing.assert_allclose(D_V[0], np.diag([4.0, 0.25]))


def test_appendix_laplacian_matches_hand_values():
    H, A = appendix_instance()
    L = build_laplacian(H, A).L.to_dense()
    np.testing.assert_allclose(np.diag(L).real, [2 / 3, 4 / 3, 4 / 3, 2 / 3], atol=1e-15)
    assert L[0, 1] == pytest.approx(-1 / 3)
    np.testing.assert_allclose(L.imag, 0.0, atol=1e-15)


def test_directed_edge_offdiagonal_is_half_phase():
    H = DirectedHypergraph(2, (Hyperedge((0,), (1,)),))
    A = build_fixed_sheaf(H, SheafConfig(q=0.25, d=1))
    L = build_laplacian(H, A).L.to_dense()
    assert -L[0, 1] == pytest.approx(0.5 * np.exp(2j * np.pi * 0.25))
    assert -L[1, 0] == pytest.approx(0.5 * np.exp(-2j * np.pi * 0.25))


def block_diag(blocks):
    n, d, _ = blocks.shape
    out = np.zeros((n * d, n * d))
    for u in range(n):
        out[u * d : (u + 1) * d, u * d : (u + 1) * d] = blocks[u]
    return out


@pytest.mark.parametrize("normalized", [False, True])
def test_build_and_apply_assemble_no_block_matrix(monkeypatch, normalized):
    calls = []
    init = BlockComplexMatrix.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BlockComplexMatrix, "__init__", counting_init)
    rng = np.random.default_rng(20)
    H, A = random_instance(rng, n_range=(6, 10), d_choices=(2, 3), map_shapes=("full",))
    bundle = build_laplacian(H, A, normalized=normalized)
    apply_laplacian(bundle, np.ones(bundle.n * bundle.d))
    assert calls == []
    # assembled once, on first access
    assert bundle.L is bundle.L
    assert len(calls) == 1


@pytest.mark.parametrize("normalized", [False, True])
def test_laplacian_stores_exactly_the_neighbourhood_blocks(normalized):
    rng = np.random.default_rng(21)
    for _ in range(30):
        H, A = random_instance(rng, n_range=(4, 14), m_range=(1, 8))
        expected = {(u, u) for u in range(H.num_vertices)}
        for e in H.hyperedges:
            expected.update((u, v) for u in e.members for v in e.members)
        assert set(build_laplacian(H, A, normalized=normalized).L.entries) == expected


@pytest.mark.parametrize("normalized", [False, True])
def test_block_assembly_matches_dense_oracle(normalized):
    rng = np.random.default_rng(11)
    for _ in range(30):
        H, A = random_instance(rng, n_range=(4, 12), m_range=(2, 10), d_choices=(1, 2, 3, 4))
        bundle = build_laplacian(H, A, normalized=normalized)
        oracle = dense_laplacian_oracle(H, A, normalized=normalized)
        np.testing.assert_allclose(bundle.L.to_dense(), oracle, atol=1e-10)


def test_laplacian_is_hermitian_with_real_diagonal():
    rng = np.random.default_rng(12)
    for _ in range(20):
        H, A = random_instance(rng)
        bundle = build_laplacian(H, A)
        assert bundle.L.hermitian_defect() <= 1e-12
        for u in range(H.num_vertices):
            blk = bundle.L.block(u, u)
            if blk is not None:
                assert np.max(np.abs(blk.imag)) <= 1e-12


def test_q_zero_erases_direction():
    rng = np.random.default_rng(13)
    for _ in range(10):
        H, A = random_instance(rng, q_choices=(0.0,))
        bundle = build_laplacian(H, A)
        assert bundle.L.max_abs_imag() <= 1e-12


def test_undirected_hypergraph_is_real_for_any_q():
    rng = np.random.default_rng(14)
    H, A = random_instance(rng, q_choices=(0.17,), directed_fraction=0.0)
    assert build_laplacian(H, A).L.max_abs_imag() <= 1e-12


def test_entrywise_block_agrees_with_product_form():
    # 200 randomized instances: the direct two-branch evaluation must match
    # the product-form assembly block by block
    rng = np.random.default_rng(15)
    for _ in range(200):
        H, A = random_instance(rng, n_range=(4, 12), m_range=(2, 10), d_choices=(1, 2, 3, 4))
        L = build_laplacian(H, A).L
        d = A.config.d
        dense = L.to_dense()
        for u in range(H.num_vertices):
            for v in range(H.num_vertices):
                blk = entrywise_block(H, A, u, v)
                np.testing.assert_allclose(
                    blk, dense[u * d : (u + 1) * d, v * d : (v + 1) * d], atol=1e-10
                )


def test_entrywise_block_isolated_vertex_is_zero():
    H = DirectedHypergraph(3, (Hyperedge((0, 1)),))
    maps = {(0, 0): np.eye(1), (1, 0): np.eye(1)}
    roles = {(0, 0): "tail", (1, 0): "tail"}
    A = SheafAssignment(SheafConfig(q=0.1, d=1), maps, roles)
    np.testing.assert_array_equal(entrywise_block(H, A, 2, 2), np.zeros((1, 1)))


def test_entrywise_imag_is_net_flow_at_quarter_charge():
    # u tails e1 and heads e2 with v on the opposite side of both; the
    # imaginary part is the difference of the 1/delta weights (net flow)
    H = DirectedHypergraph(
        3, (Hyperedge((0,), (1, 2)), Hyperedge((1, 2), (0,)))
    )
    A = build_fixed_sheaf(H, SheafConfig(q=0.25, d=1))
    blk = entrywise_block(H, A, 0, 1)
    # e1: u tail, v head -> -(1/3) * conj(-i) * 1 = -(1/3) i ... net against e2
    assert blk[0, 0].imag == pytest.approx(-1 / 3 + 1 / 3)
    H2 = DirectedHypergraph(3, (Hyperedge((0,), (1, 2)),))
    A2 = build_fixed_sheaf(H2, SheafConfig(q=0.25, d=1))
    assert entrywise_block(H2, A2, 0, 1)[0, 0] == pytest.approx(-1j / 3)


def test_apply_zero_signal():
    H, A = appendix_instance(d=2)
    bundle = build_laplacian(H, A)
    out = apply_laplacian(bundle, np.zeros((8, 3)))
    np.testing.assert_array_equal(out, np.zeros((8, 3)))


def test_constants_in_kernel_of_undirected_unnormalized():
    rng = np.random.default_rng(16)
    H, A = random_instance(
        rng, q_choices=(0.0,), directed_fraction=0.0, d_choices=(2,), map_shapes=("trivial",)
    )
    bundle = build_laplacian(H, A)
    c = np.array([1.3, -0.4])
    x = np.tile(c, H.num_vertices)
    np.testing.assert_allclose(apply_laplacian(bundle, x), 0.0, atol=1e-12)


@pytest.mark.parametrize("normalized", [False, True])
def test_matrix_free_apply_matches_dense(normalized):
    rng = np.random.default_rng(17)
    for _ in range(15):
        H, A = random_instance(rng, n_range=(4, 9))
        bundle = build_laplacian(H, A, normalized=normalized)
        x = rng.standard_normal((bundle.n * bundle.d, 2)) + 1j * rng.standard_normal(
            (bundle.n * bundle.d, 2)
        )
        dense = bundle.L.to_dense() @ x
        free = apply_laplacian(bundle, x)
        scale = max(1.0, np.max(np.abs(dense)))
        assert np.max(np.abs(dense - free)) / scale < 1e-10


def _kernel_cases():
    # (d, shape, q, signal, graph, columns); the grid keeps its ids, and each
    # edge case of the full-block layout is one more case for both shapes
    grid = [
        pytest.param(d, shape, q, signal, "random", 3, id=f"{d}-{shape}-{q}-{signal}")
        for d in (1, 2, 3, 4) for shape in ("diagonal", "full") for q in (0.0, 0.1, 0.25)
        for signal in ("complex", "real")
    ]
    edge_cases = [
        (6, "random", 3),  # the largest stalk the model takes
        (2, "undirected", 3),  # every head half is empty
        (2, "isolated", 3),  # one node segment is empty
        (1, "random", 1),  # one column, as Lanczos applies it
        (3, "random", 1),
    ]
    return grid + [
        pytest.param(d, shape, 0.1, "complex", graph, f, id=f"{d}-{shape}-0.1-complex-{graph}-f{f}")
        for d, graph, f in edge_cases for shape in ("diagonal", "full")
    ]


# worst on unused seeds (60 of the edge test, 600 draws of the node test): 6.3e-16
# (edge half) and 5.0e-16 (node half) for full blocks, 3.7e-16 and 4.2e-16 for
# diagonal ones
KERNEL_TOL_RELATIVE = 2e-15


@pytest.mark.parametrize("d, shape, q, signal, graph, f", _kernel_cases())
def test_kernel_matches_dense_factor_products(d, shape, q, signal, graph, f):
    # the prepared factor runs one real product per run of equal-length
    # segments, diagonal blocks as full ones with zeros off the diagonal; the
    # oracle is the dense Z placed block by block from w_k M_k
    seed = 100 * d + int(100 * q) + (shape == "full") + {"random": 0, "undirected": 7, "isolated": 11}[graph]
    rng = np.random.default_rng(seed + 1000 * (f == 1))
    directed = 0.0 if graph == "undirected" else 0.6  # 0.6 is random_instance's default
    H, _ = random_instance(rng, n_range=(5, 9), m_range=(3, 7), directed_fraction=directed)
    if graph == "isolated":
        H = DirectedHypergraph(H.num_vertices + 1, H.hyperedges)
    structure = IncidenceStructure.build(H)
    if graph == "undirected":
        assert structure.inc_is_tail.all()
    if graph == "isolated":
        assert structure.node_plan.runs[0][2:] == (0, 0)  # the zero-length run comes first
    num_inc = len(structure.inc_node)
    w = structure.weights(q)
    M = rng.standard_normal((num_inc, d) if shape == "diagonal" else (num_inc, d, d))
    if shape == "diagonal":
        M = np.stack([np.diag(m) for m in M])
    Z = np.zeros((structure.m * d, structure.n * d), dtype=complex)
    for k, (u, e) in enumerate(zip(structure.inc_node, structure.inc_edge)):
        Z[e * d:(e + 1) * d, u * d:(u + 1) * d] = w[k] * M[k]
    factor = Factor(structure, q, M)
    X = rng.standard_normal((structure.n, d, f))
    Y = rng.standard_normal((structure.m, d, f))
    if signal == "complex":
        X = X + 1j * rng.standard_normal(X.shape)
        Y = Y + 1j * rng.standard_normal(Y.shape)
    x, y = X.reshape(-1, f), Y.reshape(-1, f)
    for got, expected in [
        (factor.apply(X), Z @ x),
        (factor.adjoint(Y), Z.conj().T @ y),
        (factor.gram(X), Z.conj().T @ (Z @ x)),
    ]:
        np.testing.assert_allclose(got.reshape(expected.shape), expected, rtol=0, atol=1e-12)
    if signal == "complex":  # a single-precision signal goes through its own float view
        got = factor.gram(X.astype(np.complex64)).reshape(-1, f)
        np.testing.assert_allclose(got, Z.conj().T @ (Z @ x), rtol=0, atol=1e-5)
    if graph == "isolated":  # the jittered normalized operator applies as its dense export
        A = build_fixed_sheaf(H, SheafConfig(q=q, d=d, map_shape="full"), rng_seed=seed)
        bundle = build_laplacian(H, A, normalized=True, jitter=DEGREE_EPS)
        np.testing.assert_allclose(apply_laplacian(bundle, x), bundle.dense() @ x, rtol=0, atol=1e-12)


def _relative_gap(got, oracle):
    return np.max(np.abs(got - oracle)) / np.max(np.abs(oracle))


def test_node_order_gathers_sum_the_same_rows_bit_for_bit():
    # the degree blocks sum each vertex's rows in the same order as
    # node_plan.apply, so D_V and bundle.M keep their bytes.  The node half
    # sums each vertex's rows inside one product, for full and diagonal
    # blocks alike, within KERNEL_TOL_RELATIVE of the np.add.at sums
    rng = np.random.default_rng(2718)
    for _ in range(300):
        H, A = random_instance(rng)
        s = IncidenceStructure.build(H)
        F = A.maps
        D_V = s.node_plan.apply(np.swapaxes(F, 1, 2) @ F)
        assert _degree_blocks(s, F).tobytes() == D_V.tobytes()
        M = F @ _spd_inverse_sqrt(D_V, jitter=1e-12)[0][s.inc_node]
        assert build_laplacian(H, A, normalized=True, jitter=1e-12).M.tobytes() == M.tobytes()
        w, d, f = s.weights(A.config.q), A.config.d, int(rng.integers(1, 4))
        Y = rng.standard_normal((s.m, d, f)) + 1j * rng.standard_normal((s.m, d, f))
        cw, rows = np.conj(w)[:, None, None], Y[s.inc_edge]
        diagonal = np.ascontiguousarray(np.diagonal(M, axis1=1, axis2=2))
        for blocks, products in [  # per incidence, edge order
            (M, (np.swapaxes(M, 1, 2) @ rows.view(float)).view(complex) * cw),
            (np.stack([np.diag(m) for m in diagonal]), (np.conj(w[:, None] * diagonal))[:, :, None] * rows),
        ]:
            oracle = np.zeros((s.n, d, f), dtype=complex)
            np.add.at(oracle, s.inc_node, products)
            assert _relative_gap(Factor(s, A.config.q, blocks).adjoint(Y), oracle) <= KERNEL_TOL_RELATIVE


@pytest.mark.parametrize("shape", ["full", "diagonal"])
@pytest.mark.parametrize("f", [1, 5])
def test_edge_half_sums_the_canonical_products_bit_for_bit(shape, f):
    # the edge half sums the tails and the heads of each hyperedge (3 to 19
    # incidences) inside one product, tails read from the phased signal, for full
    # and diagonal blocks alike; the result must agree with the canonical-order
    # products w_k M_k X_{u_k} summed by np.add.at within KERNEL_TOL_RELATIVE
    rng = np.random.default_rng(1913 + f)
    n, d = 40, 3
    edges = []
    for size in rng.permutation(np.arange(3, 20).repeat(2)):
        members = rng.choice(n, size=size, replace=False)
        cut = int(rng.integers(0, size))
        edges.append(Hyperedge(members[:cut].tolist(), members[cut:].tolist()))
    s = IncidenceStructure.build(DirectedHypergraph(n, tuple(edges)))
    w = s.weights(0.3)
    M = rng.standard_normal((len(s.inc_node), d) if shape == "diagonal" else (len(s.inc_node), d, d))
    X = rng.standard_normal((n, d, f)) + 1j * rng.standard_normal((n, d, f))
    if shape == "full":
        products = (M @ X[s.inc_node].view(float)).view(complex) * w[:, None, None]
    else:
        products = (w[:, None] * M)[:, :, None] * X[s.inc_node]
        M = np.stack([np.diag(m) for m in M])
    oracle = np.zeros((s.m, d, f), dtype=complex)
    np.add.at(oracle, s.inc_edge, products)
    assert _relative_gap(Factor(s, 0.3, M).apply(X), oracle) <= KERNEL_TOL_RELATIVE


def test_diagonal_factor_is_its_embedded_blocks_bit_for_bit():
    # the model embeds diagonal maps as (I, d, d) blocks with zeros off the
    # diagonal, so every product equals that of the np.diag blocks, and the
    # factor keeps M as passed
    rng = np.random.default_rng(4242)
    for d in range(1, 7):
        for _ in range(20):
            H, A = random_instance(rng, d_choices=(d,))
            s = IncidenceStructure.build(H)
            q, f = A.config.q, int(rng.integers(1, 4))
            diagonals = rng.standard_normal((len(s.inc_node), d))
            M = _diagonal_blocks(Tape().tensor(diagonals)).value
            embedded = np.stack([np.diag(m) for m in diagonals])
            diagonal, full = Factor(s, q, M), Factor(s, q, embedded)
            assert diagonal.M is M and M.tobytes() == embedded.tobytes()
            X = rng.standard_normal((s.n, d, f)) + 1j * rng.standard_normal((s.n, d, f))
            Y = rng.standard_normal((s.m, d, f)) + 1j * rng.standard_normal((s.m, d, f))
            for got, expected in [
                (diagonal.apply(X), full.apply(X)),
                (diagonal.adjoint(Y), full.adjoint(Y)),
                (diagonal.gram(X), full.gram(X)),
                (diagonal.blocks, full.blocks),
            ]:
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", ["I,d", "I-1,d,d", "I,d,d+1"])
def test_factor_rejects_blocks_that_are_not_one_square_block_per_incidence(shape):
    H, A = random_instance(np.random.default_rng(31), d_choices=(3,))
    s = IncidenceStructure.build(H)
    num_inc, d = len(s.inc_node), 3
    M = np.ones({"I,d": (num_inc, d), "I-1,d,d": (num_inc - 1, d, d), "I,d,d+1": (num_inc, d, d + 1)}[shape])
    with pytest.raises(ValueError, match=rf"shape \({num_inc}, d, d\), got {re.escape(str(M.shape))}"):
        Factor(s, A.config.q, M)


def test_phased_gathers_are_the_per_incidence_phases_bit_for_bit():
    # the phase rides on the signal: the edge half gathers its rows from [X; phi X]
    # and the node half from [Y; conj(phi) Y], tails from the phased half, so the
    # gathered rows are S_k X_{u_k} in edge_plan.major order and conj(S_k) Y_{e_k}
    # in node_plan.major order, for real and complex X (the signal the left operand
    # of each complex product, as in the kernel: numpy's fused multiply-adds make
    # the operand order show in the last bit)
    rng = np.random.default_rng(577)
    for draw in range(200):
        H, A = random_instance(rng)
        s = IncidenceStructure.build(H)
        q, d, f = A.config.q, A.config.d, int(rng.integers(1, 4))
        S = s.phases(q)[:, None, None]
        X = rng.standard_normal((s.n, d, f))
        if draw % 2:
            X = X + 1j * rng.standard_normal((s.n, d, f))
        Y = rng.standard_normal((s.m, d, f)) + 1j * rng.standard_normal((s.m, d, f))
        phi = sheaf.tail_coefficient(q)
        edge_rows = laplacian._phased(X, phi)[s.edge_gather]
        assert edge_rows.tobytes() == (X[s.inc_node] * S)[s.edge_plan.major].tobytes()
        node_rows = laplacian._phased(Y, np.conj(phi))[s.node_gather]
        assert node_rows.tobytes() == (Y[s.inc_edge] * np.conj(S))[s.node_plan.major].tobytes()


def test_block_gradient_matches_the_per_incidence_outer_products():
    # oracle: Re(conj(w_k) Y_{e_k} X_{u_k}^H) incidence by incidence, the expression
    # the model's full-map gradient used before the per-run products
    rng = np.random.default_rng(578)
    one_role = 0
    for draw in range(200):
        H, A = random_instance(rng)
        s = IncidenceStructure.build(H)
        w, d, f = s.weights(A.config.q), A.config.d, int(rng.integers(1, 4))
        factor = Factor(s, A.config.q, A.maps)
        Y = rng.standard_normal((s.m, d, f)) + 1j * rng.standard_normal((s.m, d, f))
        X = rng.standard_normal((s.n, d, f))
        if draw % 2:
            X = X + 1j * rng.standard_normal((s.n, d, f))
        expected = np.real(
            np.conj(w)[:, None, None] * Y[s.inc_edge] @ np.conj(np.swapaxes(X[s.inc_node], 1, 2))
        )
        got = factor.block_gradient(Y, X)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        one_role += int(np.any(np.bincount(s.inc_edge[~s.inc_is_tail], minlength=s.m) == 0))
    assert one_role > 0  # undirected hyperedges hold tails only


def test_structure_is_built_once_per_hypergraph_and_read_only():
    H, _ = random_instance(np.random.default_rng(41), n_range=(8, 12))
    key = hash(H)
    s = IncidenceStructure.build(H)
    assert IncidenceStructure.build(H) is s
    # build_fixed_sheaf holds the same cached structure
    assert build_fixed_sheaf(H, SheafConfig(q=0.1, d=2, map_shape="full")).structure is s
    arrays = [s.inc_node, s.inc_edge, s.inc_is_tail, s.delta, s.edge_gather, s.node_gather, *s.edge_pairs, s.edge_row]
    for plan in (s.node_plan, s.edge_plan):
        arrays += [plan.seg_ids, plan.order, plan.rank, plan.major]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    # an equal but distinct hypergraph: its own structure, with equal arrays
    twin = DirectedHypergraph(H.num_vertices, H.hyperedges)
    assert twin == H and hash(twin) == hash(H) == key and repr(twin) == repr(H)
    t = IncidenceStructure.build(twin)
    assert t is not s and twin == H and hash(twin) == key
    for a, b in [(t, s), (t.node_plan, s.node_plan), (t.edge_plan, s.edge_plan)]:
        for name, value in vars(b).items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(getattr(a, name), value)
    assert t.node_plan.runs == s.node_plan.runs and t.edge_plan.runs == s.edge_plan.runs


def _moved_bundle(G, A, relabel):
    """The normalized bundle of ``A``'s maps over ``G``, which holds ``A``'s incidences with
    vertex ``u`` renamed ``relabel[u]``, each map kept on its renamed incidence."""
    s, t, n = A.structure, IncidenceStructure.build(G), G.num_vertices
    maps = np.empty_like(A.maps)
    maps[np.argsort(t.inc_edge * n + t.inc_node)] = A.maps[np.argsort(s.inc_edge * n + relabel[s.inc_node])]
    return build_laplacian(G, SheafAssignment.over(t, A.config, maps), normalized=True)


def test_normalized_operator_obeys_reversal_and_relabelling_at_scale():
    # two operator laws through the matrix-free kernel, at n = 2,000, d = 3, full maps
    # and q = 0.1: reversing every directed hyperedge swaps the tail phase between the
    # two sides, so L_N(H^rev) = conj(L_N(H)); relabelling the vertices by pi permutes
    # the operator, L'_N P x = P L_N x.  Worst gaps on 20 other seeds: 2.9e-16 and 2.4e-16
    rng = np.random.default_rng(2026)
    H = random_hypergraph(rng, (2000, 2000), (800, 800), directed_fraction=0.6)
    A = build_fixed_sheaf(H, SheafConfig(q=0.1, d=3, map_shape="full"), rng_seed=7)
    n, d, f = H.num_vertices, 3, 4
    x = rng.standard_normal((n * d, f)) + 1j * rng.standard_normal((n * d, f))
    bundle = build_laplacian(H, A, normalized=True)
    Lx = apply_laplacian(bundle, x)
    scale = np.max(np.abs(Lx))

    flipped = DirectedHypergraph(n, tuple(Hyperedge(e.head, e.tail) if e.head else e for e in H.hyperedges))
    reversed_x = apply_laplacian(_moved_bundle(flipped, A, np.arange(n)), x)
    assert np.max(np.abs(reversed_x - np.conj(apply_laplacian(bundle, np.conj(x))))) <= 1e-13 * scale
    assert np.max(np.abs(reversed_x - Lx)) > 0.1 * scale  # a real operator would not meet the law (0.42 and up)

    pi = rng.permutation(n)
    renamed = DirectedHypergraph(n, tuple(Hyperedge(pi[list(e.tail)], pi[list(e.head)]) for e in H.hyperedges))
    px = np.empty((n, d, f), dtype=complex)
    px[pi] = x.reshape(n, d, f)
    relabelled = apply_laplacian(_moved_bundle(renamed, A, pi), px.reshape(n * d, f)).reshape(n, d, f)[pi]
    assert np.max(np.abs(relabelled.reshape(n * d, f) - Lx)) <= 1e-13 * scale


def test_gram_peaks_below_one_signal_wide_incidence_array():
    # each run gathers its own rows just before its product, so one gram never holds an
    # (I, d, f) array: measured 8.5 MiB against 11.1 MiB for that array, and 17.2 MiB
    # when the whole signal was gathered before the products
    ds = generate_synthetic(SyntheticConfig(n=5000, classes=5, intra_per_class=300, inter_per_pair=100, seed=0))
    A = build_fixed_sheaf(ds.hypergraph, SheafConfig(q=0.1, d=2, map_shape="full"), rng_seed=0)
    factor = build_laplacian(ds.hypergraph, A, normalized=True, jitter=DEGREE_EPS).factor
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5000, 2, 16)) + 1j * rng.standard_normal((5000, 2, 16))
    factor.gram(X)  # warm: nothing prepared lazily counts toward the peak
    gc.collect()
    tracemalloc.start()
    try:
        factor.gram(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    incidence_array = len(factor.structure.inc_node) * X[0].nbytes
    assert peak < incidence_array, f"peak {peak / 2**20:.2f} MiB, one (I, d, f) array {incidence_array / 2**20:.2f} MiB"


def test_dense_factor_places_weighted_blocks():
    # with Z_k = S_k delta_e^{-1/2} F_k at block (e, u) of a dense factor, the
    # dense export is D_V - Z^dagger Z
    H, A = appendix_instance(d=2, q=0.1, shape="full", seed=3)
    bundle = build_laplacian(H, A)
    s, d = bundle.structure, bundle.d
    Z = np.zeros((s.m * d, s.n * d), dtype=complex)
    for u, e in zip(s.inc_node, s.inc_edge):
        coeff = directional_coefficient(H, u, e, A.config.q) / np.sqrt(H.hyperedges[e].degree)
        Z[e * d:(e + 1) * d, u * d:(u + 1) * d] = coeff * A.map_for(u, e)
    np.testing.assert_allclose(block_diag(bundle.D_V) - bundle.dense(), Z.conj().T @ Z, rtol=0, atol=1e-15)


@st.composite
def hypergraph_instances(draw):
    """Small covered hypergraphs: all-tail, all-directed or mixed edges,
    optionally 2-uniform, with a fixed sheaf of any shape, d in 1..6 and
    q anywhere in [-1, 1]."""
    n = draw(st.integers(2, 8))
    direction = draw(st.sampled_from(["all-tail", "all-directed", "mixed"]))
    max_size = 2 if draw(st.booleans()) else min(n, 5)
    edges = []
    for _ in range(draw(st.integers(1, 6))):
        members = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=max_size, unique=True))
        if direction == "all-directed" or (direction == "mixed" and draw(st.booleans())):
            cut = draw(st.integers(1, len(members) - 1))
            edges.append(Hyperedge(tuple(members[:cut]), tuple(members[cut:])))
        else:
            edges.append(Hyperedge(tuple(members)))
    uncovered = sorted(set(range(n)) - {u for e in edges for u in e.members})
    if uncovered:
        # one more edge through a covered vertex keeps every degree block nonzero
        members = [edges[0].tail[0]] + uncovered
        if direction == "all-tail":
            edges.append(Hyperedge(tuple(members)))
        else:
            edges.append(Hyperedge(tuple(members[:1]), tuple(members[1:])))
    H = DirectedHypergraph(n, tuple(edges))
    config = SheafConfig(
        q=draw(st.floats(-1.0, 1.0)),
        d=draw(st.integers(1, 6)),
        map_shape=draw(st.sampled_from(["trivial", "diagonal", "full"])),
    )
    return H, build_fixed_sheaf(H, config, rng_seed=draw(st.integers(0, 2**31 - 1)))


@settings(max_examples=80, deadline=None)
@given(instance=hypergraph_instances(), normalized=st.booleans())
def test_kernel_assembly_and_oracle_agree(instance, normalized):
    H, A = instance
    bundle = build_laplacian(H, A, normalized=normalized)
    k = bundle.n * bundle.d
    rng = np.random.default_rng(0)
    x = rng.standard_normal((k, 3)) + 1j * rng.standard_normal((k, 3))
    free = apply_laplacian(bundle, x)
    np.testing.assert_allclose(free, bundle.L.to_dense() @ x, rtol=0, atol=1e-10)
    # both sides invert with LAPACK eigh, the package block by block and the
    # oracle on the dense block-diagonal D_V; their rounding gap still grows
    # with the blocks' conditioning (over 6,000 examples the flat 1e-10 failed
    # 8 times, worst 6.2e-10 at cond 2.3e7, 0.13 of this bound)
    cond = float(np.linalg.cond(bundle.D_V).max()) if normalized else 1.0
    oracle = dense_laplacian_oracle(H, A, normalized=normalized)
    np.testing.assert_allclose(free, oracle @ x, rtol=0, atol=1e-10 + 1e-15 * cond)
    np.testing.assert_allclose(bundle.dense(), bundle.L.to_dense(), rtol=0, atol=1e-10)


def criterion_2_draws():
    """The instances of the spectral acceptance criterion: seed 2024, and the suite's
    probe vector drawn from the same generator after each one."""
    rng = np.random.default_rng(2024)
    for _ in range(500):
        H, A = random_instance(rng)
        yield H, A
        k = H.num_vertices * A.config.d
        rng.standard_normal(k), rng.standard_normal(k)


def test_dense_export_matches_the_block_matrix():
    # bit-identity is not the bar: reduceat and the dict add duplicate pairs in their own order
    for H, A in criterion_2_draws():
        for normalized in (True, False):
            bundle = build_laplacian(H, A, normalized=normalized)
            np.testing.assert_allclose(bundle.dense(), bundle.L.to_dense(), rtol=0, atol=1e-14)


def test_dense_export_refuses_above_the_cap_before_any_pair_block(monkeypatch):
    def refuse(*args):
        raise AssertionError("pair blocks formed above the dense cap")

    monkeypatch.setattr(sheaf, "_edge_pairs", refuse)
    size = DENSE_EXPORT_CAP + 1
    H = DirectedHypergraph(size, (Hyperedge((0,), (1,)),))
    bundle = build_laplacian(H, build_fixed_sheaf(H, SheafConfig(q=0.1)))
    with pytest.raises(ValueError, match=f"dense export of a {size}x{size} matrix exceeds the cap"):
        bundle.dense()
    assert "factor" not in bundle.__dict__


def test_apply_is_linear():
    rng = np.random.default_rng(18)
    H, A = random_instance(rng, n_range=(5, 8))
    bundle = build_laplacian(H, A, normalized=True)
    k = bundle.n * bundle.d
    x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    y = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    a, b = 0.7 - 0.2j, -1.1 + 0.5j
    lhs = apply_laplacian(bundle, a * x + b * y)
    rhs = a * apply_laplacian(bundle, x) + b * apply_laplacian(bundle, y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_apply_rejects_wrong_shape():
    H, A = appendix_instance()
    bundle = build_laplacian(H, A)
    with pytest.raises(ValueError, match="rows"):
        apply_laplacian(bundle, np.zeros(5))


def test_strict_mode_reports_singular_vertex():
    # vertices 2 and 3 are isolated; the error names the lower one
    H = DirectedHypergraph(4, (Hyperedge((0, 1)), Hyperedge((0,), (1,))))
    for shape in ("trivial", "diagonal", "full"):
        A = build_fixed_sheaf(H, SheafConfig(q=0.1, d=2, map_shape=shape))
        with pytest.raises(ValueError, match="vertex 2 is singular"):
            build_laplacian(H, A, normalized=True)


def test_jitter_mode_handles_singular_degrees():
    H = DirectedHypergraph(4, (Hyperedge((0, 1)), Hyperedge((0,), (1,))))
    A = build_fixed_sheaf(H, SheafConfig(q=0.1, d=1))
    bundle = build_laplacian(H, A, normalized=True, jitter=DEGREE_EPS)
    assert np.isfinite(bundle.L.to_dense()).all()


@pytest.mark.parametrize("jitter", [-1e-8, float("nan"), float("inf")])
def test_jitter_must_be_finite_and_non_negative(jitter):
    H, A = appendix_instance()
    with pytest.raises(ValueError, match="jitter"):
        build_laplacian(H, A, normalized=True, jitter=jitter)


def test_inverse_root_of_diagonal_blocks_is_elementwise_exactly():
    # trivial and diagonal maps share the eigh path of full ones, so on
    # diagonal blocks it must give the elementwise root bit for bit
    rng = np.random.default_rng(23)
    for d in range(1, 7):
        diag = rng.uniform(1e-3, 10.0, size=(200, d))
        diag[:, 0] = diag[:, -1]  # repeated eigenvalues too
        root = _spd_inverse_sqrt(diag[:, :, None] * np.eye(d))[0]
        np.testing.assert_array_equal(root, (1.0 / np.sqrt(diag))[:, :, None] * np.eye(d))


def test_dense_text_round_trip():
    rng = np.random.default_rng(19)
    M = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    text = format_dense_matrix(M)
    np.testing.assert_allclose(parse_dense_matrix(text), M, atol=0)


# Page faults in the last of three rounds of four live 1.5 MiB arrays, the
# kernel's signal-sized temporaries, in a fresh process.
_FAULTS_SCRIPT = """
import resource, numpy as np, hypersheaf
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    temporaries = [np.ones(3 << 16) for _ in range(4)]
    del temporaries
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc thresholds")
@pytest.mark.parametrize("pinned", [True, False])
def test_import_pins_malloc_so_temporaries_reuse_the_heap(pinned):
    # 1,536 pages a round: reused heap faults none of them, fresh pages all
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if not pinned:  # the user's thresholds win over the package's
        env["MALLOC_MMAP_THRESHOLD_"] = env["MALLOC_TRIM_THRESHOLD_"] = str(128 << 10)
    result = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], env=env,
                            capture_output=True, text=True, timeout=60, check=True)
    faults = int(result.stdout)
    assert faults < 150 if pinned else faults > 750
