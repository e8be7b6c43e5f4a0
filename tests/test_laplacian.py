import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersheaf.blockmatrix import BlockComplexMatrix
from hypersheaf.hypergraph import DirectedHypergraph, Hyperedge
from hypersheaf.laplacian import (
    DEGREE_EPS,
    IncidenceStructure,
    _spd_inverse_sqrt,
    apply_laplacian,
    build_degree_matrices,
    build_incidence,
    build_laplacian,
    dense_factor,
    entrywise_block,
    factor_adjoint_apply,
    factor_apply,
    format_dense_matrix,
    parse_dense_matrix,
    signless_apply,
)
from hypersheaf.sheaf import SheafAssignment, SheafConfig, build_fixed_sheaf, directional_coefficient
from hypersheaf.spectral import random_instance
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


@pytest.mark.parametrize("signal", ["real", "complex"])
@pytest.mark.parametrize("q", [0.0, 0.1, 0.25])
@pytest.mark.parametrize("shape", ["diagonal", "full"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_kernel_matches_dense_factor_products(d, shape, q, signal):
    # the (w, M) kernel runs real products on float views for full blocks
    # and elementwise products for diagonal ones; the dense Z = w M is the oracle
    rng = np.random.default_rng(100 * d + int(100 * q) + (shape == "full"))
    H, _ = random_instance(rng, n_range=(5, 9), m_range=(3, 7))
    structure = IncidenceStructure.build(H)
    num_inc, f = len(structure.inc_node), 3
    w = structure.weights(q)
    M = rng.standard_normal((num_inc, d) if shape == "diagonal" else (num_inc, d, d))
    Z = dense_factor(structure, w, M)
    X = rng.standard_normal((structure.n, d, f))
    Y = rng.standard_normal((structure.m, d, f))
    if signal == "complex":
        X = X + 1j * rng.standard_normal(X.shape)
        Y = Y + 1j * rng.standard_normal(Y.shape)
    x, y = X.reshape(-1, f), Y.reshape(-1, f)
    for got, expected in [
        (factor_apply(structure, w, M, X), Z @ x),
        (factor_adjoint_apply(structure, w, M, Y), Z.conj().T @ y),
        (signless_apply(structure, w, M, X), Z.conj().T @ (Z @ x)),
    ]:
        np.testing.assert_allclose(got.reshape(expected.shape), expected, rtol=0, atol=1e-12)
    if signal == "complex":  # a single-precision signal goes through its own float view
        got = signless_apply(structure, w, M, X.astype(np.complex64)).reshape(-1, f)
        np.testing.assert_allclose(got, Z.conj().T @ (Z @ x), rtol=0, atol=1e-5)


def test_dense_factor_places_weighted_blocks():
    # Z_k = S_k delta_e^{-1/2} M_k sits at block (e, u) of the dense factor
    H, A = appendix_instance(d=2, q=0.1, shape="full", seed=3)
    bundle = build_laplacian(H, A)
    s, d = bundle.structure, bundle.d
    Z = dense_factor(s, bundle.w, bundle.M)
    for k, (u, e) in enumerate(zip(s.inc_node, s.inc_edge)):
        coeff = directional_coefficient(H, u, e, A.config.q) / np.sqrt(H.hyperedges[e].degree)
        block = Z[e * d:(e + 1) * d, u * d:(u + 1) * d]
        np.testing.assert_allclose(block, coeff * A.map_for(u, e), rtol=0, atol=1e-15)


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
    Z = dense_factor(bundle.structure, bundle.w, bundle.M)
    diag = np.eye(k) if normalized else block_diag(bundle.D_V)
    np.testing.assert_allclose(diag - Z.conj().T @ Z, bundle.L.to_dense(), rtol=0, atol=1e-10)


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
