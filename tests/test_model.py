import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from hypersheaf import autodiff as ad
from hypersheaf.autodiff import SegmentPlan
from hypersheaf.data import SyntheticConfig, generate_synthetic, read_dataset, write_dataset
from hypersheaf.hypergraph import DirectedHypergraph, Hyperedge
from hypersheaf.jacobi import jacobi_eigh
from hypersheaf.laplacian import Factor, build_laplacian
from hypersheaf.model import (
    DEGREE_EPS,
    ModelConfig,
    Tape,
    TrainingBudget,
    TrainingDiverged,
    accuracy,
    complex_layer_norm,
    complex_relu,
    diffusion_layer,
    forward,
    init_state,
    loss_and_gradients,
    predict_sheaf,
    synthetic_benchmark_config,
    train,
    _adam_step,
    _apply_signless,
    _forward_tape,
    _layer_norm_pair,
    _normalized_blocks,
    _operator_blocks,
)
from hypersheaf import model
from hypersheaf.sheaf import IncidenceStructure
from hypersheaf.spectral import lanczos_lambda_max, random_instance

from gradcheck import finite_difference_check, parts_loss


def dense_signless(structure, config, M):
    """Oracle for one layer's ``Q_N = Z^dagger Z``: the dense ``Z`` placed block by block,
    ``w_k M_k`` at ``(e, u)``, from the real blocks ``M`` ``(I, d, d)``."""
    d = config.stalk_dim
    Z = np.zeros((structure.m, d, structure.n, d), dtype=complex)
    Z[structure.inc_edge, :, structure.inc_node, :] = structure.weights(config.q)[:, None, None] * M
    Z = Z.reshape(structure.m * d, structure.n * d)
    return Z.conj().T @ Z

def small_instance(seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    defaults = dict(n_range=(5, 8), m_range=(3, 6), d_choices=(2,), q_choices=(0.1,))
    defaults.update(kwargs)
    return random_instance(rng, **defaults)


def small_dataset(seed=0, n=20, classes=2):
    cfg = SyntheticConfig(
        n=n, classes=classes, h_min=2, h_max=4, intra_per_class=4, inter_per_pair=6, seed=seed
    )
    return generate_synthetic(cfg)


# --- relu / layer norm ----------------------------------------------------------


def test_complex_relu_cases():
    assert complex_relu(np.array(3 - 4j)) == 3 - 4j
    assert complex_relu(np.array(-1 + 5j)) == 0
    assert complex_relu(np.array(0 + 2j)) == 0


def test_layer_norm_whitens_each_column():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((400, 3)) + 1j * (0.5 * rng.standard_normal((400, 3)) + 0.3)
    out = complex_layer_norm(X, np.eye(2), np.zeros(2))
    for col in range(3):
        pairs = np.stack([out[:, col].real, out[:, col].imag])
        cov = pairs @ pairs.T / pairs.shape[1]
        mean = pairs.mean(axis=1)
        np.testing.assert_allclose(mean, 0.0, atol=1e-12)
        np.testing.assert_allclose(cov, np.eye(2), atol=1e-3)


def test_layer_norm_identity_on_whitened_input():
    rng = np.random.default_rng(2)
    # already zero-mean with unit covariance per column: output ~= gamma x + beta
    re = rng.standard_normal(4000)
    re = (re - re.mean()) / re.std()
    im = rng.standard_normal(4000)
    im -= im @ re / (re @ re) * re  # decorrelate
    im = (im - im.mean()) / im.std()
    X = (re + 1j * im)[:, None]
    gamma = np.array([[2.0, 0.0], [0.0, 2.0]])
    beta = np.array([0.5, -0.5])
    out = complex_layer_norm(X, gamma, beta)
    np.testing.assert_allclose(out.real, 2 * re[:, None] + 0.5, atol=1e-3)
    np.testing.assert_allclose(out.imag, 2 * im[:, None] - 0.5, atol=1e-3)


def test_layer_norm_default_affine_preserves_unit_modulus_energy():
    rng = np.random.default_rng(3)
    theta = rng.uniform(0, 2 * np.pi, size=(1000, 2))
    X = np.exp(1j * theta)
    out = complex_layer_norm(X, np.eye(2) / np.sqrt(2), np.zeros(2))
    assert np.mean(np.abs(out) ** 2) == pytest.approx(1.0, rel=2e-2)


@pytest.mark.parametrize("f", [1, 2, 3, 4, 6, 8, 16])
def test_layer_norm_matches_a_per_column_loop(f):
    # the column groups of the float-view products (k = gcd(f, 4) columns at a time) against one
    # column at a time: the centred (re, im) pairs c, S = mean(c c^T) + eps I, gamma S^{-1/2} c + beta
    rng = np.random.default_rng(f)
    X = rng.standard_normal((50, f)) * rng.uniform(0.1, 3.0, f) + 1j * rng.standard_normal((50, f))
    gamma, beta = np.array([[1.3, -0.4], [0.2, 0.9]]), np.array([0.3, -0.7])
    expected = np.empty_like(X)
    for j in range(f):
        c = np.stack([X[:, j].real, X[:, j].imag])
        c -= c.mean(axis=1, keepdims=True)
        w, V = np.linalg.eigh(c @ c.T / len(X) + model.LAYER_NORM_EPS * np.eye(2))
        y = gamma @ (V / np.sqrt(w)) @ V.T @ c + beta[:, None]
        expected[:, j] = y[0] + 1j * y[1]
    np.testing.assert_allclose(complex_layer_norm(X, gamma, beta), expected, rtol=0, atol=1e-12)


def layer_norm_case(seed=0, n_rows=40, f=4):
    # a column scaled by 1e-3 and a near-constant one, whose covariance is
    # almost the eps jitter; gamma and beta away from their initial values
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_rows, f)) + 1j * rng.standard_normal((n_rows, f))
    X[:, 1] *= 1e-3
    X[:, 2] = 0.3 - 0.2j + 1e-4 * (rng.standard_normal(n_rows) + 1j * rng.standard_normal(n_rows))
    return X, np.array([[1.3, -0.4], [0.2, 0.9]]), np.array([0.3, -0.7])


def layer_tail_case(seed, n_rows=40, f=4):
    """``Y``, ``gamma`` and ``beta`` of :func:`layer_norm_case` and the complex and real residuals of
    another draw, so that ``Y + X`` keeps a tiny column and a near-constant one."""
    Y, gamma, beta = layer_norm_case(seed, n_rows, f)
    X = 0.5 * layer_norm_case(seed + 100, n_rows, f)[0]
    return Y, {"complex": X, "real": X.real.copy(), "none": None}, gamma, beta


def layer_tail(Y, X, gamma, beta):
    """The layer tail node on fresh leaves ``Y``, ``X`` (``None`` for no residual), ``gamma`` and ``beta``,
    with ``Y`` and ``X`` ``(N, f)`` seen as ``(N / 2, 2, f)``; returns the output and the leaves."""
    tape, shape = Tape(), (len(Y) // 2, 2, Y.shape[1])
    leaves = {"Y": Y.reshape(shape), "X": None if X is None else X.reshape(shape), "gamma": gamma, "beta": beta}
    leaves = {k: None if v is None else tape.tensor(v, requires_grad=True) for k, v in leaves.items()}
    return _layer_norm_pair(*leaves.values(), *Y.shape), leaves


def test_layer_norm_node_forward_is_complex_layer_norm_bit_for_bit():
    # the one node of the layer tail is crelu(complex_layer_norm(Y + X)) to the bit, with the residual
    # complex, real (the first layer's) or off
    Y, residuals, gamma, beta = layer_tail_case(seed=1, n_rows=60, f=5)
    for X in residuals.values():
        out = layer_tail(Y, X, gamma, beta)[0]
        assert out.shape == (30, 2, 5)
        expected = complex_relu(complex_layer_norm(Y if X is None else Y + X, gamma, beta))
        assert out.value.reshape(60, 5).tobytes() == expected.tobytes()
        assert 0 < np.count_nonzero(out.value) < out.value.size


def test_layer_norm_node_gradient_matches_finite_differences():
    # every parent of the layer tail node, Y, the residual X, gamma and beta, with the residual complex,
    # real or off.  No probe moves an output across the rectifier's kink: the mask stays fixed
    Y, residuals, gamma, beta = layer_tail_case(seed=2)
    weight = np.random.default_rng(3).standard_normal((2,) + Y.shape)
    for kind, X in residuals.items():
        mask = layer_tail(Y, X, gamma, beta)[0].value.real > 0

        def build_loss(p):
            X = p["Xr"] + 1j * p["Xi"] if "Xi" in p else p.get("Xr")
            out, leaves = layer_tail(p["Yr"] + 1j * p["Yi"], X, p["gamma"], p["beta"])
            assert np.array_equal(out.value.real > 0, mask), "a probe crossed the rectifier's kink"
            loss = parts_loss(out, *(w.reshape(out.shape) for w in weight))
            out.tape.backward(loss)
            grads = {"Yr": leaves["Y"].grad.real, "Yi": leaves["Y"].grad.imag}
            if X is not None:
                grads["Xr"], grads["Xi"] = leaves["X"].grad.real, leaves["X"].grad.imag
            grads.update(gamma=leaves["gamma"].grad, beta=leaves["beta"].grad)
            return float(loss.value), {k: v.reshape(p[k].shape) for k, v in grads.items() if k in p}

        params = {"Yr": Y.real.copy(), "Yi": Y.imag.copy(), "gamma": gamma, "beta": beta}
        if X is not None:
            params["Xr"] = X.real.copy()
        if kind == "complex":
            params["Xi"] = X.imag.copy()
        finite_difference_check(
            build_loss, params, n_probes=40, step=1e-6, rel_tol=1e-6, rng=np.random.default_rng(4)
        )


# --- sheaf prediction -------------------------------------------------------


def phi_for(config, seed=0):
    state = init_state(config, input_width=1, num_classes=2)
    return {k.split("_", 1)[1]: v for k, v in state.params.items() if k.startswith("phi0_")}


def test_predict_sheaf_identical_features_give_identical_maps():
    H = DirectedHypergraph(4, (Hyperedge((0, 1), (2, 3)),))
    config = ModelConfig(num_layers=1, stalk_dim=2, hidden_width=3, seed=4, map_shape="full")
    X = np.tile(np.arange(6).reshape(2, 3) + 0j, (4, 1))
    sheaf = predict_sheaf(X, H, phi_for(config), config)
    maps = [sheaf.map_for(u, 0) for u in range(4)]
    for other in maps[1:]:
        np.testing.assert_array_equal(maps[0], other)


def test_predict_sheaf_tanh_keeps_entries_in_unit_interval():
    H = small_dataset(seed=5, n=12).hypergraph
    config = ModelConfig(num_layers=1, stalk_dim=2, hidden_width=4, sheaf_activation="tanh", seed=5)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((24, 4)) + 1j * rng.standard_normal((24, 4))
    sheaf = predict_sheaf(X, H, phi_for(config), config)
    assert np.all(np.abs(sheaf.maps) < 1.0)


def test_predict_sheaf_bit_deterministic():
    H = small_dataset(seed=6, n=12).hypergraph
    config = ModelConfig(num_layers=1, stalk_dim=2, hidden_width=4, seed=6)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((24, 4)) + 1j * rng.standard_normal((24, 4))
    a = predict_sheaf(X, H, phi_for(config), config)
    b = predict_sheaf(X, H, phi_for(config), config)
    assert np.array_equal(a.maps, b.maps)


# --- diffusion layer -------------------------------------------------------


@pytest.mark.parametrize("shape", ["trivial", "diagonal", "full"])
def test_identity_layer_equals_one_minus_normalized_laplacian(shape):
    rng = np.random.default_rng(7)
    for _ in range(5):
        H, A = random_instance(
            rng, n_range=(4, 8), m_range=(2, 5), d_choices=(2,), q_choices=(0.15,), map_shapes=(shape,)
        )
        d = A.config.d
        n = H.num_vertices
        X = rng.standard_normal((n * d, 3)) + 1j * rng.standard_normal((n * d, 3))
        out = diffusion_layer(X, H, A, np.eye(d), np.eye(3))
        bundle = build_laplacian(H, A, normalized=True, jitter=DEGREE_EPS)
        expected = X - bundle.L.to_dense() @ X
        assert np.max(np.abs(out - expected)) < 1e-10


def test_zero_signal_stays_zero():
    H, A = small_instance(8)
    d = A.config.d
    out = diffusion_layer(np.zeros((H.num_vertices * d, 2), dtype=complex), H, A, np.eye(d), np.eye(2))
    np.testing.assert_array_equal(out, 0)


@pytest.mark.parametrize("shape", [(8,), (8, 2, 1)])
def test_diffusion_layer_rejects_a_signal_that_is_not_2d(shape):
    H, A = small_instance(8)
    with pytest.raises(ValueError, match="signal must have shape"):
        diffusion_layer(np.zeros(shape), H, A, np.eye(A.config.d), np.eye(1))


def test_diffusion_layer_rejects_a_signal_without_columns():
    H, A = small_instance(8)
    with pytest.raises(ValueError, match="f >= 1"):
        diffusion_layer(np.zeros((H.num_vertices * A.config.d, 0)), H, A, np.eye(A.config.d), np.eye(0))


def test_full_layer_matches_dense_recomputation():
    rng = np.random.default_rng(9)
    H, A = small_instance(9, map_shapes=("full",))
    d = A.config.d
    n = H.num_vertices
    f = 3
    X = rng.standard_normal((n * d, f)) + 1j * rng.standard_normal((n * d, f))
    W1 = rng.standard_normal((d, d))
    W2 = rng.standard_normal((f, f))
    gamma = rng.standard_normal((2, 2))
    beta = rng.standard_normal(2)
    out = diffusion_layer(
        X, H, A, W1, W2, residual=True, gamma=gamma, beta=beta, apply_activation=True
    )
    bundle = build_laplacian(H, A, normalized=True, jitter=DEGREE_EPS)
    Q = np.eye(n * d) - bundle.L.to_dense()
    inner = Q @ np.kron(np.eye(n), W1) @ X @ W2 + X
    expected = complex_relu(complex_layer_norm(inner, gamma, beta))
    assert np.max(np.abs(out - expected)) < 1e-8


@pytest.mark.parametrize("residual", [True, False])
def test_layer_norm_without_activation_is_not_rectified(residual):
    # with gamma given and apply_activation=False the layer ends at its layer norm: entries with a
    # negative real part come out as they are
    rng = np.random.default_rng(10)
    H, A = small_instance(10, map_shapes=("full",))
    d, n, f = A.config.d, H.num_vertices, 3
    X = rng.standard_normal((n * d, f)) + 1j * rng.standard_normal((n * d, f))
    W1, W2 = rng.standard_normal((d, d)), rng.standard_normal((f, f))
    gamma, beta = rng.standard_normal((2, 2)), rng.standard_normal(2)
    out = diffusion_layer(X, H, A, W1, W2, residual=residual, gamma=gamma, beta=beta, apply_activation=False)
    Q = np.eye(n * d) - build_laplacian(H, A, normalized=True, jitter=DEGREE_EPS).L.to_dense()
    inner = Q @ np.kron(np.eye(n), W1) @ X @ W2 + (X if residual else 0)
    expected = complex_layer_norm(inner, gamma, beta)
    assert np.any(expected.real < -0.1)
    assert np.max(np.abs(out - expected)) < 1e-8


# --- the Q_N tape node ---------------------------------------------------------


def signless_node_case(shape, seed=25, f=3):
    """Raw maps and a complex signal on a small hypergraph at ``q != 0``."""
    rng = np.random.default_rng(seed)
    structure = IncidenceStructure.build(small_dataset(seed=seed, n=12).hypergraph)
    config = ModelConfig(num_layers=1, stalk_dim=2, hidden_width=f, q=0.2, map_shape=shape)
    d, num_inc = config.stalk_dim, len(structure.inc_node)
    maps = rng.standard_normal((num_inc, d) if shape == "diagonal" else (num_inc, d, d))
    X = rng.standard_normal((structure.n, d, f)) + 1j * rng.standard_normal((structure.n, d, f))
    return structure, config, maps, X


@pytest.mark.parametrize("shape", ["diagonal", "full"])
def test_signless_node_matches_dense_operator(shape):
    structure, config, maps, X = signless_node_case(shape)
    M = _operator_blocks(Tape().tensor(maps), structure, config).value
    assert M.dtype == float
    tape, factor = Tape(), Factor(structure, config.q, M)
    Y = _apply_signless(tape.tensor(M, requires_grad=True), tape.tensor(X, requires_grad=True), factor)
    assert len(tape.nodes) <= 1
    expected = dense_signless(structure, config, M) @ X.reshape(-1, X.shape[2])
    np.testing.assert_allclose(Y.value.reshape(expected.shape), expected, rtol=0, atol=1e-12)


def check_signless_node_gradients(shape, real_signal):
    # from the raw maps, so the degree roots (one root node for full maps)
    # are differentiated too; the real blocks M take the phase-weighted
    # gradient inside the node
    structure, config, maps, X = signless_node_case(shape)
    rng = np.random.default_rng(26)
    wr = rng.standard_normal(X.shape)
    wi = rng.standard_normal(X.shape)
    params = {"maps": maps.copy(), "xr": X.real.copy()}
    if not real_signal:
        params["xi"] = X.imag.copy()

    def build_loss(p):
        tape = Tape()
        T = {name: tape.tensor(value, requires_grad=True) for name, value in p.items()}
        x = T["xr"] if real_signal else ad.add(T["xr"], ad.mul(T["xi"], 1j))
        M = _operator_blocks(T["maps"], structure, config)
        Y = _apply_signless(M, x, Factor(structure, config.q, M.value))
        # quadratic in the output, so the signal gradient is not constant
        loss = parts_loss(Y, wr, wi, square_imag=True)
        tape.backward(loss)
        return float(loss.value), {name: t.grad for name, t in T.items()}

    finite_difference_check(
        build_loss, params, n_probes=32, rel_tol=1e-4, rng=np.random.default_rng(27)
    )


@pytest.mark.parametrize("shape", ["diagonal", "full"])
def test_signless_node_gradients_match_finite_differences(shape):
    check_signless_node_gradients(shape, real_signal=False)


@pytest.mark.parametrize("shape", ["diagonal", "full"])
def test_signless_node_gradients_for_a_real_signal(shape):
    # the first layer feeds the node a real signal, whose float view is
    # half as wide as a complex one's
    check_signless_node_gradients(shape, real_signal=True)


def degree_blocks(d, seed):
    """SPD blocks for the degree-root tests: random grams, a repeated
    eigenvalue, the ``DEGREE_EPS`` floor of all-zero maps, and a block of
    condition number 1e6."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((4, d, d))
    blocks = list(np.swapaxes(A, 1, 2) @ A + DEGREE_EPS * np.eye(d))
    blocks.append(2.0 * np.eye(d))
    blocks.append(DEGREE_EPS * np.eye(d))
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    blocks.append((Q * np.geomspace(1.0, 1e-6, d)) @ Q.T)
    return np.array(blocks)


def maps_with_degree_blocks(D):
    """One vertex per block of ``D``, each in a hyperedge of its own, with a map ``F`` for which
    ``F^T F + DEGREE_EPS I`` is the block: the degree blocks of :func:`_normalized_blocks` are ``D``."""
    w, V = np.linalg.eigh(D - DEGREE_EPS * np.eye(D.shape[-1]))
    F = np.sqrt(np.maximum(w, 0.0))[:, :, None] * np.swapaxes(V, 1, 2)
    H = DirectedHypergraph(len(D), tuple(Hyperedge((u,)) for u in range(len(D))))
    return IncidenceStructure.build(H), F


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_inverse_sqrt_node_matches_jacobi_roots(d):
    # the degree roots of the one _normalized_blocks node, seen through M = F D^{-1/2}
    structure, F = maps_with_degree_blocks(degree_blocks(d, seed=40 + d))
    M = _normalized_blocks(Tape().tensor(F), structure).value
    # per-block Jacobi, independent of the batched eigh the node shares with assembly;
    # the all-zero maps of the DEGREE_EPS floor give zero blocks exactly
    expected = []
    for f in F:
        w, V = jacobi_eigh(f.T @ f + DEGREE_EPS * np.eye(d), compute_vectors=True)
        expected.append(f @ (V / np.sqrt(w)) @ V.T)
    expected = np.array(expected)
    err = np.linalg.norm(M - expected, axis=(1, 2))
    assert np.all(err <= 1e-10 * np.linalg.norm(expected, axis=(1, 2)))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_inverse_sqrt_node_gradient_matches_finite_differences(d):
    # the _normalized_blocks node on the degree-root blocks (a repeated eigenvalue among
    # them), each at a vertex of its own, and on random maps of a small dataset, whose
    # vertices sum several; the well-conditioned blocks keep the central difference within 1e-6
    rng = np.random.default_rng(60 + d)
    own = maps_with_degree_blocks(degree_blocks(d, seed=50 + d)[:5] + np.eye(d))
    shared = IncidenceStructure.build(small_dataset(seed=d, n=12).hypergraph)
    for structure, F in (own, (shared, rng.standard_normal((len(shared.inc_node), d, d)))):
        W = rng.standard_normal(F.shape)

        def build_loss(p):
            tape = Tape()
            maps = tape.tensor(p["F"], requires_grad=True)
            M = _normalized_blocks(maps, structure)
            loss = ad.add(ad.reduce_sum(ad.mul(M, W)), ad.reduce_sum(ad.mul(M, M)))
            tape.backward(loss)
            return float(loss.value), {"F": maps.grad}

        finite_difference_check(
            build_loss, {"F": F.copy()}, n_probes=32, rel_tol=1e-6, rng=np.random.default_rng(61)
        )


@pytest.mark.parametrize("d", range(1, 7))
def test_diagonal_operator_blocks_are_the_full_branch_on_embedded_maps(d):
    # the elementwise degree root of diagonal maps is a fast path: on the
    # np.diag-embedded maps the full branch's eigh root gives the same bits,
    # also at a vertex whose maps are all zero, as sheaf dropout leaves them
    rng = np.random.default_rng(70 + d)
    for seed in range(7):
        structure = IncidenceStructure.build(small_dataset(seed=seed, n=12).hypergraph)
        maps = rng.standard_normal((len(structure.inc_node), d))
        maps[rng.random(len(maps)) < 0.3] = 0.0
        blocks = {}
        for shape, value in (("diagonal", maps), ("full", np.stack([np.diag(m) for m in maps]))):
            config = ModelConfig(num_layers=1, stalk_dim=d, hidden_width=2, map_shape=shape)
            blocks[shape] = _operator_blocks(Tape().tensor(value), structure, config).value
        assert blocks["diagonal"].tobytes() == blocks["full"].tobytes()


def test_full_operator_blocks_record_few_tape_nodes():
    # one node; the 45-step Newton-Schulz iteration recorded about 230, and
    # the chain of seven nodes around an eigh node that replaced it 7
    structure, config, maps, _ = signless_node_case("full")
    tape = Tape()
    _operator_blocks(tape.tensor(maps, requires_grad=True), structure, config)
    assert len(tape.nodes) == 1


def training_step_tape(full):
    # one training step of the benchmark's train-light or train-full config
    ds = small_dataset(seed=5, n=30)
    structure = IncidenceStructure.build(ds.hypergraph)
    config, _ = synthetic_benchmark_config(seed=5)
    if full:
        config = dataclasses.replace(config, light_mode=False, map_shape="full")
    state = init_state(config, ds.features.shape[1], 2)
    tape = Tape()
    logits, _, _ = _forward_tape(
        tape, ds.features, structure, state, config, model._trainable_names(state, config),
        dropout_rng=np.random.default_rng(0),
    )
    ad.softmax_cross_entropy(logits, ds.labels, ds.masks[0])
    return tape


@pytest.mark.parametrize("full, nodes", [(False, 17), (True, 20)])
def test_training_step_records_a_fixed_number_of_tape_nodes(full, nodes):
    # the node count does not depend on the data: a layer's residual, layer norm
    # and rectifier are one node and each real/imaginary unwinding one product
    assert len(training_step_tape(full).nodes) == nodes


@pytest.mark.parametrize("full, nbytes", [(False, 177_608), (True, 183_272)])
def test_training_step_tape_holds_a_fixed_number_of_bytes(full, nbytes):
    # the bytes held by the node values on this n = 30 instance, pinned so that
    # per-column layer-norm algebra or real/imaginary copies cannot creep back
    assert sum(node.value.nbytes for node in training_step_tape(full).nodes) == nbytes


def test_no_backward_writes_into_a_gradient_it_receives(monkeypatch):
    # a tensor stores its first gradient as sent, without a copy; each stored .grad is made read-only
    # here, so a backward that wrote in place into a gradient it received would raise
    accumulate = ad.Tensor.accumulate

    def read_only(self, g):
        accumulate(self, g)
        self.grad.setflags(write=False)

    monkeypatch.setattr(ad.Tensor, "accumulate", read_only)
    ds = small_dataset(seed=5, n=30)
    structure = IncidenceStructure.build(ds.hypergraph)
    light, _ = synthetic_benchmark_config(seed=5)
    for config in (light, dataclasses.replace(light, light_mode=False, map_shape="full")):
        config = dataclasses.replace(config, dropout_rate=0.3)
        state = init_state(config, ds.features.shape[1], 2)
        _, grads, _, _ = loss_and_gradients(
            ds.features, structure, ds.labels, ds.masks[0], state, config, dropout_rng=np.random.default_rng(0)
        )
        assert not grads["W2_0"].flags.writeable
        assert config.light_mode or not grads["phi0_W"].flags.writeable
    # a criterion-4 probe: full maps, dynamic sheaf, every parameter group
    config = ModelConfig(num_layers=2, stalk_dim=2, hidden_width=3, seed=6, map_shape="full", dynamic_sheaf=True)
    gradcheck_config(config, 6, n_probes=4)


# --- forward ----------------------------------------------------------------


def test_forward_zero_layers_runs_classifier_only():
    ds = small_dataset(seed=10)
    config = ModelConfig(num_layers=0, stalk_dim=2, hidden_width=4, seed=10)
    state = init_state(config, ds.features.shape[1], 2)
    logits = forward(ds.features, ds.hypergraph, state, config)
    assert logits.shape == (ds.hypergraph.num_vertices, 2)


def test_forward_deterministic():
    ds = small_dataset(seed=11)
    config = ModelConfig(num_layers=2, stalk_dim=2, hidden_width=4, seed=11)
    state = init_state(config, ds.features.shape[1], 2)
    a = forward(ds.features, ds.hypergraph, state, config)
    b = forward(ds.features, ds.hypergraph, state, config)
    assert np.array_equal(a, b)


def test_light_and_full_first_forward_agree_bitwise():
    ds = small_dataset(seed=12)
    base = dict(num_layers=2, stalk_dim=2, hidden_width=4, seed=12)
    full_cfg = ModelConfig(light_mode=False, **base)
    light_cfg = ModelConfig(light_mode=True, **base)
    state_full = init_state(full_cfg, ds.features.shape[1], 2)
    state_light = init_state(light_cfg, ds.features.shape[1], 2)
    for k in state_full.params:
        assert np.array_equal(state_full.params[k], state_light.params[k])
    a = forward(ds.features, ds.hypergraph, state_full, full_cfg)
    b = forward(ds.features, ds.hypergraph, state_light, light_cfg)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("full", [False, True], ids=["light", "full-dynamic"])
def test_relabelling_the_vertices_permutes_the_logits(full):
    # the operator's halves gather and sum in the order of the labels, so a
    # relabelling reorders each sum, but each vertex must keep its logits;
    # the gap was 1.7e-14 here and at most 4.8e-14 on nine other relabellings,
    # on logits of size about 4
    ds = generate_synthetic(SyntheticConfig(n=500, classes=5, intra_per_class=30, inter_per_pair=10, seed=0))
    config, _ = synthetic_benchmark_config(seed=0)
    if full:
        config = dataclasses.replace(config, light_mode=False, map_shape="full", dynamic_sheaf=True)
    H = ds.hypergraph
    perm = np.random.default_rng(5).permutation(H.num_vertices)  # vertex u becomes perm[u]
    edges = tuple(Hyperedge(perm[list(e.tail)], perm[list(e.head)]) for e in H.hyperedges)
    features = np.empty_like(ds.features)
    features[perm] = ds.features
    state = init_state(config, ds.features.shape[1], 5)
    logits = forward(ds.features, H, state, config)
    relabelled = forward(features, DirectedHypergraph(H.num_vertices, edges), state, config)
    assert np.max(np.abs(relabelled[perm] - logits)) <= 1e-10


@pytest.mark.parametrize("full", [False, True], ids=["light", "full-dynamic"])
def test_reordering_the_hyperedges_leaves_the_logits(full):
    # the map predictor's hyperedge means and the operator's runs of (hyperedge,
    # role) pairs follow the hyperedge order, so a reordering reorders their
    # sums; over five orders the gap was at most 3.6e-15 (light) and 2.8e-14
    # (full), on logits of size about 4
    ds = generate_synthetic(SyntheticConfig(n=500, classes=5, intra_per_class=30, inter_per_pair=10, seed=0))
    config, _ = synthetic_benchmark_config(seed=0)
    if full:
        config = dataclasses.replace(config, light_mode=False, map_shape="full", dynamic_sheaf=True)
    H = ds.hypergraph
    state = init_state(config, ds.features.shape[1], 5)
    logits = forward(ds.features, H, state, config)
    rng = np.random.default_rng(6)
    for _ in range(3):
        edges = tuple(H.hyperedges[j] for j in rng.permutation(H.num_hyperedges))
        reordered = forward(ds.features, DirectedHypergraph(H.num_vertices, edges), state, config)
        assert np.max(np.abs(reordered - logits)) <= 1e-10


def test_classifier_input_width_is_twice_stalk_times_hidden():
    config = ModelConfig(num_layers=1, stalk_dim=3, hidden_width=5, seed=0)
    state = init_state(config, 4, 7)
    assert state.params["cls1_W"].shape[0] == 2 * 3 * 5
    assert state.params["cls2_W"].shape[1] == 7


HANDOFF_CASES = {
    "static": dict(),
    "dynamic": dict(dynamic_sheaf=True),
    "full-dropout": dict(map_shape="full", dropout_rate=0.2),
    "full-dynamic": dict(map_shape="full", dynamic_sheaf=True),
}


@pytest.mark.parametrize("case", list(HANDOFF_CASES))
def test_forward_returns_the_factor_of_each_layer(case):
    ds = small_dataset(seed=24)
    config = ModelConfig(num_layers=3, stalk_dim=2, hidden_width=4, seed=24, **HANDOFF_CASES[case])
    structure = IncidenceStructure.build(ds.hypergraph)
    state = init_state(config, ds.features.shape[1], 2)
    logits, factors, _ = _forward_tape(
        Tape(), ds.features, structure, state, config, set(), dropout_rng=np.random.default_rng(0)
    )
    # a static sheaf applies one operator in every layer, a dynamic one its own per layer
    distinct = len({id(factor) for factor in factors})
    assert len(factors) == 3 and distinct == (3 if config.dynamic_sheaf else 1)
    # pinned, the same operators give the same logits bit for bit
    pinned, again, _ = _forward_tape(Tape(), ds.features, structure, state, config, set(), factors=factors)
    assert pinned.value.tobytes() == logits.value.tobytes()
    assert again == factors


@pytest.mark.parametrize("dynamic, runs", [(False, 1), (True, 2)])
def test_probe_runs_lanczos_once_per_distinct_factor(monkeypatch, dynamic, runs):
    ds = small_dataset(seed=25)
    config = ModelConfig(num_layers=2, stalk_dim=2, hidden_width=4, seed=25, dynamic_sheaf=dynamic)
    calls = _count_calls(monkeypatch, model, "lanczos_lambda_max")
    train(ds, config, TrainingBudget(max_epochs=1, patience=1, eigencheck_every=1))
    assert len(calls) == runs


@pytest.mark.parametrize("dropout, probe_forwards", [(0.0, 1), (0.3, 3)])
def test_probe_reads_the_next_steps_factors(monkeypatch, dropout, probe_forwards):
    # without sheaf dropout the probe of epochs 1 and 2 reads the factors of the
    # next step's forward, and only the last epoch's probe runs its own
    ds = small_dataset(seed=26)
    config = ModelConfig(num_layers=2, stalk_dim=2, hidden_width=4, seed=26, dropout_rate=dropout)
    forwards = {}
    for every in (0, 1):
        calls = _count_calls(monkeypatch, model, "_forward_tape")
        train(ds, config, TrainingBudget(max_epochs=3, patience=3, eigencheck_every=every))
        forwards[every] = len(calls)
        monkeypatch.undo()
    assert forwards[1] - forwards[0] == probe_forwards


# --- gradients ----------------------------------------------------------------


def gradcheck_config(config, seed, n_probes=12):
    ds = small_dataset(seed=seed, n=12)
    structure = IncidenceStructure.build(ds.hypergraph)
    state = init_state(config, ds.features.shape[1], 2)
    # move off the freshly initialized point: zero biases put rectifier
    # inputs exactly on their kink, where the loss is not differentiable
    noise = np.random.default_rng(seed + 100)
    for value in state.params.values():
        value += 0.01 * noise.standard_normal(value.shape)
    mask = ds.masks[0]

    def build_loss(params):
        state.params.update(params)
        loss, grads, _, _ = loss_and_gradients(ds.features, structure, ds.labels, mask, state, config)
        return loss, grads

    return finite_difference_check(
        build_loss, state.params, n_probes=n_probes, rng=np.random.default_rng(seed)
    )


def test_gradients_match_finite_differences_diagonal():
    config = ModelConfig(num_layers=2, stalk_dim=2, hidden_width=3, seed=13, map_shape="diagonal")
    gradcheck_config(config, 13)


def test_gradients_match_finite_differences_full_maps():
    config = ModelConfig(num_layers=1, stalk_dim=2, hidden_width=3, seed=14, map_shape="full")
    gradcheck_config(config, 14)


@pytest.mark.parametrize("aggregation", ["mean", "sum"])
def test_gradients_match_finite_differences_two_layer_dynamic_full_maps(aggregation):
    # the second layer's predictor reads a complex signal and differentiates
    # its own factor; 32 probes at the default 1e-4, as in criterion 4
    config = ModelConfig(
        num_layers=2, stalk_dim=2, hidden_width=3, seed=17, map_shape="full", dynamic_sheaf=True,
        hyperedge_aggregation=aggregation,
    )
    gradcheck_config(config, 17, n_probes=32)


def test_gradients_match_finite_differences_no_layer_norm_dynamic():
    config = ModelConfig(
        num_layers=2, stalk_dim=2, hidden_width=3, seed=15,
        use_layer_norm=False, dynamic_sheaf=True, sheaf_activation="sigmoid",
    )
    gradcheck_config(config, 15)


def test_light_mode_gradients_for_phi_are_exactly_zero():
    ds = small_dataset(seed=16, n=12)
    structure = IncidenceStructure.build(ds.hypergraph)
    config = ModelConfig(num_layers=2, stalk_dim=2, hidden_width=3, seed=16, light_mode=True)
    state = init_state(config, ds.features.shape[1], 2)
    _, grads, _, _ = loss_and_gradients(ds.features, structure, ds.labels, ds.masks[0], state, config)
    for name in state.phi_names():
        assert np.all(grads[name] == 0.0)
    assert np.any(grads["proj_W"] != 0.0)
    assert np.any(grads["W2_0"] != 0.0)


def test_light_mode_gradcheck_with_frozen_operator():
    # light mode differentiates the loss with the operator held constant, so
    # the finite-difference probe must evaluate that same frozen-operator loss
    config = ModelConfig(num_layers=2, stalk_dim=2, hidden_width=3, seed=17, light_mode=True)
    ds = small_dataset(seed=17, n=12)
    structure = IncidenceStructure.build(ds.hypergraph)
    state = init_state(config, ds.features.shape[1], 2)
    noise = np.random.default_rng(117)
    for value in state.params.values():
        value += 0.01 * noise.standard_normal(value.shape)
    _, factors, _ = _forward_tape(Tape(), ds.features, structure, state, config, set())

    def build_loss(params):
        state.params.update(params)
        loss, grads, _, _ = loss_and_gradients(
            ds.features, structure, ds.labels, ds.masks[0], state, config, factors=factors
        )
        return loss, grads

    finite_difference_check(
        build_loss, state.params, n_probes=12, rng=np.random.default_rng(17)
    )


# --- training ----------------------------------------------------------------


def test_zero_learning_rate_leaves_parameters_unchanged():
    ds = small_dataset(seed=18)
    config = ModelConfig(num_layers=1, stalk_dim=2, hidden_width=3, seed=18)
    budget = TrainingBudget(max_epochs=3, patience=10, learning_rate=0.0)
    before = init_state(config, ds.features.shape[1], 2)
    result = train(ds, config, budget)
    for name, value in before.params.items():
        np.testing.assert_array_equal(result.state.params[name], value)


def test_training_is_deterministic():
    ds = small_dataset(seed=19)
    config = ModelConfig(num_layers=2, stalk_dim=2, hidden_width=4, seed=19, dropout_rate=0.3)
    budget = TrainingBudget(max_epochs=5, patience=10, learning_rate=0.01)
    r1 = train(ds, config, budget)
    r2 = train(ds, config, budget)
    assert r1.history == r2.history
    assert r1.test_acc == r2.test_acc


def test_training_improves_on_separable_data():
    ds = small_dataset(seed=20, n=40)
    config = ModelConfig(num_layers=2, stalk_dim=2, hidden_width=8, seed=20, q=0.1)
    budget = TrainingBudget(max_epochs=60, patience=60, learning_rate=0.02)
    result = train(ds, config, budget)
    assert result.history[-1]["train_acc"] >= 0.8


def test_light_mode_phi_frozen_through_training():
    ds = small_dataset(seed=21)
    config = ModelConfig(num_layers=2, stalk_dim=2, hidden_width=4, seed=21, light_mode=True)
    before = init_state(config, ds.features.shape[1], 2)
    result = train(ds, config, TrainingBudget(max_epochs=5, patience=10, learning_rate=0.02))
    for name in before.phi_names():
        np.testing.assert_array_equal(result.state.params[name], before.params[name])
    assert np.any(result.state.params["proj_W"] != before.params["proj_W"])


def reference_train(ds, config, budget):
    """The training loop spelled out: step, separate evaluation forward, early stopping."""
    structure = IncidenceStructure.build(ds.hypergraph)
    labels = np.asarray(ds.labels, dtype=np.int64)
    train_mask, val_mask, test_mask = ds.masks
    state = init_state(config, ds.features.shape[1], int(labels.max()) + 1)
    dropout_rng = np.random.default_rng(config.seed + 1)
    best_state, best_val, best_epoch, since_best = state.copy(), -1.0, 0, 0
    history = []
    for epoch in range(1, budget.max_epochs + 1):
        loss, grads, logits, _ = loss_and_gradients(
            ds.features, structure, labels, train_mask, state, config, dropout_rng=dropout_rng
        )
        _adam_step(state, grads, config, budget)
        eval_logits = forward(ds.features, ds.hypergraph, state, config)
        history.append({
            "epoch": epoch,
            "train_loss": loss,
            "train_acc": accuracy(logits, labels, train_mask),
            "val_acc": accuracy(eval_logits, labels, val_mask),
        })
        if history[-1]["val_acc"] > best_val:
            best_val, best_epoch, best_state, since_best = history[-1]["val_acc"], epoch, state.copy(), 0
        else:
            since_best += 1
            if since_best >= budget.patience:
                break
    test_logits = forward(ds.features, ds.hypergraph, best_state, config)
    return history, accuracy(test_logits, labels, test_mask), best_epoch


TRAIN_CASES = {
    "light": (
        dataclasses.replace(synthetic_benchmark_config(seed=28)[0], hidden_width=4, classifier_width=8),
        TrainingBudget(max_epochs=6, patience=6, learning_rate=0.02, weight_decay=5e-4),
    ),
    "full-maps": (
        ModelConfig(num_layers=2, stalk_dim=2, hidden_width=4, seed=29, map_shape="full"),
        TrainingBudget(max_epochs=6, patience=6, learning_rate=0.02),
    ),
    "early-stop": (
        ModelConfig(num_layers=1, stalk_dim=2, hidden_width=4, seed=9, light_mode=True),
        TrainingBudget(max_epochs=40, patience=2, learning_rate=0.05),
    ),
    "dropout": (
        ModelConfig(num_layers=2, stalk_dim=2, hidden_width=4, seed=30, dropout_rate=0.3),
        TrainingBudget(max_epochs=5, patience=5, learning_rate=0.02),
    ),
    "no-epochs": (
        ModelConfig(num_layers=1, stalk_dim=2, hidden_width=4, seed=31),
        TrainingBudget(max_epochs=0),
    ),
}


@pytest.mark.parametrize("case", list(TRAIN_CASES))
def test_train_matches_reference_loop(case):
    config, budget = TRAIN_CASES[case]
    ds = small_dataset(seed=5, n=42, classes=3)
    result = train(ds, config, budget)
    history, test_acc, best_epoch = reference_train(ds, config, budget)
    assert result.history == history
    assert result.test_acc == test_acc
    assert result.best_epoch == best_epoch
    if case == "early-stop":
        assert len(history) < budget.max_epochs


@pytest.mark.parametrize("field", ["hidden_width", "classifier_width"])
def test_model_widths_must_be_positive(field):
    with pytest.raises(ValueError, match=field):
        ModelConfig(**{field: 0})
    assert getattr(ModelConfig(**{field: 1}), field) == 1
    assert getattr(ModelConfig(**{field: np.int64(3)}), field) == 3


@pytest.mark.parametrize("field", ["num_layers", "stalk_dim", "hidden_width", "classifier_width", "seed"])
@pytest.mark.parametrize("value", [4.5, 2.0, True, "2"])
def test_model_integer_fields_reject_other_types(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ModelConfig(**{field: value})


@pytest.mark.parametrize("field", ["max_epochs", "patience", "eigencheck_every"])
def test_negative_budget_is_rejected(field):
    with pytest.raises(ValueError, match=field):
        TrainingBudget(**{field: -1})
    assert getattr(TrainingBudget(**{field: 0}), field) == 0
    assert getattr(TrainingBudget(**{field: np.int64(2)}), field) == 2
    # a float epoch count used to fail later, in train, and 1.5 probed at epoch 3
    for value in (2.5, 1.5, 3.0, False):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrainingBudget(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("learning_rate", -0.5), ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ("weight_decay", -1.0), ("weight_decay", float("nan")),
])
def test_bad_optimizer_budget_is_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        TrainingBudget(**{field: value})
    assert getattr(TrainingBudget(**{field: 0.0}), field) == 0.0


def test_negative_eigencheck_interval_is_rejected():
    with pytest.raises(ValueError, match="eigencheck_every"):
        TrainingBudget(eigencheck_every=-2)


def test_probe_without_layers_is_rejected_up_front(monkeypatch):
    calls = _count_calls(monkeypatch, model, "loss_and_gradients")
    config = ModelConfig(num_layers=0, stalk_dim=2, hidden_width=4)
    with pytest.raises(ValueError, match=r"eigencheck_every=1 needs num_layers >= 1: num_layers=0"):
        train(small_dataset(seed=23), config, TrainingBudget(max_epochs=2, eigencheck_every=1))
    assert not calls  # refused before the first step
    # without the probe, a network with no diffusion layer still trains
    assert train(small_dataset(seed=23), config, TrainingBudget(max_epochs=2)).history


def test_spectral_safety_probe_is_bounded():
    ds = small_dataset(seed=22)
    config = ModelConfig(num_layers=2, stalk_dim=2, hidden_width=4, seed=22)
    budget = TrainingBudget(max_epochs=6, patience=10, learning_rate=0.02, eigencheck_every=2)
    result = train(ds, config, budget)
    probes = [row["lambda_max"] for row in result.history if "lambda_max" in row]
    assert probes
    assert all(lam <= 1 + 1e-6 for lam in probes)


@pytest.mark.parametrize("shape", ["diagonal", "full"])
@pytest.mark.parametrize("n, seed", [(150, 30), (150, 32), (60, 33)])
def test_lambda_max_matches_eigvalsh(n, seed, shape):
    # seed 30 clusters the top of the spectrum just below 1, where a fixed
    # number of power steps stopped about 1e-3 short; at n = 60 (n d = 120)
    # Lanczos exhausts the whole Krylov space
    ds = generate_synthetic(SyntheticConfig(
        n=n, classes=3, h_min=2, h_max=4, intra_per_class=20 * n // 150, inter_per_pair=10 * n // 150, seed=seed
    ))
    config = ModelConfig(num_layers=1, stalk_dim=2, hidden_width=4, seed=seed, map_shape=shape)
    structure = IncidenceStructure.build(ds.hypergraph)
    state = init_state(config, ds.features.shape[1], 3)
    _, (factor,), _ = _forward_tape(Tape(), ds.features, structure, state, config, set())
    Q = dense_signless(structure, config, factor.M)
    x = np.random.default_rng(0).standard_normal((structure.n, 2, 3)) + 0j
    np.testing.assert_allclose(factor.gram(x).reshape(-1, 3), Q @ x.reshape(-1, 3), rtol=0, atol=1e-12)
    exact = np.linalg.eigvalsh(Q)[-1]
    lam = lanczos_lambda_max(factor)
    # a Ritz value never exceeds lambda_max; the residual stop puts it within 1e-8
    assert exact - 1e-8 <= lam <= exact + 1e-10


def _count_calls(monkeypatch, owner, name, wrap=lambda f: f):
    """Patch ``owner.name`` to count its calls; returns the list that records them."""
    calls, original = [], getattr(owner, name)
    fn = getattr(original, "__func__", original)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrap(counted))
    return calls


@pytest.mark.parametrize("dynamic, preparations", [(False, 1), (True, 2)])
def test_factor_is_prepared_once_per_operator(monkeypatch, dynamic, preparations):
    # light mode shares one M between both layers, so the forward and the
    # backward of a step use one prepared factor; a dynamic sheaf has one per layer
    ds = small_dataset(seed=40)
    config = dataclasses.replace(synthetic_benchmark_config(seed=40)[0], dynamic_sheaf=dynamic)
    structure = IncidenceStructure.build(ds.hypergraph)
    state = init_state(config, ds.features.shape[1], 2)
    prepared = _count_calls(monkeypatch, Factor, "__init__")
    loss_and_gradients(ds.features, structure, ds.labels, ds.masks[0], state, config)
    assert len(prepared) == preparations


def test_second_train_on_a_hypergraph_builds_no_structure(monkeypatch, tmp_path):
    ds = small_dataset(seed=41)
    config, budget = synthetic_benchmark_config(seed=41)
    budget = dataclasses.replace(budget, max_epochs=4, patience=4)
    first = train(ds, config, budget)
    builds = _count_calls(monkeypatch, SegmentPlan, "build", classmethod)
    again = train(ds, config, budget)
    assert builds == [] and again.history == first.history
    # a round trip through the text files gives an equal, distinct hypergraph
    # with its own structure, and the same training
    write_dataset(ds, tmp_path / "data")
    copy = read_dataset(tmp_path / "data")
    assert copy.hypergraph == ds.hypergraph and copy.hypergraph is not ds.hypergraph
    assert train(copy, config, budget).history == first.history
    assert len(builds) == 2  # its node and edge plans


def _garbage_left_by(call):
    """The unreachable objects that ``call()`` leaves for the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        call()
    finally:
        gc.enable()
    return gc.collect()


GARBAGE_TRAIN_CASES = {
    "light": ({}, {}),
    "full-maps": ({"light_mode": False, "map_shape": "full"}, {}),
    "full-dynamic-dropout": (
        {"light_mode": False, "map_shape": "full", "dynamic_sheaf": True, "dropout_rate": 0.2}, {}
    ),
    "light-probe": ({}, {"eigencheck_every": 1}),
}


@pytest.mark.parametrize("case", ["light", "full-dynamic"])
def test_evaluate_records_nothing_and_is_freed_by_reference_counting(monkeypatch, case):
    # the forward-only pass takes no gradient, so its tape stays empty and no
    # graph waits for the cyclic collector; its logits are the training pass's
    ds = small_dataset(seed=44)
    structure = IncidenceStructure.build(ds.hypergraph)
    config = synthetic_benchmark_config(seed=44)[0]
    if case == "full-dynamic":
        config = dataclasses.replace(config, light_mode=False, map_shape="full", dynamic_sheaf=True)
    state = init_state(config, ds.features.shape[1], 2)
    tapes = []

    class WatchedTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append((weakref.ref(self), self.nodes))

    monkeypatch.setattr(model, "Tape", WatchedTape)
    gc.collect()
    gc.disable()
    try:
        logits = model._evaluate(ds.features, structure, state, config)[0]
        [(tape, nodes)] = tapes
        assert nodes == [] and tape() is None
    finally:
        gc.enable()
    trained = loss_and_gradients(ds.features, structure, ds.labels, ds.masks[0], state, config)[2]
    assert logits.tobytes() == trained.tobytes()


@pytest.mark.parametrize("case", list(GARBAGE_TRAIN_CASES))
def test_training_leaves_no_cyclic_garbage(case):
    # each swept tape, and each forward-only tape, is freed by reference counting
    ds = small_dataset(seed=42, n=30)
    config_fields, budget_fields = GARBAGE_TRAIN_CASES[case]
    config, budget = synthetic_benchmark_config(seed=42)
    config = dataclasses.replace(config, **config_fields)
    budget = dataclasses.replace(budget, max_epochs=3, patience=3, **budget_fields)
    train(ds, config, budget)  # builds and caches the hypergraph's structure
    assert _garbage_left_by(lambda: train(ds, config, budget)) == 0


def test_model_entry_points_leave_no_cyclic_garbage():
    ds = small_dataset(seed=43)
    structure = IncidenceStructure.build(ds.hypergraph)
    config = ModelConfig(num_layers=2, stalk_dim=2, hidden_width=4, seed=43, map_shape="full")
    state = init_state(config, ds.features.shape[1], 2)
    n, d, f = structure.n, config.stalk_dim, config.hidden_width
    X = np.random.default_rng(43).standard_normal((n * d, f)) + 0j
    phi = {"W": state.params["phi0_W"], "b": state.params["phi0_b"]}
    sheaf = predict_sheaf(X, ds.hypergraph, phi, config)
    calls = {
        "forward": lambda: forward(ds.features, ds.hypergraph, state, config),
        "loss_and_gradients": lambda: loss_and_gradients(
            ds.features, structure, ds.labels, ds.masks[0], state, config
        ),
        "predict_sheaf": lambda: predict_sheaf(X, ds.hypergraph, phi, config),
        "diffusion_layer": lambda: diffusion_layer(
            X, ds.hypergraph, sheaf, np.eye(d), np.eye(f), gamma=np.eye(2), beta=np.zeros(2)
        ),
    }
    assert {name: _garbage_left_by(call) for name, call in calls.items()} == dict.fromkeys(calls, 0)


@pytest.mark.parametrize("full", [False, True])
def test_training_memory_peak_does_not_grow_with_epochs(full):
    # a step's graph is freed when the step returns, so six epochs peak where
    # one does; left to the cyclic collector, the peak doubled by epoch three
    ds = generate_synthetic(SyntheticConfig(n=500, classes=5, intra_per_class=30, inter_per_pair=10, seed=0))
    IncidenceStructure.build(ds.hypergraph)
    config, budget = synthetic_benchmark_config(seed=0)
    if full:
        config = dataclasses.replace(config, light_mode=False, map_shape="full")
    peaks = []
    for epochs in (1, 6):
        gc.collect()
        tracemalloc.start()
        try:
            train(ds, config, dataclasses.replace(budget, max_epochs=epochs, patience=epochs))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], f"peak {peaks[1] / 2**20:.2f} MiB at 6 epochs, {peaks[0] / 2**20:.2f} at 1"


def test_divergence_raises_with_epoch_index():
    ds = small_dataset(seed=23)
    ds.features[0, 0] = np.nan
    config = ModelConfig(num_layers=1, stalk_dim=2, hidden_width=4, seed=23)
    budget = TrainingBudget(max_epochs=50, patience=50, learning_rate=0.01)
    with pytest.raises(TrainingDiverged) as err:
        train(ds, config, budget)
    assert err.value.epoch == 1


# final train loss, train/val accuracy at the last epoch, test accuracy, best
# epoch and the norm of the best state, recorded with the 45-step Newton-Schulz
# iteration that the eigh node replaced; seed 2 has the least accurate of those
# roots, and the eigh run differs from it by 2e-9 (loss) and 7e-9 (parameters)
FULL_MAP_RECORD = {
    1: (0.10962278212707535, 0.956, 0.92, 0.936, 16, 13.808809900490134),
    2: (0.24208147452355747, 0.908, 0.808, 0.848, 14, 12.477495672746699),
    3: (0.4165048434006971, 0.844, 0.832, 0.808, 19, 13.476681733960664),
}


# the same fields for the train-light benchmark config (the reference config)
# over 20 epochs at n = 500, recorded with the scalar-op layer norm and the
# concatenated real/imaginary unwinding that one-node versions replaced
LIGHT_RECORD = {
    1: (0.3547436915622252, 0.888, 0.944, 0.872, 18, 12.769835626608652),
    2: (0.30365116076380216, 0.896, 0.8, 0.84, 20, 13.433090737833172),
    3: (0.1482316405443965, 0.96, 0.864, 0.888, 13, 12.60547775705467),
}


# the same fields for the reference config with light mode off and diagonal
# maps, the one training path that differentiates diagonal operator blocks
DIAGONAL_RECORD = {
    1: (0.2598913616360551, 0.916, 0.896, 0.896, 11, 11.198111331550479),
    2: (0.21144974052513985, 0.944, 0.848, 0.896, 20, 13.395210299270298),
    3: (0.23206363246850867, 0.9, 0.896, 0.896, 20, 13.644202817470754),
}


def check_training_record(record, seed, **fields):
    """Train the reference config with ``fields`` replaced for 20 epochs at n = 500 and compare
    the final loss, accuracies, best epoch and parameter norm with ``record[seed]``."""
    ds = generate_synthetic(SyntheticConfig(n=500, classes=5, intra_per_class=30, inter_per_pair=10, seed=seed))
    config, budget = synthetic_benchmark_config(seed=seed)
    result = train(ds, dataclasses.replace(config, **fields), dataclasses.replace(budget, max_epochs=20, patience=20))
    loss, train_acc, val_acc, test_acc, best_epoch, norm = record[seed]
    last = result.history[-1]
    assert last["train_loss"] == pytest.approx(loss, rel=1e-7, abs=0)
    assert (last["train_acc"], last["val_acc"]) == (train_acc, val_acc)
    assert (result.test_acc, result.best_epoch) == (test_acc, best_epoch)
    params = np.concatenate([v.ravel() for v in result.state.params.values()])
    assert np.linalg.norm(params) == pytest.approx(norm, rel=1e-7, abs=0)


@pytest.mark.regression
@pytest.mark.parametrize("seed", sorted(LIGHT_RECORD))
def test_light_training_matches_record(seed):
    check_training_record(LIGHT_RECORD, seed)


@pytest.mark.regression
@pytest.mark.parametrize("seed", sorted(FULL_MAP_RECORD))
def test_full_map_training_matches_record(seed):
    # the train-full benchmark config (reference config, full maps, light mode
    # off); about 1 s per seed
    check_training_record(FULL_MAP_RECORD, seed, light_mode=False, map_shape="full")


@pytest.mark.regression
@pytest.mark.parametrize("seed", sorted(DIAGONAL_RECORD))
def test_diagonal_map_training_matches_record(seed):
    check_training_record(DIAGONAL_RECORD, seed, light_mode=False)
