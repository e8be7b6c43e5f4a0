"""Sheaf diffusion networks on directed hypergraphs.

Each layer predicts per-incidence restriction maps from the current signal,
assembles the normalized signless operator ``Q_N = Z^dagger Z`` with
``Z = D_E^{-1/2} B D_V^{-1/2}``, kept as real blocks ``M`` with ``Z_k = w_k M_k``
(see :mod:`.laplacian`), and applies

    X_{t+1} = crelu(layernorm(Q_N (I_n (x) W1) X_t W2 [+ X_t]))

to a complex signal, one complex tensor on the autodiff tape.  The light
variant keeps the map-predictor frozen and detaches the operator from the
backward pass; the signal path itself stays differentiable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .hypergraph import DirectedHypergraph, _check_integer_fields
from .laplacian import DEGREE_EPS, Factor, _degree_blocks, _spd_inverse_sqrt, build_laplacian
from .sheaf import IncidenceStructure, SheafAssignment, SheafConfig
from .spectral import lanczos_lambda_max

__all__ = [
    "ModelConfig",
    "ModelState",
    "TrainingBudget",
    "TrainResult",
    "TrainingDiverged",
    "complex_relu",
    "complex_layer_norm",
    "predict_sheaf",
    "diffusion_layer",
    "init_state",
    "forward",
    "loss_and_gradients",
    "train",
    "accuracy",
    "synthetic_benchmark_config",
]

LAYER_NORM_EPS = 1e-5


# --- plain complex helpers ----------------------------------------------------


def complex_relu(x: np.ndarray) -> np.ndarray:
    """Zero the entries whose real part is not positive, by multiplication: a NaN stays NaN."""
    x = np.asarray(x, dtype=complex)
    return x * (x.real > 0)


def complex_layer_norm(
    X: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = LAYER_NORM_EPS
) -> np.ndarray:
    """Whiten each feature column's (re, im) pairs jointly, then apply the affine: the 2x2 covariance
    of a column's real and imaginary parts across rows (plus ``eps`` on the diagonal) is inverted by its
    closed-form root, one Jacobi rotation per column: the :func:`_spd_inverse_sqrt` that degree blocks use."""
    return _whiten(np.array(X, dtype=complex, order="C"), gamma, beta, eps)[0]


def _groups(Z: np.ndarray) -> np.ndarray:
    """The float view of a complex ``Z`` ``(N, f)`` as ``(f / k, N, 2k)``, ``k = gcd(f, 4)``: the (re, im)
    pairs of ``k`` adjacent columns side by side, one 64-byte line of each row."""
    return Z.view(float).reshape(len(Z), -1, 2 * math.gcd(Z.shape[1], 4)).transpose(1, 0, 2)


def _pair_moments(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``sum_n a_n b_n^T`` per column ``(f, 2, 2)`` for the (re, im) pairs of complex ``A`` and ``B`` ``(N, f)``:
    the diagonal 2x2 blocks of one real product per column group."""
    P = np.swapaxes(_groups(A), 1, 2) @ _groups(B)
    return np.einsum("gjajb->gjab", P.reshape(len(P), P.shape[1] // 2, 2, -1, 2)).reshape(-1, 2, 2)


def _pair_map(A: np.ndarray, U: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``A_j u_nj`` into the complex ``out`` for 2x2 blocks ``A`` ``(f, 2, 2)`` and the (re, im) pairs of complex
    ``U`` ``(N, f)``: one real product per column group with the block-diagonal matrix of its ``A^T``."""
    groups = _groups(U)
    k = groups.shape[2] // 2
    blocks = np.einsum("gjab,jl->gjalb", np.swapaxes(A, 1, 2).reshape(len(groups), k, 2, 2), np.eye(k))
    np.matmul(groups, blocks.reshape(len(groups), 2 * k, 2 * k), out=_groups(out))
    return out


def _whiten(Z: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = LAYER_NORM_EPS):
    """``gamma W c + beta`` per row of the complex ``Z`` ``(N, f)``, centred in place to ``C`` with pairs ``c``;
    ``W = S^{-1/2}`` per column, ``S = mean(c c^T) + eps I = V diag(w) V^T``.  Also returns ``C, W, w, V``."""
    Z -= np.einsum("ni->i", Z.view(float)).view(complex) / len(Z)
    W, w, V = _spd_inverse_sqrt(_pair_moments(Z, Z) / len(Z) + eps * np.eye(2))
    out = _pair_map(np.asarray(gamma, dtype=float) @ W, Z, np.empty_like(Z))
    out += complex(*beta)
    return out, Z, W, w, V


# --- configuration and state ----------------------------------------------------


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = 2
    stalk_dim: int = 2
    hidden_width: int = 16
    q: float = 0.1
    sheaf_activation: str = "tanh"
    map_shape: str = "diagonal"
    residual: bool = True
    light_mode: bool = False
    dropout_rate: float = 0.0  # sheaf dropout on the incidence maps; 0 disables it
    hyperedge_aggregation: str = "mean"
    classifier_width: int = 32
    seed: int = 0
    dynamic_sheaf: bool = False
    left_projection: bool = True
    use_layer_norm: bool = True

    def __post_init__(self):
        _check_integer_fields(self)
        if not (0 <= self.num_layers <= 5):
            raise ValueError("num_layers must be in [0, 5]")
        if not (1 <= self.stalk_dim <= 6):
            raise ValueError("stalk_dim must be in [1, 6]")
        if self.hidden_width < 1:
            raise ValueError("hidden_width must be >= 1")
        if self.classifier_width < 1:
            raise ValueError("classifier_width must be >= 1")
        if self.sheaf_activation not in ("sigmoid", "tanh", "none"):
            raise ValueError("sheaf_activation must be sigmoid, tanh or none")
        if self.map_shape not in ("diagonal", "full"):
            raise ValueError("map_shape must be diagonal or full")
        if self.hyperedge_aggregation not in ("mean", "sum"):
            raise ValueError("hyperedge_aggregation must be mean or sum")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must be in [0, 1)")

    @property
    def phi_input_width(self) -> int:
        # unwound node block plus unwound hyperedge block
        return 4 * self.stalk_dim * self.hidden_width

    @property
    def phi_output_width(self) -> int:
        d = self.stalk_dim
        return d if self.map_shape == "diagonal" else d * d


@dataclass
class ModelState:
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    step: int
    input_width: int
    num_classes: int

    def copy(self) -> "ModelState":
        return ModelState(
            {k: v.copy() for k, v in self.params.items()},
            {k: v.copy() for k, v in self.adam_m.items()},
            {k: v.copy() for k, v in self.adam_v.items()},
            self.step,
            self.input_width,
            self.num_classes,
        )

    def phi_names(self) -> list[str]:
        return [k for k in self.params if k.startswith("phi")]


def _glorot(rng, fan_in, fan_out, shape=None):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape if shape is not None else (fan_in, fan_out))


def init_state(config: ModelConfig, input_width: int, num_classes: int) -> ModelState:
    """Seeded parameter initialization; identical for light and full variants."""
    rng = np.random.default_rng(config.seed)
    d, f = config.stalk_dim, config.hidden_width
    params: dict[str, np.ndarray] = {}
    params["proj_W"] = _glorot(rng, input_width, d * f)
    params["proj_b"] = np.zeros(d * f)
    for layer in range(config.num_layers):
        p_in, p_out = config.phi_input_width, config.phi_output_width
        params[f"phi{layer}_W"] = _glorot(rng, p_in, p_out)
        params[f"phi{layer}_b"] = np.zeros(p_out)
        params[f"W1_{layer}"] = _glorot(rng, d, d, (d, d))
        params[f"W2_{layer}"] = _glorot(rng, f, f, (f, f))
        params[f"ln{layer}_gamma"] = np.eye(2) / math.sqrt(2.0)
        params[f"ln{layer}_beta"] = np.zeros(2)
    width = 2 * d * f
    params["cls1_W"] = _glorot(rng, width, config.classifier_width)
    params["cls1_b"] = np.zeros(config.classifier_width)
    params["cls2_W"] = _glorot(rng, config.classifier_width, num_classes)
    params["cls2_b"] = np.zeros(num_classes)
    zeros = {k: np.zeros_like(v) for k, v in params.items()}
    return ModelState(params, zeros, {k: v.copy() for k, v in zeros.items()}, 0, input_width, num_classes)


# --- tape-level building blocks ----------------------------------------------------


def _predict_maps(
    X: Tensor,
    structure: IncidenceStructure,
    phi: dict[str, Tensor],
    config: ModelConfig,
) -> Tensor:
    """Per-incidence map entries from node and aggregated hyperedge features.

    ``h_k = [Re x_u, Im x_u] W_node + agg_{v in e} [Re x_v, Im x_v] W_edge + b`` for ``W = [W_node; W_edge]``,
    one tape node, then the sheaf activation.  A linear map commutes with the hyperedge mean or sum, so
    both products run once per vertex and only their ``p`` output columns reach the incidences.
    Returns a tensor of shape ``(I, d)`` for diagonal maps or ``(I, d, d)`` for full maps.
    """
    s, W, b = structure, phi["W"], phi["b"]
    shape = (len(s.inc_node),) + (config.stalk_dim,) * (1 if config.map_shape == "diagonal" else 2)
    agg = (1.0 / s.delta)[:, None] if config.hyperedge_aggregation == "mean" else 1.0
    view, rows = ad._unwound(X.value)
    edge_rows = rows + 2 * int(np.prod(X.shape[1:]))  # the hyperedge block follows the node block
    W_node, W_edge = W.value[rows], W.value[edge_rows]
    node, edge = view @ W_node, view @ W_edge  # (n, p) each
    edge = s.edge_plan.apply(edge.take(s.inc_node, axis=0)) * agg
    h = node.take(s.inc_node, axis=0) + edge.take(s.inc_edge, axis=0) + b.value

    def backward(g):
        g = g.reshape(len(g), -1)
        g_node = s.node_plan.apply(g)
        g_edge = s.node_plan.apply((s.edge_plan.apply(g) * agg).take(s.inc_edge, axis=0))
        if X.requires_grad:
            gx = g_node @ W_node.T + g_edge @ W_edge.T
            X.accumulate(gx.view(X.value.dtype).reshape(X.shape))
        if W.requires_grad:
            gw = np.zeros_like(W.value)
            gw[rows], gw[edge_rows] = view.T @ g_node, view.T @ g_edge
            W.accumulate(gw)
        if b.requires_grad:
            b.accumulate(g.sum(axis=0))

    h = ad.record(W.tape, h.reshape(shape), (X, W, b), backward)
    if config.sheaf_activation == "sigmoid":
        h = ad.sigmoid(h)
    elif config.sheaf_activation == "tanh":
        h = ad.tanh(h)
    return h


def _root_derivative(w: np.ndarray, V: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The derivative of ``D^{-1/2}`` at ``D = V diag(w) V^T`` applied to ``G``, stacks ``(n, d, d)``:
    Daleckii-Krein, ``V ((V^T G V) o F) V^T`` with ``F_ij = -1 / (s_i s_j (s_i + s_j))``, ``s = sqrt(w)``,
    the divided difference of ``w^{-1/2}``; its diagonal is the derivative, so equal eigenvalues need no limit."""
    s = np.sqrt(w)
    Vt = np.swapaxes(V, 1, 2)
    F = -1.0 / (s[:, :, None] * s[:, None, :] * (s[:, :, None] + s[:, None, :]))
    return V @ ((Vt @ G @ V) * F) @ Vt


def _normalized_blocks(maps: Tensor, structure: IncidenceStructure) -> Tensor:
    """Full maps ``F`` ``(I, d, d)`` to ``M_k = F_k D_{u_k}^{-1/2}``, ``D_u = sum F^T F + DEGREE_EPS I``,
    as one tape node.  The roots are assembly's :func:`_spd_inverse_sqrt` (closed form for ``d <= 2``, whose
    ``w`` and ``V`` the backward reads as it reads LAPACK's beyond); the backward sends
    ``dR_u = sum F_k^T G_k`` through :func:`_root_derivative` to ``dD`` and returns
    ``G_k R_u^T + F_k (dD + dD^T)_u``."""
    F, s = maps.value, structure
    root, w, V = _spd_inverse_sqrt(_degree_blocks(s, F), jitter=DEGREE_EPS)
    R = root.take(s.inc_node, axis=0)

    def backward(G):
        dD = _root_derivative(w, V, s.node_plan.apply(np.swapaxes(F, 1, 2) @ G))
        S = (dD + np.swapaxes(dD, 1, 2)).take(s.inc_node, axis=0)
        maps.accumulate(G @ np.ascontiguousarray(np.swapaxes(R, 1, 2)) + F @ S)

    return ad.record(maps.tape, F @ R, (maps,), backward)


def _diagonal_blocks(diagonals: Tensor) -> Tensor:
    """``(I, d)`` diagonals as ``(I, d, d)`` blocks with zeros off the diagonal, as one tape node;
    the backward reads the diagonal of the output gradient."""
    d = diagonals.shape[-1]
    blocks = np.zeros(diagonals.shape + (d,))
    blocks[:, range(d), range(d)] = diagonals.value
    return ad.record(
        diagonals.tape, blocks, (diagonals,), lambda g: diagonals.accumulate(np.diagonal(g, axis1=1, axis2=2))
    )


def _operator_blocks(maps: Tensor, structure: IncidenceStructure, config: ModelConfig) -> Tensor:
    """Real normalized factor blocks ``M_k = F_k D_{u_k}^{-1/2}`` ``(I, d, d)``, so ``Z_k = w_k M_k``.

    The complex weight ``w_k = S_k delta_e^{-1/2}`` is a constant that
    :func:`_apply_signless` applies.  Diagonal maps ``(I, d)`` take their
    degree roots elementwise, the full branch's roots to the bit, and are
    embedded by :func:`_diagonal_blocks`; full maps are one :func:`_normalized_blocks` node.
    """
    if config.map_shape == "diagonal":
        gram = ad.mul(maps, maps)
        D = ad.segment_sum(gram, structure.node_plan)
        dinv = ad.div(1.0, ad.sqrt(ad.add(D, DEGREE_EPS)))
        return _diagonal_blocks(ad.mul(maps, ad.gather(dinv, structure.node_plan)))
    return _normalized_blocks(maps, structure)


def _apply_signless(M: Tensor, X: Tensor, factor: Factor) -> Tensor:
    """Apply ``Q_N = Z^dagger Z`` to a signal ``X`` ``(n, d, f)``, as one tape node; ``factor``
    is ``Z_k = w_k M_k`` prepared from the blocks ``M``.

    ``Q_N`` is Hermitian, so the signal's gradient is ``Q_N G`` for the
    output gradient ``G``.  The real blocks' gradient is
    ``Re(conj(w_k) (U_e G_u^H + V_e X_u^H))`` with the edge halves ``U = Z X``
    (kept from the forward) and ``V = Z G``: :meth:`.Factor.block_gradient`
    of ``G`` and ``X``, which gathers their rows run by run as the applies do.
    """
    U = factor.apply(X.value)

    def backward(G):
        V = factor.apply(G)
        if M.requires_grad:
            M.accumulate(factor.block_gradient(U, G) + factor.block_gradient(V, X.value))
        if X.requires_grad:
            X.accumulate(factor.adjoint(V))

    return ad.record(X.tape, factor.adjoint(U), (M, X), backward)


def _layer_norm_pair(Y: Tensor, X: Tensor | None, gamma: Tensor, beta: Tensor, n_rows: int, f: int) -> Tensor:
    """The layer tail ``crelu(complex_layer_norm(Y [+ X]))`` of ``Y`` seen as ``(n_rows, f)``, as one tape node
    with parents ``Y``, the residual ``X`` (``None`` for none), ``gamma`` and ``beta``.

    Per column, with ``g`` the pairs of the output gradient times the rectifier's mask and ``K = sum g c^T``:
    ``d beta = sum g``, ``d gamma = K W^T`` and ``dY = dX = dc - mean(dc)`` for ``dc = W^T gamma^T g + (2/N) Q c``,
    ``Q`` the :func:`_root_derivative` of ``sym(gamma^T K)``; ``C`` is centred, so ``mean(dc) = W^T gamma^T mean(g)``.
    """
    Z = Y.value + X.value if X is not None else np.array(Y.value, dtype=complex)
    out, C, W, w, V = _whiten(Z.reshape(n_rows, f), gamma.value, beta.value)
    keep = out.real > 0
    out *= keep

    def backward(G):
        g = G.reshape(n_rows, f) * keep  # owned: it later holds R c
        sums = np.einsum("ni->i", g.view(float)).reshape(f, 2)
        K = _pair_moments(g, C)
        if beta.requires_grad:
            beta.accumulate(sums.sum(axis=0))
        if gamma.requires_grad:
            gamma.accumulate((K @ np.swapaxes(W, 1, 2)).sum(axis=0))
        P = gamma.value.T @ K
        R = (2.0 / n_rows) * _root_derivative(w, V, 0.5 * (P + np.swapaxes(P, 1, 2)))
        B = np.swapaxes(W, 1, 2) @ gamma.value.T
        dZ = _pair_map(B, g, np.empty_like(g))
        dZ += _pair_map(R, C, g)  # g is spent
        dZ -= (B @ sums[:, :, None]).ravel().view(complex) / n_rows
        for parent in (Y, X):
            if parent is not None and parent.requires_grad:
                parent.accumulate(dZ.reshape(Y.shape))

    return ad.record(Y.tape, out.reshape(Y.shape), tuple(p for p in (Y, X, gamma, beta) if p is not None), backward)


# --- forward ----------------------------------------------------------------


def _trainable_names(state: ModelState, config: ModelConfig) -> set[str]:
    names = set(state.params)
    if config.light_mode:
        names -= set(state.phi_names())
    return names


def _forward_tape(
    tape: Tape,
    features: np.ndarray,
    structure: IncidenceStructure,
    state: ModelState,
    config: ModelConfig,
    trainable: set[str],
    *,
    dropout_rng: np.random.Generator | None = None,
    factors: list[Factor] | None = None,
) -> tuple[Tensor, list[Factor], dict[str, Tensor]]:
    """The logits, the :class:`Factor` that each layer applied and the parameter tensors.

    Only the parameters named in ``trainable`` take gradients, so a pass with none records nothing.
    A static sheaf predicts its maps at layer 0 and applies that one factor in every layer; a dynamic
    sheaf predicts a factor per layer.  ``factors`` pins them instead: layer ``l`` applies ``factors[l]``
    as a constant, so no map is predicted or differentiated.  Sheaf dropout is drawn from ``dropout_rng``
    exactly when one is passed and the rate is positive.
    """
    n, d, f = structure.n, config.stalk_dim, config.hidden_width
    P = {
        name: tape.tensor(value, requires_grad=name in trainable)
        for name, value in state.params.items()
    }
    feats = tape.tensor(np.asarray(features, dtype=float))
    X = ad.reshape(ad.add(ad.matmul(feats, P["proj_W"]), P["proj_b"]), (n, d, f))

    applied: list[Factor] = []
    for layer in range(config.num_layers):
        if factors is not None:
            factor = factors[layer]
            M = tape.tensor(factor.M)
        elif layer == 0 or config.dynamic_sheaf:
            phi = {k.split("_", 1)[1]: v for k, v in P.items() if k.startswith(f"phi{layer}_")}
            # light mode detaches the operator: the frozen predictor then
            # reads a detached signal, so nothing of it is recorded
            source = tape.tensor(X.value) if config.light_mode else X
            maps = _predict_maps(source, structure, phi, config)
            if dropout_rng is not None and config.dropout_rate > 0.0:
                keep = 1.0 - config.dropout_rate
                mask = (dropout_rng.random(len(structure.inc_node)) < keep) / keep
                shape = (len(structure.inc_node),) + (1,) * (len(maps.shape) - 1)
                maps = ad.mul(maps, mask.reshape(shape))
            M = _operator_blocks(maps, structure, config)
            factor = Factor(structure, config.q, M.value)
        applied.append(factor)
        H = ad.matmul(P[f"W1_{layer}"], X) if config.left_projection else X
        Y = _apply_signless(M, ad.matmul(H, P[f"W2_{layer}"]), factor)
        residual = X if config.residual else None
        if config.use_layer_norm:  # residual, layer norm and rectifier as one node
            X = _layer_norm_pair(Y, residual, P[f"ln{layer}_gamma"], P[f"ln{layer}_beta"], n * d, f)
        else:
            Y = Y if residual is None else ad.add(Y, residual)
            X = ad.mul(Y, Y.value.real > 0)

    hidden = ad.relu(ad.add(ad.unwound_matmul([X], P["cls1_W"]), P["cls1_b"]))
    logits = ad.add(ad.matmul(hidden, P["cls2_W"]), P["cls2_b"])
    return logits, applied, P


def forward(
    features: np.ndarray,
    H: DirectedHypergraph,
    state: ModelState,
    config: ModelConfig,
) -> np.ndarray:
    """Deterministic evaluation pass; returns the (n, classes) logit array."""
    return _evaluate(features, IncidenceStructure.build(H), state, config)[0]


def _evaluate(
    features: np.ndarray, structure: IncidenceStructure, state: ModelState, config: ModelConfig
) -> tuple[np.ndarray, list[Factor]]:
    """The logits and the :class:`Factor` of each layer from a forward pass that records no graph,
    so nothing waits for the cyclic collector."""
    logits, factors, _ = _forward_tape(Tape(), features, structure, state, config, set())
    return logits.value, factors


def diffusion_layer(
    X: np.ndarray, H: DirectedHypergraph, sheaf: SheafAssignment, W1: np.ndarray, W2: np.ndarray, *,
    residual: bool = False, gamma: np.ndarray | None = None, beta: np.ndarray | None = None,
    apply_activation: bool = False, left_projection: bool = True,
) -> np.ndarray:
    """One diffusion step on a complex signal of shape (n*d, f), outside the tape.

    Computes ``Q_N (I (x) W1) X W2`` with ``Q_N`` the factor of
    ``build_laplacian(H, sheaf, normalized=True, jitter=DEGREE_EPS)``,
    optionally adds the residual, applies :func:`complex_layer_norm` (when
    ``gamma``/``beta`` are given) and :func:`complex_relu`.  With identity
    weights and everything optional disabled this is exactly ``(I - L_N) X``.
    """
    d, n = sheaf.config.d, H.num_vertices
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] != n * d or X.shape[1] < 1:
        raise ValueError(f"signal must have shape ({n * d}, f), f >= 1, got {X.shape}")
    factor = build_laplacian(H, sheaf, normalized=True, jitter=DEGREE_EPS).factor
    S = X.reshape(n, d, X.shape[1])
    S = ad._product(ad._product(np.asarray(W1), S) if left_projection else S, np.asarray(W2))
    Y = factor.adjoint(factor.apply(S))
    Y = Y.reshape(X.shape) + X if residual else Y.reshape(X.shape)
    if gamma is not None:
        Y = complex_layer_norm(Y, gamma, beta)
    return complex_relu(Y) if apply_activation else Y


def predict_sheaf(
    X: np.ndarray,
    H: DirectedHypergraph,
    phi_params: dict[str, np.ndarray],
    config: ModelConfig,
) -> SheafAssignment:
    """Predict restriction maps from a complex signal of shape (n*d, f).

    Exposes the layer-internal map prediction as a standalone sheaf: the
    returned assignment carries one real ``d x d`` map per incidence.
    """
    structure = IncidenceStructure.build(H)
    n, d, f = structure.n, config.stalk_dim, config.hidden_width
    X = np.asarray(X, dtype=complex)
    if X.shape != (n * d, f):
        raise ValueError(f"signal must have shape {(n * d, f)}, got {X.shape}")
    tape = Tape()
    phi = {k: tape.tensor(v) for k, v in phi_params.items()}
    maps = _predict_maps(tape.tensor(X.reshape(n, d, f)), structure, phi, config)
    if config.map_shape == "diagonal":
        maps = _diagonal_blocks(maps)
    return SheafAssignment.over(structure, SheafConfig(q=config.q, d=d, map_shape=config.map_shape), maps.value)


# --- loss, gradients, training ----------------------------------------------------


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, loss: float):
        super().__init__(f"non-finite loss {loss} at epoch {epoch}")
        self.epoch = epoch


def loss_and_gradients(
    features: np.ndarray,
    structure: IncidenceStructure,
    labels: np.ndarray,
    mask: np.ndarray,
    state: ModelState,
    config: ModelConfig,
    *,
    dropout_rng: np.random.Generator | None = None,
    factors: list[Factor] | None = None,
) -> tuple[float, dict[str, np.ndarray], np.ndarray, list[Factor]]:
    """Masked mean cross-entropy plus reverse-mode gradients, the logits and the applied factors.

    Frozen parameter groups (the map predictor in light mode or under pinned ``factors``) receive exact
    zero gradients; ``dropout_rng`` and ``factors`` act as in :func:`_forward_tape`.
    """
    if int(np.asarray(mask).sum()) == 0:
        raise ValueError("empty training mask")
    tape = Tape()
    logits, applied, P = _forward_tape(
        tape, features, structure, state, config, _trainable_names(state, config),
        dropout_rng=dropout_rng, factors=factors,
    )
    loss = ad.softmax_cross_entropy(logits, labels, mask)
    tape.backward(loss)
    grads = {
        name: (P[name].grad if P[name].grad is not None else np.zeros_like(value))
        for name, value in state.params.items()
    }
    return float(loss.value), grads, logits.value, applied


def accuracy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    mask = np.asarray(mask, dtype=bool)
    if mask.sum() == 0:
        return float("nan")
    pred = logits.argmax(axis=1)
    return float((pred[mask] == labels[mask]).mean())


@dataclass(frozen=True)
class TrainingBudget:
    max_epochs: int = 500
    patience: int = 200
    learning_rate: float = 0.01
    weight_decay: float = 0.0
    eigencheck_every: int = 0  # 0 disables the periodic spectral safety probe

    def __post_init__(self):
        _check_integer_fields(self)
        for name in ("max_epochs", "patience", "learning_rate", "weight_decay", "eigencheck_every"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass
class TrainResult:
    state: ModelState
    history: list[dict]
    test_acc: float
    best_epoch: int
    best_val_acc: float


def _adam_step(
    state: ModelState,
    grads: dict[str, np.ndarray],
    config: ModelConfig,
    budget: TrainingBudget,
    *,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    state.step += 1
    t = state.step
    trainable = _trainable_names(state, config)
    for name in state.params:
        if name not in trainable:
            continue
        g = grads[name]
        if budget.weight_decay:
            g = g + budget.weight_decay * state.params[name]
        m = state.adam_m[name]
        v = state.adam_v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        state.params[name] -= budget.learning_rate * m_hat / (np.sqrt(v_hat) + eps)


def synthetic_benchmark_config(seed: int = 0, q: float = 0.1) -> tuple[ModelConfig, TrainingBudget]:
    """Reference configuration for the planted-direction benchmarks.

    Light variant, two layers, stalk dimension 2, hidden width 16, diagonal
    tanh maps with residual connections; Adam at 0.02 with 5e-4 weight decay,
    up to 200 epochs with patience 60.  Reaches mean test accuracy above 0.92
    on the 500-vertex benchmarks across inter-class densities.
    """
    config = ModelConfig(
        num_layers=2,
        stalk_dim=2,
        hidden_width=16,
        q=q,
        sheaf_activation="tanh",
        map_shape="diagonal",
        residual=True,
        light_mode=True,
        classifier_width=64,
        seed=seed,
    )
    budget = TrainingBudget(max_epochs=200, patience=60, learning_rate=0.02, weight_decay=5e-4)
    return config, budget


def train(dataset, config: ModelConfig, budget: TrainingBudget) -> TrainResult:
    """Full-batch training with early stopping on validation accuracy.

    ``dataset`` must expose ``hypergraph``, ``features``, ``labels`` and
    ``masks`` (train/val/test boolean arrays).  Returns the best-validation
    state, the per-epoch metric history, and the test accuracy of the best
    state, read from that epoch's validation logits.  Raises
    :class:`TrainingDiverged` on a non-finite loss, and ``ValueError`` when
    the spectral probe is asked for but there is no layer to probe.
    """
    if budget.eigencheck_every and not config.num_layers:
        raise ValueError(
            f"eigencheck_every={budget.eigencheck_every} needs num_layers >= 1: num_layers=0 has no operator to probe"
        )
    H = dataset.hypergraph
    structure = IncidenceStructure.build(H)
    features = np.asarray(dataset.features, dtype=float)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    train_mask, val_mask, test_mask = dataset.masks
    state = init_state(config, features.shape[1], int(labels.max()) + 1)
    dropout_rng = np.random.default_rng(config.seed + 1)

    best_state = state.copy()
    best_val = -1.0
    best_epoch = 0
    best_logits = None
    history: list[dict] = []
    since_best = 0
    # Without sheaf dropout a training forward equals the evaluation forward,
    # so the next step's logits and factors are this step's validation logits
    # and the operators that the spectral probe reads.
    reuse_step = not (config.dropout_rate > 0.0)
    next_step = None

    def step():
        return loss_and_gradients(
            features, structure, labels, train_mask, state, config, dropout_rng=dropout_rng
        )

    for epoch in range(1, budget.max_epochs + 1):
        loss, grads, logits = (next_step or step())[:3]
        if not math.isfinite(loss):
            raise TrainingDiverged(epoch, loss)
        _adam_step(state, grads, config, budget)

        # free the probe's factors before the next step builds its own
        next_step = factors = None
        if reuse_step and epoch < budget.max_epochs:
            next_step = step()
            _, _, eval_logits, factors = next_step
        else:
            eval_logits = forward(features, H, state, config)
        row = {
            "epoch": epoch,
            "train_loss": loss,
            "train_acc": accuracy(logits, labels, train_mask),
            "val_acc": accuracy(eval_logits, labels, val_mask),
        }
        if budget.eigencheck_every and epoch % budget.eigencheck_every == 0:
            if factors is None:
                factors = _evaluate(features, structure, state, config)[1]
            row["lambda_max"] = max(map(lanczos_lambda_max, dict.fromkeys(factors)))  # static layers share one
        history.append(row)

        if row["val_acc"] > best_val:
            best_val = row["val_acc"]
            best_epoch = epoch
            best_state = state.copy()
            best_logits = eval_logits
            since_best = 0
        else:
            since_best += 1
            if since_best >= budget.patience:
                break

    if best_logits is None:
        best_logits = forward(features, H, best_state, config)
    return TrainResult(
        state=best_state,
        history=history,
        test_acc=accuracy(best_logits, labels, test_mask),
        best_epoch=best_epoch,
        best_val_acc=best_val,
    )
