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
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .hypergraph import DirectedHypergraph
from .laplacian import (
    DEGREE_EPS,
    IncidenceStructure,
    _spd_inverse_sqrt,
    dense_factor,
    factor_adjoint_apply,
    factor_apply,
    incidence_maps,
    signless_apply,
)
from .sheaf import SheafAssignment, SheafConfig

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
LANCZOS_TOL = 1e-10


# --- plain complex helpers ----------------------------------------------------


def complex_relu(x: np.ndarray) -> np.ndarray:
    """Keep entries with strictly positive real part, zero the rest."""
    x = np.asarray(x, dtype=complex)
    return np.where(x.real > 0, x, 0.0)


def complex_layer_norm(
    X: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = LAYER_NORM_EPS
) -> np.ndarray:
    """Whiten each feature column's (re, im) pairs jointly, then apply the affine.

    Statistics are computed per column across rows: the 2x2 covariance of
    real and imaginary parts (plus ``eps`` on the diagonal) is inverted via
    the closed-form square root of a 2x2 SPD matrix.
    """
    X = np.asarray(X, dtype=complex)
    xr, xi = X.real, X.imag
    mur = xr.mean(axis=0, keepdims=True)
    mui = xi.mean(axis=0, keepdims=True)
    cr, ci = xr - mur, xi - mui
    s_rr = (cr * cr).mean(axis=0, keepdims=True) + eps
    s_ii = (ci * ci).mean(axis=0, keepdims=True) + eps
    s_ri = (cr * ci).mean(axis=0, keepdims=True)
    det = s_rr * s_ii - s_ri * s_ri
    root = np.sqrt(det)
    denom = root * np.sqrt(s_rr + s_ii + 2.0 * root)
    w00 = (s_ii + root) / denom
    w11 = (s_rr + root) / denom
    w01 = -s_ri / denom
    tr = w00 * cr + w01 * ci
    ti = w01 * cr + w11 * ci
    g = np.asarray(gamma, dtype=float)
    b = np.asarray(beta, dtype=float)
    out_r = g[0, 0] * tr + g[0, 1] * ti + b[0]
    out_i = g[1, 0] * tr + g[1, 1] * ti + b[1]
    return out_r + 1j * out_i


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


def _scalar_entries(mat: Tensor, k: int):
    flat = ad.reshape(mat, (-1,))
    return [ad.gather(flat, np.array([i])) for i in range(k)]


def _predict_maps(
    X: Tensor,
    structure: IncidenceStructure,
    phi: dict[str, Tensor],
    config: ModelConfig,
) -> Tensor:
    """Per-incidence map entries from node and aggregated hyperedge features.

    Returns a tensor of shape ``(I, d)`` for diagonal maps or ``(I, d, d)``
    for full maps.
    """
    d, f = config.stalk_dim, config.hidden_width
    num_inc = len(structure.inc_node)
    node = ad.gather(X, structure.inc_node)
    edge = ad.segment_sum(node, structure.edge_plan)
    if config.hyperedge_aggregation == "mean":
        edge = ad.mul(edge, (1.0 / structure.delta)[:, None, None])
    edge = ad.gather(edge, structure.inc_edge)
    parts = [ad.reshape(part(t), (num_inc, d * f)) for t in (node, edge) for part in (ad.real, ad.imag)]
    h = ad.add(ad.matmul(ad.concat(parts, axis=1), phi["W"]), phi["b"])
    if config.sheaf_activation == "sigmoid":
        h = ad.sigmoid(h)
    elif config.sheaf_activation == "tanh":
        h = ad.tanh(h)
    if config.map_shape == "full":
        return ad.reshape(h, (num_inc, d, d))
    return h


def _inverse_sqrt(D: Tensor) -> Tensor:
    """Inverse square roots of SPD blocks ``(n, d, d)``, as one tape node.

    The forward is assembly's :func:`_spd_inverse_sqrt`, which keeps
    ``D = V diag(w) V^T``.  The backward is the Daleckii-Krein formula
    ``V ((V^T G V) o F) V^T`` with ``F_ij = -1 / (s_i s_j (s_i + s_j))`` and
    ``s = sqrt(w)``: the divided difference of ``w^{-1/2}``, whose diagonal
    is the derivative ``-w^{-3/2} / 2``, so equal eigenvalues need no limit.
    """
    root, w, V = _spd_inverse_sqrt(D.value)
    s = np.sqrt(w)
    Vt = np.swapaxes(V, 1, 2)

    def backward(G):
        F = -1.0 / (s[:, :, None] * s[:, None, :] * (s[:, :, None] + s[:, None, :]))
        D.accumulate(V @ ((Vt @ G @ V) * F) @ Vt)

    return ad.record(D.tape, root, (D,), backward)


def _operator_blocks(maps: Tensor, structure: IncidenceStructure, config: ModelConfig) -> Tensor:
    """Real normalized factor blocks ``M_k = F_k D_{u_k}^{-1/2}``, so ``Z_k = w_k M_k``.

    The complex weight ``w_k = S_k delta_e^{-1/2}`` is a constant that
    :func:`_apply_signless` applies.  Full degree blocks take their roots
    ``D_u^{-1/2}`` from one :func:`_inverse_sqrt` node.
    """
    d = config.stalk_dim
    if config.map_shape == "diagonal":
        gram = ad.mul(maps, maps)
        D = ad.segment_sum(gram, structure.node_plan)
        dinv = ad.div(1.0, ad.sqrt(ad.add(D, DEGREE_EPS)))
        return ad.mul(maps, ad.gather(dinv, structure.inc_node))
    gram = ad.matmul(ad.transpose(maps, (0, 2, 1)), maps)
    D = ad.segment_sum(gram, structure.node_plan)
    D = ad.add(D, DEGREE_EPS * np.eye(d)[None, :, :])
    dinv = _inverse_sqrt(D)
    return ad.matmul(maps, ad.gather(dinv, structure.inc_node))


def _real_outer(a: np.ndarray, b: np.ndarray, diagonal: bool) -> np.ndarray:
    """Per-incidence ``Re(a b^H)`` of ``(I, d, f)`` arrays, as real products of float views.

    Returns ``(I, d, d)``, or its diagonal ``(I, d)`` when ``diagonal``.  A real
    ``b`` pairs with ``Re(a)`` instead of the float view of ``a``.
    """
    if b.dtype.kind == "c":
        a, b = ad._float_view(a), ad._float_view(b)
    else:
        a = a.real
    return (a * b).sum(axis=-1) if diagonal else a @ np.swapaxes(b, 1, 2)


def _apply_signless(M: Tensor, X: Tensor, structure: IncidenceStructure, config: ModelConfig) -> Tensor:
    """Apply ``Q_N = Z^dagger Z``, ``Z_k = w_k M_k``, to a signal ``X`` ``(n, d, f)``, as one tape node.

    ``Q_N`` is Hermitian, so the signal's gradient is ``Q_N G`` for the
    output gradient ``G``.  The real blocks' gradient is
    ``Re(conj(w_k) (U_e G_u^H + V_e X_u^H))`` with the edge halves ``U = Z X``
    (kept from the forward) and ``V = Z G``, two real batched products.
    """
    w, m, x = structure.weights(config.q), M.value, X.value
    U = factor_apply(structure, w, m, x)

    def backward(G):
        V = factor_apply(structure, w, m, G)
        if X.requires_grad:
            X.accumulate(factor_adjoint_apply(structure, w, m, V))
        if M.requires_grad:
            u, e, cw = structure.inc_node, structure.inc_edge, np.conj(w)[:, None, None]
            diagonal = m.ndim == 2
            M.accumulate(_real_outer(cw * U[e], G[u], diagonal) + _real_outer(cw * V[e], x[u], diagonal))

    return ad.record(X.tape, factor_adjoint_apply(structure, w, m, U), (M, X), backward)


def _layer_norm_pair(X: Tensor, gamma: Tensor, beta: Tensor, n_rows: int, f: int) -> Tensor:
    """:func:`complex_layer_norm` of ``X`` seen as ``(n_rows, f)``, on the tape."""
    X = ad.reshape(X, (n_rows, f))
    C = ad.sub(X, ad.reduce_mean(X, axis=0, keepdims=True))
    cr, ci = ad.real(C), ad.imag(C)
    s_rr = ad.add(ad.reduce_mean(ad.mul(cr, cr), axis=0, keepdims=True), LAYER_NORM_EPS)
    s_ii = ad.add(ad.reduce_mean(ad.mul(ci, ci), axis=0, keepdims=True), LAYER_NORM_EPS)
    s_ri = ad.reduce_mean(ad.mul(cr, ci), axis=0, keepdims=True)
    det = ad.sub(ad.mul(s_rr, s_ii), ad.mul(s_ri, s_ri))
    root = ad.sqrt(det)
    denom = ad.mul(root, ad.sqrt(ad.add(ad.add(s_rr, s_ii), ad.mul(root, 2.0))))
    w00 = ad.div(ad.add(s_ii, root), denom)
    w11 = ad.div(ad.add(s_rr, root), denom)
    w01 = ad.div(ad.mul(s_ri, -1.0), denom)
    # out_r + i out_i = [1, i] (gamma W (cr, ci) + beta), with W the 2x2 whitening
    c0, c1 = _scalar_entries(ad.matmul(np.array([1.0, 1j]), gamma), 2)
    b0, b1 = _scalar_entries(beta, 2)
    a_r = ad.add(ad.mul(c0, w00), ad.mul(c1, w01))
    a_i = ad.add(ad.mul(c0, w01), ad.mul(c1, w11))
    return ad.add(ad.add(ad.mul(a_r, cr), ad.mul(a_i, ci)), ad.add(b0, ad.mul(b1, 1j)))


def _diffuse(
    X: Tensor, M: Tensor, W1: Tensor, W2: Tensor, gamma: Tensor, beta: Tensor,
    structure: IncidenceStructure, config: ModelConfig,
) -> Tensor:
    """``layernorm(Q_N (I_n (x) W1) X W2 [+ X])``: one layer before its rectifier."""
    n, d, f = structure.n, config.stalk_dim, config.hidden_width
    H = ad.matmul(W1, X) if config.left_projection else X
    Y = _apply_signless(M, ad.matmul(H, W2), structure, config)
    if config.residual:
        Y = ad.add(Y, X)
    if config.use_layer_norm:
        Y = ad.reshape(_layer_norm_pair(Y, gamma, beta, n * d, f), (n, d, f))
    return Y


# --- forward ----------------------------------------------------------------


@dataclass
class ForwardAux:
    """Per-layer operator ingredients captured for diagnostics."""

    layer_blocks: list[np.ndarray] = field(default_factory=list)  # each layer's real ``M``
    map_values: list[np.ndarray] = field(default_factory=list)

    def dense_signless(self, structure: IncidenceStructure, config: ModelConfig, layer: int) -> np.ndarray:
        """Dense ``Q_N`` of one layer, rebuilt from the captured blocks."""
        Z = dense_factor(structure, structure.weights(config.q), self.layer_blocks[layer])
        return Z.conj().T @ Z


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
    *,
    training: bool = False,
    dropout_rng: np.random.Generator | None = None,
    collect_aux: bool = False,
    fixed_maps: list[np.ndarray] | None = None,
) -> tuple[Tensor, ForwardAux, dict[str, Tensor]]:
    n, d, f = structure.n, config.stalk_dim, config.hidden_width
    trainable = _trainable_names(state, config)
    P = {
        name: tape.tensor(value, requires_grad=name in trainable)
        for name, value in state.params.items()
    }
    feats = tape.tensor(np.asarray(features, dtype=float))
    X = ad.reshape(ad.add(ad.matmul(feats, P["proj_W"]), P["proj_b"]), (n, d, f))
    aux = ForwardAux()

    cache: tuple[Tensor, Tensor] | None = None  # a static sheaf's maps and factor blocks
    for layer in range(config.num_layers):
        phi = {k.split("_", 1)[1]: v for k, v in P.items() if k.startswith(f"phi{layer}_")}
        if fixed_maps is not None:
            # probe mode: the operator is pinned to externally supplied values
            maps = tape.tensor(fixed_maps[layer])
            M = _operator_blocks(maps, structure, config)
        elif config.dynamic_sheaf or cache is None:
            # light mode detaches the operator: the frozen predictor then
            # reads a detached signal, so nothing of it is recorded
            source = tape.tensor(X.value) if config.light_mode else X
            maps = _predict_maps(source, structure, phi, config)
            if training and config.dropout_rate > 0.0:
                if dropout_rng is None:
                    raise ValueError("sheaf dropout requires a generator during training")
                keep = 1.0 - config.dropout_rate
                mask = (dropout_rng.random(len(structure.inc_node)) < keep) / keep
                shape = (len(structure.inc_node),) + (1,) * (len(maps.shape) - 1)
                maps = ad.mul(maps, mask.reshape(shape))
            M = _operator_blocks(maps, structure, config)
            if not config.dynamic_sheaf:
                cache = maps, M
        else:
            maps, M = cache

        if collect_aux:
            aux.layer_blocks.append(M.value.copy())
            aux.map_values.append(maps.value.copy())
        Y = _diffuse(
            X, M, P[f"W1_{layer}"], P[f"W2_{layer}"], P[f"ln{layer}_gamma"], P[f"ln{layer}_beta"],
            structure, config,
        )
        X = ad.mul(Y, Y.value.real > 0)  # the complex rectifier

    flat = ad.reshape(X, (n, d * f))
    unwound = ad.concat([ad.real(flat), ad.imag(flat)], axis=1)
    hidden = ad.relu(ad.add(ad.matmul(unwound, P["cls1_W"]), P["cls1_b"]))
    logits = ad.add(ad.matmul(hidden, P["cls2_W"]), P["cls2_b"])
    return logits, aux, P


def forward(
    features: np.ndarray,
    H: DirectedHypergraph,
    state: ModelState,
    config: ModelConfig,
    *,
    structure: IncidenceStructure | None = None,
) -> np.ndarray:
    """Deterministic evaluation pass; returns the (n, classes) logit array."""
    structure = structure or IncidenceStructure.build(H)
    logits, _, _ = _forward_tape(Tape(), features, structure, state, config)
    return logits.value


def diffusion_layer(
    X: np.ndarray,
    H: DirectedHypergraph,
    sheaf: SheafAssignment,
    W1: np.ndarray,
    W2: np.ndarray,
    *,
    residual: bool = False,
    gamma: np.ndarray | None = None,
    beta: np.ndarray | None = None,
    apply_activation: bool = False,
    left_projection: bool = True,
    structure: IncidenceStructure | None = None,
) -> np.ndarray:
    """One diffusion step on a complex signal of shape (n*d, f).

    Computes ``Q_N (I (x) W1) X W2`` with the maps taken from ``sheaf``,
    optionally adds the residual, normalizes (when ``gamma``/``beta`` are
    given) and applies the complex rectifier.  With identity weights and
    everything optional disabled this is exactly ``(I - L_N) X``.
    """
    structure = structure or IncidenceStructure.build(H)
    d, n = sheaf.config.d, structure.n
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] != n * d:
        raise ValueError(f"signal must have shape ({n * d}, f), got {X.shape}")
    f = X.shape[1]
    config = ModelConfig(
        num_layers=1,
        stalk_dim=d,
        hidden_width=f,
        q=sheaf.config.q,
        map_shape="diagonal" if sheaf.config.map_shape == "diagonal" else "full",
        residual=residual,
        left_projection=left_projection,
        use_layer_norm=gamma is not None,
    )
    F = incidence_maps(structure, sheaf)
    if config.map_shape == "diagonal":
        F = np.diagonal(F, axis1=1, axis2=2).copy()
    tape = Tape()
    M = _operator_blocks(tape.tensor(F), structure, config)
    W1, W2, gamma, beta = (None if v is None else tape.tensor(v) for v in (W1, W2, gamma, beta))
    X = tape.tensor(X.reshape(n, d, f))
    Y = _diffuse(X, M, W1, W2, gamma, beta, structure, config).value
    if apply_activation:
        Y = complex_relu(Y)
    return Y.reshape(n * d, f)


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
    values = _predict_maps(tape.tensor(X.reshape(n, d, f)), structure, phi, config).value
    maps, roles = {}, {}
    for k, (u, e) in enumerate(zip(structure.inc_node, structure.inc_edge)):
        entry = values[k]
        maps[(int(u), int(e))] = np.diag(entry) if config.map_shape == "diagonal" else entry
        roles[(int(u), int(e))] = "tail" if structure.inc_is_tail[k] else "head"
    sheaf_config = SheafConfig(q=config.q, d=d, map_shape=config.map_shape)
    return SheafAssignment(sheaf_config, maps, roles)


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
    training: bool = True,
    dropout_rng: np.random.Generator | None = None,
    fixed_maps: list[np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """Masked mean cross-entropy plus reverse-mode gradients.

    Frozen parameter groups (the map predictor in light mode) receive exact
    zero gradients.
    """
    if int(np.asarray(mask).sum()) == 0:
        raise ValueError("empty training mask")
    tape = Tape()
    logits, _, P = _forward_tape(
        tape, features, structure, state, config,
        training=training, dropout_rng=dropout_rng, fixed_maps=fixed_maps,
    )
    loss = ad.softmax_cross_entropy(logits, labels, mask)
    tape.backward(loss)
    grads = {
        name: (P[name].grad if P[name].grad is not None else np.zeros_like(value))
        for name, value in state.params.items()
    }
    return float(loss.value), grads, logits.value


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


def operator_lambda_max(
    structure: IncidenceStructure, config: ModelConfig, aux: ForwardAux, layer: int
) -> float:
    """Largest eigenvalue of one layer's normalized signless operator.

    Lanczos on the ``Z^dagger Z`` kernel with full reorthogonalisation from a seeded
    random start, stopped once the top Ritz pair's residual norm is at most
    ``LANCZOS_TOL``; within ``n d`` steps the Krylov space is exhausted and the
    residual vanishes.  The Ritz value is a Rayleigh quotient, so it never
    exceeds ``lambda_max``, and an eigenvalue lies within the residual of it.
    """
    d = config.stalk_dim
    nd = structure.n * d
    w, M = structure.weights(config.q), aux.layer_blocks[layer]
    rng = np.random.default_rng(0)
    q = rng.standard_normal(nd) + 1j * rng.standard_normal(nd)
    basis = [q / np.linalg.norm(q)]
    alpha: list[float] = []
    beta: list[float] = []
    for _ in range(nd):
        r = signless_apply(structure, w, M, basis[-1].reshape(structure.n, d, 1)).reshape(-1)
        alpha.append(float(np.vdot(basis[-1], r).real))
        B = np.asarray(basis)
        for _ in range(2):  # twice is enough for orthogonality to rounding error
            r = r - B.T @ (B.conj() @ r)
        b = float(np.linalg.norm(r))
        T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        theta, S = np.linalg.eigh(T)
        if b * abs(S[-1, -1]) <= LANCZOS_TOL:
            break
        beta.append(b)
        basis.append(r / b)
    return float(theta[-1])


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
    :class:`TrainingDiverged` on a non-finite loss.
    """
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
    # so the next step's logits are this step's validation logits.
    reuse_step = not (config.dropout_rate > 0.0)
    next_step = None

    def step():
        return loss_and_gradients(
            features, structure, labels, train_mask, state, config,
            training=True, dropout_rng=dropout_rng,
        )

    for epoch in range(1, budget.max_epochs + 1):
        loss, grads, logits = next_step or step()
        if not math.isfinite(loss):
            raise TrainingDiverged(epoch, loss)
        _adam_step(state, grads, config, budget)

        if reuse_step and epoch < budget.max_epochs:
            next_step = step()
            eval_logits = next_step[2]
        else:
            eval_logits = forward(features, H, state, config, structure=structure)
        row = {
            "epoch": epoch,
            "train_loss": loss,
            "train_acc": accuracy(logits, labels, train_mask),
            "val_acc": accuracy(eval_logits, labels, val_mask),
        }
        if budget.eigencheck_every and epoch % budget.eigencheck_every == 0:
            tape = Tape()
            _, aux, _ = _forward_tape(tape, features, structure, state, config, collect_aux=True)
            row["lambda_max"] = max(
                operator_lambda_max(structure, config, aux, layer)
                for layer in range(config.num_layers)
            )
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
        best_logits = forward(features, H, best_state, config, structure=structure)
    return TrainResult(
        state=best_state,
        history=history,
        test_acc=accuracy(best_logits, labels, test_mask),
        best_epoch=best_epoch,
        best_val_acc=best_val,
    )
