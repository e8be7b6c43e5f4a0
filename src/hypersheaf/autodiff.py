"""Reverse-mode differentiation over real numpy arrays.

A :class:`Tape` records operations in forward order; ``backward`` walks the
record in reverse and accumulates vector-Jacobian products into ``.grad``.
Complex quantities elsewhere in the package are handled as explicit
real/imaginary pairs of these tensors, so every recorded value is real.

Operations involving only constants are not recorded, which keeps graphs
small when large parts of a computation are detached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tape",
    "Tensor",
    "SegmentPlan",
    "record",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "transpose",
    "reshape",
    "unstack",
    "concat",
    "gather",
    "segment_sum",
    "reduce_sum",
    "reduce_mean",
    "sigmoid",
    "tanh",
    "relu",
    "sqrt",
    "softmax_cross_entropy",
    "softmax",
    "finite_difference_check",
]


class Tape:
    """Ordered record of differentiable operations."""

    def __init__(self):
        self.nodes: list[Tensor] = []

    def tensor(self, value, requires_grad=False) -> "Tensor":
        return Tensor(self, np.asarray(value, dtype=float), requires_grad=requires_grad)

    def backward(self, loss: "Tensor") -> None:
        """Accumulate gradients of a scalar ``loss`` into every tracked tensor."""
        if loss.value.ndim != 0:
            raise ValueError("backward expects a scalar loss")
        loss.grad = np.ones_like(loss.value)
        for node in reversed(self.nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)


class Tensor:
    __slots__ = ("tape", "value", "grad", "requires_grad", "_backward")

    def __init__(self, tape: Tape, value: np.ndarray, requires_grad: bool = False):
        self.tape = tape
        self.value = np.asarray(value, dtype=float)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = None

    @property
    def shape(self):
        return self.value.shape

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # an owned copy: later contributions add into it in place
            self.grad = np.array(g, dtype=float)
        else:
            self.grad += g


def _as_tensor(tape: Tape, x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return tape.tensor(x)


def record(tape: Tape, value: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Record an operation whose vector-Jacobian product ``backward(g)`` supplies.

    ``backward`` accumulates into every parent that requires a gradient.
    Nothing is recorded when no parent does.
    """
    out = Tensor(tape, value, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._backward = backward
        tape.nodes.append(out)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    tape = (a if isinstance(a, Tensor) else b).tape
    a, b = _as_tensor(tape, a), _as_tensor(tape, b)
    value = a.value + b.value

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.value.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.value.shape))

    return record(tape, value, (a, b), backward)


def sub(a, b):
    tape = (a if isinstance(a, Tensor) else b).tape
    a, b = _as_tensor(tape, a), _as_tensor(tape, b)
    value = a.value - b.value

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.value.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g, b.value.shape))

    return record(tape, value, (a, b), backward)


def neg(a: Tensor):
    def backward(g):
        if a.requires_grad:
            a.accumulate(-g)

    return record(a.tape, -a.value, (a,), backward)


def mul(a, b):
    tape = (a if isinstance(a, Tensor) else b).tape
    a, b = _as_tensor(tape, a), _as_tensor(tape, b)
    value = a.value * b.value

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.value, a.value.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.value, b.value.shape))

    return record(tape, value, (a, b), backward)


def div(a, b):
    tape = (a if isinstance(a, Tensor) else b).tape
    a, b = _as_tensor(tape, a), _as_tensor(tape, b)
    value = a.value / b.value

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g / b.value, a.value.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g * a.value / (b.value**2), b.value.shape))

    return record(tape, value, (a, b), backward)


def matmul(a, b):
    """``np.matmul`` semantics, including batched operands."""
    tape = (a if isinstance(a, Tensor) else b).tape
    a, b = _as_tensor(tape, a), _as_tensor(tape, b)
    value = a.value @ b.value

    def backward(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.value, -1, -2)
            a.accumulate(_unbroadcast(ga, a.value.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.value, -1, -2) @ g
            b.accumulate(_unbroadcast(gb, b.value.shape))

    return record(tape, value, (a, b), backward)


def transpose(a: Tensor, axes: tuple[int, ...]):
    inverse = np.argsort(axes)

    def backward(g):
        if a.requires_grad:
            a.accumulate(np.transpose(g, inverse))

    return record(a.tape, np.transpose(a.value, axes), (a,), backward)


def reshape(a: Tensor, shape):
    old = a.value.shape

    def backward(g):
        if a.requires_grad:
            a.accumulate(g.reshape(old))

    return record(a.tape, a.value.reshape(shape), (a,), backward)


def unstack(a: Tensor) -> tuple[Tensor, ...]:
    """The slices ``a[0], a[1], ...`` along axis 0, each recorded as a view."""

    def view(i):
        def backward(g):
            if a.requires_grad:
                if a.grad is None:
                    a.grad = np.zeros_like(a.value)
                a.grad[i] += g

        return record(a.tape, a.value[i], (a,), backward)

    return tuple(view(i) for i in range(a.value.shape[0]))


def concat(tensors, axis=0):
    tape = tensors[0].tape
    tensors = [_as_tensor(tape, t) for t in tensors]
    value = np.concatenate([t.value for t in tensors], axis=axis)
    sizes = [t.value.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                t.accumulate(g[tuple(index)])

    return record(tape, value, tuple(tensors), backward)


def gather(a: Tensor, idx: np.ndarray):
    """Select rows along axis 0; duplicate indices sum in the backward pass."""
    idx = np.asarray(idx)

    def backward(g):
        if a.requires_grad:
            buf = np.zeros_like(a.value)
            np.add.at(buf, idx, g)
            a.accumulate(buf)

    return record(a.tape, a.value[idx], (a,), backward)


@dataclass
class SegmentPlan:
    """Static gather/scatter plan for summing rows into segments."""

    seg_ids: np.ndarray
    num_segments: int
    order: np.ndarray
    starts: np.ndarray
    empty: np.ndarray
    presorted: bool  # seg_ids already non-decreasing: rows need no reordering

    @classmethod
    def build(cls, seg_ids: np.ndarray, num_segments: int) -> "SegmentPlan":
        seg_ids = np.asarray(seg_ids, dtype=np.int64)
        order = np.argsort(seg_ids, kind="stable")
        sorted_ids = seg_ids[order]
        starts = np.searchsorted(sorted_ids, np.arange(num_segments))
        counts = np.bincount(seg_ids, minlength=num_segments) if len(seg_ids) else np.zeros(num_segments, dtype=int)
        empty = counts == 0
        presorted = bool(np.all(seg_ids[1:] >= seg_ids[:-1]))
        return cls(seg_ids, num_segments, order, starts, empty, presorted)

    def apply(self, values: np.ndarray) -> np.ndarray:
        out_shape = (self.num_segments,) + values.shape[1:]
        if len(self.seg_ids) == 0:
            return np.zeros(out_shape, dtype=values.dtype)
        ordered = values if self.presorted else values[self.order]
        # trailing empty segments start at len(values): a zero sentinel row
        # keeps those starts valid; empty segments, for which reduceat
        # reports the element at their start, are zeroed afterwards
        if self.starts[-1] == len(ordered):
            ordered = np.concatenate([ordered, np.zeros((1,) + values.shape[1:], dtype=values.dtype)])
        out = np.add.reduceat(ordered, self.starts, axis=0)
        if self.empty.any():
            out[self.empty] = 0.0
        return out


def segment_sum(a: Tensor, plan: SegmentPlan):
    def backward(g):
        if a.requires_grad:
            a.accumulate(g[plan.seg_ids])

    return record(a.tape, plan.apply(a.value), (a,), backward)


def reduce_sum(a: Tensor, axis=None, keepdims=False):
    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a.accumulate(np.broadcast_to(g, a.value.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a.accumulate(np.broadcast_to(gg, a.value.shape).copy())

    return record(a.tape, a.value.sum(axis=axis, keepdims=keepdims), (a,), backward)


def reduce_mean(a: Tensor, axis=None, keepdims=False):
    if axis is None:
        count = a.value.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.value.shape[ax] for ax in axis]))
    else:
        count = a.value.shape[axis]
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def sigmoid(a: Tensor):
    value = 1.0 / (1.0 + np.exp(-a.value))

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * value * (1.0 - value))

    return record(a.tape, value, (a,), backward)


def tanh(a: Tensor):
    value = np.tanh(a.value)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * (1.0 - value**2))

    return record(a.tape, value, (a,), backward)


def relu(a: Tensor):
    mask = a.value > 0

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * mask)

    return record(a.tape, a.value * mask, (a,), backward)


def sqrt(a: Tensor):
    value = np.sqrt(a.value)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * 0.5 / value)

    return record(a.tape, value, (a,), backward)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray, mask: np.ndarray):
    """Mean cross-entropy of ``logits`` (rows, classes) over the masked rows."""
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise ValueError("cross-entropy over an empty mask")
    probs = softmax(logits.value)
    rows = np.flatnonzero(mask)
    picked = probs[rows, labels[rows]]
    value = np.array(-np.mean(np.log(np.maximum(picked, 1e-300))))

    def backward(g):
        if logits.requires_grad:
            grad = probs.copy()
            grad[np.arange(len(labels)), labels] -= 1.0
            grad *= mask[:, None] / count
            logits.accumulate(g * grad)

    return record(logits.tape, value, (logits,), backward)


def finite_difference_check(
    build_loss,
    params: dict[str, np.ndarray],
    *,
    n_probes: int = 32,
    step: float = 1e-4,
    rng: np.random.Generator | None = None,
    rel_tol: float = 1e-4,
    abs_floor: float = 1e-8,
) -> dict[str, float]:
    """Compare analytic gradients with central finite differences.

    ``build_loss(params) -> (loss_value, grads_dict)`` must be deterministic.
    Probes ``n_probes`` random coordinates per parameter array and returns
    the worst relative error per parameter name; raises ``AssertionError``
    on any probe beyond ``rel_tol`` (with an ``abs_floor`` for vanishing
    gradients).
    """
    rng = rng or np.random.default_rng(0)
    _, grads = build_loss(params)
    worst: dict[str, float] = {}
    for name, array in params.items():
        an = grads[name]
        flat = array.reshape(-1)
        n = min(n_probes, flat.size)
        coords = rng.choice(flat.size, size=n, replace=False)
        worst[name] = 0.0
        for c in coords:
            an_c = an.reshape(-1)[c]
            # a rectifier kink inside the probe window breaks the central
            # difference; shrinking the step moves the window off the kink,
            # while a genuinely wrong gradient fails at every step
            best_rel, best_err, fd = np.inf, np.inf, np.nan
            for h in (step, step / 8.0, step / 64.0):
                orig = flat[c]
                flat[c] = orig + h
                up, _ = build_loss(params)
                flat[c] = orig - h
                down, _ = build_loss(params)
                flat[c] = orig
                fd = (up - down) / (2.0 * h)
                err = abs(fd - an_c)
                denom = max(abs(fd), abs(an_c))
                rel = err / denom if denom > 0 else 0.0
                if err <= abs_floor or rel <= rel_tol:
                    best_rel, best_err = (0.0 if err <= abs_floor else rel), err
                    break
                if rel < best_rel:
                    best_rel, best_err = rel, err
            worst[name] = max(worst[name], best_rel)
            if best_err > abs_floor and best_rel > rel_tol:
                raise AssertionError(
                    f"gradient mismatch at {name}[{c}]: analytic {an_c:.6e} vs "
                    f"finite difference {fd:.6e} (rel {best_rel:.3e})"
                )
    return worst
