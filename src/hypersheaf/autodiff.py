"""Reverse-mode differentiation over real and complex numpy arrays.

A :class:`Tape` records operations in forward order; ``backward`` walks the
record in reverse and accumulates vector-Jacobian products into ``.grad``.
A tensor holds float64 or complex128 values.  The loss is real, and a
complex tensor's gradient is ``dL/dRe z + i dL/dIm z`` (twice the conjugate
Wirtinger derivative), so a holomorphic op ``f`` passes ``g conj(f'(z))``
back to its input.  A real tensor keeps the real part of what it is sent.

Operations involving only constants are not recorded, which keeps graphs
small when large parts of a computation are detached, and a forward-only
pass whose leaves take no gradient records nothing.  A vector-Jacobian
product therefore runs only for a node with a parent that takes a gradient.

A recorded node holds its tape and a closure over its parents, so a graph
is a reference cycle until it is released.  A tape is swept once:
``backward`` releases each node as soon as its vector-Jacobian product has
run.  A swept tape is then freed by reference counting, not by the cyclic
collector; it keeps its node values, and leaf tensors keep their ``.grad``.
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
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "gather",
    "unwound_matmul",
    "segment_sum",
    "reduce_sum",
    "sigmoid",
    "tanh",
    "relu",
    "sqrt",
    "softmax_cross_entropy",
    "softmax",
]


class Tape:
    """Ordered record of differentiable operations, swept once."""

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.swept = False

    def tensor(self, value, requires_grad=False) -> "Tensor":
        return Tensor(self, value, requires_grad=requires_grad)

    def backward(self, loss: "Tensor") -> None:
        """Accumulate gradients of a scalar ``loss`` into every tracked tensor, in one sweep.

        Each node is released once its vector-Jacobian product has run: its
        closure, its gradient and its reference to the tape are dropped.
        ``nodes`` still lists the swept nodes with their values, and leaf
        tensors keep their ``.grad``.  A second sweep raises ``ValueError``.
        """
        if loss.value.ndim != 0:
            raise ValueError("backward expects a scalar loss")
        if self.swept:
            raise ValueError("this tape has already been swept; record a new one")
        self.swept = True
        loss.grad = np.ones_like(loss.value)
        for node in reversed(self.nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)
            node.tape = node.grad = node._backward = None


class Tensor:
    __slots__ = ("tape", "value", "grad", "requires_grad", "_backward")

    def __init__(self, tape: Tape, value: np.ndarray, requires_grad: bool = False):
        self.tape = tape
        value = np.asarray(value)
        self.value = value.astype(complex if value.dtype.kind == "c" else float, copy=False)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = None

    @property
    def shape(self):
        return self.value.shape

    def accumulate(self, g: np.ndarray) -> None:
        if g.dtype.kind == "c" and self.value.dtype.kind != "c":
            g = g.real
        # the first gradient is kept as sent, not copied, and later ones add out of place:
        # no backward writes into a gradient it receives
        self.grad = g.astype(self.value.dtype, copy=False) if self.grad is None else self.grad + g


def _as_tensor(tape: Tape, x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return tape.tensor(x)


def record(tape: Tape, value: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Record an operation whose vector-Jacobian product ``backward(g)`` supplies.

    ``backward`` accumulates into every parent that requires a gradient.
    Nothing is recorded when no parent does, so a single-parent ``backward``
    accumulates unconditionally.
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


def _conj(x: np.ndarray) -> np.ndarray:
    """Complex conjugate; a real array is returned as is, without a copy."""
    return np.conj(x) if x.dtype.kind == "c" else x


def _binary(a, b, op, vjp_a, vjp_b):
    """Record ``op(a, b)`` for broadcasting operands, either one a constant; ``vjp_a(g, x, y)`` and
    ``vjp_b(g, x, y)`` give each operand's product at values ``x, y``, before unbroadcasting."""
    tape = (a if isinstance(a, Tensor) else b).tape
    a, b = _as_tensor(tape, a), _as_tensor(tape, b)

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(vjp_a(g, a.value, b.value), a.value.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(vjp_b(g, a.value, b.value), b.value.shape))

    return record(tape, op(a.value, b.value), (a, b), backward)


def add(a, b):
    return _binary(a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _binary(a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _binary(a, b, np.multiply, lambda g, x, y: g * _conj(y), lambda g, x, y: g * _conj(x))


def div(a, b):
    return _binary(
        a, b, np.divide, lambda g, x, y: g / _conj(y), lambda g, x, y: -g * _conj(x) / (_conj(y) ** 2)
    )


def _float_view(x: np.ndarray) -> np.ndarray:
    """A complex array's last axis as interleaved (re, im) floats."""
    return np.ascontiguousarray(x).view(x.real.dtype)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, with a real operand kept on a real BLAS path.

    A real matrix acting from the left is applied to the other operand's
    interleaved (re, im) float view.  A real or complex stack times a real
    matrix is one 2-D product, not one product per batch entry.
    """
    if a.dtype.kind != "c" and b.dtype.kind == "c" and b.ndim >= 2:
        return (a @ _float_view(b)).view(complex)
    if b.dtype.kind != "c" and b.ndim == 2 and a.ndim > 2:
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[1:])
    return a @ b


def matmul(a, b):
    """``np.matmul`` semantics, including batched operands."""
    tape = (a if isinstance(a, Tensor) else b).tape
    a, b = _as_tensor(tape, a), _as_tensor(tape, b)
    value = _product(a.value, b.value)

    def backward(g):
        # a real target keeps the real part of its gradient, so it takes Re(g) before its product
        if a.requires_grad:
            if a.value.dtype.kind == "c" or b.value.dtype.kind != "c":
                bh = np.swapaxes(_conj(b.value), -1, -2)
                if bh.ndim >= 3 and bh.shape[-1] == bh.shape[-2]:
                    # stacked d x d blocks multiply faster from a contiguous copy, to the same
                    # bits; an (n, d, f) signal stack would be slower and round differently
                    bh = np.ascontiguousarray(bh)
                ga = _product(g if a.value.dtype.kind == "c" else g.real, bh)
            else:  # Re(g b^H), one real product of the float views
                ga = _float_view(g) @ np.swapaxes(_float_view(b.value), -1, -2)
            a.accumulate(_unbroadcast(ga, a.value.shape))
        if b.requires_grad:
            if b.value.dtype.kind == "c" or b.value.ndim != 2:
                gb = _product(np.swapaxes(_conj(a.value), -1, -2), g)
            elif a.value.dtype.kind == "c":  # Re(a^H g) summed over the stack, from one product of the float views
                k, f = b.value.shape
                P = _float_view(a.value.reshape(-1, k)).T @ _float_view(g.reshape(-1, f))
                gb = P[::2, ::2] + P[1::2, 1::2]
            else:  # a^T Re(g) summed over the stack, as one 2-D product
                k, f = b.value.shape
                gb = a.value.reshape(-1, k).T @ g.real.reshape(-1, f)
            b.accumulate(_unbroadcast(gb, b.value.shape))

    return record(tape, value, (a, b), backward)


# no package caller (full maps reach their blocks in one model node); perfbench/layertrace.py traces it
def transpose(a: Tensor, axes: tuple[int, ...]):
    """``np.transpose`` as a contiguous copy: a strided view would send a following
    stacked ``matmul`` of small blocks down numpy's slow loop (the values are the same)."""
    inverse = np.argsort(axes)

    def backward(g):
        a.accumulate(np.transpose(g, inverse))

    return record(a.tape, np.ascontiguousarray(np.transpose(a.value, axes)), (a,), backward)


def reshape(a: Tensor, shape):
    old = a.value.shape

    def backward(g):
        a.accumulate(g.reshape(old))

    return record(a.tape, a.value.reshape(shape), (a,), backward)


# no package caller (the model unwinds with unwound_matmul); perfbench/layertrace.py traces it
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


def gather(a: Tensor, plan: "SegmentPlan"):
    """Rows ``a[plan.seg_ids]``; the backward sums duplicates with ``plan.apply``."""

    def backward(g):
        a.accumulate(plan.apply(g))

    return record(a.tape, a.value.take(plan.seg_ids, axis=0), (a,), backward)


def _unwound(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float view of ``x`` flattened to ``(rows, pair k)`` and, for its unwound block ``[[A], [B]]``
    at the top of a weight, the weight rows that meet its columns: ``A``'s and ``B``'s interleaved like
    the (re, im) columns, or ``A``'s alone for a real ``x``."""
    k, pair = int(np.prod(x.shape[1:])), 2 if x.dtype.kind == "c" else 1
    return _float_view(x).reshape(-1, pair * k), (np.arange(k)[:, None] + k * np.arange(pair)).ravel()


def unwound_matmul(parts, w: Tensor):
    """``[Re x_1, Im x_1, Re x_2, Im x_2, ...] @ w`` for ``x_i`` flattened to ``(rows, k_i)`` and a real
    ``w`` ``(sum 2 k_i, p)``, as one node that copies no real or imaginary part: a block ``[[A], [B]]``
    acts as ``Re(x (A - iB))``, one real product of the float view of ``x`` with the rows of ``A`` and
    ``B`` interleaved like its (re, im) columns.  A real ``x`` meets ``A`` alone."""
    views, rows, lo = [], [], 0
    for x in parts:
        v, r = _unwound(x.value)
        views.append(v)
        rows.append(lo + r)
        lo += 2 * int(np.prod(x.value.shape[1:]))
    blocks = [w.value[r] for r in rows]

    def backward(g):
        for x, b in zip(parts, blocks):
            if x.requires_grad:
                x.accumulate((g @ b.T).view(x.value.dtype).reshape(x.value.shape))
        if w.requires_grad:
            gw = np.zeros_like(w.value)
            for v, r in zip(views, rows):
                gw[r] = v.T @ g
            w.accumulate(gw)

    return record(w.tape, sum(v @ b for v, b in zip(views, blocks)), (*parts, w), backward)


@dataclass(frozen=True)
class SegmentPlan:
    """Static, read-only gather/scatter plan for summing rows into segments.

    Rows are ordered by (segment length, position in segment, segment), so
    the ``k`` segments of one length ``L`` are one ``(L, k, ...)`` block,
    summed by one ``np.add.reduce`` over its leading axis: each segment adds
    its rows one by one, in input order, as ``np.add.at`` does (numpy sums
    pairwise instead when the block is one contiguous column, a length held
    by a single segment of one-value rows).  ``rank`` puts the sums in
    segment order.  ``major`` orders the rows by (segment length, segment,
    position) instead, so a run's ``k`` segments are one ``(k, L, ...)``
    block, each segment's rows side by side."""

    seg_ids: np.ndarray
    num_segments: int
    order: np.ndarray
    runs: tuple[tuple[int, int, int, int], ...]  # (first, end segment, first, end row) of each length
    rank: np.ndarray  # position of each segment among the runs
    major: np.ndarray

    @classmethod
    def build(cls, seg_ids: np.ndarray, num_segments: int) -> "SegmentPlan":
        seg_ids = np.asarray(seg_ids, dtype=np.int64)
        counts = np.bincount(seg_ids, minlength=num_segments)
        # array methods, cheaper than numpy's wrappers on the small plans of one-off hypergraphs
        by_segment = seg_ids.argsort(kind="stable")
        seg = seg_ids[by_segment]
        length = counts[seg]
        position = np.arange(len(seg)) - (counts.cumsum() - counts)[seg]
        order = by_segment[((length * (counts.max(initial=0) + 1) + position) * num_segments + seg).argsort()]
        by_length = counts.argsort(kind="stable")
        lengths = counts[by_length]
        bounds = [0, *((lengths[1:] != lengths[:-1]).nonzero()[0] + 1).tolist(), num_segments]
        ends = [0, *lengths.cumsum().tolist()]
        runs = tuple((lo, hi, ends[lo], ends[hi]) for lo, hi in zip(bounds, bounds[1:]) if hi > lo)
        plan = cls(seg_ids, num_segments, order, runs, by_length.argsort(), by_segment[length.argsort(kind="stable")])
        for a in (seg_ids, order, plan.rank, plan.major):
            a.setflags(write=False)
        return plan

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Segment sums of rows in input order, that of ``seg_ids``; a run of empty
        segments reduces a zero-row block to zeros."""
        ordered = values.take(self.order, axis=0)
        rest = ordered.shape[1:]
        out = np.empty((self.num_segments,) + rest, dtype=ordered.dtype)
        for lo, hi, first, end in self.runs:
            np.add.reduce(ordered[first:end].reshape((-1, hi - lo) + rest), axis=0, out=out[lo:hi])
        return out[self.rank]


def segment_sum(a: Tensor, plan: SegmentPlan):
    def backward(g):
        a.accumulate(g.take(plan.seg_ids, axis=0))

    return record(a.tape, plan.apply(a.value), (a,), backward)


def reduce_sum(a: Tensor, axis=None, keepdims=False):
    def backward(g):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        a.accumulate(np.broadcast_to(gg, a.value.shape).copy())

    return record(a.tape, a.value.sum(axis=axis, keepdims=keepdims), (a,), backward)


def sigmoid(a: Tensor):
    value = 1.0 / (1.0 + np.exp(-a.value))

    def backward(g):
        a.accumulate(g * value * (1.0 - value))

    return record(a.tape, value, (a,), backward)


def tanh(a: Tensor):
    value = np.tanh(a.value)

    def backward(g):
        a.accumulate(g * (1.0 - value**2))

    return record(a.tape, value, (a,), backward)


def relu(a: Tensor):
    mask = a.value > 0

    def backward(g):
        a.accumulate(g * mask)

    return record(a.tape, a.value * mask, (a,), backward)


def sqrt(a: Tensor):
    value = np.sqrt(a.value)

    def backward(g):
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
        grad = probs.copy()
        grad[np.arange(len(labels)), labels] -= 1.0
        grad *= mask[:, None] / count
        logits.accumulate(g * grad)

    return record(logits.tape, value, (logits,), backward)
