import gc
import weakref

import numpy as np
import pytest

from hypersheaf import autodiff as ad
from hypersheaf.autodiff import SegmentPlan, Tape

from gradcheck import finite_difference_check, parts_loss


def numeric_grad(f, x, step=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = f(x)
        flat[i] = orig - step
        down = f(x)
        flat[i] = orig
        gf[i] = (up - down) / (2 * step)
    return g


def check_unary(op_tape, op_np, shape=(3, 4), seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.2, 1.5, size=shape)

    def run(value):
        tape = Tape()
        t = tape.tensor(value, requires_grad=True)
        out = ad.reduce_sum(ad.mul(op_tape(t), rng2))
        return tape, t, out

    rng2 = np.random.default_rng(seed + 1).standard_normal(shape)
    tape, t, out = run(x)
    tape.backward(out)
    expected = numeric_grad(lambda v: float((op_np(v) * rng2).sum()), x.copy())
    np.testing.assert_allclose(t.grad, expected, rtol=1e-5, atol=1e-7)


def test_elementwise_gradients():
    check_unary(ad.tanh, np.tanh)
    check_unary(ad.sigmoid, lambda v: 1 / (1 + np.exp(-v)))
    check_unary(ad.sqrt, np.sqrt)
    check_unary(ad.relu, lambda v: v * (v > 0))
    check_unary(lambda t: ad.mul(t, t), lambda v: v * v)


def test_matmul_gradients_batched():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 2, 3))
    B = rng.standard_normal((3, 4))
    weight = rng.standard_normal((5, 2, 4))

    def loss_np(a, b):
        return float(((a @ b) * weight).sum())

    tape = Tape()
    ta = tape.tensor(A, requires_grad=True)
    tb = tape.tensor(B, requires_grad=True)
    out = ad.reduce_sum(ad.mul(ad.matmul(ta, tb), weight))
    tape.backward(out)
    np.testing.assert_allclose(ta.grad, numeric_grad(lambda a: loss_np(a, B), A.copy()), atol=1e-6)
    np.testing.assert_allclose(tb.grad, numeric_grad(lambda b: loss_np(A, b), B.copy()), atol=1e-6)


def test_broadcast_add_and_mul_unbroadcast():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 3))
    b = rng.standard_normal(3)
    tape = Tape()
    tx = tape.tensor(x, requires_grad=True)
    tb = tape.tensor(b, requires_grad=True)
    out = ad.reduce_sum(ad.mul(ad.add(tx, tb), 2.0))
    tape.backward(out)
    np.testing.assert_allclose(tb.grad, np.full(3, 8.0))
    np.testing.assert_allclose(tx.grad, np.full((4, 3), 2.0))


def test_gather_accumulates_duplicates():
    tape = Tape()
    x = tape.tensor(np.arange(4.0), requires_grad=True)
    plan = SegmentPlan.build(np.array([3, 0, 0]), 4)
    out = ad.gather(x, plan)
    np.testing.assert_array_equal(out.value, [3.0, 0.0, 0.0])
    tape.backward(ad.reduce_sum(out))
    np.testing.assert_allclose(x.grad, [2.0, 0.0, 0.0, 1.0])


@pytest.mark.parametrize("ids", [[3, 0, 0, 2, 0], [0, 0, 1, 3, 3], []])
def test_gather_and_segment_sum_are_adjoint(ids):
    # <gather(x, plan), y> = <x, segment_sum(y, plan)>, each op's backward the other
    rng = np.random.default_rng(len(ids))
    plan = SegmentPlan.build(np.array(ids, dtype=int), 4)
    x = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
    y = rng.standard_normal((len(ids), 2, 3)) + 1j * rng.standard_normal((len(ids), 2, 3))
    tape = Tape()
    tx, ty = tape.tensor(x, requires_grad=True), tape.tensor(y, requires_grad=True)
    left, right = np.vdot(ad.gather(tx, plan).value, y), np.vdot(x, ad.segment_sum(ty, plan).value)
    assert abs(left - right) <= 1e-12 * max(1.0, abs(left))
    loss = ad.add(parts_loss(ad.gather(tx, plan), 1.0, 0.0), parts_loss(ad.segment_sum(ty, plan), 1.0, 0.0))
    tape.backward(loss)
    np.testing.assert_allclose(tx.grad, plan.apply(np.ones(y.shape)))
    np.testing.assert_allclose(ty.grad, np.ones(x.shape)[plan.seg_ids])


def test_unwound_matmul_equals_the_concatenated_real_and_imaginary_parts():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((5, 2, 3)) + 1j * rng.standard_normal((5, 2, 3))
    b = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    w = rng.standard_normal((20, 3))
    unwound = np.concatenate([a.real.reshape(5, 6), a.imag.reshape(5, 6), b.real, b.imag], axis=1)
    tape = Tape()
    parts = [tape.tensor(a, requires_grad=True), tape.tensor(b, requires_grad=True)]
    tw = tape.tensor(w, requires_grad=True)
    out = ad.unwound_matmul(parts, tw)
    np.testing.assert_allclose(out.value, unwound @ w, rtol=0, atol=1e-14)
    weight = rng.standard_normal((5, 3))
    tape.backward(ad.reduce_sum(ad.mul(out, weight)))
    g = weight @ w.T  # gradient of the concatenated real input
    np.testing.assert_allclose(tw.grad, unwound.T @ weight, rtol=0, atol=1e-13)
    np.testing.assert_allclose(parts[0].grad, (g[:, :6] + 1j * g[:, 6:12]).reshape(a.shape), atol=1e-13)
    np.testing.assert_allclose(parts[1].grad, g[:, 12:16] + 1j * g[:, 16:], atol=1e-13)


def test_segment_plan_handles_empty_segments():
    plan = SegmentPlan.build(np.array([2, 0, 2]), 4)
    values = np.array([[1.0], [5.0], [2.0]])
    np.testing.assert_allclose(plan.apply(values), [[5.0], [0.0], [3.0], [0.0]])
    for ids, expected in (([0, 0, 2], [[6.0], [0.0], [2.0], [0.0]]), ([0, 2, 3], [[1.0], [0.0], [5.0], [2.0]])):
        np.testing.assert_allclose(SegmentPlan.build(np.array(ids), 4).apply(values), expected)
    empty_plan = SegmentPlan.build(np.array([], dtype=int), 3)
    np.testing.assert_allclose(empty_plan.apply(np.zeros((0, 2))), np.zeros((3, 2)))


def test_segment_sum_matches_add_at_and_gradients():
    rng = np.random.default_rng(3)
    seg = rng.integers(0, 6, size=40)
    plan = SegmentPlan.build(seg, 6)
    x = rng.standard_normal((40, 2, 3))
    oracle = np.zeros((6, 2, 3))
    np.add.at(oracle, seg, x)
    np.testing.assert_allclose(plan.apply(x), oracle, atol=1e-12)

    weight = rng.standard_normal((6, 2, 3))
    tape = Tape()
    tx = tape.tensor(x, requires_grad=True)
    out = ad.reduce_sum(ad.mul(ad.segment_sum(tx, plan), weight))
    tape.backward(out)
    np.testing.assert_allclose(tx.grad, weight[seg])


def _grouped_sum_cases():
    rng = np.random.default_rng(31)
    # segments 0 (leading), 3 (interior) and 7, 8 (trailing) stay empty
    gappy = rng.permutation(np.repeat([1, 2, 4, 5, 6], [3, 1, 4, 2, 3]))
    return {
        "empty segments": (gappy, 9),
        "equal lengths": (rng.permutation(np.repeat(np.arange(5), 3)), 5),
        "one segment": (np.zeros(4, dtype=int), 1),
        "zero rows": (np.array([], dtype=int), 3),
        # edge-side ids, already sorted, with segments of 1 to 12 rows and 9, 10 trailing empty
        "sorted, trailing empty": (np.repeat(np.arange(9), [3, 12, 1, 8, 2, 9, 3, 1, 10]), 11),
    }


@pytest.mark.parametrize("case", list(_grouped_sum_cases()))
@pytest.mark.parametrize("rows", ["real (I, d, d)", "complex (I, d, f)"])
def test_grouped_segment_sums_match_add_at(case, rows):
    # every plan, sorted ids included, sums each segment's rows one by one in
    # input order, as np.add.at does, so the sums are equal, not just close
    seg, num_segments = _grouped_sum_cases()[case]
    rng = np.random.default_rng(len(seg))
    shape = (len(seg), 2, 2) if rows.startswith("real") else (len(seg), 2, 3)
    x = rng.standard_normal(shape)
    if rows.startswith("complex"):
        x = x + 1j * rng.standard_normal(shape)
    oracle = np.zeros((num_segments,) + shape[1:], dtype=x.dtype)
    np.add.at(oracle, seg, x)
    plan = SegmentPlan.build(seg, num_segments)
    np.testing.assert_array_equal(plan.apply(x), oracle)


@pytest.mark.parametrize("case", list(_grouped_sum_cases()))
def test_segment_major_order_lays_each_segment_side_by_side(case):
    # the rows of a run's k segments of length L form one (k, L) block: row j
    # holds the rows of the run's j-th segment, in input order
    seg, num_segments = _grouped_sum_cases()[case]
    plan = SegmentPlan.build(seg, num_segments)
    assert sorted(plan.major.tolist()) == list(range(len(seg)))
    by_rank = np.argsort(plan.rank)
    for lo, hi, first, end in plan.runs:
        block = plan.major[first:end].reshape(hi - lo, (end - first) // (hi - lo))
        for segment, rows in zip(by_rank[lo:hi], block):
            np.testing.assert_array_equal(rows, np.flatnonzero(seg == segment))


def test_concat_and_reshape_gradients():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((3, 5))
    w = rng.standard_normal((3, 7))
    tape = Tape()
    ta = tape.tensor(a, requires_grad=True)
    tb = tape.tensor(b, requires_grad=True)
    out = ad.reduce_sum(ad.mul(ad.concat([ta, tb], axis=1), w))
    tape.backward(out)
    np.testing.assert_allclose(ta.grad, w[:, :2])
    np.testing.assert_allclose(tb.grad, w[:, 2:])


def test_softmax_cross_entropy_uniform_logits_is_log_c():
    tape = Tape()
    logits = tape.tensor(np.zeros((6, 4)), requires_grad=True)
    labels = np.array([0, 1, 2, 3, 0, 1])
    mask = np.ones(6, dtype=bool)
    loss = ad.softmax_cross_entropy(logits, labels, mask)
    assert float(loss.value) == pytest.approx(np.log(4))


def test_softmax_cross_entropy_gradient():
    rng = np.random.default_rng(5)
    logits_value = rng.standard_normal((5, 3))
    labels = rng.integers(0, 3, size=5)
    mask = np.array([True, False, True, True, False])

    def loss_np(lv):
        shifted = lv - lv.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return float(-logp[mask, labels[mask]].mean())

    tape = Tape()
    t = tape.tensor(logits_value, requires_grad=True)
    loss = ad.softmax_cross_entropy(t, labels, mask)
    tape.backward(loss)
    np.testing.assert_allclose(t.grad, numeric_grad(loss_np, logits_value.copy()), atol=1e-6)
    with pytest.raises(ValueError, match="empty mask"):
        ad.softmax_cross_entropy(t, labels, np.zeros(5, dtype=bool))


def test_constant_only_ops_are_not_recorded():
    tape = Tape()
    a = tape.tensor(np.ones(3))
    b = tape.tensor(np.ones(3))
    c = ad.add(a, b)
    assert not c.requires_grad
    assert tape.nodes == []


def test_backward_requires_scalar():
    tape = Tape()
    t = tape.tensor(np.ones(3), requires_grad=True)
    out = ad.mul(t, 2.0)
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(out)


def test_backward_releases_each_swept_node():
    tape = Tape()
    x = tape.tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    w = tape.tensor(np.array([0.5, 1.5, -1.0]), requires_grad=True)
    unused = ad.tanh(x)  # recorded, but the loss does not reach it
    loss = ad.reduce_sum(ad.mul(ad.mul(x, x), w))
    values = [node.value for node in tape.nodes]
    tape.backward(loss)
    assert len(tape.nodes) == len(values) == 4
    for node, value in zip(tape.nodes, values):
        assert node._backward is None and node.grad is None and node.tape is None
        assert node.value is value
    assert unused in tape.nodes
    # leaves keep their gradients
    np.testing.assert_array_equal(x.grad, 2.0 * x.value * w.value)
    np.testing.assert_array_equal(w.grad, x.value**2)
    with pytest.raises(ValueError, match="already been swept"):
        tape.backward(loss)


def test_a_released_tape_is_freed_by_reference_counting():
    # a swept tape has released every node; a forward-only pass records none
    # (see test_model's test_evaluate_records_nothing_and_is_freed_by_reference_counting)
    def build():
        tape = Tape()
        x = tape.tensor(np.arange(4.0), requires_grad=True)
        tape.backward(ad.reduce_sum(ad.sqrt(ad.add(ad.mul(x, x), 1.0))))
        return weakref.ref(tape)

    gc.collect()
    gc.disable()
    try:
        assert build()() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_finite_difference_check_passes_and_fails():
    def quadratic(params):
        tape = Tape()
        x = tape.tensor(params["x"], requires_grad=True)
        loss = ad.reduce_sum(ad.mul(ad.mul(x, x), 0.5))
        tape.backward(loss)
        return float(loss.value), {"x": x.grad}

    params = {"x": np.array([1.0, -2.0, 3.0])}
    worst = finite_difference_check(quadratic, params, n_probes=3)
    assert worst["x"] < 1e-6

    def wrong(params):
        loss, grads = quadratic(params)
        return loss, {"x": grads["x"] * 1.5}

    with pytest.raises(AssertionError, match="gradient mismatch"):
        finite_difference_check(wrong, params, n_probes=3)


def test_complex_ops_match_finite_differences():
    # complex operands are built on the tape from real (re, im) inputs, so
    # the finite differences probe real coordinates only
    rng = np.random.default_rng(6)
    shapes = {
        "ar": (4, 2, 3), "ai": (4, 2, 3), "cr": (2, 3), "ci": (2, 3), "br": (3, 5), "bi": (3, 5),
        "r": (2, 3), "w": (2, 2), "v": (3, 5), "s": (4, 3, 5), "t": (4, 2, 3),
    }
    params = {name: rng.uniform(0.5, 1.5, size=shape) for name, shape in shapes.items()}
    weights = [rng.standard_normal(2) for _ in range(10)]

    def build_loss(p):
        tape = Tape()
        T = {name: tape.tensor(value, requires_grad=True) for name, value in p.items()}
        a = ad.add(T["ar"], ad.mul(T["ai"], 1j))
        c = ad.add(T["cr"], ad.mul(T["ci"], 1j))
        b = ad.add(T["br"], ad.mul(T["bi"], 1j))
        outputs = [
            ad.mul(a, T["r"]), ad.mul(a, c), ad.div(a, T["r"]), ad.div(T["r"], c), ad.div(a, c),
            ad.matmul(T["w"], a), ad.matmul(a, T["v"]), ad.matmul(a, b), ad.matmul(T["t"], b),
            ad.matmul(a, T["s"]),
        ]
        loss = tape.tensor(0.0)
        for out, (wr, wi) in zip(outputs, weights):
            # quadratic in the imaginary part, so its gradient is not constant
            loss = ad.add(loss, parts_loss(out, wr, wi, square_imag=True))
        tape.backward(loss)
        return float(loss.value), {name: t.grad for name, t in T.items()}

    worst = finite_difference_check(build_loss, params, n_probes=12, rel_tol=1e-6)
    assert set(worst) == set(shapes)


def test_real_tensor_keeps_real_gradient():
    tape = Tape()
    x = tape.tensor(np.array([1.0, 2.0]), requires_grad=True)
    z = ad.mul(x, np.array([1j, 2.0 - 1.0j]))
    assert z.value.dtype == complex
    tape.backward(parts_loss(z, 0.0, 1.0))  # d/dz of sum(Im z) is i
    assert x.grad.dtype == float
    np.testing.assert_array_equal(x.grad, [1.0, -1.0])
