import numpy as np
import pytest

from hypersheaf import autodiff as ad
from hypersheaf.autodiff import SegmentPlan, Tape


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
    idx = np.array([0, 0, 3])
    out = ad.reduce_sum(ad.gather(x, idx))
    tape.backward(out)
    np.testing.assert_allclose(x.grad, [2.0, 0.0, 0.0, 1.0])


def test_segment_plan_handles_empty_segments():
    plan = SegmentPlan.build(np.array([2, 0, 2]), 4)
    values = np.array([[1.0], [5.0], [2.0]])
    np.testing.assert_allclose(plan.apply(values), [[5.0], [0.0], [3.0], [0.0]])
    for ids, expected in (([0, 0, 2], [[6.0], [0.0], [2.0], [0.0]]), ([0, 2, 3], [[1.0], [0.0], [5.0], [2.0]])):
        presorted = SegmentPlan.build(np.array(ids), 4)
        assert presorted.presorted
        np.testing.assert_allclose(presorted.apply(values), expected)
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


def test_finite_difference_check_passes_and_fails():
    def quadratic(params):
        tape = Tape()
        x = tape.tensor(params["x"], requires_grad=True)
        loss = ad.reduce_sum(ad.mul(ad.mul(x, x), 0.5))
        tape.backward(loss)
        return float(loss.value), {"x": x.grad}

    params = {"x": np.array([1.0, -2.0, 3.0])}
    worst = ad.finite_difference_check(quadratic, params, n_probes=3)
    assert worst["x"] < 1e-6

    def wrong(params):
        loss, grads = quadratic(params)
        return loss, {"x": grads["x"] * 1.5}

    with pytest.raises(AssertionError, match="gradient mismatch"):
        ad.finite_difference_check(wrong, params, n_probes=3)
