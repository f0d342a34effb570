"""Autograd engine: op correctness, stability kernels, gradient oracle."""

import math

import numpy as np
import pytest

from skelcl import tensor as T
from skelcl.errors import (
    DetachedLoss,
    EmptyMask,
    NonDeterministic,
    NonFiniteValue,
    ShapeMismatch,
    ZeroNorm,
)


def brute_force_nll(logits, mask):
    """Independent 64-bit reference: -log(sum masked exp / sum all exp)."""
    logits = np.asarray(logits, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    e = np.exp(logits)
    return float(-np.log(e[mask].sum() / e.sum()))


class TestL2Normalize:
    def test_three_four(self):
        out = T.l2_normalize(T.Tensor([3.0, 4.0]))
        np.testing.assert_allclose(out.data, [0.6, 0.8], atol=1e-7)

    def test_already_unit(self):
        out = T.l2_normalize(T.Tensor([1.0, 0.0]))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-7)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroNorm):
            T.l2_normalize(T.Tensor([0.0, 0.0]))

    def test_rows_unit_norm(self):
        rng = np.random.default_rng(3)
        v = T.Tensor(rng.normal(size=(16, 8)))
        out = T.l2_normalize(v)
        np.testing.assert_allclose(
            np.linalg.norm(out.data, axis=1), np.ones(16), atol=1e-6
        )

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        v = T.Tensor(rng.normal(size=(5, 6)))
        once = T.l2_normalize(v)
        twice = T.l2_normalize(once)
        np.testing.assert_allclose(once.data, twice.data, atol=1e-6)

    def test_gradient_flows(self):
        p = T.parameter(np.array([3.0, 4.0], dtype=np.float64))
        res = T.grad_check(lambda: T.sum_(T.mul(T.l2_normalize(p), np.array([1.0, -2.0]))), {"p": p})
        assert res.max_rel_error < 1e-6


def one_row_nll(logits, mask, dtype=None) -> float:
    """`masked_softmax_nll_rows` on a single-row logit matrix."""
    row = T.Tensor(np.asarray(logits, dtype=dtype)[None, :])
    return float(T.masked_softmax_nll_rows(row, np.asarray(mask, dtype=bool)[None, :]).data[0])


class TestSoftmaxNll:
    def test_symmetric_two_way(self):
        assert abs(one_row_nll([2.5, 2.5], [True, False]) - math.log(2)) < 1e-6

    def test_one_zero(self):
        # brute-force oracle: 0.3132616875182228
        loss = one_row_nll([1.0, 0.0], [True, False])
        assert abs(loss - brute_force_nll([1, 0], [True, False])) < 1e-6
        assert abs(loss - 0.3132616875182228) < 1e-6

    def test_two_positives(self):
        # brute-force oracle: 0.1688476234983058
        loss = one_row_nll([1.0, 1.0, 0.0], [True, True, False])
        assert abs(loss - brute_force_nll([1, 1, 0], [True, True, False])) < 1e-6
        assert abs(loss - 0.1688476234983058) < 1e-6

    def test_empty_mask_raises(self):
        with pytest.raises(EmptyMask):
            one_row_nll([1.0, 2.0], [False, False])

    def test_matches_brute_force_on_random_logits(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            logits = rng.uniform(-20, 20, size=n)
            mask = rng.uniform(size=n) < 0.4
            if not mask.any():
                mask[int(rng.integers(0, n))] = True
            got = one_row_nll(logits, mask, dtype=np.float64)
            assert abs(got - brute_force_nll(logits, mask)) < 1e-6

    def test_large_logits_stable(self):
        # temperature 0.07 pushes unit similarities beyond exp() float32 comfort
        loss = one_row_nll(np.array([1.0, -1.0, 0.5]) / 0.07, [True, False, False], np.float32)
        assert np.isfinite(loss)

    def test_row_kernel_matches_single(self):
        rng = np.random.default_rng(12)
        logits = rng.uniform(-5, 5, size=(6, 9))
        mask = rng.uniform(size=(6, 9)) < 0.3
        mask[:, 0] = True
        rows = T.masked_softmax_nll_rows(T.Tensor(logits, dtype=np.float64), mask)
        for i in range(6):
            assert abs(rows.data[i] - one_row_nll(logits[i], mask[i], np.float64)) < 1e-12
            assert abs(rows.data[i] - brute_force_nll(logits[i], mask[i])) < 1e-9


class TestBackward:
    def test_square(self):
        x = T.parameter([3.0])
        with T.Tape():
            y = T.sum_(T.mul(x, x))
            grads = T.backward(y)
        np.testing.assert_allclose(grads[x].data, [6.0])

    def test_dot_bilinear(self):
        a = T.parameter([1.0, 2.0])
        b = T.parameter([3.0, 4.0])
        with T.Tape():
            y = T.sum_(T.mul(a, b))
            grads = T.backward(y)
        np.testing.assert_allclose(grads[a].data, [3.0, 4.0])
        np.testing.assert_allclose(grads[b].data, [1.0, 2.0])

    def test_relu_dead_unit(self):
        x = T.parameter([-1.0])
        with T.Tape():
            y = T.sum_(T.relu(x))
            grads = T.backward(y)
        np.testing.assert_allclose(grads[x].data, [0.0])

    def test_detached_loss_raises(self):
        x = T.parameter([1.0])
        y = T.sum_(T.mul(x, x))  # no tape active
        with pytest.raises(DetachedLoss):
            T.backward(y)

    def test_tape_consumed_once(self):
        x = T.parameter([2.0])
        with T.Tape():
            y = T.sum_(T.mul(x, x))
            T.backward(y)
            with pytest.raises(DetachedLoss):
                T.backward(y)

    def test_key_branch_gets_no_gradient(self):
        q = T.parameter([1.0, 2.0])
        k = T.Tensor([3.0, 4.0])  # gradient-free leaf
        with T.Tape():
            y = T.sum_(T.mul(q, k))
            grads = T.backward(y)
        assert q in grads and k not in grads

    def test_reused_intermediate_accumulates(self):
        x = T.parameter([2.0])
        with T.Tape():
            h = T.mul(x, x)
            y = T.sum_(T.add(h, h))
            grads = T.backward(y)
        np.testing.assert_allclose(grads[x].data, [8.0])


class TestGradCheckOracle:
    def test_linear_function_exact(self):
        p = T.parameter(np.arange(6, dtype=np.float64))
        res = T.grad_check(lambda: T.sum_(p), {"p": p})
        assert res.max_rel_error < 1e-10

    def test_two_layer_projector(self):
        rng = np.random.default_rng(7)
        w1 = T.parameter(rng.normal(size=(4, 5)).astype(np.float64))
        b1 = T.parameter(rng.normal(size=(5,)).astype(np.float64))
        w2 = T.parameter(rng.normal(size=(5, 3)).astype(np.float64))
        x = T.Tensor(rng.normal(size=(2, 4)).astype(np.float64))
        target = np.asarray(rng.normal(size=(2, 3)))

        def f():
            h = T.relu(T.add(T.matmul(x, w1), b1))
            out = T.matmul(h, w2)
            return T.sum_(T.mul(out, target))

        res = T.grad_check(f, {"w1": w1, "b1": b1, "w2": w2})
        assert res.max_rel_error < 1e-6

    def test_relu_kink_skipped(self):
        p = T.parameter(np.array([0.0, 1.0], dtype=np.float64))
        res = T.grad_check(lambda: T.sum_(T.relu(p)), {"p": p}, eps=1e-4)
        assert ("p", 0) in res.skipped
        assert res.per_param["p"] < 1e-8  # the surviving coordinate is exact

    def test_nondeterministic_raises(self):
        p = T.parameter([1.0])
        counter = {"n": 0}

        def f():
            counter["n"] += 1
            return T.sum_(T.mul(p, float(counter["n"])))

        with pytest.raises(NonDeterministic):
            T.grad_check(f, {"p": p})


OP_CASES = [
    ("matmul", lambda rng: _matmul_case(rng)),
    ("conv1d", lambda rng: _conv_case(rng)),
    ("conv1d_batched_k5", lambda rng: _conv_batched_case(rng)),
    ("batch_norm", lambda rng: _batch_norm_case(rng)),
    ("mixed_elementwise", lambda rng: _elementwise_case(rng)),
    ("reductions", lambda rng: _reduction_case(rng)),
    ("concat_take", lambda rng: _concat_case(rng)),
]


def _matmul_case(rng):
    a = T.parameter(rng.normal(size=(3, 4)).astype(np.float64))
    b = T.parameter(rng.normal(size=(4, 2)).astype(np.float64))
    w = np.asarray(rng.normal(size=(3, 2)))
    return {"a": a, "b": b}, lambda: T.sum_(T.mul(T.matmul(a, b), w))


def _conv_case(rng):
    x = T.parameter(rng.normal(size=(5, 2, 3)).astype(np.float64))
    k = T.parameter(rng.normal(size=(2, 3)).astype(np.float64))
    w = np.asarray(rng.normal(size=(5, 2, 3)))
    return {"x": x, "k": k}, lambda: T.sum_(T.mul(T.conv1d_temporal(x, k), w))


def _conv_batched_case(rng):
    x = T.parameter(rng.normal(size=(2, 6, 3, 4)).astype(np.float64))
    k = T.parameter(rng.normal(size=(3, 5)).astype(np.float64))
    w = np.asarray(rng.normal(size=(2, 6, 3, 4)))
    return {"x": x, "k": k}, lambda: T.sum_(T.mul(T.conv1d_temporal(x, k), w))


def _batch_norm_case(rng):
    y = T.parameter(rng.normal(size=(2, 3, 4, 5)).astype(np.float64))
    gamma = T.parameter(rng.uniform(0.5, 1.5, size=4).astype(np.float64))
    beta = T.parameter(rng.normal(size=4).astype(np.float64))
    w = np.asarray(rng.normal(size=(2, 3, 4, 5)))
    return {"y": y, "gamma": gamma, "beta": beta}, lambda: T.sum_(
        T.mul(T.batch_norm(y, gamma, beta, 1e-5)[0], w)
    )


def _elementwise_case(rng):
    a = T.parameter(rng.uniform(0.5, 2.0, size=(6,)).astype(np.float64))
    b = T.parameter(rng.uniform(0.5, 2.0, size=(6,)).astype(np.float64))
    return {"a": a, "b": b}, lambda: T.sum_(T.sub(
        T.add(T.add(T.add(T.exp(T.mul(a, 0.3)), T.log(b)), T.sqrt(a)), T.div(a, b)),
        T.mul(b, b),
    ))


def _reduction_case(rng):
    a = T.parameter(rng.normal(size=(3, 4, 2)).astype(np.float64))
    w = np.asarray(rng.normal(size=(4,)))
    return {"a": a}, lambda: T.add(
        T.sum_(T.mul(T.mean_(a, axis=(0, 2)), w)),
        T.sum_(T.sum_(a, axis=1, keepdims=True)),
    )


def _concat_case(rng):
    a = T.parameter(rng.normal(size=(3, 2)).astype(np.float64))
    b = T.parameter(rng.normal(size=(2, 2)).astype(np.float64))
    rows = np.zeros((5, 1))
    rows[[0, 2, 4]] = 1.0  # weight rows 0, 2, 4 of the stacked (5, 2) result

    def f():
        stacked = T.concat([a, b], axis=0)
        return T.sum_(T.mul(T.mul(stacked, stacked), rows))

    return {"a": a, "b": b}, f


@pytest.mark.parametrize("name,builder", OP_CASES)
def test_grad_check_every_op(name, builder):
    """Each differentiable op passes the central-difference oracle (64-bit)."""
    params, f = builder(np.random.default_rng(hash(name) % 2**32))
    res = T.grad_check(f, params)
    assert res.max_rel_error < 1e-6, f"{name}: {res.max_rel_error}"


def composed_batch_norm(y, gamma, beta, eps):
    """Batch norm as the elementwise composition the fused op replaced."""
    shape = (1,) * (y.ndim - 2) + (gamma.shape[0], 1)
    axes = tuple(i for i in range(y.ndim) if i != y.ndim - 2)
    mu = T.mean_(y, axis=axes, keepdims=True)
    centered = T.sub(y, mu)
    var = T.mean_(T.mul(centered, centered), axis=axes, keepdims=True)
    xhat = T.div(centered, T.sqrt(T.add(var, eps)))
    out = T.add(T.mul(xhat, T.reshape(gamma, shape)), T.reshape(beta, shape))
    return out, mu.data.reshape(-1), var.data.reshape(-1)


@pytest.mark.parametrize("shape", [(4, 5, 3, 6), (7, 2, 9)])
def test_batch_norm_matches_composition(shape):
    rng = np.random.default_rng(len(shape))
    y = T.parameter(rng.normal(1.5, 2.0, size=shape))
    gamma = T.parameter(rng.uniform(0.5, 1.5, size=shape[-2]))
    beta = T.parameter(rng.normal(size=shape[-2]))
    w = rng.normal(size=shape)
    results = []
    for op in (T.batch_norm, composed_batch_norm):
        with T.Tape():
            out, mean, var = op(y, gamma, beta, 1e-5)
            grads = T.backward(T.sum_(T.mul(out, w)))
        results.append((out.data, mean, var, [grads[p].data for p in (y, gamma, beta)]))
    (out, mean, var, grads), (ref_out, ref_mean, ref_var, ref_grads) = results
    np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(mean, ref_mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(var, ref_var, rtol=1e-12, atol=1e-12)
    for got, want in zip(grads, ref_grads):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_batch_norm_one_tape_node():
    y = T.parameter(np.random.default_rng(0).normal(size=(3, 4, 2, 5)))
    gamma, beta = T.parameter(np.ones(2)), T.parameter(np.zeros(2))
    with T.Tape() as tape:
        T.batch_norm(y, gamma, beta, 1e-5)
    assert len(tape.nodes) == 1


def test_conv1d_kernel_wider_than_clip():
    # taps that reach past both ends of a 2-frame clip see only padding
    x = T.Tensor(np.arange(12, dtype=np.float64).reshape(2, 2, 3))
    k = T.Tensor(np.array([[1.0, 2.0, 3.0, 5.0, 7.0]] * 2))
    out = T.conv1d_temporal(x, k)
    np.testing.assert_allclose(out.data[0], 3.0 * x.data[0] + 5.0 * x.data[1])
    np.testing.assert_allclose(out.data[1], 2.0 * x.data[0] + 3.0 * x.data[1])


def test_grad_check_float32_tolerance():
    rng = np.random.default_rng(21)
    a = T.parameter(rng.normal(size=(4, 3)).astype(np.float32))
    b = T.parameter(rng.normal(size=(3, 2)).astype(np.float32))
    w = np.asarray(rng.normal(size=(4, 2)), dtype=np.float32)
    res = T.grad_check(lambda: T.sum_(T.mul(T.matmul(a, b), w)), {"a": a, "b": b}, eps=1e-2)
    assert res.max_rel_error < 1e-3


class TestInvariants:
    def test_nonfinite_surfaced(self):
        with pytest.raises(NonFiniteValue):
            T.log(T.Tensor([0.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))

    def test_where_routes_gradients(self):
        a = T.parameter(np.array([1.0, 2.0, 3.0], dtype=np.float64))
        b = T.parameter(np.array([4.0, 5.0, 6.0], dtype=np.float64))
        mask = np.array([True, False, True])
        with T.Tape():
            y = T.sum_(T.where(mask, a, b))
            grads = T.backward(y)
        np.testing.assert_allclose(grads[a].data, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(grads[b].data, [0.0, 1.0, 0.0])

    def test_max_detached_carries_no_grad(self):
        a = T.parameter([1.0, 5.0])
        with T.Tape():
            y = T.sum_(T.sub(a, T.max_detached(a)))
            grads = T.backward(y)
        np.testing.assert_allclose(grads[a].data, [1.0, 1.0])
