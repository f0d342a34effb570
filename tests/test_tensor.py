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
        res = T.grad_check(lambda: T.sum_(T.l2_normalize(p) * np.array([1.0, -2.0])), {"p": p})
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
            y = T.sum_(x * x)
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
        y = T.sum_(x * x)  # no tape active
        with pytest.raises(DetachedLoss):
            T.backward(y)

    def test_tape_consumed_once(self):
        x = T.parameter([2.0])
        with T.Tape():
            y = T.sum_(x * x)
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
            h = x * x
            y = T.sum_(h + h)
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
            return T.sum_(p * float(counter["n"]))

        with pytest.raises(NonDeterministic):
            T.grad_check(f, {"p": p})


OP_CASES = [
    ("matmul", lambda rng: _matmul_case(rng)),
    ("conv1d", lambda rng: _conv_case(rng)),
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


def _elementwise_case(rng):
    a = T.parameter(rng.uniform(0.5, 2.0, size=(6,)).astype(np.float64))
    b = T.parameter(rng.uniform(0.5, 2.0, size=(6,)).astype(np.float64))
    return {"a": a, "b": b}, lambda: T.sum_(
        T.exp(T.mul(a, 0.3)) + T.log(b) + T.sqrt(a) + T.div(a, b) - T.power(b, 2.0)
    )


def _reduction_case(rng):
    a = T.parameter(rng.normal(size=(3, 4, 2)).astype(np.float64))
    w = np.asarray(rng.normal(size=(4,)))
    return {"a": a}, lambda: T.sum_(
        T.mul(T.mean_(a, axis=(0, 2)), w)
    ) + T.sum_(T.sum_(a, axis=1, keepdims=True))


def _concat_case(rng):
    a = T.parameter(rng.normal(size=(3, 2)).astype(np.float64))
    b = T.parameter(rng.normal(size=(2, 2)).astype(np.float64))
    idx = np.array([0, 2, 4])
    return {"a": a, "b": b}, lambda: T.sum_(
        T.power(T.take(T.concat([a, b], axis=0), idx), 2.0)
    )


@pytest.mark.parametrize("name,builder", OP_CASES)
def test_grad_check_every_op(name, builder):
    """Each differentiable op passes the central-difference oracle (64-bit)."""
    params, f = builder(np.random.default_rng(hash(name) % 2**32))
    res = T.grad_check(f, params)
    assert res.max_rel_error < 1e-6, f"{name}: {res.max_rel_error}"


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
