"""Autograd engine: op correctness, stability kernels, gradient oracle."""

import gc
import math
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from skelcl import tensor as T
from skelcl.contrast import queue_nll
from skelcl.errors import (
    DetachedLoss,
    EmptyMask,
    InvalidArgument,
    InvalidLabel,
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

    def test_overflowing_norm_raises_by_name_before_any_node(self):
        # the float32 squared norm of a 1e20 row overflows; a NaN row has no norm
        for row in ([1e20, 1.0], [np.nan, 1.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with T.Tape() as tape, pytest.raises(NonFiniteValue) as err:
                    T.l2_normalize(T.parameter(np.array([row, [3.0, 4.0]], dtype=np.float32)))
            assert err.value.op == "l2_normalize" and tape.nodes == []

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

    @pytest.mark.parametrize("gap", [80.0, 100.0, 120.0, 1e3, 1e4])
    def test_positive_far_below_the_row_max_f32(self, gap):
        # the positive's exp underflows; its log-sum-exp must not
        logits = T.parameter(np.array([[0.0, gap]], dtype=np.float32))
        with T.Tape():
            loss = T.sum_(T.masked_softmax_nll_rows(logits, np.array([[True, False]])))
            grads = T.backward(loss)
        assert loss.item() == gap
        np.testing.assert_array_equal(grads[logits].data, [[-1.0, 1.0]])
        # the column-0 positives queue_nll uses
        nll, grad = T._softmax_nll_rows(np.array([[0.0, gap]], dtype=np.float32), np.zeros(1, int))
        assert nll[0] == gap
        np.testing.assert_array_equal(grad(np.ones(1, dtype=np.float32)), [[-1.0, 1.0]])

    def test_row_kernel_matches_single(self):
        rng = np.random.default_rng(12)
        logits = rng.uniform(-5, 5, size=(6, 9))
        mask = rng.uniform(size=(6, 9)) < 0.3
        mask[:, 0] = True
        rows = T.masked_softmax_nll_rows(T.Tensor(logits), mask)
        for i in range(6):
            assert abs(rows.data[i] - one_row_nll(logits[i], mask[i], np.float64)) < 1e-12
            assert abs(rows.data[i] - brute_force_nll(logits[i], mask[i])) < 1e-9


def test_no_tape_inside_a_tape_restores_it():
    with T.Tape() as outer:
        with T.no_tape():
            assert T._active_tape() is None
        assert T._active_tape() is outer
        with pytest.raises(RuntimeError):
            with T.Tape():
                raise RuntimeError  # an error inside a nested tape restores the outer one
        assert T._active_tape() is outer
    assert T._active_tape() is None


def test_nested_kink_traces_restore_the_outer_one():
    x = T.Tensor(np.array([1.0, -1.0]))
    with T._bound("kink_trace", []) as outer:
        with pytest.raises(RuntimeError):
            with T._bound("kink_trace", []) as inner:
                T.relu(x)
                raise RuntimeError
        assert T._kink_trace() is outer
        T.relu(x)
    assert len(inner) == len(outer) == 1
    assert T._kink_trace() is None


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

    def test_backward_leaves_no_cyclic_garbage(self):
        # refcounting alone frees the step: the collector finds nothing
        x = T.parameter(np.arange(6.0).reshape(2, 3))
        w = T.Tensor(np.ones((3, 4)))
        gc.collect()
        gc.disable()
        try:
            with T.Tape():
                loss = T.sum_(T.relu(T.matmul(x, w)))
                grads = T.backward(loss)
            del loss, grads
            assert gc.collect() == 0
        finally:
            gc.enable()

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

    def test_step_error_extrapolated_away(self):
        # a plain central difference of sum(exp(a x)) is off by (a eps)**2 / 6
        # relative, 4.2e-6 at a = 50 and the default eps of 1e-4, which reads
        # 2.1e-6 against the 1e-6 tolerance; extrapolated, the error scales
        # as (a eps)**4
        p = T.parameter(np.random.default_rng(9).normal(scale=0.02, size=5))
        res = T.grad_check(lambda: T.sum_(T.exp(T.mul(p, 50.0))), {"p": p})
        assert res.coords_checked == 5 and res.max_rel_error < 1e-9

    def test_kink_between_the_two_steps_skipped(self):
        # 1.5e-4 from the kink: the eps steps keep the relu's sign and the
        # 2 eps steps cross it, so the coordinate is skipped, not failed
        p = T.parameter(np.array([1.5e-4, 1.0]))
        res = T.grad_check(lambda: T.sum_(T.relu(p)), {"p": p}, eps=1e-4)
        assert res.skipped == [("p", 0)] and res.coords_checked == 1

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
    ("block_train", lambda rng: _block_case(rng, residual=True)),
    ("block_train_entry", lambda rng: _block_case(rng, residual=False)),
    ("block_train_pooled", lambda rng: _block_case(rng, residual=True, pool=True)),
    ("mixed_elementwise", lambda rng: _elementwise_case(rng)),
    ("reductions", lambda rng: _reduction_case(rng)),
    ("concat_take", lambda rng: _concat_case(rng)),
    ("masked_softmax_nll_rows", lambda rng: _masked_softmax_nll_case(rng)),
    ("queue_nll", lambda rng: _queue_nll_case(rng)),
    ("linear_softmax_nll", lambda rng: _linear_softmax_nll_case(rng)),
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


def _block_inputs(rng, residual, shape=(3, 6, 4, 3), dtype=np.float64):
    """Parameters and call arguments of an `stgcn_block` case; `shape`
    is the (N, T, V, C_in) channels-last input's.

    Without `residual` the block widens its channels, so no residual is
    added.
    """
    n, frames, joints, c_in = shape
    c_out = c_in if residual else c_in + 2
    adjacency = rng.uniform(0.0, 0.5, size=(joints, joints))
    params = {
        "h": T.parameter(rng.normal(size=shape).astype(dtype)),
        "w": T.parameter(rng.normal(size=(c_in, c_out)).astype(dtype)),
        "k": T.parameter(rng.normal(size=(c_out, 3)).astype(dtype)),
        "gamma": T.parameter(rng.uniform(0.5, 1.5, size=c_out).astype(dtype)),
        "beta": T.parameter(rng.normal(size=c_out).astype(dtype)),
    }
    norm = (params["gamma"], params["beta"])
    args = (params["h"], adjacency.astype(dtype), params["w"], params["k"], norm)
    return params, args


def _block_case(rng, residual, pool=False):
    """A train-mode `stgcn_block` case."""
    params, args = _block_inputs(rng, residual)
    c_out = args[2].shape[1]
    w = rng.normal(size=(args[0].shape[0], c_out) if pool else args[0].shape[:3] + (c_out,))
    return params, lambda: T.sum_(T.mul(T.stgcn_block(*args, pool=pool)[0], w))


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


def _masked_softmax_nll_case(rng):
    logits = T.parameter(rng.normal(size=(2, 3, 5)).astype(np.float64))
    mask = rng.uniform(size=(2, 3, 5)) < 0.4
    mask[..., 0] = True
    w = np.asarray(rng.normal(size=(2, 3)))
    return {"logits": logits}, lambda: T.sum_(T.mul(T.masked_softmax_nll_rows(logits, mask), w))


def _queue_nll_case(_):
    # fixed draws: in about 0.1% of random ones some gradient coordinate lies
    # near zero, where the central difference (of the composed op chain
    # alike) is off by more than 1e-6 relative
    rng = np.random.default_rng(0)
    zq = T.parameter(rng.normal(size=(2, 3, 4)))
    zk = rng.normal(size=(2, 3, 4))
    negatives = rng.normal(size=(2, 5, 4))
    negatives /= np.linalg.norm(negatives, axis=-1, keepdims=True)
    mine = np.array([[True, False, True], [False, True, True]])
    # scaled, so the node's backward sees g != 1
    return {"zq": zq}, lambda: T.mul(queue_nll([zq], zk, negatives, 0.5, 3, mine, 2)[0], 0.7)


def _linear_softmax_nll_case(rng):
    params = {
        "rows": T.parameter(rng.normal(size=(4, 3)).astype(np.float64)),
        "head": T.parameter(rng.normal(size=(4, 5)).astype(np.float64)),  # packed [weight; bias]
    }
    labels = np.array([1, 4, 1, 0])
    return params, lambda: T.linear_softmax_nll(*params.values(), labels)


@pytest.mark.parametrize("name,builder", OP_CASES)
def test_grad_check_every_op(name, builder):
    """Each differentiable op passes the central-difference oracle (64-bit)."""
    # crc32, not hash(): str hashes are salted per process
    params, f = builder(np.random.default_rng(zlib.crc32(name.encode())))
    res = T.grad_check(f, params)
    assert res.max_rel_error < 1e-6, f"{name}: {res.max_rel_error}"


@pytest.mark.parametrize("axis,keepdims", [(None, False), (None, True), (2, False), ((1, 3), False),
                                           ((1, 3), True), (-1, False), ((-3, -1), True),
                                           ((0, 1, 2, 3), False)])
def test_mean_matches_float64_mean(axis, keepdims):
    a = np.random.default_rng(8).normal(1.0, 2.0, size=(6, 32, 16, 9)).astype(np.float32)
    out = T.mean_(T.Tensor(a), axis=axis, keepdims=keepdims).data
    want = a.astype(np.float64).mean(axis=axis, keepdims=keepdims)
    assert out.dtype == np.float32 and out.shape == want.shape
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-6)


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


def composed_block(h, adjacency, weight, kernel, norm, running=None):
    """An encoder block as the chain of tape ops `stgcn_block` replaced:
    transpose, two spatial matmuls, `conv1d_temporal`, batch norm (the
    composition above, or the elementwise eval form), relu and add."""
    y = T.matmul(T.transpose(weight, (1, 0)), T.matmul(h, adjacency))
    y = T.conv1d_temporal(y, kernel)
    stats = None
    if running is None:
        y, mean, var = composed_batch_norm(y, *norm, T.BN_EPS)
        stats = (mean, var)
    else:
        shape = (1, 1, y.shape[2], 1)
        mean, var = (v.reshape(shape) for v in running)
        xhat = T.div(T.sub(y, mean), np.sqrt(var + T.BN_EPS))
        y = T.add(T.mul(xhat, T.reshape(norm[0], shape)), T.reshape(norm[1], shape))
    y = T.relu(y)
    if h.shape[2] == y.shape[2]:
        y = T.add(y, h)
    return y, stats


CHANNELS_LAST = (0, 1, 3, 2)  # (N, T, C, V) <-> (N, T, V, C)


def composed_block_last(h, adjacency, weight, kernel, norm, running=None, pool=False):
    """`composed_block` in `stgcn_block`'s channels-last layout: the
    (N, T, V, C) input transposed in, the output transposed back, or
    with `pool` its mean over frames and joints."""
    y, stats = composed_block(T.transpose(h, CHANNELS_LAST), adjacency, weight, kernel, norm,
                              running)
    return (T.mean_(y, axis=(1, 3)) if pool else T.transpose(y, CHANNELS_LAST)), stats


def _run_block(op, params, args, w, pool=False):
    """(out, stats, {name: gradient}) of sum(op(*args, pool=pool)[0] * w)."""
    with T.Tape():
        out, stats = op(*args, pool=pool)
        grads = T.backward(T.sum_(T.mul(out, w)))
    return out.data, stats, {name: grads[p].data for name, p in params.items()}


def _ragged_block_parity(monkeypatch, residual, pool):
    """`stgcn_block` against `composed_block_last` at f64 over chunks of
    2, 2 and a ragged 3: untaped and taped outputs and batch statistics,
    and the gradients."""
    rng = np.random.default_rng(3 * residual)
    params, args = _block_inputs(rng, residual, shape=(7, 5, 6, 3))
    n, frames, joints, _ = args[0].shape
    c_out = args[2].shape[1]
    monkeypatch.setattr(T, "BLOCK_CHUNK_BYTES", 2 * frames * c_out * joints * 8)
    w = rng.normal(size=(n, c_out) if pool else (n, frames, joints, c_out))
    with T.no_tape():  # no xhat or relu mask is kept
        untaped, untaped_stats = T.stgcn_block(*args, pool=pool)
        ref_out, ref_stats = composed_block_last(*args, pool=pool)
    out, stats, grads = _run_block(T.stgcn_block, params, args, w, pool)
    _, _, ref_grads = _run_block(composed_block_last, params, args, w, pool)
    assert set(grads) == set(ref_grads)
    for name in grads:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-10, atol=1e-12)
    for got_out, got_stats in ((untaped.data, untaped_stats), (out, stats)):
        np.testing.assert_allclose(got_out, ref_out.data, rtol=1e-10, atol=1e-12)
        for got, want in zip(got_stats, ref_stats):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


# the block's one mode: eval mode is the encoder kernel `stgcn_eval`'s
@pytest.mark.parametrize("residual", [True, False])
@pytest.mark.parametrize("mode", ["train"])
def test_block_matches_composition_over_ragged_chunks(monkeypatch, mode, residual):
    _ragged_block_parity(monkeypatch, residual, pool=False)


@pytest.mark.parametrize("residual", [True, False])
@pytest.mark.parametrize("mode", ["train"])
def test_pooled_block_matches_composition_over_ragged_chunks(monkeypatch, mode, residual):
    _ragged_block_parity(monkeypatch, residual, pool=True)


def _eval_case(rng, widths, n, frames, joints, dtype=np.float64):
    """(x, adjacency, blocks) of an `stgcn_eval` call: a channels-last
    (n, frames, joints, widths[0]) batch through blocks whose channels go
    widths[0] -> widths[1] -> ..., with tracked parameters, as the
    encoder's are, and given running statistics."""
    x = rng.normal(size=(n, frames, joints, widths[0])).astype(dtype)
    adjacency = rng.uniform(0.0, 0.5, size=(joints, joints)).astype(dtype)
    blocks = []
    for c_in, c_out in zip(widths, widths[1:]):
        weight, kernel, gamma, beta = (
            T.parameter(v.astype(dtype)) for v in (
                rng.normal(size=(c_in, c_out)), rng.normal(size=(c_out, 3)),
                rng.uniform(0.5, 1.5, size=c_out), rng.normal(size=c_out)))
        running = (rng.normal(size=c_out).astype(dtype),
                   rng.uniform(0.5, 2.0, size=c_out).astype(dtype))
        blocks.append((weight, kernel, (gamma, beta), running))
    return x, adjacency, blocks


@pytest.mark.parametrize("widths", [(3, 4, 4, 4), (3, 4, 4, 6)],
                         ids=["residual_last", "wider_last"])
def test_eval_encoder_matches_composition_over_ragged_chunks(monkeypatch, widths):
    # three blocks: an entry block, a residual one, and a pooled last
    # block with or without the residual, against `composed_block`'s
    # elementwise eval form chained block by block at f64; chunks of 2, 2
    # and a ragged 3 at the widest block
    x, adjacency, blocks = _eval_case(np.random.default_rng(widths[-1]), widths, 7, 5, 6)
    monkeypatch.setattr(T, "BLOCK_CHUNK_BYTES", 2 * 5 * 6 * max(widths) * 8)
    with T.no_tape():
        h = T.stgcn_eval(x, adjacency, blocks)
        ref = x
        for i, block in enumerate(blocks):
            ref, _ = composed_block_last(ref, adjacency, *block, pool=i == len(blocks) - 1)
    assert h.node is None and h.shape == (7, widths[-1])
    np.testing.assert_allclose(h.data, ref.data, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_block_chunk_size_independent_float32(monkeypatch, mode):
    rng = np.random.default_rng(5)
    params, args = _block_inputs(rng, True, shape=(9, 8, 5, 4), dtype=np.float32)
    w = rng.normal(size=args[0].shape).astype(np.float32)
    running = (rng.normal(size=4).astype(np.float32), rng.uniform(0.5, 2.0, 4).astype(np.float32))

    def run():
        if mode == "train":
            return _run_block(T.stgcn_block, params, args, w)
        # eval mode: the block as the one, pooled, block of `stgcn_eval`
        with T.no_tape():
            out = T.stgcn_eval(args[0].data, args[1], [(*args[2:], running)])
        return out.data, None, {}

    whole = run()
    monkeypatch.setattr(T, "BLOCK_CHUNK_BYTES", 1)  # one sample a chunk
    chunked = run()
    np.testing.assert_allclose(chunked[0], whole[0], rtol=1e-5, atol=1e-5)
    for got, want in zip(chunked[1] or (), whole[1] or ()):
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
    for name in whole[2]:
        np.testing.assert_allclose(chunked[2][name], whole[2][name], rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("c_in,c_out,pool", [(3, 16, False), (16, 32, False), (32, 32, True)])
def test_block_allocates_its_full_batch_arrays_and_chunk_scratch_only(
        monkeypatch, c_in, c_out, pool):
    # one taped train-mode call at the desk shape: clips of 32 frames over
    # 9 joints, float32; 32 clips make chunks of at most `rows`, and rows
    # + 1 clips one chunk of rows + 1, since no chunk holds a lone clip; a
    # budget below one clip (as at the paper's widths) keeps one-clip chunks
    frames, joints, item = 32, 9, 4
    sample = frames * joints * c_out  # entries of one clip's output activation
    rows = T.BLOCK_CHUNK_BYTES // (sample * item)
    for budget, n, largest in ((T.BLOCK_CHUNK_BYTES, 32, rows),
                               (T.BLOCK_CHUNK_BYTES, rows + 1, rows + 1),
                               (sample * item - 1, 3, 1)):
        monkeypatch.setattr(T, "BLOCK_CHUNK_BYTES", budget)
        rng = np.random.default_rng(0)
        h = T.Tensor(rng.normal(size=(n, frames, joints, c_in)).astype(np.float32))
        weight = T.parameter(rng.normal(size=(c_in, c_out)).astype(np.float32))
        kernel = T.parameter(rng.normal(size=(c_out, 3)).astype(np.float32))
        norm = (T.parameter(np.ones(c_out, np.float32)),
                T.parameter(np.zeros(c_out, np.float32)))
        adjacency = rng.uniform(size=(joints, joints)).astype(np.float32)
        # full batch: xhat, the relu mask, and `out` (the (N, C_out) mean when pooled)
        full = n * sample * (item + 1) + (n * c_out if pool else n * sample) * item
        # chunk scratch, sized to the largest chunk: the joint aggregate,
        # the channel mix, a pooled chunk's output and one chunk-sized
        # temporary
        scratch = (largest * frames * joints * c_in * item
                   + largest * sample * item * (3 if pool else 2))
        tiles = 7 * sample * item  # (T, V * C_out) tiles: three taps, four norm vectors
        with T.Tape():
            tracemalloc.start()
            try:
                out = T.stgcn_block(h, adjacency, weight, kernel, norm, pool=pool)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= full + scratch + tiles, n
        # until the backward runs, the node keeps the full-batch arrays and
        # a few small objects (closures, statistics), but no scratch or tiles
        assert out[0].node is not None
        assert held <= full + 16 * 1024, n
        del out


def test_pieces_cover_every_item_once_with_no_lone_item():
    for n in range(40):
        for size in range(2, 45):
            got = T.pieces(n, size)
            assert [i for piece in got for i in range(n)[piece]] == list(range(n))
            assert all(piece.step is None for piece in got)
            lengths = [piece.stop - piece.start for piece in got]
            assert n == 1 or 1 not in lengths, (n, size)
            assert all(length <= size + 1 for length in lengths), (n, size)
        # a size of 1 or less gives one-item pieces
        assert T.pieces(n, 0) == T.pieces(n, 1) == [slice(i, i + 1) for i in range(n)]
    assert T.pieces(15, 14) == [slice(0, 15)]
    assert T.pieces(15, 7) == [slice(0, 7), slice(7, 15)]
    assert T.pieces(32, 7) == [slice(0, 7), slice(7, 14), slice(14, 21), slice(21, 28),
                               slice(28, 32)]


def _identity_block_args(y, gamma, beta):
    """`stgcn_block` arguments that make everything but its batch norm,
    relu and residual the identity: unit adjacency, weight and centre tap
    (`y` is channels-last)."""
    joints, channels = y.shape[-2], y.shape[-1]
    kernel = np.zeros((channels, 3))
    kernel[:, 1] = 1.0
    return y, np.eye(joints), np.eye(channels), kernel, (gamma, beta)


@pytest.mark.parametrize("shape", [(4, 5, 6, 3), (7, 2, 1, 9)])
def test_batch_norm_matches_composition(shape):
    # the block's batch norm, with the rest of the block the identity
    rng = np.random.default_rng(len(shape) + shape[-2])
    y = T.parameter(rng.normal(1.5, 2.0, size=shape))
    gamma = T.parameter(rng.uniform(0.5, 1.5, size=shape[-1]))
    beta = T.parameter(rng.normal(size=shape[-1]))
    w = rng.normal(size=shape)

    def composed(y, _adjacency, _weight, _kernel, norm):
        out, mean, var = composed_batch_norm(T.transpose(y, CHANNELS_LAST), *norm, T.BN_EPS)
        return T.add(T.relu(T.transpose(out, CHANNELS_LAST)), y), (mean, var)

    results = []
    for op in (T.stgcn_block, composed):
        with T.Tape():
            out, (mean, var) = op(*_identity_block_args(y, gamma, beta))
            grads = T.backward(T.sum_(T.mul(out, w)))
        results.append((out.data, mean, var, [grads[p].data for p in (y, gamma, beta)]))
    (out, mean, var, grads), (ref_out, ref_mean, ref_var, ref_grads) = results
    np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(mean, ref_mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(var, ref_var, rtol=1e-12, atol=1e-12)
    for got, want in zip(grads, ref_grads):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_batch_norm_one_tape_node():
    y = T.parameter(np.random.default_rng(0).normal(size=(3, 4, 5, 2)))
    gamma, beta = T.parameter(np.ones(2)), T.parameter(np.zeros(2))
    with T.Tape() as tape:
        T.stgcn_block(*_identity_block_args(y, gamma, beta))
    assert len(tape.nodes) == 1


def test_taped_eval_block_raises_and_records_nothing():
    # the encoder records in train mode only: the eval kernel runs off the tape
    x, adjacency, blocks = _eval_case(np.random.default_rng(0), (3, 3), 3, 6, 4)
    with T.Tape() as tape, pytest.raises(InvalidArgument, match="train mode only"):
        T.stgcn_eval(x, adjacency, blocks)
    assert tape.nodes == []
    with T.no_tape():
        assert T.stgcn_eval(x, adjacency, blocks).shape == (3, 3)


def projector_chain(h, w1, b1, w2, b2):
    """The projection head as the chain of tape ops `projector` replaced."""
    return T.l2_normalize(T.add(T.matmul(T.relu(T.add(T.matmul(h, w1), b1)), w2), b2))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_projector_bit_equals_the_nine_node_chain(dtype):
    # the same NumPy calls in the same order give the same z bit for bit;
    # the closed-form backward matches the chain's gradients within rounding
    rng = np.random.default_rng(11)
    inputs = [T.parameter(rng.normal(size=shape).astype(dtype))
              for shape in ((9, 6), (6, 8), (8,), (8, 5), (5,))]
    w = rng.normal(size=(9, 5)).astype(dtype)
    results = []
    for op in (T.projector, projector_chain):
        with T.Tape() as tape:
            z = op(*inputs)
            nodes = len(tape.nodes)
            grads = T.backward(T.sum_(T.mul(z, w)))
        results.append((nodes, z.data, [grads[p].data for p in inputs]))
    (nodes, z, grads), (ref_nodes, ref_z, ref_grads) = results
    assert (nodes, ref_nodes) == (1, 9)
    assert z.dtype == ref_z.dtype == dtype
    assert z.tobytes() == ref_z.tobytes()
    tol = 1e-5 if dtype == np.float32 else 1e-12
    for got, want in zip(grads, ref_grads):
        assert got.dtype == want.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


def test_projector_rejects_shapes_that_do_not_chain():
    with pytest.raises(ShapeMismatch):
        T.projector(np.ones((2, 3)), np.ones((4, 5)), np.ones(5), np.ones((5, 2)), np.ones(2))


def composed_masked_softmax_nll(logits, mask):
    """The masked softmax-NLL as the generic-op chain the fused op replaced."""
    shift = T.Tensor(logits.data.max(axis=-1, keepdims=True))  # a constant shift
    exps = T.exp(T.sub(logits, shift))
    log_denom = T.log(T.sum_(exps, axis=-1))
    log_numer = T.log(T.sum_(T.mul(exps, mask.astype(logits.dtype)), axis=-1))
    return T.sub(log_denom, log_numer)


@pytest.mark.parametrize("tau", [1.0, 0.07])
@pytest.mark.parametrize("shape", [(6, 9), (3, 4, 9)])
def test_masked_softmax_nll_matches_composition(shape, tau):
    rng = np.random.default_rng(len(shape))
    sims = T.parameter(rng.uniform(-1.0, 1.0, size=shape))
    mask = rng.uniform(size=shape) < 0.3
    mask[..., 0] = True
    w = rng.normal(size=shape[:-1])
    results = []
    for op in (T.masked_softmax_nll_rows, composed_masked_softmax_nll):
        with T.Tape():
            out = op(T.div(sims, tau), mask)
            grads = T.backward(T.sum_(T.mul(out, w)))
        results.append((out.data, grads[sims].data))
    (out, grad), (ref_out, ref_grad) = results
    np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_masked_softmax_nll_stack_bit_equals_its_slices(dtype):
    # the leading axis flattens into rows: a (2, B, L) stack whose rows hold
    # 1 to L positives gives each (B, L) slice's losses and gradients
    rng = np.random.default_rng(14)
    batch, width = 6, 5
    logits = (10.0 * rng.normal(size=(2, batch, width))).astype(dtype)
    mask = np.zeros((2, batch, width), dtype=bool)
    for n, row in enumerate(mask.reshape(-1, width)):
        row[rng.permutation(width)[:1 + n % width]] = True
    w = rng.uniform(0.5, 2.0, size=(2, batch)).astype(dtype)

    def scored(values, positives, weights):
        x = T.parameter(values.copy())
        with T.Tape():
            out = T.masked_softmax_nll_rows(x, positives)
            grads = T.backward(T.sum_(T.mul(out, weights)))
        return out.data, grads[x].data

    out, grad = scored(logits, mask, w)
    assert {int(n) for n in mask.sum(axis=-1).ravel()} == set(range(1, width + 1))
    for i in range(2):
        want, want_grad = scored(logits[i], mask[i], w[i])
        assert out[i].dtype == want.dtype == dtype
        assert out[i].tobytes() == want.tobytes()
        assert grad[i].tobytes() == want_grad.tobytes()


def test_masked_softmax_nll_one_tape_node():
    logits = T.parameter(np.random.default_rng(0).normal(size=(2, 3, 4)))
    with T.Tape() as tape:
        T.masked_softmax_nll_rows(logits, np.eye(3, 4, dtype=bool)[None].repeat(2, axis=0))
    assert len(tape.nodes) == 1


def four_node_head(rows, weight, bias, labels):
    """The linear head as the chain of tape ops `linear_softmax_nll` replaced,
    on a separate weight and bias."""
    positives = np.eye(weight.shape[1], dtype=bool)[labels]
    return T.mean_(T.masked_softmax_nll_rows(T.add(T.matmul(rows, weight), bias), positives))


HEAD_BATCHES = {
    "full": np.arange(32) % 5,
    "ragged_last": np.array([4, 0, 2, 2, 1, 3, 0]),
    "class_3_missing": np.array([0, 4, 1, 1, 2, 4, 0, 2]),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", sorted(HEAD_BATCHES))
def test_linear_head_bit_equals_the_four_node_chain(dtype, batch):
    labels = HEAD_BATCHES[batch]
    rng = np.random.default_rng(len(labels))
    rows = T.parameter(rng.normal(size=(len(labels), 6)).astype(dtype))
    theta = rng.normal(size=(7, 5)).astype(dtype)
    packed = (rows, T.parameter(theta))
    split = (rows, T.parameter(theta[:6].copy()), T.parameter(theta[6].copy()))
    results = []
    for op, head in ((T.linear_softmax_nll, packed), (four_node_head, split)):
        with T.Tape() as tape:
            loss = op(*head, labels)
            nodes = len(tape.nodes)
            grads = T.backward(loss)
        results.append((nodes, loss.data, [grads[p].data for p in head]))
    (nodes, loss, (g_rows, g_theta)), (ref_nodes, ref_loss, ref_grads) = results
    assert (nodes, ref_nodes) == (1, 4)
    assert loss.dtype == ref_loss.dtype == dtype
    np.testing.assert_array_equal(loss, ref_loss)
    # the packed gradient is the weight's over the bias's
    assert g_theta.shape == (7, 5)
    for got, want in zip((g_rows, g_theta[:6], g_theta[6]), ref_grads):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_pick_per_row_bit_equals_the_scatter_path(dtype):
    # `first` alone skips maximum.at/add.at: against `first` plus an empty
    # `extra`, the loss and the gradient, for per-row and for one shared
    # upstream g, stay bit for bit
    rng = np.random.default_rng(9)
    logits = (40.0 * rng.normal(size=(9, 6))).astype(dtype)  # picks far below their row max
    logits[1] = logits[1, 0]  # a row of ties
    labels = np.array([0, 3, 5, 1, 1, 2, 4, 0, 5])
    labels[2] = np.argmax(logits[2])  # a pick at the row max
    per_row = rng.uniform(0.1, 2.0, size=9).astype(dtype)
    shared = per_row[0] / 9
    for g_one, g_scatter in ((per_row, per_row), (shared, np.full(9, shared))):
        nll, grad = T._softmax_nll_rows(logits.copy(), labels)
        no_extra = (np.zeros(0, int), np.zeros((0, 1), int))
        ref, ref_grad = T._softmax_nll_rows(logits.copy(), labels, no_extra)
        assert nll.dtype == ref.dtype == dtype
        assert nll.tobytes() == ref.tobytes()
        assert grad(g_one).tobytes() == ref_grad(g_scatter).tobytes()


@pytest.mark.parametrize("labels,error", [
    ([0, 5, 1], InvalidLabel),
    ([0, -1, 1], InvalidLabel),
    ([0.0, 1.0, 2.0], InvalidLabel),
    ([True, False, True], InvalidLabel),
    ([0, 1], ShapeMismatch),
    ([[0, 1, 2]], ShapeMismatch),
])
def test_linear_head_rejects_bad_labels(labels, error):
    with pytest.raises(error):
        T.linear_softmax_nll(np.ones((3, 4)), np.ones((5, 5)), np.array(labels))


# a head one row short (no bias row) or one row long, no rows, 1-D rows, a 1-D head
@pytest.mark.parametrize("shapes", [((3, 4), (4, 5)), ((3, 4), (6, 5)),
                                    ((0, 4), (5, 5)), ((4,), (5, 5)), ((3, 4), (5,))])
def test_linear_head_rejects_bad_shapes(shapes):
    rows, theta = (np.ones(shape) for shape in shapes)
    with pytest.raises(ShapeMismatch):
        T.linear_softmax_nll(rows, theta, np.zeros(rows.shape[0], dtype=int))


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


def test_grad_check_reference_takes_the_central_differences():
    # float32 analytic gradients against a float64 twin at the same values
    rng = np.random.default_rng(22)
    a, b, w = (rng.normal(size=shape).astype(np.float32) for shape in ((4, 3), (3, 2), (4, 2)))

    def case(dtype, scale=1.0):
        params = {"a": T.parameter(a.astype(dtype)), "b": T.parameter(b.astype(dtype))}
        return lambda: T.sum_(T.mul(T.matmul(params["a"], params["b"]), w * scale)), params

    f32, params32 = case(np.float32)
    assert T.grad_check(f32, params32, reference=case(np.float64)).max_rel_error < 1e-5
    # the twin's differences, not f's own, are what the gradient is checked against
    assert T.grad_check(f32, params32, reference=case(np.float64, 2.0)).max_rel_error > 0.3


class TestInvariants:
    def test_nonfinite_surfaced(self):
        with pytest.raises(NonFiniteValue, match="log") as err:
            T.log(T.Tensor([0.0]))
        assert err.value.op == "log"

    def test_nonfinite_block_names_the_block_op(self):
        _, args = _block_inputs(np.random.default_rng(0), residual=True)
        h = args[0].data.copy()
        h[1, 2, 3, 0] = np.nan
        with pytest.raises(NonFiniteValue, match="stgcn_block") as err:
            T.stgcn_block(T.Tensor(h), *args[1:])
        assert err.value.op == "stgcn_block"

    def test_eval_block_output_turning_inf_names_the_block(self):
        # one joint and one frame, so no aggregation or off-centre tap
        # mixes the infinity into a NaN: block 0 overflows to +inf, and
        # block 1's negative weights would take it to -inf and its relu to
        # 0, so the pooled rows alone would read finite
        x = np.full((2, 1, 1, 3), 1e308)
        centre = np.array([[0.0, 1.0, 0.0]])  # a temporal kernel of its centre tap only
        blocks = [(np.ones((3, 1)), centre, (np.ones(1), np.zeros(1)), (np.zeros(1), np.ones(1))),
                  (-np.ones((1, 2)), np.tile(centre, (2, 1)), (np.ones(2), np.zeros(2)),
                   (np.zeros(2), np.ones(2)))]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteValue, match="stgcn_block") as err:
                T.stgcn_eval(x, np.ones((1, 1)), blocks)
            assert err.value.op == "stgcn_block"
            # the same input at a finite scale passes, with block 1 all zero
            assert not T.stgcn_eval(x * 1e-300, np.ones((1, 1)), blocks).data.any()

    def test_overflowing_batch_variance_names_the_block(self):
        # the float32 squares of the centered values overflow; a variance
        # of inf would zero xhat and leave a finite relu(beta)
        _, args = _block_inputs(np.random.default_rng(0), residual=True, dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteValue, match="batch statistics") as err:
                T.stgcn_block(T.Tensor(args[0].data * 1e19), *args[1:])
        assert err.value.op == "stgcn_block"

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
