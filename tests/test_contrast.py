"""Contrastive core against independent 64-bit brute-force oracles."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelcl import contrast
from skelcl import tensor as T
from skelcl.config import RunConfig
from skelcl.contrast import (
    EncoderPair,
    MemoryQueue,
    combine_losses,
    momentum_update,
    nnm_mine,
    pft_transform,
    predicted_similarity,
    queue_nll,
    similarity_histogram,
)
from skelcl.config import RunConfig
from skelcl.encoder import init_params
from skelcl.errors import (
    BatchTooLarge,
    ConfigValueError,
    EmptyQueue,
    InvalidArgument,
    NonFiniteValue,
    QueueTooSmall,
    ShapeMismatch,
)
from skelcl.rng import RngStream


# -- independent oracles ------------------------------------------------------


def brute_force_queue_nll(zq, zk, contents, neighbors, tau):
    """Direct 64-bit evaluation of the mined-positives InfoNCE."""
    zq = np.asarray(zq, dtype=np.float64)
    zk = np.asarray(zk, dtype=np.float64)
    contents = np.asarray(contents, dtype=np.float64)
    pos = math.exp(float(zq @ zk) / tau)
    negs = np.exp(contents @ zq / tau)
    numer = pos + sum(negs[i] for i in neighbors)
    denom = pos + negs.sum()
    return -math.log(numer / denom)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def unit_rows(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_unit_pair(rng, dim, similarity):
    """Two unit vectors with the requested dot product."""
    a = unit(rng.normal(size=dim))
    b = rng.normal(size=dim)
    b = unit(b - (b @ a) * a)
    return a, similarity * a + math.sqrt(1.0 - similarity**2) * b


def single_nll(zq, zk, queue, tau, mine=None, k=1) -> float:
    """`queue_nll` on a batch of one 64-bit query row; with `mine` True
    its numerator adds its `k` most similar queue entries."""
    zq = T.Tensor(np.asarray(zq, dtype=np.float64)[None, :])
    mine = None if mine is None else np.array([mine])
    _, losses, _ = queue_nll([zq], np.asarray(zk)[None, :], [queue.contents()], tau, 1, mine, k)
    return float(losses[0])


def mine_one(zq, queue, k) -> list[int]:
    """The queue indices `queue_nll` mines for one query row."""
    zq = np.asarray(zq, dtype=np.float64)[None, :]
    _, _, (indices, _) = queue_nll([zq], zq, [queue.contents()], 1.0, 1, np.ones(1, dtype=bool), k)
    return indices[0].tolist()


def stable_top_k(sims, k):
    """Oracle: each row's k largest entries by a stable full sort."""
    return np.argsort(-sims, axis=1, kind="stable")[:, :k]


def pft_batch(zq, zk, lam):
    """`pft_transform` on stacked 64-bit rows; returns numpy arrays."""
    zq_hat, zk_hat, applied = pft_transform(
        T.Tensor(np.atleast_2d(np.asarray(zq, dtype=np.float64))), np.atleast_2d(zk), np.atleast_1d(lam)
    )
    return zq_hat.data, zk_hat, applied


def filled_queue(rng, n, dim, dtype=np.float64):
    q = MemoryQueue(n, dim, dtype=dtype)
    vecs = rng.normal(size=(n, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    q.push(vecs)
    return q


# -- momentum update -----------------------------------------------------------


def _tiny_pair():
    cfg = RunConfig(enc_blocks=1, enc_channels=[4], enc_hidden=8, embed_dim=4)
    return EncoderPair(init_params(cfg, RngStream(3).split("e")))


class TestMomentumUpdate:
    def test_zero_momentum_full_copy(self):
        pair = _tiny_pair()
        for t in pair.query.tensors.values():
            t.data[...] = np.random.default_rng(1).normal(size=t.shape)
        momentum_update(pair, 0.0)
        assert pair.key.digest() == pair.query.digest()

    def test_single_multiply_add(self):
        pair = _tiny_pair()
        name = "block0.spatial_weight"
        pair.key.tensors[name].data[...] = 0.0
        pair.query.tensors[name].data[...] = 1.0
        momentum_update(pair, 0.999)
        np.testing.assert_allclose(pair.key.tensors[name].data, 0.001, atol=1e-7)

    def test_elementwise(self):
        pair = _tiny_pair()
        name = "projector.b2"
        pair.key.tensors[name].data[:2] = [0.0, 1.0]
        pair.query.tensors[name].data[:2] = [1.0, 1.0]
        momentum_update(pair, 0.9)
        np.testing.assert_allclose(pair.key.tensors[name].data[:2], [0.1, 1.0], atol=1e-7)

    def test_affine_composition(self):
        # two updates with m against a fixed query equal one update with m^2
        m = 0.5
        a, b = _tiny_pair(), _tiny_pair()
        rng = np.random.default_rng(2)
        for name in a.query.tensors:
            v = rng.normal(size=a.query.tensors[name].shape).astype(np.float32)
            a.query.tensors[name].data[...] = v
            b.query.tensors[name].data[...] = v
            k0 = rng.normal(size=v.shape).astype(np.float32)
            a.key.tensors[name].data[...] = k0
            b.key.tensors[name].data[...] = k0
        momentum_update(a, m)
        momentum_update(a, m)
        momentum_update(b, m * m)
        for name in a.key.tensors:
            np.testing.assert_allclose(
                a.key.tensors[name].data, b.key.tensors[name].data, atol=1e-6
            )

    def test_in_place_update_matches_out_of_place_formula_float32(self):
        pair = _tiny_pair()
        rng = np.random.default_rng(5)
        expected = {name: k.data.copy() for name, k in pair.key.tensors.items()}
        for _ in range(50):
            for q in pair.query.tensors.values():
                q.data[...] = rng.normal(size=q.shape)
            momentum_update(pair, 0.99)
            expected = {name: 0.99 * k + (1.0 - 0.99) * pair.query.tensors[name].data
                        for name, k in expected.items()}
        for name, k in pair.key.tensors.items():
            assert k.data.dtype == expected[name].dtype == np.float32
            assert np.array_equal(k.data, expected[name]), name

    def test_includes_running_stats(self):
        pair = _tiny_pair()
        pair.query.tensors["block0.norm_running_mean"].data[...] = 2.0
        momentum_update(pair, 0.5)
        np.testing.assert_allclose(
            pair.key.tensors["block0.norm_running_mean"].data, 1.0, atol=1e-7
        )


# -- memory queue -----------------------------------------------------------------


class TestMemoryQueue:
    def test_partial_fill_preserves_order(self):
        q = MemoryQueue(4, 2)
        batch = np.array([[1, 0], [0, 1], [-1, 0]], dtype=np.float32)
        q.push(batch)
        assert q.filled == 3
        np.testing.assert_array_equal(q.contents(), batch)

    def test_fifo_eviction(self):
        q = MemoryQueue(4, 2)
        a, b, c, d, e, f = [unit(v).astype(np.float32) for v in
                            ([1, 0], [0, 1], [1, 1], [1, -1], [-1, 0], [0, -1])]
        q.push(np.stack([a, b, c, d]))
        q.push(np.stack([e, f]))
        np.testing.assert_array_equal(q.contents(), np.stack([c, d, e, f]))

    def test_zero_capacity_named(self):
        with pytest.raises(ConfigValueError) as err:
            MemoryQueue(0, 2)
        assert err.value.key == "queue_size"

    def test_batch_too_large(self):
        q = MemoryQueue(3, 2)
        with pytest.raises(BatchTooLarge):
            q.push(np.eye(4, 2, dtype=np.float32) + np.array([0, 1], dtype=np.float32))

    @pytest.mark.parametrize("row,error", [
        ([np.nan, 0.0], NonFiniteValue),
        ([np.inf, 0.0], NonFiniteValue),
        ([0.6, 0.6], ValueError),
    ])
    def test_push_rejects_non_finite_or_non_unit_rows(self, row, error):
        q = MemoryQueue(3, 2)
        q.push(np.array([[1.0, 0.0]]))
        with pytest.raises(error):
            q.push(np.array([[0.0, 1.0], row]))
        np.testing.assert_array_equal(q.contents(), [[1.0, 0.0]])  # nothing was stored

    def test_push_off_unit_norm_named(self):
        q = MemoryQueue(3, 2)
        with pytest.raises(InvalidArgument, match="queue entries must be unit-norm"):
            q.push(np.array([[0.6, 0.6]]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 8), min_size=1, max_size=30), st.integers(0, 10_000))
    def test_fifo_property(self, batch_sizes, seed):
        """Capacity bound holds and contents equal the most recent pushes."""
        capacity = 8
        q = MemoryQueue(capacity, 3)
        rng = np.random.default_rng(seed)
        history = []
        for n in batch_sizes:
            batch = rng.normal(size=(n, 3))
            batch /= np.linalg.norm(batch, axis=1, keepdims=True)
            batch = batch.astype(np.float32)
            q.push(batch)
            history.extend(batch)
            assert q.filled == min(capacity, len(history))
            expected = np.stack(history[-q.filled :])
            np.testing.assert_array_equal(q.contents(), expected)


# -- losses --------------------------------------------------------------------------


class TestIntraLoss:
    def test_closed_form_single_negative(self):
        # tau=1, zq.zk=1, one negative at similarity 0 -> -log(e/(e+1))
        q = MemoryQueue(4, 2, dtype=np.float64)
        q.push(np.array([[0.0, 1.0]]))
        loss = single_nll([1.0, 0.0], [1.0, 0.0], q, 1.0)
        assert abs(loss - 0.3132616875182228) < 1e-9

    def test_symmetric_ln2(self):
        q = MemoryQueue(4, 2, dtype=np.float64)
        q.push(np.array([[1.0, 0.0]]))
        assert abs(single_nll([1.0, 0.0], [1.0, 0.0], q, 1.0) - math.log(2)) < 1e-9

    @pytest.mark.parametrize("tau", [0.07, 0.2, 1.0])
    def test_matches_brute_force(self, tau):
        rng = np.random.default_rng(int(tau * 100))
        for _ in range(100):
            dim = int(rng.integers(4, 16))
            filled = int(rng.integers(1, 64))
            q = filled_queue(rng, filled, dim)
            zq = unit(rng.normal(size=dim))
            zk = unit(rng.normal(size=dim))
            got = single_nll(zq, zk, q, tau)
            want = brute_force_queue_nll(zq, zk, q.contents(), (), tau)
            assert abs(got - want) < 1e-6

    def test_empty_queue(self):
        q = MemoryQueue(4, 2)
        with pytest.raises(EmptyQueue):
            single_nll([1.0, 0.0], [1.0, 0.0], q, 0.07)


def test_stacked_queue_nll_equals_separate_calls():
    # groups with their own keys, queue snapshot and mined entries score
    # exactly as one 2-D call per group, values and query gradients alike
    rng = np.random.default_rng(30)
    groups, batch, dim, size = 3, 4, 8, 12
    zq = T.parameter(rng.normal(size=(groups, batch, dim)))
    zk = rng.normal(size=(groups, batch, dim))
    negatives = np.stack([filled_queue(rng, size, dim).contents() for _ in range(groups)])
    mine = rng.uniform(size=(groups, batch)) < 0.5
    with T.Tape():
        total, stacked, (indices, sims) = queue_nll([zq], zk, negatives, 0.2, 3, mine, 2)
        grad = T.backward(total)[zq].data
    offsets = np.concatenate([[0], np.cumsum(mine.sum(axis=1))])
    totals = []
    for g in range(groups):
        row = T.parameter(zq.data[g])
        with T.Tape():
            single_total, single, (single_indices, single_sims) = queue_nll(
                [row], zk[g], [negatives[g]], 0.2, 3, mine[g], 2)
            single_grad = T.backward(single_total)[row].data
        totals.append(single_total.item())
        np.testing.assert_allclose(stacked[g], single, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grad[g], single_grad, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(indices[offsets[g] : offsets[g + 1]], single_indices)
        np.testing.assert_allclose(sims[offsets[g] : offsets[g + 1]], single_sims, rtol=1e-12)
    assert abs(total.item() - sum(totals)) < 1e-12


def composed_queue_nll(zq, zk, negatives, tau, mined=None):
    """`queue_nll`'s per-row losses as the generic-op chain the single-node
    kernel replaced."""
    zq = T.as_tensor(zq)
    pos = T.sum_(T.mul(zq, T.Tensor(np.asarray(zk, dtype=zq.dtype))), axis=-1, keepdims=True)
    negs = T.matmul(zq, np.swapaxes(negatives.astype(zq.dtype), -1, -2))
    logits = T.div(T.concat([pos, negs], axis=-1), tau)
    mask = np.zeros(logits.shape, dtype=bool)
    mask[..., 0] = True
    if mined is not None:
        mask[..., 1:] = mined
    return T.masked_softmax_nll_rows(logits, mask)


@pytest.mark.parametrize("tau", [1.0, 0.07])
@pytest.mark.parametrize("groups", [(), (3,)])
@pytest.mark.parametrize("with_mined", [False, True])
def test_queue_nll_matches_composition(tau, groups, with_mined):
    # the node's total, scaled by 1.7 so its backward sees g != 1, against
    # the composition's rows summed and divided by generic ops; the node
    # takes one (Q, D) array per group, here the rows of a stack
    rng = np.random.default_rng(len(groups) + int(with_mined))
    batch, dim, size = 5, 8, 12
    zq = T.parameter(unit_rows(rng.normal(size=(*groups, batch, dim))))
    zk = unit_rows(rng.normal(size=(*groups, batch, dim)))
    negatives = unit_rows(rng.normal(size=(*groups, size, dim)))
    mine = rng.uniform(size=(*groups, batch)) < 0.5 if with_mined else None
    with T.Tape():
        total, out, neighbors = queue_nll([zq], zk, negatives.reshape(-1, size, dim), tau,
                                          batch, mine, 2)
        grad = T.backward(T.mul(total, 1.7))[zq].data
    mined = None
    if with_mined:  # the kernel's picks, as the composition's numerator mask
        mined = np.zeros((*groups, batch, size), dtype=bool)
        mined[(*(rows[:, None] for rows in np.nonzero(mine)), neighbors[0])] = True
    with T.Tape():
        ref = composed_queue_nll(zq, zk, negatives, tau, mined)
        ref_total = T.div(T.sum_(ref), batch)
        ref_grad = T.backward(T.mul(ref_total, 1.7))[zq].data
    np.testing.assert_allclose(out, ref.data, rtol=1e-12, atol=1e-12)
    assert abs(total.item() - ref_total.item()) < 1e-12
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)


def test_queue_nll_one_tape_node():
    rng = np.random.default_rng(32)
    zq = T.parameter(unit_rows(rng.normal(size=(2, 4, 8))))
    zk = unit_rows(rng.normal(size=(2, 4, 8)))
    negatives = unit_rows(rng.normal(size=(2, 6, 8)))
    with T.Tape() as tape:
        queue_nll([zq], zk, negatives, 0.2, 4, rng.uniform(size=(2, 4)) < 0.5, 2)
    assert len(tape.nodes) == 1


def test_queue_nll_nan_query_raises():
    rng = np.random.default_rng(33)
    zq = unit_rows(rng.normal(size=(2, 4, 8)))
    zq[1, 2] = np.nan
    zk, negatives = unit_rows(rng.normal(size=(2, 4, 8))), unit_rows(rng.normal(size=(2, 6, 8)))
    # forming the gradient or not, with the NaN row mining or not, in either
    # dtype, and with no RuntimeWarning on the way
    for dtype in (np.float32, np.float64):
        for recording in (T.no_tape, T.Tape):
            for mine in (None, np.ones((2, 4), dtype=bool)):
                with warnings.catch_warnings(), recording(), pytest.raises(NonFiniteValue) as err:
                    warnings.simplefilter("error")
                    queue_nll([T.parameter(zq.astype(dtype))], zk.astype(dtype),
                              negatives.astype(dtype), 0.2, 4, mine)
                assert err.value.op == "queue_nll"


RANGE_CASES = ["unit", "short_rows", "tiny_tau", "long_rows", "very_negative"]
SHIFTED_CASES = {"tiny_tau", "long_rows", "very_negative"}  # their sums leave the range


def range_rule_inputs(case, dtype):
    """(zq, zk, negatives, tau, mine) of 3 groups of 5 queries against 12
    negatives each.  "tiny_tau" and "long_rows" (queries of norm 100) make
    logits whose exponentials overflow; "very_negative" puts every key
    and negative of a group near its queries' antipode, at tau 0.002, so
    every exponential underflows; "short_rows" (norm 0.001) and "unit"
    stay in range."""
    rng = np.random.default_rng(46)
    groups, batch, dim, size = 3, 5, 8, 12
    zq = unit_rows(rng.normal(size=(groups, batch, dim)))
    zk = unit_rows(rng.normal(size=(groups, batch, dim)))
    negatives = unit_rows(rng.normal(size=(groups, size, dim)))
    tau = {"tiny_tau": 1e-3, "very_negative": 2e-3}.get(case, 0.07)
    if case == "very_negative":
        centre = unit_rows(rng.normal(size=(groups, 1, dim)))
        zq = unit_rows(centre + 0.05 * rng.normal(size=zq.shape))
        zk = unit_rows(-centre + 0.05 * rng.normal(size=zk.shape))
        negatives = unit_rows(-centre + 0.05 * rng.normal(size=negatives.shape))
    zq = zq * {"long_rows": 100.0, "short_rows": 1e-3}.get(case, 1.0)
    mine = rng.uniform(size=(groups, batch)) < 0.5
    return zq.astype(dtype), zk.astype(dtype), negatives.astype(dtype), tau, mine


def scored(zq, zk, negatives, tau, mine):
    """`queue_nll`'s per-row losses, mined indices and query gradient
    (of the total times 1.7), with every RuntimeWarning raised, and how
    often it refilled a slab."""
    refills = []
    kernel = T._softmax_nll_rows

    def counting(exps, lead=0, picks=None, refill=None):
        return kernel(exps, lead, picks, lambda: refills.append(1) or refill())

    zq = T.parameter(zq)
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error")
        patch.setattr(T, "_softmax_nll_rows", counting)
        with T.Tape():
            total, rows, neighbors = queue_nll([zq], zk, list(negatives), tau, 5, mine, 2)
            grad = T.backward(T.mul(total, 1.7))[zq].data
    return rows, neighbors[0], grad, len(refills)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", RANGE_CASES)
def test_queue_nll_range_rule_gives_the_shifted_form(monkeypatch, case, dtype):
    # the slab is exponentiated unshifted only where its row sums are in
    # range; elsewhere it is refilled and shifted, so every case gives the
    # losses, neighbours and gradients of the form that always shifts
    inputs = range_rule_inputs(case, dtype)
    rows, indices, grad, refills = scored(*inputs)
    assert refills == (len(inputs[2]) if case in SHIFTED_CASES else 0)
    monkeypatch.setattr(T, "_in_range", lambda sums: False)  # always shift
    want_rows, want_indices, want_grad, _ = scored(*inputs)
    tol = 1e-12 if dtype == np.float64 else 2e-6
    assert rows.dtype == grad.dtype == dtype
    np.testing.assert_array_equal(indices, want_indices)
    assert np.abs(rows - want_rows).max() <= tol * np.abs(want_rows).max()
    assert np.abs(grad - want_grad).max() <= tol * np.abs(want_grad).max()
    if dtype == np.float64:  # and the generic-op chain that divides similarities by tau
        zq, zk, negatives, tau, mine = inputs
        mined = np.zeros(mine.shape + negatives.shape[1:2], dtype=bool)
        mined[(*(r[:, None] for r in np.nonzero(mine)), indices)] = True
        zq = T.parameter(zq)
        with T.Tape():
            ref = composed_queue_nll(zq, zk, negatives, tau, mined)
            ref_grad = T.backward(T.mul(T.div(T.sum_(ref), 5), 1.7))[zq].data
        assert np.abs(rows - ref.data).max() <= 1e-12 * np.abs(ref.data).max()
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()


@pytest.mark.parametrize("zk_shape,negatives_shape,mined_shape", [
    ((3, 8), (6, 8), None),
    ((4, 8), (6, 7), None),
    ((4, 8), (2, 6, 8), None),
    ((4, 8), (6, 8), (3,)),
    ((4, 8), (6, 8), (4, 6)),
])
def test_queue_nll_shape_mismatch(zk_shape, negatives_shape, mined_shape):
    # mined_shape is the shape of the (..., B) mining request
    rng = np.random.default_rng(35)
    mine = None if mined_shape is None else np.ones(mined_shape, dtype=bool)
    with pytest.raises(ShapeMismatch):
        queue_nll([T.Tensor(rng.normal(size=(4, 8)))], rng.normal(size=zk_shape),
                  [rng.normal(size=negatives_shape)], 0.2, 4, mine)


@pytest.mark.parametrize("negatives_shapes", [
    [(6, 8)],  # one array for two groups
    [(6, 8)] * 3,
    [(6, 8), (5, 8)],  # groups of unequal size
])
def test_queue_nll_needs_one_negatives_array_per_group(negatives_shapes):
    rng = np.random.default_rng(40)
    with pytest.raises(ShapeMismatch):
        queue_nll([T.Tensor(rng.normal(size=(2, 4, 8)))], rng.normal(size=(2, 4, 8)),
                  [rng.normal(size=shape) for shape in negatives_shapes], 0.2, 4)


@pytest.mark.parametrize("block_shapes", [[], [(2, 8), (2, 7)], [(8,), (2, 8)], [()], [(3, 8)]])
def test_queue_nll_blocks_must_fill_the_keys(block_shapes):
    rng = np.random.default_rng(43)
    with pytest.raises(ShapeMismatch):
        queue_nll([T.Tensor(rng.normal(size=shape)) for shape in block_shapes],
                  rng.normal(size=(2, 8)), [rng.normal(size=(6, 8))], 0.2, 2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_queue_nll_block_gradients_equal_concat_reshape_chain(dtype):
    # blocks of 1 and 2 rows, one of them given twice, against the same
    # stack made by `concat` and `reshape` nodes: values and each block's
    # gradient, accumulated over its uses, are bit for bit the chain's
    rng = np.random.default_rng(44)
    a, b, c = (T.parameter(unit_rows(rng.normal(size=(n, 8))).astype(dtype)) for n in (1, 2, 2))
    zk = unit_rows(rng.normal(size=(2, 3, 8))).astype(dtype)
    negatives = [unit_rows(rng.normal(size=(10, 8))).astype(dtype) for _ in range(2)]
    mine = np.array([[True, False, True], [False, True, True]])
    results = []
    for stacked in (lambda blocks: [T.reshape(T.concat(blocks, axis=0), zk.shape)],
                    lambda blocks: blocks):
        with T.Tape():
            total, rows, _ = queue_nll(stacked([a, b, a, c]), zk, negatives, 0.2, 3, mine, 2)
            grads = T.backward(T.mul(total, 1.7))
        results.append([total.data, rows, *(grads[p].data for p in (a, b, c))])
    for chain, blocks in zip(*results):
        assert chain.dtype == blocks.dtype and chain.tobytes() == blocks.tobytes()


def test_combined_loss_holds_at_most_two_logit_buffers():
    # one logit buffer is S * S*B * (1+Q) float32 values, which the node
    # never forms: it keeps the query gradient alive for the backward and
    # peaks below one buffer (one group's slab and its mined rows: 0.67,
    # and 1.00 while a stack of queue copies fed it); the whole-stack
    # kernel held 1.5 and peaked at 2.2, the chain of generic ops before it
    # held 4.7 and peaked at 6.8
    streams, batch, size, dim = ["joint", "bone", "motion"], 32, 1024, 32
    rng = np.random.default_rng(34)
    params = {s: T.parameter(rng.normal(size=(batch, dim)).astype(np.float32)) for s in streams}
    keys = {s: unit_rows(rng.normal(size=(batch, dim))).astype(np.float32) for s in streams}
    queues = {s: filled_queue(rng, size, dim, dtype=np.float32) for s in streams}
    cfg = RunConfig(streams=streams)
    unit_bytes = len(streams) ** 2 * batch * (1 + size) * 4
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with T.Tape():
            emb = {s: (T.l2_normalize(p), keys[s]) for s, p in params.items()}
            res = combine_losses(emb, queues, cfg, True, True, RngStream(5).split("step"))
            held = (tracemalloc.get_traced_memory()[0] - base) / unit_bytes
            grads = T.backward(res.total)
        peak = (tracemalloc.get_traced_memory()[1] - base) / unit_bytes
    finally:
        tracemalloc.stop()
    assert set(grads) == set(params.values())
    assert held <= 0.25, held
    assert peak <= 1.25, peak


def test_combined_loss_copies_no_queue():
    # at 3 streams, Q = 4096, D = 128 the (3, Q, D) float32 stack of queue
    # copies alone would be 6.3 MB: each group reads its queue's live rows in
    # place, so the step's peak stays below even one queue's 2.1 MB
    streams, batch, size, dim = ["joint", "bone", "motion"], 8, 4096, 128
    rng = np.random.default_rng(41)
    params = {s: T.parameter(rng.normal(size=(batch, dim)).astype(np.float32)) for s in streams}
    keys = {s: unit_rows(rng.normal(size=(batch, dim))).astype(np.float32) for s in streams}
    queues = {s: filled_queue(rng, size, dim, dtype=np.float32) for s in streams}
    cfg = RunConfig(streams=streams, queue_size=size, embed_dim=dim)
    queue_bytes = size * dim * 4
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with T.Tape():
            emb = {s: (T.l2_normalize(p), keys[s]) for s, p in params.items()}
            res = combine_losses(emb, queues, cfg, True, True, RngStream(9).split("step"))
            T.backward(res.total)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * queue_bytes, peak / queue_bytes


def whole_stack_chain(q, keys, negatives, tau, batch, mine, k):
    """`queue_nll` before it streamed its groups, in NumPy: the queries
    divided by tau, then one (G, B, 1+Q) logit buffer of their products,
    mined from its logits (similarities reported as logits times tau),
    its per-row losses reduced as `T.div(T.sum_(rows), batch)` and the
    query gradient that chain fed back (1 / batch per row, then / tau)."""
    q = q / tau
    logits = np.empty(q.shape[:-1] + (1 + negatives.shape[-2],), dtype=q.dtype)

    def fill():
        logits[..., 0] = (q * keys).sum(axis=-1)
        np.matmul(q, np.swapaxes(negatives, -1, -2), out=logits[..., 1:])

    fill()
    indices, values = nnm_mine(logits[..., 1:][mine], k)
    rows, grad = T._softmax_nll_rows(logits, lead=1, picks=(np.nonzero(mine), indices + 1),
                                     refill=fill)
    divisor = np.asarray(batch, dtype=q.dtype)
    total = rows.sum(axis=(0, 1)) / divisor
    dlogits = grad(np.broadcast_to(np.ones((), q.dtype) / divisor, rows.shape).copy() / tau)
    dq = dlogits[..., :1] * keys
    dq += dlogits[..., 1:] @ negatives
    return total, rows, (indices, values * tau), dq


@pytest.mark.parametrize("tau", [0.07, 0.3])
@pytest.mark.parametrize("k", [1, 2])
def test_combined_loss_bitwise_equals_whole_stack_chain(monkeypatch, k, tau):
    # three float32 streams with NNM and PFT on every pair, at an odd
    # batch, so the row weight 1/5 is not a power of two; at tau 0.3,
    # float32(1/5) / tau differs from float32(1 / (5 tau))
    seen = []
    original = contrast.queue_nll

    def spy(queries, zk, negatives, tau, divisor, mine=None, k=1):
        total, rows, neighbors = original(queries, zk, negatives, tau, divisor, mine, k)
        q = np.concatenate([t.data for t in queries]).reshape(zk.shape)
        seen.append((q, zk, np.stack(negatives), tau, divisor, mine, k, rows, neighbors))
        backward_fn = total.node.backward_fn

        def capture(g, needs):
            grads = backward_fn(g, needs)  # one per block: PFT makes every block its own
            seen.append(np.concatenate(grads).reshape(zk.shape))
            return grads

        total.node.backward_fn = capture
        return total, rows, neighbors

    monkeypatch.setattr(contrast, "queue_nll", spy)
    rng = np.random.default_rng(38)
    streams, batch, dim, size = ["joint", "bone", "motion"], 5, 8, 16
    params = {s: T.parameter(rng.normal(size=(batch, dim)).astype(np.float32)) for s in streams}
    keys = {s: unit_rows(rng.normal(size=(batch, dim))).astype(np.float32) for s in streams}
    queues = {s: filled_queue(rng, size, dim, dtype=np.float32) for s in streams}
    cfg = RunConfig(streams=streams, tau=tau, nnm_topk=k, pft_apply_to_inter=True)
    with T.Tape():
        emb = {s: (T.l2_normalize(p), keys[s]) for s, p in params.items()}
        res = combine_losses(emb, queues, cfg, True, True, RngStream(8).split("step"))
        T.backward(res.total)
    (q, zk, negatives, got_tau, divisor, mine, got_k, rows, neighbors), dq = seen
    assert (q.dtype, got_tau, divisor, got_k) == (np.float32, tau, batch, k)
    total, want_rows, want_neighbors, want_dq = whole_stack_chain(q, zk, negatives, tau, batch,
                                                                  mine, k)
    assert res.total.data.tobytes() == np.asarray(total).tobytes()
    assert rows.tobytes() == want_rows.tobytes()
    for got, want in zip(neighbors, want_neighbors):
        assert got.tobytes() == want.tobytes()
    assert dq.dtype == want_dq.dtype and dq.tobytes() == want_dq.tobytes()


@pytest.mark.parametrize("taped", [False, True])
def test_queue_nll_holds_only_its_query_gradient(taped):
    # after the forward the node holds the (G, B, D) query gradient (none
    # when it records onto no tape): no (G, B, 1+Q) logit buffer, no
    # negatives stack; its peak stays below the whole buffer
    groups, batch, dim, size = 3, 48, 16, 2048
    rng = np.random.default_rng(37)
    zq = T.parameter(unit_rows(rng.normal(size=(groups, batch, dim))).astype(np.float32))
    zk = unit_rows(rng.normal(size=(groups, batch, dim))).astype(np.float32)
    negatives = unit_rows(rng.normal(size=(groups, size, dim))).astype(np.float32)
    mine = np.arange(groups * batch).reshape(groups, batch) % groups == 0
    buffer_bytes = groups * batch * (1 + size) * 4
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with T.Tape() if taped else T.no_tape():
            total, rows, neighbors = queue_nll([zq], zk, negatives, 0.2, batch, mine)
            held = tracemalloc.get_traced_memory()[0] - base
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    held -= rows.nbytes + sum(a.nbytes for a in neighbors)
    assert (total.node is not None) == taped
    assert held <= (zq.data.nbytes if taped else 0) + 4096, held
    assert peak <= 0.75 * buffer_bytes, peak / buffer_bytes


def test_queue_nll_empty_queue_raises():
    rng = np.random.default_rng(39)
    with pytest.raises(EmptyQueue):
        queue_nll([T.parameter(unit_rows(rng.normal(size=(2, 4, 8))))],
                  unit_rows(rng.normal(size=(2, 4, 8))), np.empty((2, 0, 8)), 0.2, 4)


class TestInterLoss:
    def test_degenerate_reduction_to_intra(self):
        # with the other stream's keys and queue equal to the own ones,
        # the inter term is bit for bit the intra term
        rng = np.random.default_rng(31)
        zq = rng.normal(size=(3, 8))
        zq /= np.linalg.norm(zq, axis=1, keepdims=True)
        zk = rng.normal(size=(3, 8))
        zk /= np.linalg.norm(zk, axis=1, keepdims=True)
        fill = filled_queue(rng, 16, 8).contents()
        emb, queues = {}, {}
        for s in ("joint", "bone"):
            emb[s] = (T.Tensor(zq), zk.copy())
            queues[s] = MemoryQueue(16, 8, dtype=np.float64)
            queues[s].push(fill)
        res = combine_losses(emb, queues, RunConfig(streams=["joint", "bone"], tau=0.2),
                             False, False, RNG)
        assert res.breakdown["inter:joint->bone"] == res.breakdown["intra:joint"]

    @pytest.mark.parametrize("tau", [0.07, 0.2, 1.0])
    def test_matches_brute_force_two_streams(self, tau):
        rng = np.random.default_rng(int(tau * 1000) + 1)
        cfg = RunConfig(streams=["joint", "bone"], tau=tau)
        for _ in range(50):
            emb, queues = _stream_inputs(rng, ("joint", "bone"), 3, 8, int(rng.integers(1, 64)))
            res = combine_losses(emb, queues, cfg, False, False, RNG)
            zq_u, zk_v = emb["joint"][0].data, emb["bone"][1]
            want = np.mean([
                brute_force_queue_nll(zq_u[i], zk_v[i], queues["bone"].contents(), (), tau)
                for i in range(3)
            ])
            assert abs(res.breakdown["inter:joint->bone"] - want) < 1e-6


class TestNnm:
    def test_mine_highest_similarity(self):
        q = MemoryQueue(4, 2, dtype=np.float64)
        q.push(np.stack([unit([0.9, 0.1]), unit([0.0, 1.0])]))
        assert mine_one([1.0, 0.0], q, 1) == [0]

    def test_k_equals_filled_returns_all(self):
        rng = np.random.default_rng(7)
        q = filled_queue(rng, 5, 3)
        assert sorted(mine_one(unit(rng.normal(size=3)), q, 5)) == [0, 1, 2, 3, 4]

    def test_tie_prefers_lower_index(self):
        q = MemoryQueue(4, 2, dtype=np.float64)
        q.push(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert mine_one([1.0, 0.0], q, 1) == [0]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_stable_argsort_with_ties(self, seed):
        # few distinct similarity levels, so most rows tie across the k-th
        # boundary; the oracle is a stable full sort of each row
        rng = np.random.default_rng(seed)
        levels = np.array([-0.5, 0.0, 0.25, 0.5, 1.0])
        contents = levels[rng.integers(0, levels.size, size=(24, 1))] * np.eye(1, 3)
        zq = np.eye(1, 3) * rng.uniform(0.5, 1.0, size=(6, 1))
        sims = zq @ contents.T
        given = sims.copy()
        for k in range(1, contents.shape[0] + 1):
            mined, mined_sims = nnm_mine(given, k)
            oracle = stable_top_k(sims, k)
            np.testing.assert_array_equal(mined, oracle)
            np.testing.assert_array_equal(mined_sims, np.take_along_axis(sims, oracle, axis=1))
            np.testing.assert_array_equal(given, sims)  # the picks are restored

    def test_zero_k_named(self):
        with pytest.raises(ConfigValueError) as err:
            nnm_mine(np.zeros((2, 3)), 0)
        assert err.value.key == "nnm_topk"

    def test_queue_too_small(self):
        q = MemoryQueue(4, 2, dtype=np.float64)
        q.push(np.array([[1.0, 0.0]]))
        with pytest.raises(QueueTooSmall):
            mine_one([1.0, 0.0], q, 2)

    def test_empty_neighbors_bitwise_plain(self):
        rng = np.random.default_rng(13)
        q = filled_queue(rng, 32, 8)
        zq = unit(rng.normal(size=8))
        zk = unit(rng.normal(size=8))
        # a row that does not mine scores bit for bit as without mining
        assert single_nll(zq, zk, q, 0.07, mine=False) == single_nll(zq, zk, q, 0.07)

    def test_closed_form_one_neighbor(self):
        # pos sim 1, mined sim 1, one other negative at 0 -> -log(2e/(2e+1))
        q = MemoryQueue(4, 2, dtype=np.float64)
        q.push(np.array([[1.0, 0.0], [0.0, 1.0]]))
        loss = single_nll([1.0, 0.0], [1.0, 0.0], q, 1.0, mine=True, k=1)
        assert abs(loss - 0.1688476234983058) < 1e-9

    def test_mined_loss_never_larger(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            q = filled_queue(rng, 16, 6)
            zq = unit(rng.normal(size=6))
            zk = unit(rng.normal(size=6))
            with_nnm = single_nll(zq, zk, q, 0.1, mine=True, k=1)
            assert with_nnm <= single_nll(zq, zk, q, 0.1)

    @pytest.mark.parametrize("tau", [0.07, 0.2, 1.0])
    def test_matches_brute_force(self, tau):
        rng = np.random.default_rng(int(tau * 10_000) + 3)
        for _ in range(100):
            dim = 8
            filled = int(rng.integers(2, 64))
            q = filled_queue(rng, filled, dim)
            zq = unit(rng.normal(size=dim))
            zk = unit(rng.normal(size=dim))
            k = int(rng.integers(1, min(4, filled) + 1))
            mined = stable_top_k((q.contents() @ zq)[None, :], k)[0]
            assert mine_one(zq, q, k) == mined.tolist()
            got = single_nll(zq, zk, q, tau, mine=True, k=k)
            want = brute_force_queue_nll(zq, zk, q.contents(), mined, tau)
            assert abs(got - want) < 1e-6


# -- extrapolation ---------------------------------------------------------------------


class TestSampleLambda:
    def test_mu_zero_constant_one(self):
        # mu = 0 draws lambda = 1: every pair with s >= 0 is "transformed"
        # into itself, so the loss matches the untransformed one
        rng = np.random.default_rng(27)
        emb, queues = _stream_inputs(rng, ("joint",), 16, 8, 16)
        cfg = RunConfig(streams=["joint"], pft_mu=0.0)
        plain = combine_losses(emb, queues, cfg, False, False, RNG)
        same = combine_losses(emb, queues, cfg, False, True, RngStream(1).split("step"))
        zq, zk = emb["joint"]
        assert same.pft_applied_rate == float(((zq.data * zk).sum(axis=1) >= 0).mean())
        assert abs(same.total.item() - plain.total.item()) < 1e-9

    def test_beta22_mean_and_range(self):
        draws = RngStream(5).split("lam").generator().beta(2.0, 2.0, 100_000) + 1.0
        assert abs(draws.mean() - 1.5) < 0.01
        assert draws.min() >= 1.0 and draws.max() <= 2.0


class TestPftTransform:
    def test_lambda_one_identity(self):
        rng = np.random.default_rng(3)
        zq, zk = random_unit_pair(rng, 8, 0.6)
        zq_hat, zk_hat, applied = pft_batch(zq, zk, 1.0)
        assert applied.all()
        np.testing.assert_allclose(zq_hat[0], zq, atol=1e-12)
        np.testing.assert_allclose(zk_hat[0], zk, atol=1e-12)

    def test_guard_on_orthogonal_pair(self):
        # s = 0, lambda = 1.5 -> predicted similarity -1.5 < 0 -> keep originals
        zq, zk = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        zq_hat, zk_hat, applied = pft_batch(zq, zk, 1.5)
        assert not applied.any()
        np.testing.assert_array_equal(zq_hat[0], zq)
        np.testing.assert_array_equal(zk_hat[0], zk)

    def test_guard_on_negative_similarity(self):
        rng = np.random.default_rng(4)
        zq, zk = random_unit_pair(rng, 8, -0.3)
        _, _, applied = pft_batch(zq, zk, 1.01)
        assert not applied.any()

    def test_closed_form_matches_direct(self):
        # s=0.5, lambda=1.2 -> predicted 0.26 equals the raw extrapolated dot
        rng = np.random.default_rng(5)
        zq, zk = random_unit_pair(rng, 16, 0.5)
        lam = 1.2
        raw_q = lam * zq + (1 - lam) * zk
        raw_k = lam * zk + (1 - lam) * zq
        assert abs(predicted_similarity(0.5, lam) - 0.26) < 1e-12
        assert abs(raw_q @ raw_k - 0.26) < 1e-6

    def test_hardness_property(self):
        """Raw extrapolated similarity never exceeds the original (10^5 trials)."""
        rng = np.random.default_rng(6)
        s = rng.uniform(0.0, 1.0, 100_000)
        lam = rng.beta(2.0, 2.0, 100_000) + 1.0
        assert np.all(predicted_similarity(s, lam) <= s)

    def test_identity_against_direct_dot_random(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            s = rng.uniform(0.0, 0.999)
            lam = rng.beta(2.0, 2.0) + 1.0
            zq, zk = random_unit_pair(rng, 12, s)
            raw_q = lam * zq + (1 - lam) * zk
            raw_k = lam * zk + (1 - lam) * zq
            assert abs(raw_q @ raw_k - predicted_similarity(s, lam)) < 1e-6

    def test_sign_preserved_by_renormalization(self):
        rng = np.random.default_rng(8)
        pairs = []
        for _ in range(200):
            s = rng.uniform(0.0, 0.999)
            lam = rng.uniform(1.0, 2.0)
            pairs.append((*random_unit_pair(rng, 10, s), lam))
        zq, zk, lam = (np.array(column) for column in zip(*pairs))
        zq_hat, zk_hat, applied = pft_batch(zq, zk, lam)
        lam = lam[:, None]
        raw = ((lam * zq + (1 - lam) * zk) * (lam * zk + (1 - lam) * zq)).sum(axis=1)
        renormalized = (zq_hat * zk_hat).sum(axis=1)
        ok = (np.sign(renormalized) == np.sign(raw)) | (np.abs(raw) < 1e-12)
        assert ok[applied].all()

    def test_gradient_flows_through_query_side(self):
        rng = np.random.default_rng(9)
        zq_arr, zk = random_unit_pair(rng, 6, 0.7)
        p = T.parameter(zq_arr[None, :].astype(np.float64))
        weights = rng.normal(size=6)

        def f():
            zq_hat, _, _ = pft_transform(T.l2_normalize(p), zk[None, :], np.array([1.3]))
            return T.sum_(T.mul(zq_hat, weights))

        res = T.grad_check(f, {"p": p})
        assert res.max_rel_error < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_node_equals_generic_chain(self, dtype):
        # the one node against the mul, add, l2_normalize and where chain it
        # replaced, over pairs both applied and kept: the rows bit for bit,
        # the query gradient within 1e-12 at float64, and a kept row's
        # gradient is its output gradient unchanged
        rng = np.random.default_rng(12)
        pairs = [random_unit_pair(rng, 8, s) for s in rng.uniform(-0.5, 1.0, 64)]
        zq, zk = (np.array(column, dtype=dtype) for column in zip(*pairs))
        lam = (rng.beta(2.0, 2.0, 64) + 1.0).astype(dtype)
        weights = rng.normal(size=(64, 8)).astype(dtype)
        out = []
        for transform in (pft_transform, pft_chain):
            p = T.parameter(zq.copy())
            with T.Tape() as tape:
                z, _, applied = transform(p, zk, lam)
                nodes = len(tape.nodes)
                grad = T.backward(T.sum_(T.mul(z, weights)))[p].data
            out.append((z.data, grad, nodes))
        (z, grad, nodes), (z_chain, grad_chain, nodes_chain) = out
        assert 0 < applied.sum() < len(applied)
        assert (nodes, nodes_chain) == (1, 7)
        assert z.dtype == dtype and z.tobytes() == z_chain.tobytes()
        assert grad[~applied].tobytes() == weights[~applied].tobytes()
        if dtype == np.float64:
            np.testing.assert_allclose(grad, grad_chain, rtol=0, atol=1e-12)

    def test_non_finite_mix_gets_the_row_norm_check(self):
        zq = T.parameter(np.array([[np.inf, 0.0], [1.0, 0.0]]))
        with T.Tape() as tape, pytest.raises(NonFiniteValue) as err:
            pft_transform(zq, np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.5, 1.5]))
        assert err.value.op == "l2_normalize" and not tape.nodes


def pft_chain(zq, zk, lam):
    """`pft_transform`'s query side as the chain of generic ops its node
    replaced; returns (zq_eff, None, applied)."""
    zk, lam = np.asarray(zk, dtype=zq.dtype), np.asarray(lam).astype(zq.dtype)
    s = (zq.data * zk).sum(axis=1)
    applied = (s >= 0.0) & (predicted_similarity(s, lam) >= 0.0)
    lam_col = lam[:, None]
    mixed = T.add(T.mul(zq, lam_col), T.Tensor((1.0 - lam_col) * zk))
    return T.where(applied[:, None], T.l2_normalize(mixed), zq), None, applied


def _extrapolated_similarities(rng, n, low):
    """Draw n pairs with s in [low, 0.999) and Beta(2,2)+1 weights."""
    pairs = []
    for _ in range(n):
        s = rng.uniform(low, 0.999)
        lam = rng.beta(2.0, 2.0) + 1.0
        pairs.append((s, *random_unit_pair(rng, 16, s), lam))
    before, zq, zk, lam = (np.array(column) for column in zip(*pairs))
    zq_hat, zk_hat, applied = pft_batch(zq, zk, lam)
    return before, np.where(applied, (zq_hat * zk_hat).sum(axis=1), before)


class TestSimilarityHistogram:
    def test_no_pairs_named(self):
        with pytest.raises(InvalidArgument, match="at least one pair"):
            similarity_histogram([], [])

    def test_identical_pairs_single_bin(self):
        sims = np.ones(50)
        table = similarity_histogram(sims, sims, bins=20)
        assert table.before_counts[-1] == 50
        assert table.after_counts[-1] == 50
        assert table.before_counts[:-1].sum() == 0

    def test_variance_grows_after_transform(self):
        # positives of a trained encoder concentrate well above 0; the
        # extrapolation spreads them downward, growing the variance
        before, after = _extrapolated_similarities(np.random.default_rng(10), 1000, 0.5)
        table = similarity_histogram(before, after)
        assert table.after_stats["var"] >= table.before_stats["var"]
        assert table.after_stats["min"] >= 0.0

    def test_guard_floor_any_similarity(self):
        # regardless of the input regime, no after-transform mass below 0
        _, after = _extrapolated_similarities(np.random.default_rng(11), 500, 0.0)
        assert after.min() >= 0.0


# -- combined loss ----------------------------------------------------------------------

RNG = RngStream(0).split("combine")


def _stream_inputs(rng, streams, batch, dim, queue_size):
    embeddings, queues = {}, {}
    for s in streams:
        zq = rng.normal(size=(batch, dim))
        zq /= np.linalg.norm(zq, axis=1, keepdims=True)
        zk = rng.normal(size=(batch, dim))
        zk /= np.linalg.norm(zk, axis=1, keepdims=True)
        embeddings[s] = (T.Tensor(zq), zk)
        queues[s] = filled_queue(rng, queue_size, dim)
    return embeddings, queues


class TestCombineLosses:
    def test_single_stream_term_count(self):
        rng = np.random.default_rng(20)
        emb, queues = _stream_inputs(rng, ("joint",), 4, 8, 16)
        res = combine_losses(emb, queues, RunConfig(streams=["joint"]), False, False, RNG)
        assert list(res.breakdown) == ["intra:joint"]

    def test_term_structure_two_and_three_streams(self):
        rng = np.random.default_rng(21)
        for streams, n_intra, n_inter in [(["joint", "bone"], 2, 2),
                                          (["joint", "bone", "motion"], 3, 6)]:
            emb, queues = _stream_inputs(rng, streams, 4, 8, 16)
            res = combine_losses(emb, queues, RunConfig(streams=streams), False, False, RNG)
            intra = [k for k in res.breakdown if k.startswith("intra:")]
            inter = [k for k in res.breakdown if k.startswith("inter:")]
            assert len(intra) == n_intra and len(inter) == n_inter
            assert abs(res.total.item() - sum(res.breakdown.values())) < 1e-9

    def test_symmetric_construction_ln2_per_term(self):
        streams = ["joint", "bone", "motion"]
        e1 = np.zeros(8)
        e1[0] = 1.0
        emb, queues = {}, {}
        for s in streams:
            z = np.tile(e1, (2, 1))
            emb[s] = (T.Tensor(z), z.copy())
            q = MemoryQueue(4, 8, dtype=np.float64)
            q.push(e1[None, :])
            queues[s] = q
        cfg = RunConfig(streams=streams, tau=1.0)
        res = combine_losses(emb, queues, cfg, False, False, RNG)
        assert abs(res.total.item() - 9 * math.log(2)) < 1e-9

    def test_batch_equals_mean_of_singles(self):
        rng = np.random.default_rng(22)
        emb, queues = _stream_inputs(rng, ("joint", "bone"), 6, 8, 24)
        cfg = RunConfig(streams=["joint", "bone"], tau=0.2)
        res = combine_losses(emb, queues, cfg, False, False, RNG)
        for u in ("joint", "bone"):
            zq, zk = emb[u]
            singles = [single_nll(zq.data[i], zk[i], queues[u], 0.2) for i in range(6)]
            assert abs(res.breakdown[f"intra:{u}"] - np.mean(singles)) < 1e-9

    def test_nnm_changes_intra_only(self):
        rng = np.random.default_rng(23)
        emb, queues = _stream_inputs(rng, ("joint", "bone"), 4, 8, 16)
        cfg = RunConfig(streams=["joint", "bone"], nnm_topk=1)
        plain = combine_losses(emb, queues, cfg, False, False, RNG)
        mined = combine_losses(emb, queues, cfg, True, False, RNG)
        for key in plain.breakdown:
            if key.startswith("inter:"):
                assert plain.breakdown[key] == mined.breakdown[key]
            else:
                assert mined.breakdown[key] <= plain.breakdown[key]
        assert mined.nnm_mean_similarity is not None

    def test_pft_reports_applied_rate(self):
        rng = np.random.default_rng(24)
        emb, queues = _stream_inputs(rng, ("joint",), 8, 8, 16)
        cfg = RunConfig(streams=["joint"])
        res = combine_losses(emb, queues, cfg, False, True, RngStream(1).split("step"))
        assert res.pft_applied_rate is not None
        assert 0.0 <= res.pft_applied_rate <= 1.0

    def test_no_gradient_reaches_keys_or_queue(self):
        rng = np.random.default_rng(25)
        p = T.parameter(rng.normal(size=(4, 8)))
        zk = rng.normal(size=(4, 8))
        zk /= np.linalg.norm(zk, axis=1, keepdims=True)
        q = filled_queue(rng, 16, 8, dtype=np.float32)
        cfg = RunConfig(streams=["joint"])
        with T.Tape():
            emb = {"joint": (T.l2_normalize(p), zk)}
            res = combine_losses(emb, {"joint": q}, cfg, True, True, RNG)
            grads = T.backward(res.total)
        assert set(grads.keys()) == {p}

    def test_empty_queue_raises(self):
        rng = np.random.default_rng(26)
        emb, _ = _stream_inputs(rng, ("joint",), 4, 8, 16)
        with pytest.raises(EmptyQueue):
            combine_losses(emb, {"joint": MemoryQueue(8, 8)}, RunConfig(streams=["joint"]),
                           False, False, RNG)

    def test_queues_of_unequal_length_raise(self):
        rng = np.random.default_rng(27)
        emb, queues = _stream_inputs(rng, ("joint", "bone"), 4, 8, 16)
        queues["bone"] = filled_queue(rng, 12, 8)
        with pytest.raises(ShapeMismatch, match=r"\[16, 12\] entries"):
            combine_losses(emb, queues, RunConfig(streams=["joint", "bone"]), False, False, RNG)

    @pytest.mark.parametrize("streams", [["joint"], ["joint", "bone"], ["joint", "bone", "motion"]])
    @pytest.mark.parametrize("nnm,pft,pft_inter", [(False, False, False), (True, False, False),
                                                   (False, True, False), (True, True, False),
                                                   (True, True, True)])
    def test_one_queue_nll_and_softmax_call(self, monkeypatch, streams, nnm, pft, pft_inter):
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(contrast, "queue_nll")
        counted(T, "masked_softmax_nll_rows")
        rng = np.random.default_rng(28)
        emb, queues = _stream_inputs(rng, streams, 4, 8, 16)
        cfg = RunConfig(streams=streams, pft_apply_to_inter=pft_inter)
        res = combine_losses(emb, queues, cfg, nnm, pft, RngStream(2).split("step"))
        assert calls == ["queue_nll"]  # queue_nll no longer goes through masked_softmax_nll_rows
        assert len(res.breakdown) == len(streams) ** 2

    @pytest.mark.parametrize("pft", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 16])
    def test_kernel_mines_stable_top_k_of_every_intra_row(self, monkeypatch, pft, k):
        # each queue repeats three unit vectors, so similarities tie
        # exactly; every intra row must mine the stable top-k of its
        # (extrapolated) query against its own stream's queue
        seen = []
        original = contrast.queue_nll

        def spy(queries, zk, negatives, tau, divisor, mine=None, k=1):
            out = original(queries, zk, negatives, tau, divisor, mine, k)
            q = np.concatenate([t.data for t in queries]).reshape(zk.shape)
            seen.append((q, negatives, mine, out[2]))
            return out

        monkeypatch.setattr(contrast, "queue_nll", spy)
        rng = np.random.default_rng(36)
        streams, batch, size, dim = ["joint", "bone", "motion"], 4, 16, 3
        emb, queues = _stream_inputs(rng, streams, batch, dim, size)
        for s in streams:
            base = unit_rows(rng.normal(size=(3, dim)))
            queues[s] = MemoryQueue(size, dim, dtype=np.float64)
            # a wrapped ring (head 5), whose slot order is not its age order
            queues[s].push(base[rng.integers(0, len(base), size=size)])
            queues[s].push(base[rng.integers(0, len(base), size=5)])
        cfg = RunConfig(streams=streams, queue_size=size, nnm_topk=k)
        res = combine_losses(emb, queues, cfg, True, pft, RngStream(6).split("step"))
        [(queries, negatives, mine, (indices, sims))] = seen
        np.testing.assert_array_equal(mine, np.repeat(np.eye(3, dtype=bool), batch, axis=1))
        for g, s in enumerate(streams):  # each queue's slots, read in place
            assert negatives[g].base is queues[s].slots and negatives[g].shape == (size, dim)
        for g in range(len(streams)):
            own = queries[g, g * batch : (g + 1) * batch] @ negatives[g].T
            oracle = stable_top_k(own, k)
            assert np.all((own[:, :, None] == own[:, None, :]).sum(axis=(1, 2)) > size)  # ties
            np.testing.assert_array_equal(indices[g * batch : (g + 1) * batch], oracle)
            np.testing.assert_allclose(sims[g * batch : (g + 1) * batch],
                                       np.take_along_axis(own, oracle, axis=1), rtol=1e-12)
        assert abs(res.nnm_mean_similarity - sims.mean()) < 1e-12

    @pytest.mark.parametrize("pft_inter", [False, True])
    def test_matches_per_term_reference(self, pft_inter):
        # the reference scores each directed term with its own 2-D call,
        # drawing the extrapolation weights under the same labels
        rng = np.random.default_rng(29)
        streams = ["joint", "bone", "motion"]
        emb, queues = _stream_inputs(rng, streams, 5, 8, 16)
        cfg = RunConfig(streams=streams, tau=0.2, nnm_topk=2, pft_apply_to_inter=pft_inter)
        step = RngStream(4).split("step")
        res = combine_losses(emb, queues, cfg, True, True, step)
        want, applied, mined_sims = {}, [], []
        for u in streams:
            for v in streams:
                zq, zk = emb[u][0], emb[v][1]
                if u == v or pft_inter:
                    label = f"lambda.{u}" if u == v else f"lambda.{u}->{v}"
                    gen = step.split(label).generator()
                    lam = gen.beta(cfg.pft_alpha, cfg.pft_alpha, size=5) * cfg.pft_mu + 1.0
                    zq, zk, flags = pft_transform(zq, zk, lam)
                    applied.append(flags)
                mine = np.ones(5, dtype=bool) if u == v else None
                _, losses, neighbors = queue_nll([zq], zk, [queues[v].contents()], 0.2, 5, mine, 2)
                if u == v:
                    mined_sims.append(neighbors[1])
                name = f"intra:{u}" if u == v else f"inter:{u}->{v}"
                want[name] = float(losses.mean())
        assert list(res.breakdown) == sorted(want, key=lambda k: not k.startswith("intra"))
        for name, value in want.items():
            assert abs(res.breakdown[name] - value) < 1e-12, name
        assert abs(res.total.item() - sum(want.values())) < 1e-12
        assert res.pft_applied_rate == float(np.concatenate(applied).mean())
        assert abs(res.nnm_mean_similarity - np.concatenate(mined_sims).mean()) < 1e-12
